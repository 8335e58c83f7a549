"""Exception types shared across the package."""


class SceneKinError(Exception):
    """Base class for all package errors."""


class ValidationError(SceneKinError):
    """An in-memory value outside its domain: bad shapes, non-unit axes,
    non-orthonormal rotations. A value read intact from a file but unfit
    for its use (a model width, a label index past its cloud) is one too."""


class SceneGenerationError(SceneKinError):
    """Procedural generation could not place the requested objects."""


class PreconditionError(SceneKinError):
    """An operation was called outside its stated preconditions."""


class CaptureError(SceneKinError):
    """No valid camera placement was found for an observation."""


class NoMotionError(SceneKinError):
    """Before/after clouds show no change above the detection threshold."""


class MotionEstimationError(SceneKinError):
    """Rigid motion could not be estimated (empty masks, too few correspondences)."""


class DegenerateMotionError(SceneKinError):
    """Transform is too close to identity to classify as a joint motion."""


class InferenceError(SceneKinError):
    """Articulation inference failed; message names the failing stage."""


class RefinementUnavailable(SceneKinError):
    """No reachable point on the mobile part; refinement cannot proceed."""


class TrainingError(SceneKinError):
    """Training aborted (non-finite loss, empty dataset)."""


class ConfigError(SceneKinError):
    """Configuration document is invalid (unknown key, bad type or value)."""


class ArtifactError(SceneKinError):
    """A fault of an artifact file: missing, not JSON, not a JSON object,
    of another version, or malformed (a missing key, a value of the wrong
    type); or artifacts that disagree, such as a run and its scenes. See
    `artifacts.read_doc` for the messages."""
