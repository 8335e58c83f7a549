"""Joint inference from before/after observations of one interaction.

The pipeline is explicit geometry end to end: change detection against the
other cloud's local surface splits each cloud into static and moved points, a
contact-centered Gaussian heatmap, computed in `detect_change` from the
inference settings, selects the moved component the interaction actually
touched, rigid alignment (identity-matched correspondences or ICP)
recovers the motion of the mobile part, and a screw decomposition of that
motion yields the joint model: a translation axis with a slide distance, or a
rotation axis with a pivot and an opening angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import (
    DegenerateMotionError,
    InferenceError,
    MotionEstimationError,
    NoMotionError,
    ValidationError,
)
from .geom import (
    PointCloud,
    RigidTransform,
    as_vec3,
    normalize,
    query_within,
    rotation_from_angle_axis,
    rotation_to_angle_axis,
)

PRISMATIC = "prismatic"
REVOLUTE = "revolute"

# neighbours per normal of an observation cloud
_NORMAL_K = 10
FIT_EPSILON = 0.01        # residual below which the motion explains a point
AMBIGUITY_RADIUS = 0.15   # max seed distance when labeling revealed points
ATTACH_RADIUS = 0.06      # max distance from the detected changed component
CLOSE_SLAB_MARGIN = 0.015    # box-closure margin along the panel
CLOSE_NORMAL_MARGIN = 0.005  # box-closure margin across the panel
THETA_MIN = math.radians(2.0)  # smallest rotation read as a hinge
ICP_MAX_ITER = 50
ICP_TOL = 1e-6            # RMS change below which ICP has converged


@dataclass(frozen=True)
class JointModel:
    """Estimated joint: prismatic {axis, state} or revolute {axis, pivot, state}.

    The revolute pivot is canonicalized to the axis point closest to the
    frame origin; `pitch` records the translational screw residual along the
    axis (diagnostic only, zero for an ideal hinge).
    """

    kind: str
    axis: np.ndarray
    pivot: np.ndarray | None
    state: float
    pitch: float = 0.0

    def __post_init__(self):
        if self.kind not in (PRISMATIC, REVOLUTE):
            raise ValidationError(f"unknown joint kind {self.kind!r}")
        object.__setattr__(self, "axis", normalize(self.axis))
        if self.kind == REVOLUTE:
            if self.pivot is None:
                raise ValidationError("revolute joint requires a pivot")
            if not (-math.pi < self.state <= math.pi + 1e-12):
                raise ValidationError("revolute state must lie in (-pi, pi]")
            q = as_vec3(self.pivot)
            q = q - np.dot(q, self.axis) * self.axis
            object.__setattr__(self, "pivot", q)
        elif self.pivot is not None:
            raise ValidationError("prismatic joint carries no pivot")

    def motion(self) -> RigidTransform:
        """Rigid motion of the estimate: the slide by `state` along the axis,
        or the rotation by `state` about the axis line plus the `pitch`
        slide along it."""
        if self.kind == PRISMATIC:
            return RigidTransform.from_translation(self.state * self.axis)
        T = RigidTransform.from_rotation_about_line(self.axis, self.state,
                                                    self.pivot)
        return RigidTransform(T.rotation,
                              T.translation + self.pitch * self.axis)


@dataclass(frozen=True)
class PartSegmentation:
    """Mobile-part masks aligned with the before and after clouds."""

    mobile_mask_before: np.ndarray
    mobile_mask_after: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mobile_mask_before",
                           np.asarray(self.mobile_mask_before, dtype=bool))
        object.__setattr__(self, "mobile_mask_after",
                           np.asarray(self.mobile_mask_after, dtype=bool))


@dataclass(frozen=True)
class ObservationPair:
    """Egocentric clouds around one interaction and its contact points.

    The pair holds only what was captured: `detect_change` derives the
    contact heat from the contacts and the inference settings.
    `capture_poses` optionally records the camera poses so follow-up
    captures can reuse them.
    """

    before: PointCloud
    after: PointCloud
    contact_before: np.ndarray
    contact_after: np.ndarray
    capture_poses: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "contact_before", as_vec3(self.contact_before))
        object.__setattr__(self, "contact_after", as_vec3(self.contact_after))


def contact_heatmap(cloud: PointCloud, contact, sigma: float) -> np.ndarray:
    """exp(-||p - contact||^2 / (2 sigma^2)) per point."""
    c = as_vec3(contact)
    d2 = np.sum((cloud.positions - c) ** 2, axis=1)
    return np.exp(-d2 / (2.0 * sigma * sigma))


@dataclass(frozen=True)
class InferenceConfig:
    """Parameters of the change-detect / align / decompose chain."""

    epsilon: float = 0.01          # displacement above which a point counts as moved
    fit_far_cap: float = 0.05      # max sample distance for the plane-residual test
    component_radius: float = 0.04  # neighbor-graph link radius (2 x capture voxel)
    use_contact_heat: bool = True  # False: largest component instead of heat mass
    mode: str = "icp"              # correspondence source: "oracle" or "icp"
    motion_epsilon: float = 1e-3
    anchor_weight: float = 0.25    # contact-pair share of the alignment weight
    heat_sigma: float = 0.05

    def __post_init__(self):
        if self.heat_sigma <= 0:
            raise ValidationError("heat sigma must be > 0")
        if self.mode not in ("icp", "oracle"):
            raise ValidationError(f"unknown inference mode {self.mode!r}")


def _connected_components(points: np.ndarray, radius: float) -> np.ndarray:
    """Component label per point for the radius neighbor graph.

    Labels count up in order of each component's lowest point index.
    """
    n = len(points)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _select_component(positions: np.ndarray, candidates: np.ndarray,
                      weights: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the candidate component with the largest sum of `weights`.

    An exact tie goes to the component holding the lowest point index.
    """
    idx = np.flatnonzero(candidates)
    labels = _connected_components(positions[idx], radius)
    best_label, best_score = None, -np.inf
    for lab in np.unique(labels):
        members = idx[labels == lab]
        score = float(weights[members].sum())
        if score > best_score + 1e-15:
            best_label, best_score = lab, score
    mask = np.zeros(len(positions), dtype=bool)
    mask[idx[labels == best_label]] = True
    return mask


def change_candidates(obs: ObservationPair, config: InferenceConfig
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Moved-point candidate masks.

    A point is a moved candidate when the other cloud shows no surface at its
    position: no sample within `config.epsilon`, and no coplanar sample
    (local-plane residual above epsilon) within `config.fit_far_cap`. The
    plane term makes the test robust to the two captures sampling the same
    surface on different pixel grids; shrinking epsilon never shrinks the
    candidate set.
    """
    if len(obs.before) == 0 or len(obs.after) == 0:
        raise ValidationError("both clouds must be non-empty")
    eps, far_cap = config.epsilon, config.fit_far_cap
    still_b = _explained_by(obs.before.positions, obs.after, eps, far_cap)
    still_a = _explained_by(obs.after.positions, obs.before, eps, far_cap)
    return ~still_b, ~still_a


def detect_change(obs: ObservationPair,
                  candidates: tuple[np.ndarray, np.ndarray],
                  config: InferenceConfig) -> PartSegmentation:
    """Split both clouds into static and moved points.

    `candidates` are the `change_candidates` masks of `obs`. They are
    grouped into connected components (link radius
    `config.component_radius`) and the component with the largest contact
    heat mass is kept: each point weighs `contact_heatmap` of its cloud's
    contact at `config.heat_sigma`, or 1 when `config.use_contact_heat` is
    off, which keeps the largest component. Raises NoMotionError when either
    cloud has no candidates.
    """
    cand_b, cand_a = candidates
    if not cand_b.any() or not cand_a.any():
        raise NoMotionError("no points moved beyond epsilon")
    masks = []
    for cloud, contact, cand in ((obs.before, obs.contact_before, cand_b),
                                 (obs.after, obs.contact_after, cand_a)):
        weights = (contact_heatmap(cloud, contact, config.heat_sigma)
                   if config.use_contact_heat else np.ones(len(cloud)))
        masks.append(_select_component(cloud.positions, cand, weights,
                                       config.component_radius))
    return PartSegmentation(*masks)


def kabsch(src: np.ndarray, dst: np.ndarray,
           weights: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform mapping src onto dst under the pair
    weights `weights` (cross-covariance SVD)."""
    if len(src) < 3 or len(src) != len(dst):
        raise MotionEstimationError(
            f"need >= 3 paired points, got {len(src)}/{len(dst)}")
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    cs = w @ src
    cd = w @ dst
    H = (src - cs).T @ ((dst - cd) * w[:, None])
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    return RigidTransform(R, cd - R @ cs)


def _icp_init(src: np.ndarray, dst: np.ndarray, contact_before: np.ndarray,
              contact_after: np.ndarray) -> RigidTransform:
    """Initial guess: minimal rotation aligning the slab normals, then match
    the contact points. Assumes the opening stays below a half turn."""
    if len(src) < 8 or len(dst) < 8:
        return RigidTransform.from_translation(contact_after - contact_before)
    n_s = _fit_slab(src)[1][:, 0]
    n_d = _fit_slab(dst)[1][:, 0]
    if float(np.dot(n_s, n_d)) < 0.0:
        n_d = -n_d
    axis = np.cross(n_s, n_d)
    nn = float(np.linalg.norm(axis))
    if nn < 1e-9:
        R = np.eye(3)
    else:
        angle = math.atan2(nn, float(np.dot(n_s, n_d)))
        R = rotation_from_angle_axis(axis / nn, angle)
    return RigidTransform(R, contact_after - R @ contact_before)


def estimate_motion(obs: ObservationPair, seg: PartSegmentation,
                    config: InferenceConfig) -> RigidTransform:
    """Rigid motion carrying the mobile part of the before cloud onto the after cloud.

    `config.mode` "oracle" matches points by their stable ids and solves the
    alignment in closed form; "icp" starts from the contact translation and
    iterates point-to-point ICP on the mobile subsets, dropping
    correspondence pairs beyond 3x the median distance each iteration. It
    stops once the RMS of the kept pairs changes by less than `ICP_TOL`, or
    after `ICP_MAX_ITER` iterations, and returns the last iterate. The kept
    set changes between iterations, so a growing RMS is no sign of a failed
    fit.
    """
    mb, ma = seg.mobile_mask_before, seg.mobile_mask_after
    if not mb.any() or not ma.any():
        raise MotionEstimationError("mobile masks are empty")
    src = obs.before.positions[mb]
    dst = obs.after.positions[ma]

    if config.mode == "oracle":
        if obs.before.point_ids is None or obs.after.point_ids is None:
            raise MotionEstimationError("oracle mode requires point ids")
        ids_b = obs.before.point_ids[mb]
        ids_a = obs.after.point_ids[ma]
        common, bi, ai = np.intersect1d(ids_b, ids_a, return_indices=True)
        if len(common) < 3:
            raise MotionEstimationError(
                f"only {len(common)} id correspondences (need >= 3)")
        return kabsch(src[bi], dst[ai], np.ones(len(common)))

    T = _icp_init(src, dst, obs.contact_before, obs.contact_after)
    tree = cKDTree(dst)
    prev_rms = np.inf
    for _ in range(ICP_MAX_ITER):
        moved = T.apply(src)
        dists, nn = tree.query(moved)
        med = float(np.median(dists))
        keep = dists <= max(3.0 * med, 1e-9)
        if keep.sum() < 3:
            raise MotionEstimationError("ICP lost all correspondences")
        # the recorded contact pair rides along as a weighted correspondence:
        # the pseudo-link guarantees the grasp point moved with the part,
        # which pins the in-plane translation that slab faces leave free
        n_kept = int(keep.sum())
        if config.anchor_weight > 0.0:
            p_src = np.vstack([src[keep], obs.contact_before[None, :]])
            p_dst = np.vstack([dst[nn[keep]], obs.contact_after[None, :]])
            w = np.ones(n_kept + 1)
            w[-1] = max(1.0, config.anchor_weight * n_kept)
        else:
            p_src, p_dst = src[keep], dst[nn[keep]]
            w = np.ones(n_kept)
        T = kabsch(p_src, p_dst, weights=w)
        resid = np.linalg.norm(T.apply(src[keep]) - dst[nn[keep]], axis=1)
        rms = float(np.sqrt(np.mean(resid ** 2)))
        if abs(prev_rms - rms) < ICP_TOL:
            break
        prev_rms = rms
    return T


def screw_decompose(T: RigidTransform, config: InferenceConfig) -> JointModel:
    """Factor a rigid transform into a joint model.

    Rotation angle >= `THETA_MIN` yields a revolute joint: the pivot is the
    minimal-norm solution of (I - R) q = t - (u . t) u, i.e. the axis point
    closest to the origin, and the axis translation component is kept as the
    pitch diagnostic. Otherwise the transform is treated as a pure slide,
    which must translate by at least `config.motion_epsilon`.
    """
    axis, theta = rotation_to_angle_axis(T.rotation)
    t = T.translation
    if theta >= THETA_MIN:
        pitch = float(np.dot(axis, t))
        t_perp = t - pitch * axis
        A = np.eye(3) - T.rotation
        q, *_ = np.linalg.lstsq(A, t_perp, rcond=1e-9)
        return JointModel(REVOLUTE, axis, q, theta, pitch=pitch)
    norm_t = float(np.linalg.norm(t))
    if norm_t < config.motion_epsilon:
        raise DegenerateMotionError(
            f"rotation {math.degrees(theta):.3f} deg and translation "
            f"{norm_t:.4f} m are both below thresholds")
    return JointModel(PRISMATIC, t / norm_t, None, norm_t)


def _competitive_labels(positions: np.ndarray, moved: np.ndarray,
                        explained: np.ndarray, normals=None,
                        in_plane_tol: float = 0.0) -> np.ndarray:
    """Final mobile mask for one cloud.

    Confident mobile points moved and are explained by the motion; confident
    static points did not move. Points that moved but have no rigid preimage
    or image (surfaces the motion newly revealed: the back of a drawer front,
    the carcase face behind a door) take the label of the nearer confident
    set, and stay static when no seed lies within `AMBIGUITY_RADIUS`.

    With `in_plane_tol` > 0 an ambiguous point is adopted only when it is
    coplanar with its nearest mobile seed (offset along the seed normal below
    the tolerance), which confines growth to sampling gaps in the seed
    surface and keeps out parallel surfaces one step behind it.
    `normals(rows)` gives the (normals, valid) of those seeds.
    """
    mobile_seeds = moved & explained
    static_seeds = ~moved
    ambiguous = moved & ~explained
    mask = mobile_seeds.copy()
    if not ambiguous.any() or not mobile_seeds.any():
        return mask
    amb_pts = positions[ambiguous]
    seed_idx = np.flatnonzero(mobile_seeds)
    d_mob, nn = query_within(cKDTree(positions[mobile_seeds]), amb_pts,
                             AMBIGUITY_RADIUS)
    if static_seeds.any():
        d_sta, _ = query_within(cKDTree(positions[static_seeds]), amb_pts,
                                AMBIGUITY_RADIUS)
    else:
        d_sta = np.full(len(amb_pts), np.inf)
    take = (d_mob < d_sta) & (d_mob <= AMBIGUITY_RADIUS)
    if in_plane_tol > 0.0 and normals is not None:
        seeds = seed_idx[nn[take]]
        seed_normals, seed_valid = normals(seeds)
        offset = amb_pts[take] - positions[seeds]
        along = np.abs(np.einsum("ni,ni->n", offset, seed_normals))
        take[take] = (along <= in_plane_tol) & seed_valid
    idx = np.flatnonzero(ambiguous)
    mask[idx[take]] = True
    return mask


def _explained_by(points: np.ndarray, target: PointCloud, fit_epsilon: float,
                  far_cap: float) -> np.ndarray:
    """Points consistent with the target surface.

    Distance to the nearest target sample must stay under `far_cap`, and the
    residual against that sample's local plane under `fit_epsilon`. The plane
    term makes the test robust to sparse grazing-angle sampling; the cap keeps
    far-away points from matching an extended plane. Samples without a valid
    normal fall back to the point distance. Normals are estimated only at
    the samples the plane test reads.
    """
    d, idx = query_within(target.tree, points, max(far_cap, fit_epsilon))
    explained = d <= fit_epsilon
    near = ~explained & (d <= far_cap)
    idx = idx[near]
    normals, valid = target.normals(_NORMAL_K, idx)
    offset = points[near] - target.positions[idx]
    plane = np.abs(np.einsum("ni,ni->n", offset, normals))
    explained[near] = (plane <= fit_epsilon) & valid
    return explained


def _consistency_reseg(obs: ObservationPair, T: RigidTransform,
                       anchor: PartSegmentation,
                       moved: tuple[np.ndarray, np.ndarray],
                       config: InferenceConfig) -> PartSegmentation:
    """Re-segment both clouds by consistency with the estimated motion.

    A point is mobile when it moved (`moved`: the `change_candidates`
    masks), is explained by T (or resolves to the mobile side
    competitively, for revealed surfaces without a rigid preimage), and lies
    near the changed component selected by detect_change. The last
    condition drops occlusion shadows on far surfaces parallel to the
    motion, which T cannot reject on its own.
    """
    moved_b, moved_a = moved

    def explained(points, target, moved):
        # `_competitive_labels` reads the fit only where a point moved
        fit = np.zeros(len(points), dtype=bool)
        fit[moved] = _explained_by(points[moved], target, FIT_EPSILON,
                                   config.fit_far_cap)
        return fit

    fit_b = explained(T.apply(obs.before.positions), obs.after, moved_b)
    # before side grows only along the seed surface: unexplained moved points
    # here are either sampling gaps of the part's image (coplanar) or
    # occlusion shadows of its new pose (offset behind the part)
    mask_b = _competitive_labels(
        obs.before.positions, moved_b, fit_b,
        normals=partial(obs.before.normals, _NORMAL_K),
        in_plane_tol=FIT_EPSILON)
    fit_a = explained(T.inverse().apply(obs.after.positions), obs.before,
                      moved_a)
    mask_a = _competitive_labels(obs.after.positions, moved_a, fit_a)

    mask_b &= _attached(obs.before.positions, anchor.mobile_mask_before)
    mask_a &= _attached(obs.after.positions, anchor.mobile_mask_after)
    return PartSegmentation(mask_b, mask_a)


def _attached(positions: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Points within `ATTACH_RADIUS` of a `seeds` point."""
    near, _ = query_within(cKDTree(positions[seeds]), positions, ATTACH_RADIUS)
    return near <= ATTACH_RADIUS


def _fit_slab(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PCA frame and local extents of a point set: (mean, axes, lows, highs).

    Axes are eigenvectors in ascending-variance order, so column 0 is the
    slab normal.
    """
    mean = points.mean(axis=0)
    cov = np.cov((points - mean).T)
    _, axes = np.linalg.eigh(np.atleast_2d(cov))
    local = (points - mean) @ axes
    return mean, axes, local.min(axis=0), local.max(axis=0)


def _box_closure(positions: np.ndarray, mask: np.ndarray, slab,
                 transform: RigidTransform | None) -> np.ndarray:
    """Close a mobile mask over the slab the before mask outlines.

    Mobile parts are box panels, so points the motion tests cannot classify
    (the near-axis sliver, edge faces moving within their own planes) are
    reclaimed by taking in every point on the fitted slab: generous along the
    two slab axes, tight along the thin axis so surfaces one standoff behind
    the panel stay out (margins `CLOSE_SLAB_MARGIN` and
    `CLOSE_NORMAL_MARGIN`). `transform` maps the slab to this cloud's pose.
    """
    mean, axes, lows, highs = slab
    if transform is not None:
        mean = transform.apply(mean)
        axes = transform.rotation @ axes
    local = (positions - mean) @ axes
    margin = np.array([CLOSE_NORMAL_MARGIN, CLOSE_SLAB_MARGIN,
                       CLOSE_SLAB_MARGIN])
    inside = np.all((local >= lows - margin) & (local <= highs + margin),
                    axis=1)
    return mask | inside


def infer_articulation(obs: ObservationPair, config: InferenceConfig
                       ) -> tuple[JointModel, PartSegmentation]:
    """Full chain: detect change, estimate motion, decompose into a joint.

    The revolute axis is oriented so the observed state is positive
    (right-hand rule along the motion); prismatic axes point along the
    observed translation. Sub-stage failures propagate as InferenceError
    naming the stage.
    """
    try:
        moved = change_candidates(obs, config)
        seg = detect_change(obs, moved, config)
    except (NoMotionError, ValidationError) as e:
        raise InferenceError(f"change_detection: {e}") from e
    try:
        T = estimate_motion(obs, seg, config)
        refined = _consistency_reseg(obs, T, seg, moved, config)
        if (refined.mobile_mask_before.any()
                and refined.mobile_mask_after.any()):
            seg = refined
            T = estimate_motion(obs, seg, config)
        if seg.mobile_mask_before.sum() >= 8:
            slab = _fit_slab(obs.before.positions[seg.mobile_mask_before])
            seg = PartSegmentation(
                _box_closure(obs.before.positions, seg.mobile_mask_before,
                             slab, None),
                _box_closure(obs.after.positions, seg.mobile_mask_after,
                             slab, T))
    except MotionEstimationError as e:
        raise InferenceError(f"motion_estimation: {e}") from e
    try:
        joint = screw_decompose(T, config)
    except DegenerateMotionError as e:
        raise InferenceError(f"screw_decomposition: {e}") from e
    return joint, seg
