"""Interaction affordance: exploration-driven labels and a point-wise classifier.

Labels come from the simulator itself: sampled surface points are probed with
the canonical pulls and labeled positive when any pull moves an articulated
part. The classifier scores each scene point from ten handcrafted geometric
features (height, verticality, covariance shape, density, neighborhood color,
distance to the nearest surface discontinuity) with a small network, one
tanh hidden layer under a logistic head, trained on the combined
cross-entropy and dice loss.

Features come in two steps. `extract_features` computes every feature that
needs the whole cloud (the neighbourhood covariances, and from them the set
of discontinuity points), in one pass per block of centres over one sorted
list of every point's neighbours. `complete` fills the two per-row features,
`normal_up` and `discontinuity_dist`, at the rows a caller reads. Before
any row is completed, `score_bounds` bounds each row's score from above
without measuring anything, and `refine_bounds` tightens the bound of a row
by measuring its discontinuity distance, which `complete` then reuses. So a
caller can rank rows, refine only as deep as its ranking reads, and
complete only the rows whose bound it needs; `hotspot.ranked` is that
caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .artifacts import integer, read_doc, write_doc
from .errors import TrainingError, ValidationError
from .geom import PointCloud, query_within, row_blocks
from .sensing import VOXEL
from .simworld import (
    CONTACT_TOL,
    GRIPPER_RADIUS,
    InteractionConfig,
    SceneSpec,
    probe,
)

FEATURE_DIM = 10
FEATURE_NAMES = (
    "height", "normal_up", "planarity", "linearity", "sphericity",
    "density", "color_r", "color_g", "color_b", "discontinuity_dist",
)

_NORMAL_UP = FEATURE_NAMES.index("normal_up")
_DISCONTINUITY = FEATURE_NAMES.index("discontinuity_dist")

K_NORMALS = 12              # neighbours per `normal_up` normal
VARIATION_THRESHOLD = 0.02  # surface variation of a discontinuity point
DISCONTINUITY_CAP = 0.5     # meters

POSITIVE, NEGATIVE, IGNORE = "positive", "negative", "ignore"


@dataclass(frozen=True)
class FeatureSet:
    """Per-point feature matrix plus a validity flag for degenerate points.

    `discontinuities` is the k-d tree over the cloud's discontinuity points
    that `extract_features` builds and `complete` measures distances to."""

    values: np.ndarray
    valid: np.ndarray
    discontinuities: cKDTree | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != FEATURE_DIM:
            raise ValidationError(f"features must be (N, {FEATURE_DIM})")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "valid",
                           np.asarray(self.valid, dtype=bool))

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class AffordanceLabelSet:
    """Sampled point indices into a scene cloud with probe outcomes."""

    indices: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if len(idx) != len(self.labels):
            raise ValidationError("labels must align with sampled indices")
        if any(l not in (POSITIVE, NEGATIVE, IGNORE) for l in self.labels):
            raise ValidationError("unknown label value")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "labels", tuple(self.labels))


_IA, _IB = np.triu_indices(3)


def extract_features(cloud: PointCloud, config: AffordanceConfig
                     ) -> FeatureSet:
    """Deterministic geometric features for every cloud point, all but
    `normal_up` and `discontinuity_dist`, which read NaN until `complete`
    fills them.

    Covariance shape ratios (planarity, linearity, sphericity) come from the
    `config.feature_radius` neighborhood; density is the neighbor count
    normalized by the expected flat-surface count at the scene cloud's
    `sensing.VOXEL` spacing. Points whose neighborhood is degenerate (fewer
    than 3 neighbors) are flagged invalid and zeroed; `complete` also flags
    those whose normal is rank-deficient. The discontinuity points are those
    whose surface variation exceeds `VARIATION_THRESHOLD`; finding them
    needs every row's covariance, so these features are computed for the
    whole cloud, and the result keeps a k-d tree over those points.

    One pair query finds every neighbourhood, and one sort of the keys
    `center * n + neighbor` (both directions of each pair, and each point
    itself) lays them out centre by centre, neighbours ascending. Each
    block of centres takes its neighbours as one slice, sums positions,
    their pairwise products and colours over each neighbourhood through
    one sparse matrix, and writes its rows of the result. A sparse product
    adds each column on its own in index order, so each row's bytes equal
    one product over the whole cloud.
    """
    radius = config.feature_radius
    n = len(cloud)
    if n == 0:
        raise ValidationError("cannot extract features from an empty cloud")
    pos, colors = cloud.positions, cloud.colors
    pairs = cloud.tree.query_pairs(radius, output_type="ndarray")
    m = len(pairs)
    # written in place, so no whole-cloud temporary joins the keys
    keys = np.empty(2 * m + n, dtype=np.int64)
    np.multiply(pairs[:, 0], n, out=keys[:m])
    keys[:m] += pairs[:, 1]
    np.multiply(pairs[:, 1], n, out=keys[m:2 * m])
    keys[m:2 * m] += pairs[:, 0]
    del pairs
    np.multiply(np.arange(n), n + 1, out=keys[2 * m:])
    keys.sort()
    # row i's neighbours are keys[starts[i]:starts[i + 1]]
    starts = np.searchsorted(keys, np.arange(n + 1) * n)
    products = np.empty((n, 6))
    for col, (a, b) in enumerate(zip(_IA, _IB)):
        np.multiply(pos[:, a], pos[:, b], out=products[:, col])
    n_ref = math.pi * radius * radius / (VOXEL * VOXEL)
    feats = np.empty((n, FEATURE_DIM))
    valid = np.empty(n, dtype=bool)
    disc = np.empty(n, dtype=bool)

    for rows in row_blocks(n):
        first, last = starts[rows.start], starts[rows.stop]
        indptr = starts[rows.start:rows.stop + 1] - first
        near = csr_matrix((np.ones(last - first), keys[first:last] % n,
                           indptr), shape=(len(indptr) - 1, n))
        counts = np.diff(indptr)
        c = counts[:, None]
        mean = near @ pos / c
        sq = np.empty((len(c), 3, 3))
        sq[:, _IA, _IB] = sq[:, _IB, _IA] = near @ products / c
        w = np.linalg.eigvalsh(sq - np.einsum("ni,nj->nij", mean, mean))
        lam3, lam2, lam1 = np.maximum(w[:, 0], 0.0), w[:, 1], w[:, 2]
        safe1 = np.maximum(lam1, 1e-18)
        out = feats[rows]
        out[:, 0] = pos[rows, 2]           # height
        out[:, _NORMAL_UP] = out[:, _DISCONTINUITY] = np.nan
        out[:, 2] = (lam2 - lam3) / safe1  # planarity
        out[:, 3] = (lam1 - lam2) / safe1  # linearity
        out[:, 4] = lam3 / safe1           # sphericity
        out[:, 5] = np.minimum(counts / n_ref, 2.0) / 2.0  # density
        out[:, 6:9] = 0.0 if colors is None else near @ colors / c
        ok = valid[rows] = (counts >= 3) & (lam1 > 1e-18)
        out[~ok] = 0.0
        variation = lam3 / np.maximum(lam1 + lam2 + lam3, 1e-18)
        disc[rows] = variation > VARIATION_THRESHOLD
    return FeatureSet(feats, valid, cKDTree(pos[disc]))


def _discontinuity_dist(features: FeatureSet, cloud: PointCloud,
                        rows) -> np.ndarray:
    """Distance from the points `rows` to the nearest discontinuity point,
    capped at `DISCONTINUITY_CAP`."""
    # points farther than the cap from every discontinuity read inf
    dist, _ = query_within(features.discontinuities, cloud.positions[rows],
                           DISCONTINUITY_CAP)
    return np.minimum(dist, DISCONTINUITY_CAP)


def complete(features: FeatureSet, cloud: PointCloud, rows) -> FeatureSet:
    """`extract_features` output completed at the integer indices `rows`.

    Each of those rows gets `normal_up`, the z component of its
    `K_NORMALS`-nearest-neighbor normal (`PointCloud.normals`), and
    `discontinuity_dist`, its distance to the nearest discontinuity point
    capped at `DISCONTINUITY_CAP`; it turns invalid, and reads
    zeros, when its normal is rank-deficient. A distance is measured only
    where the column still reads NaN: one that `refine_bounds` measured
    is kept, and rows `extract_features` zeroed stay invalid. The rows are
    written into `features.values` itself, so completing rows in turn
    copies no matrix and measures no row twice; the result shares those
    values, and only `rows` are valid in it, so `predict` scores every
    other row 0.
    """
    rows = np.asarray(rows, dtype=np.intp)
    normals, normals_valid = cloud.normals(K_NORMALS, rows)
    values = features.values
    values[rows, _NORMAL_UP] = normals[:, 2]
    unmeasured = rows[np.isnan(values[rows, _DISCONTINUITY])]
    values[unmeasured, _DISCONTINUITY] = _discontinuity_dist(
        features, cloud, unmeasured)
    ok = features.valid[rows] & normals_valid
    values[rows[~ok]] = 0.0
    valid = np.zeros(len(features), dtype=bool)
    valid[rows[ok]] = True
    return FeatureSet(values, valid, features.discontinuities)


def collect_labels(scene: SceneSpec, cloud: PointCloud, n_samples: int,
                   seed: int, interaction: InteractionConfig
                   ) -> AffordanceLabelSet:
    """Probe uniformly sampled cloud points and record the outcomes.

    Points without gripper clearance, or farther than `CONTACT_TOL` from
    every part, are labeled ignore. The rest are positive iff a canonical
    pull moves a part: points on a jointed part are probed with
    `simworld.probe` against a pristine copy of the scene (state resets
    between attempts), and points on any other part are negative, since
    every pull there fails. The nearest parts, face normals and clearances
    of all samples come from one query over the scene's boxes.
    """
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    rng = np.random.default_rng(seed)
    take = min(n_samples, len(cloud))
    indices = rng.choice(len(cloud), size=take, replace=False)
    points = cloud.positions[indices]
    parts, dists = scene.boxes.nearest(points)
    normals = scene.boxes.face_normals(points, parts)
    clear = scene.boxes.clear(points, normals, GRIPPER_RADIUS)
    jointed = {part for part, _ in scene.joints}
    labels = []
    for point, part, dist, normal, ok in zip(points, parts.tolist(),
                                             dists.tolist(), normals,
                                             clear.tolist()):
        # `interact` refuses a contact farther than CONTACT_TOL
        if not ok or dist > CONTACT_TOL:
            labels.append(IGNORE)
        elif part not in jointed:
            labels.append(NEGATIVE)
        else:
            outcome, _ = probe(scene, point, normal, interaction)
            labels.append(POSITIVE if outcome.success else NEGATIVE)
    return AffordanceLabelSet(indices, tuple(labels))


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffordanceModel:
    """Logistic head over one tanh hidden layer of width `hidden`, fed with
    standardized features."""

    hidden: int
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    w1: np.ndarray          # (F, H)
    b1: np.ndarray          # (H,)
    w2: np.ndarray          # (H,)
    b2: float

    def params(self) -> np.ndarray:
        return np.concatenate([self.w1.ravel(), self.b1, self.w2, [self.b2]])

    def with_params(self, flat: np.ndarray) -> "AffordanceModel":
        flat = np.asarray(flat, dtype=np.float64)
        f, h = FEATURE_DIM, self.hidden
        w1 = flat[:f * h].reshape(f, h)
        b1 = flat[f * h:f * h + h]
        w2 = flat[f * h + h:f * h + 2 * h]
        return replace(self, w1=w1, b1=b1, w2=w2, b2=float(flat[-1]))


def init_model(hidden: int, seed: int) -> AffordanceModel:
    rng = np.random.default_rng(seed)
    f = FEATURE_DIM
    w1 = rng.normal(0.0, 1.0 / math.sqrt(f), size=(f, hidden))
    w2 = rng.normal(0.0, 1.0 / math.sqrt(hidden), size=hidden)
    return AffordanceModel(hidden, np.zeros(f), np.ones(f), w1,
                           np.zeros(hidden), w2, 0.0)


def _forward(model: AffordanceModel, x: np.ndarray):
    """Logits plus hidden activations."""
    h = np.tanh(x @ model.w1 + model.b1)
    return h @ model.w2 + model.b2, h


MOMENTUM = 0.9       # of `train`'s gradient descent
VAL_FRACTION = 0.25  # trailing share of the scenes `train` validates on
LAMBDA_DICE = 1.0    # weight of the dice term of the training loss


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _loss(model: AffordanceModel, x: np.ndarray, y: np.ndarray) -> tuple:
    """(loss, y, h, p, s, q) of `loss_and_grad`: the loss and the forward
    values its gradient reuses."""
    if len(x) == 0:
        raise TrainingError("no labeled points in the batch")
    y = np.asarray(y, dtype=np.float64)
    z, h = _forward(model, x)
    p = _sigmoid(z)
    # stable log-sigmoid: log(1 + exp(-|z|)) + max(z, 0) - z*y
    ce_terms = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0) - z * y
    ce = float(np.mean(ce_terms))
    s = float(p.sum() + y.sum() + 1e-7)  # smoothing: s > 0 with no positives
    q = float((p * y).sum())
    dice = 1.0 - 2.0 * q / s
    return ce + LAMBDA_DICE * dice, y, h, p, s, q


def loss_and_grad(model: AffordanceModel, x: np.ndarray, y: np.ndarray
                  ) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy plus `LAMBDA_DICE` times the dice loss, and
    its exact gradient.

    `x` holds standardized features of the non-ignored points, `y` their 0/1
    labels. The gradient is flattened in the order of ``model.params()``.
    """
    loss, y, h, p, s, q = _loss(model, x, y)
    dz = (p - y) / len(x)
    ddice_dp = -2.0 * (y * s - q) / (s * s)
    dz = dz + LAMBDA_DICE * ddice_dp * p * (1.0 - p)

    gw2 = h.T @ dz
    gb2 = float(dz.sum())
    dh = np.outer(dz, model.w2) * (1.0 - h * h)
    gw1 = x.T @ dh
    gb1 = dh.sum(axis=0)
    return loss, np.concatenate([gw1.ravel(), gb1, gw2, [gb2]])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 600
    learning_rate: float = 0.5
    hidden: int = 16

    def __post_init__(self):
        if self.hidden < 1:
            raise ValidationError("affordance hidden width must be >= 1")


@dataclass(frozen=True)
class AffordanceConfig:
    """Feature geometry, label sampling and classifier training."""

    feature_radius: float = 0.05
    samples_per_scene: int = 600
    train: TrainConfig = field(default_factory=TrainConfig)


def _design_matrix(entries):
    """Stack (features, labels) pairs into X (raw), y arrays of the labeled,
    valid points."""
    xs, ys = [], []
    for feats, labelset in entries:
        vals = feats.values[labelset.indices]
        lab = np.array(labelset.labels)
        keep = (lab != IGNORE) & feats.valid[labelset.indices]
        xs.append(vals[keep])
        ys.append((lab[keep] == POSITIVE).astype(np.float64))
    return np.vstack(xs), np.concatenate(ys)


def train(dataset: list, config: TrainConfig, seed: int
          ) -> tuple[AffordanceModel, list[dict]]:
    """Full-batch gradient descent with momentum on `loss_and_grad`'s loss
    (`LAMBDA_DICE` weighs its dice term); returns (best model, log).

    `dataset` is a list of (FeatureSet, AffordanceLabelSet) pairs, one per
    scene; the trailing `VAL_FRACTION` of scenes form the validation split.
    The model with the lowest validation loss wins, and the log has one row
    per epoch: {"epoch", "train_loss", "val_loss"}. `seed` draws the
    initial weights.
    """
    if not dataset:
        raise TrainingError("dataset is empty")
    n_scenes = len(dataset)
    n_val = min(n_scenes - 1, max(1, round(VAL_FRACTION * n_scenes))) \
        if n_scenes > 1 else 0
    train_entries = dataset[:n_scenes - n_val] if n_val else dataset
    val_entries = dataset[n_scenes - n_val:] if n_val else dataset

    x_raw, y = _design_matrix(train_entries)
    xv_raw, yv = _design_matrix(val_entries)
    if len(x_raw) == 0 or y.sum() == 0 or y.sum() == len(y):
        raise TrainingError("training split needs both label classes")

    mean = x_raw.mean(axis=0)
    std = np.maximum(x_raw.std(axis=0), 1e-8)
    model = replace(init_model(config.hidden, seed),
                    scaler_mean=mean, scaler_std=std)
    x = (x_raw - mean) / std
    xv = (xv_raw - mean) / std

    params = model.params()
    velocity = np.zeros_like(params)
    best = (np.inf, params.copy())
    log = []
    for epoch in range(config.epochs):
        loss, grad = loss_and_grad(model.with_params(params), x, y)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}")
        velocity = MOMENTUM * velocity - config.learning_rate * grad
        params = params + velocity
        val_loss = _loss(model.with_params(params), xv, yv)[0]
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        if val_loss < best[0]:
            best = (val_loss, params.copy())
        log.append({"epoch": epoch, "train_loss": float(loss),
                    "val_loss": float(val_loss)})
    final = model.with_params(best[1]) if log else model
    return final, log


def predict(model: AffordanceModel, features: FeatureSet) -> np.ndarray:
    """Affordance map: sigmoid scores per point; invalid points score 0.

    The network runs per `row_blocks` block: each block's rows are
    standardized, passed through `_forward` and the sigmoid, and a block
    with no valid row is not evaluated. A block's products are too small for
    OpenBLAS to thread, so every score is the one a single-thread product
    over the whole cloud gives, whatever OpenBLAS's thread count.
    """
    if features.values.shape[1] != len(model.scaler_mean):
        raise ValidationError("feature dimension does not match the model")
    scores = np.zeros(len(features))

    for rows in row_blocks(len(features)):
        if features.valid[rows].any():
            x = (features.values[rows] - model.scaler_mean) / model.scaler_std
            scores[rows] = _sigmoid(_forward(model, x)[0])
    scores[~features.valid] = 0.0
    return scores


# Logit slack of the score bounds: covers the rounding of summing the
# network's terms in another order than `predict` does.
_BOUND_MARGIN = 1e-9
# normal_up values that split [0, 1] into the sub-intervals of `refine_bounds`
_NORMAL_UP_KNOTS = np.linspace(0.0, 1.0, 5)
_FREE = [_NORMAL_UP, _DISCONTINUITY]


# OpenBLAS sums a row of the last, partial group of this many rows of a
# matrix-vector product, or a lone row of a matrix product, in another order
# than the rows of whole groups.
_ROW_GROUP = 4


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b` for a 2-D `a`, with each row's bytes depending on that row
    alone: `a` is padded with zero rows to whole `_ROW_GROUP`s."""
    n = len(a)
    if n % _ROW_GROUP:
        a = np.concatenate([a, np.zeros((-n % _ROW_GROUP, a.shape[1]))])
    return (a @ b)[:n]


def _bound(model: AffordanceModel, a: np.ndarray) -> np.ndarray:
    """The score bound of the pre-activations `a`, which it overwrites."""
    z = _product(np.tanh(a, out=a), model.w2) + model.b2
    return _sigmoid(z + _BOUND_MARGIN)


def _pre_activations(model: AffordanceModel, values: np.ndarray,
                     free) -> np.ndarray:
    """The hidden units' pre-activations of the feature rows `values`,
    standardized, with the columns `free` zeroed: the start of both bound
    passes."""
    x = values - model.scaler_mean
    x /= model.scaler_std
    x[:, free] = 0.0
    pre = _product(x, model.w1)
    pre += model.b1
    return pre


def _increasing(model: AffordanceModel) -> np.ndarray:
    """Per free feature, the units whose term grows with it."""
    return model.w2 * model.w1[_FREE] >= 0.0


def score_bounds(model: AffordanceModel, features: FeatureSet) -> np.ndarray:
    """Upper bound on each row's `predict` score once `complete`d, for
    `extract_features` output; invalid rows read 0, their score.

    Each tanh unit is monotone in each feature, so while a feature ranges
    over an interval, the unit's term is largest at one end of it, the same
    end for every row; the sum of those largest terms bounds the logit
    (interval bound propagation, Gowal et al. 2018). This pass leaves
    `normal_up` in [0, 1] and `discontinuity_dist` in [0,
    `DISCONTINUITY_CAP`] free, so it measures nothing; `refine_bounds`
    tightens the bound of the rows a caller ranks. Every bound adds a 1e-9
    logit margin, so it is at least the score. The pass runs per
    `row_blocks` block of the cloud; `hotspot.ranked` runs it when the loop
    asks for a room's first hotspot, so a room that probes none is never
    bounded.
    """
    mean, std = model.scaler_mean, model.scaler_std
    increasing = _increasing(model)
    # the standardized ends of [0, 1] and [0, cap]
    low = (0.0 - mean[_FREE]) / std[_FREE]
    high = (np.array([1.0, DISCONTINUITY_CAP]) - mean[_FREE]) / std[_FREE]
    # each unit's terms of the free features, each at its end where the
    # unit's term is largest
    free_shift = (model.w1[_FREE] * np.where(increasing, high[:, None],
                                             low[:, None])).sum(axis=0)
    bounds = np.empty(len(features))

    for rows in row_blocks(len(features)):
        pre = _pre_activations(model, features.values[rows], _FREE)
        pre += free_shift
        bounds[rows] = np.where(features.valid[rows], _bound(model, pre), 0.0)
    return bounds


def refine_bounds(model: AffordanceModel, features: FeatureSet,
                  cloud: PointCloud, rows, threshold: float) -> np.ndarray:
    """Upper bounds on the `predict` scores of the valid rows `rows`
    (integer indices) once `complete`d, tighter than `score_bounds`'.

    Each row gets its exact discontinuity distance, as `complete` measures
    it, and is bounded again over `normal_up` in [0, 1]; a row whose bound
    still reaches `threshold` takes the largest of its bounds over the four
    quarters of [0, 1]. So a row's bound depends on that row alone, and a
    row whose bound reaches `threshold` is bounded as tightly as these
    passes go. The distances are written into `features.values`, where
    `complete` reads them instead of measuring again. The rows run per
    `row_blocks` block of `rows`.
    """
    mean, std = model.scaler_mean, model.scaler_std
    increasing = _increasing(model)[0]
    slope = model.w1[_NORMAL_UP]
    knots = (_NORMAL_UP_KNOTS - mean[_NORMAL_UP]) / std[_NORMAL_UP]
    values = features.values
    rows = np.asarray(rows, dtype=np.intp)
    bounds = np.empty(len(rows))

    def normal_up_bound(pre, lo, hi):
        # each unit at the end of [lo, hi] where its term is largest
        return _bound(model, pre + slope * np.where(increasing, hi, lo))

    for part in row_blocks(len(rows)):
        own = rows[part]
        values[own, _DISCONTINUITY] = _discontinuity_dist(features, cloud, own)
        pre = _pre_activations(model, values[own], _NORMAL_UP)
        b = normal_up_bound(pre, knots[0], knots[-1])
        reach = b >= threshold
        b[reach] = np.max([normal_up_bound(pre[reach], lo, hi)
                           for lo, hi in zip(knots, knots[1:])], axis=0)
        bounds[part] = b
    return bounds


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def labels_to_dict(labelset: AffordanceLabelSet, scene_seed: int) -> dict:
    return {
        "version": "afford_labels.v1",
        "scene_seed": scene_seed,
        "indices": labelset.indices.tolist(),
        "labels": list(labelset.labels),
    }


def labels_from_dict(doc: dict) -> AffordanceLabelSet:
    indices = [integer(i, "point index") for i in doc["indices"]]
    return AffordanceLabelSet(np.array(indices, dtype=np.int64),
                              tuple(doc["labels"]))


def save_model(model: AffordanceModel, path, config_hash: str,
               seed: int) -> None:
    write_doc({
        "version": "afford_model.v1",
        "hidden": model.hidden,
        "scaler_mean": model.scaler_mean.tolist(),
        "scaler_std": model.scaler_std.tolist(),
        "w1": model.w1.tolist(),
        "b1": model.b1.tolist(),
        "w2": model.w2.tolist(),
        "b2": model.b2,
        "config_hash": config_hash,
        "seed": seed,
    }, path)


def load_model(path) -> AffordanceModel:
    """The afford_model.v1 file at `path`. Each fault of the file is an
    ArtifactError naming it (`artifacts.read_doc`); a width, an array or
    `b2` that does not fit the model is a ValidationError naming it."""
    def parse(doc):
        hidden = doc["hidden"]
        if isinstance(hidden, bool) or not isinstance(hidden, int):
            raise ValidationError(f"model file {path}: hidden must be an "
                                  "integer")
        if hidden < 1 or doc["w1"] is None:
            raise ValidationError(
                f"model file {path} needs a hidden layer of width >= 1")
        shapes = {"scaler_mean": (FEATURE_DIM,), "scaler_std": (FEATURE_DIM,),
                  "w1": (FEATURE_DIM, hidden), "b1": (hidden,),
                  "w2": (hidden,)}
        arrays = {}
        for key, shape in shapes.items():
            try:
                arrays[key] = np.array(doc[key], dtype=np.float64)
            except (TypeError, ValueError):
                pass  # ragged lists or non-numbers
            if key not in arrays or arrays[key].shape != shape:
                raise ValidationError(f"model file {path}: {key} must be "
                                      f"numbers of shape {shape}")
        b2 = doc["b2"]
        if (isinstance(b2, bool) or not isinstance(b2, (int, float))
                or not math.isfinite(b2)):
            raise ValidationError(f"model file {path}: b2 must be a finite "
                                  "number")
        return AffordanceModel(hidden=hidden, b2=float(b2), **arrays)

    return read_doc(path, f"model file {path}", "afford_model.v1", parse)
