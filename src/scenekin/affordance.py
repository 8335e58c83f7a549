"""Interaction affordance: exploration-driven labels and a point-wise classifier.

Labels come from the simulator itself: sampled surface points are probed with
the canonical pulls and labeled positive when any pull moves an articulated
part. The classifier scores each scene point from ten handcrafted geometric
features (height, verticality, covariance shape, density, neighborhood color,
distance to the nearest surface discontinuity) with a logistic head or a
small one-hidden-layer network, trained on the combined cross-entropy and
dice loss.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import wait
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import PreconditionError, TrainingError, ValidationError
from .geom import PointCloud, map_blocks, submit_leaf
from .simworld import (
    InteractionConfig,
    SceneSpec,
    gripper_clearance,
    probe,
    surface_normal,
)

FEATURE_DIM = 10
FEATURE_NAMES = (
    "height", "normal_up", "planarity", "linearity", "sphericity",
    "density", "color_r", "color_g", "color_b", "discontinuity_dist",
)

POSITIVE, NEGATIVE, IGNORE = "positive", "negative", "ignore"


@dataclass(frozen=True)
class FeatureSet:
    """Per-point feature matrix plus a validity flag for degenerate points."""

    values: np.ndarray
    valid: np.ndarray

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


def _neighborhoods(cloud: PointCloud, radius: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(center, neighbor) index pairs within `radius`, each point its own
    neighbor, sorted by center and then neighbor: the sequence a sorted
    ball query concatenates to.

    Each pair is sorted as the one key `center * n + neighbor`; the keys are
    unique, so this is the (center, neighbor) order.
    """
    n = len(cloud)
    pairs = cloud.tree.query_pairs(radius, output_type="ndarray")
    own = np.arange(n)
    keys = np.sort(np.concatenate([pairs[:, 0] * n + pairs[:, 1],
                                   pairs[:, 1] * n + pairs[:, 0],
                                   own * n + own]))
    return keys // n, keys % n


_IA, _IB = np.triu_indices(3)


def _neighborhood_sums(cloud: PointCloud, radius: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(neighbour count, neighbourhood sums) of every point within `radius`.

    One sparse product sums positions, their pairwise products and colours
    over every neighbourhood, adding in the neighbour order of each centre.
    """
    n, pos = len(cloud), cloud.positions
    centers, neighbors = _neighborhoods(cloud, radius)
    counts = np.bincount(centers, minlength=n)
    adjacency = csr_matrix(
        (np.ones(len(neighbors)), neighbors,
         np.concatenate([[0], np.cumsum(counts)])), shape=(n, n))
    columns = [pos, pos[:, _IA] * pos[:, _IB]]
    if cloud.colors is not None:
        columns.append(cloud.colors)
    return counts, adjacency @ np.column_stack(columns)


def extract_features(cloud: PointCloud, config: AffordanceConfig,
                     voxel: float) -> FeatureSet:
    """Deterministic geometric features for every cloud point.

    Covariance shape ratios (planarity, linearity, sphericity) come from the
    `config.feature_radius` neighborhood; density is the neighbor count
    normalized by the expected flat-surface count at the capture `voxel`
    size. Points whose neighborhood is degenerate (fewer than 3 neighbors or
    a rank-deficient normal) are flagged invalid and zeroed.

    The neighbourhood sums run on a pool thread (`geom.submit_leaf`) while
    this thread estimates the normals.
    """
    radius = config.feature_radius
    n = len(cloud)
    if n == 0:
        raise ValidationError("cannot extract features from an empty cloud")
    pos = cloud.positions
    cloud.tree  # built here, before the neighbourhood task shares it
    task = submit_leaf(_neighborhood_sums, cloud, radius)
    try:
        k_eff = min(config.k_normals, n)
        if k_eff >= 3:
            normals, normals_valid = cloud.normals(k_eff)
        else:
            normals = np.zeros((n, 3))
            normals_valid = np.zeros(n, dtype=bool)
    finally:
        wait([task])
    counts, sums = task.result()
    w = np.empty((n, 3))

    def block(rows):
        c = counts[rows, None]
        mean = sums[rows, :3] / c
        sq = np.empty((len(c), 3, 3))
        sq[:, _IA, _IB] = sq[:, _IB, _IA] = sums[rows, 3:9] / c
        cov = sq - np.einsum("ni,nj->nij", mean, mean)
        w[rows] = np.linalg.eigvalsh(cov)  # ascending

    map_blocks(block, n)
    lam3, lam2, lam1 = w[:, 0], w[:, 1], w[:, 2]
    lam3 = np.maximum(lam3, 0.0)
    safe1 = np.maximum(lam1, 1e-18)
    linearity = (lam1 - lam2) / safe1
    planarity = (lam2 - lam3) / safe1
    sphericity = lam3 / safe1
    variation = lam3 / np.maximum(lam1 + lam2 + lam3, 1e-18)

    valid = normals_valid & (counts >= 3) & (lam1 > 1e-18)

    n_ref = math.pi * radius * radius / (voxel * voxel)
    density = np.minimum(counts / n_ref, 2.0) / 2.0

    if cloud.colors is not None:
        mean_color = sums[:, 9:] / counts[:, None]
    else:
        mean_color = np.zeros((n, 3))

    cap = config.discontinuity_cap
    disc = variation > config.variation_threshold
    if disc.any():
        # points farther than the cap from every discontinuity read inf
        ddist, _ = cKDTree(pos[disc]).query(
            pos, distance_upper_bound=np.nextafter(cap, np.inf), workers=-1)
        ddist = np.minimum(ddist, cap)
    else:
        ddist = np.full(n, cap)

    feats = np.column_stack([
        pos[:, 2], normals[:, 2], planarity, linearity, sphericity,
        density, mean_color[:, 0], mean_color[:, 1], mean_color[:, 2], ddist,
    ])
    feats[~valid] = 0.0
    return FeatureSet(feats, valid)


def collect_labels(scene: SceneSpec, cloud: PointCloud, n_samples: int,
                   seed: int, interaction: InteractionConfig
                   ) -> AffordanceLabelSet:
    """Probe uniformly sampled cloud points and record the outcomes.

    Points without gripper clearance are labeled ignore; the rest are probed
    with `simworld.probe` against a pristine copy of the scene (state resets
    between attempts) and are positive iff a canonical pull moves a part.
    """
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    rng = np.random.default_rng(seed)
    take = min(n_samples, len(cloud))
    indices = rng.choice(len(cloud), size=take, replace=False)
    labels = []
    for i in indices:
        point = cloud.positions[i]
        normal = surface_normal(scene, point)
        if not gripper_clearance(scene, point, normal,
                                 interaction.gripper_radius):
            labels.append(IGNORE)
            continue
        try:
            outcome, _ = probe(scene, point, normal, interaction)
        except PreconditionError:
            labels.append(IGNORE)
            continue
        labels.append(POSITIVE if outcome.success else NEGATIVE)
    return AffordanceLabelSet(indices, tuple(labels))


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffordanceModel:
    """Logistic head over standardized features, optionally with one tanh
    hidden layer of width `hidden` (0 = plain logistic regression)."""

    hidden: int
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    w1: np.ndarray | None   # (F, H) when hidden > 0
    b1: np.ndarray | None   # (H,)
    w2: np.ndarray          # (H,) or (F,)
    b2: float

    def params(self) -> np.ndarray:
        if self.hidden > 0:
            return np.concatenate([self.w1.ravel(), self.b1, self.w2,
                                   [self.b2]])
        return np.concatenate([self.w2, [self.b2]])

    def with_params(self, flat: np.ndarray) -> "AffordanceModel":
        flat = np.asarray(flat, dtype=np.float64)
        f = FEATURE_DIM
        if self.hidden > 0:
            h = self.hidden
            w1 = flat[:f * h].reshape(f, h)
            b1 = flat[f * h:f * h + h]
            w2 = flat[f * h + h:f * h + 2 * h]
            b2 = float(flat[-1])
            return replace(self, w1=w1, b1=b1, w2=w2, b2=b2)
        return replace(self, w2=flat[:f], b2=float(flat[-1]))


def init_model(hidden: int = 0, seed: int = 0) -> AffordanceModel:
    rng = np.random.default_rng(seed)
    f = FEATURE_DIM
    mean = np.zeros(f)
    std = np.ones(f)
    if hidden > 0:
        w1 = rng.normal(0.0, 1.0 / math.sqrt(f), size=(f, hidden))
        b1 = np.zeros(hidden)
        w2 = rng.normal(0.0, 1.0 / math.sqrt(hidden), size=hidden)
        return AffordanceModel(hidden, mean, std, w1, b1, w2, 0.0)
    w = rng.normal(0.0, 1.0 / math.sqrt(f), size=f)
    return AffordanceModel(0, mean, std, None, None, w, 0.0)


def _forward(model: AffordanceModel, x: np.ndarray):
    """Logits plus hidden activations (None for the logistic head)."""
    if model.hidden > 0:
        h = np.tanh(x @ model.w1 + model.b1)
        return h @ model.w2 + model.b2, h
    return x @ model.w2 + model.b2, None


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loss_and_grad(model: AffordanceModel, x: np.ndarray, y: np.ndarray,
                  lambda_dice: float = 1.0, dice_eps: float = 1e-7
                  ) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy plus dice loss and its exact gradient.

    `x` holds standardized features of the non-ignored points, `y` their 0/1
    labels. The gradient is flattened in the order of ``model.params()``.
    """
    m = len(x)
    if m == 0:
        raise TrainingError("no labeled points in the batch")
    y = np.asarray(y, dtype=np.float64)
    z, h = _forward(model, x)
    p = _sigmoid(z)
    # stable log-sigmoid: log(1 + exp(-|z|)) + max(z, 0) - z*y
    ce_terms = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0) - z * y
    ce = float(np.mean(ce_terms))
    s = float(p.sum() + y.sum() + dice_eps)
    q = float((p * y).sum())
    dice = 1.0 - 2.0 * q / s
    loss = ce + lambda_dice * dice

    dz = (p - y) / m
    ddice_dp = -2.0 * (y * s - q) / (s * s)
    dz = dz + lambda_dice * ddice_dp * p * (1.0 - p)

    if model.hidden > 0:
        gw2 = h.T @ dz
        gb2 = float(dz.sum())
        dh = np.outer(dz, model.w2) * (1.0 - h * h)
        gw1 = x.T @ dh
        gb1 = dh.sum(axis=0)
        grad = np.concatenate([gw1.ravel(), gb1, gw2, [gb2]])
    else:
        grad = np.concatenate([x.T @ dz, [float(dz.sum())]])
    return loss, grad


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 600
    learning_rate: float = 0.5
    momentum: float = 0.9
    hidden: int = 16
    lambda_dice: float = 1.0
    val_fraction: float = 0.25


@dataclass(frozen=True)
class AffordanceConfig:
    """Feature geometry, label sampling and classifier training."""

    feature_radius: float = 0.05
    k_normals: int = 12
    variation_threshold: float = 0.02
    discontinuity_cap: float = 0.5
    samples_per_scene: int = 600
    train: TrainConfig = field(default_factory=TrainConfig)


def _design_matrix(entries, drop_invalid=True):
    """Stack (features, labels) pairs into X (raw), y arrays."""
    xs, ys = [], []
    for feats, labelset in entries:
        vals = feats.values[labelset.indices]
        valid = feats.valid[labelset.indices]
        lab = np.array(labelset.labels)
        keep = lab != IGNORE
        if drop_invalid:
            keep &= valid
        xs.append(vals[keep])
        ys.append((lab[keep] == POSITIVE).astype(np.float64))
    if not xs:
        return np.zeros((0, FEATURE_DIM)), np.zeros(0)
    return np.vstack(xs), np.concatenate(ys)


def train(dataset: list, config: TrainConfig, seed: int = 0
          ) -> tuple[AffordanceModel, list[dict]]:
    """Full-batch gradient descent with momentum; returns (best model, log).

    `dataset` is a list of (FeatureSet, AffordanceLabelSet) pairs, one per
    scene; the trailing `val_fraction` of scenes form the validation split.
    The model with the lowest validation loss wins, and the log has one row
    per epoch: {"epoch", "train_loss", "val_loss"}. `seed` draws the
    initial weights.
    """
    if not dataset:
        raise TrainingError("dataset is empty")
    n_scenes = len(dataset)
    n_val = min(n_scenes - 1, max(1, round(config.val_fraction * n_scenes))) \
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
        loss, grad = loss_and_grad(model.with_params(params), x, y,
                                   config.lambda_dice)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}")
        velocity = config.momentum * velocity - config.learning_rate * grad
        params = params + velocity
        val_loss, _ = loss_and_grad(model.with_params(params), xv, yv,
                                    config.lambda_dice)
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        if val_loss < best[0]:
            best = (val_loss, params.copy())
        log.append({"epoch": epoch, "train_loss": float(loss),
                    "val_loss": float(val_loss)})
    final = model.with_params(best[1]) if log else model
    return final, log


def predict(model: AffordanceModel, features: FeatureSet) -> np.ndarray:
    """Affordance map: sigmoid scores per point; invalid points score 0."""
    if features.values.shape[1] != len(model.scaler_mean):
        raise ValidationError("feature dimension does not match the model")
    x = (features.values - model.scaler_mean) / model.scaler_std
    z, _ = _forward(model, x)
    scores = _sigmoid(z)
    scores[~features.valid] = 0.0
    return scores


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def labels_to_dict(labelset: AffordanceLabelSet, scene_seed: int | None = None
                   ) -> dict:
    return {
        "version": "afford_labels.v1",
        "scene_seed": scene_seed,
        "indices": labelset.indices.tolist(),
        "labels": list(labelset.labels),
    }


def labels_from_dict(doc: dict) -> AffordanceLabelSet:
    if doc.get("version") != "afford_labels.v1":
        raise ValidationError(f"unsupported labels version {doc.get('version')!r}")
    return AffordanceLabelSet(np.array(doc["indices"], dtype=np.int64),
                              tuple(doc["labels"]))


def save_model(model: AffordanceModel, path, config_hash: str | None = None,
               seed: int | None = None) -> None:
    doc = {
        "version": "afford_model.v1",
        "hidden": model.hidden,
        "scaler_mean": model.scaler_mean.tolist(),
        "scaler_std": model.scaler_std.tolist(),
        "w1": None if model.w1 is None else model.w1.tolist(),
        "b1": None if model.b1 is None else model.b1.tolist(),
        "w2": model.w2.tolist(),
        "b2": model.b2,
        "config_hash": config_hash,
        "seed": seed,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> AffordanceModel:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != "afford_model.v1":
        raise ValidationError(f"unsupported model version {doc.get('version')!r}")
    return AffordanceModel(
        hidden=int(doc["hidden"]),
        scaler_mean=np.array(doc["scaler_mean"]),
        scaler_std=np.array(doc["scaler_std"]),
        w1=None if doc["w1"] is None else np.array(doc["w1"]),
        b1=None if doc["b1"] is None else np.array(doc["b1"]),
        w2=np.array(doc["w2"]),
        b2=float(doc["b2"]),
    )
