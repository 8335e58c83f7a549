"""Core geometric types: rigid transforms, point clouds, line queries, normals.

Conventions used across the package:

* 3-vectors are float64 numpy arrays of shape ``(3,)``; point sets are
  ``(N, 3)`` arrays. Coordinates are in meters.
* Rotations are ``(3, 3)`` orthonormal matrices with determinant +1.
* Direction vectors used as joint axes are unit norm (tolerance 1e-9).

Per-point work over clouds and ray sets runs in fixed blocks of rows, shared
between the calling thread and one thread pool per process (`map_blocks`).
Normals are estimated per row on demand: `PointCloud.normals(k, rows)`
estimates only the rows not yet cached for that k.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError

UNIT_TOL = 1e-9
ORTHO_TOL = 1e-9
_EYE = np.eye(3)

# Rows per `map_blocks` block. It is fixed, so each block holds the same rows
# whatever the thread count, and row-independent work gives the same bytes.
BLOCK_ROWS = 1024

_pool_lock = threading.Lock()
_pool_executor: ThreadPoolExecutor | None = None


def _threads() -> int:
    """CPUs the process may use."""
    return len(os.sched_getaffinity(0))


def _pool() -> ThreadPoolExecutor:
    """The process's block pool, one thread per CPU the process may use,
    created on first use."""
    global _pool_executor
    with _pool_lock:
        if _pool_executor is None:
            _pool_executor = ThreadPoolExecutor(
                _threads(), thread_name_prefix="scenekin")
        return _pool_executor


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool_lock, _pool_executor
    _pool_lock, _pool_executor = threading.Lock(), None


os.register_at_fork(after_in_child=_forget_pool)


def map_blocks(fn, n: int) -> list:
    """`fn(rows)` for each consecutive `BLOCK_ROWS`-row slice `rows` of
    range(n), returned in block order.

    The calling thread and up to one pool thread per further CPU claim
    blocks in turn from a shared counter. Pool threads that have not started
    when the blocks run out are cancelled, so a process on one CPU runs
    every block inline. Temporaries made inside `fn` are per block, so
    they stay small whatever n is. So do matrix products: run a product
    over a whole cloud per block, and OpenBLAS, which threads only larger
    products, stays on the thread that called it. No BLAS worker thread
    then competes with the pool, and no row's result depends on the
    thread count.

    `fn` may run on pool threads, so it may only do numpy/SciPy work,
    writing a shared output only at its own rows. It must call no function
    that `bench/tracing.py` wraps in a span (the tracer keeps one span
    stack), nor `map_blocks`.
    """
    blocks = [slice(a, min(a + BLOCK_ROWS, n)) for a in range(0, n, BLOCK_ROWS)]
    results = [None] * len(blocks)
    claim = itertools.count()

    def drain():
        while (i := next(claim)) < len(blocks):
            results[i] = fn(blocks[i])

    helpers = [_pool().submit(drain)
               for _ in range(min(_threads(), len(blocks)) - 1)]
    try:
        drain()
    finally:
        # a cancelled helper counts as done only once a pool thread takes it
        started = [helper for helper in helpers if not helper.cancel()]
        wait(started)
    for helper in started:
        helper.result()
    return results


def as_vec3(v) -> np.ndarray:
    """Coerce to a float64 (3,) array."""
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (3,):
        raise ValidationError(f"expected 3-vector, got shape {a.shape}")
    return a


def normalize(v) -> np.ndarray:
    """Return v scaled to unit norm; raise if the norm is (near) zero."""
    a = as_vec3(v)
    n = float(np.linalg.norm(a))
    if n < 1e-12:
        raise ValidationError("cannot normalize a zero vector")
    return a / n


def is_unit(v) -> bool:
    norm = float(np.linalg.norm(np.asarray(v, dtype=np.float64)))
    return abs(norm - 1.0) <= UNIT_TOL


def check_rotation(R) -> np.ndarray:
    """Validate that R is orthonormal with determinant +1."""
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3):
        raise ValidationError(f"rotation must be 3x3, got {R.shape}")
    # np.allclose(R @ R.T, I, atol=ORTHO_TOL) written out; NaN and inf fail
    if not (np.abs(R @ R.T - _EYE) <= ORTHO_TOL + 1e-05 * _EYE).all():
        raise ValidationError("rotation is not orthonormal")
    if np.linalg.det(R) < 0.0:
        raise ValidationError("rotation has negative determinant")
    return R


@dataclass(frozen=True)
class RigidTransform:
    """Rigid motion p -> R @ p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", check_rotation(self.rotation))
        object.__setattr__(self, "translation", as_vec3(self.translation))

    @staticmethod
    def from_rotation_about_line(axis, angle: float, pivot) -> "RigidTransform":
        """Rotation by `angle` about the line through `pivot` along `axis`."""
        R = rotation_from_angle_axis(axis, angle)
        q = as_vec3(pivot)
        return RigidTransform(R, q - R @ q)

    @staticmethod
    def from_translation(t) -> "RigidTransform":
        return RigidTransform(np.eye(3), as_vec3(t))

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            return self.rotation @ pts + self.translation
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        Rt = self.rotation.T
        return RigidTransform(Rt, -Rt @ self.translation)


@dataclass(frozen=True)
class PointCloud:
    """Immutable point set with optional per-point color and identity.

    ``point_ids`` are stable surface-patch identities (simulation oracle
    only) and must be unique; `sensing.id_parts` reads the part each one
    lies on.
    """

    positions: np.ndarray
    colors: np.ndarray | None = None
    point_ids: np.ndarray | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValidationError(f"positions must be (N, 3), got {pos.shape}")
        object.__setattr__(self, "positions", pos)
        n = len(pos)
        if self.colors is not None:
            col = np.asarray(self.colors, dtype=np.float64)
            if col.shape != (n, 3):
                raise ValidationError("colors must align with positions")
            object.__setattr__(self, "colors", col)
        if self.point_ids is not None:
            ids = np.asarray(self.point_ids, dtype=np.int64)
            if ids.shape != (n,):
                raise ValidationError("point_ids must align with positions")
            # captures hand over ids sorted, which makes them unique
            if not (ids[1:] > ids[:-1]).all() and len(np.unique(ids)) != n:
                raise ValidationError("point_ids must be unique within a cloud")
            object.__setattr__(self, "point_ids", ids)

    def __len__(self) -> int:
        return len(self.positions)

    @cached_property
    def tree(self) -> cKDTree:
        """k-d tree over the positions, built on first use."""
        return cKDTree(self.positions)

    @cached_property
    def _normals_by_k(self) -> dict:
        return {}

    def normals(self, k: int, rows) -> tuple[np.ndarray, np.ndarray]:
        """(normals, valid) of the integer indices `rows`, by
        `estimate_normals` with k clamped to the cloud size.

        Each row is estimated once per k, when first asked for, so the
        result equals that row of a whole-cloud estimate. Below 3 points
        every normal is zero and invalid."""
        rows = np.asarray(rows, dtype=np.intp)
        n = len(self)
        k = min(k, n)
        if k not in self._normals_by_k:
            # normals, valid, estimated
            self._normals_by_k[k] = (np.zeros((n, 3)), np.zeros(n, dtype=bool),
                                     np.full(n, k < 3))
        normals, valid, done = self._normals_by_k[k]
        missing = np.unique(rows[~done[rows]])
        if len(missing):
            normals[missing], valid[missing] = estimate_normals(self, k,
                                                                missing)
            done[missing] = True
        return normals[rows], valid[rows]

    def subset(self, index) -> "PointCloud":
        """Select points by boolean mask or integer indices, carrying aux data."""
        return PointCloud(
            positions=self.positions[index],
            colors=None if self.colors is None else self.colors[index],
            point_ids=None if self.point_ids is None else self.point_ids[index],
        )


def estimate_normals(cloud: PointCloud, k: int, rows
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Surface normals at the integer indices `rows` of `cloud`, from
    k-nearest-neighbor covariance.

    Each normal is the eigenvector of the neighborhood covariance with the
    smallest eigenvalue, oriented into the +z hemisphere. Returns
    (normals (R,3), valid (R,) bool); points whose neighborhood covariance
    has rank < 2 are flagged invalid. Each row is computed alone, so it
    does not depend on which other rows are asked for.

    Requires len(cloud) >= k >= 3.
    """
    n = len(cloud)
    if k < 3 or n < k:
        raise ValidationError(f"need at least k={k} >= 3 points, have {n}")
    rows = np.asarray(rows, dtype=np.intp)
    tree = cloud.tree
    normals = np.empty((len(rows), 3))
    valid = np.empty(len(rows), dtype=bool)

    def block(part):
        _, idx = tree.query(cloud.positions[rows[part]], k=k)
        neigh = cloud.positions[idx]                  # (B, k, 3)
        centered = neigh - neigh.mean(axis=1, keepdims=True)
        cov = np.einsum("nki,nkj->nij", centered, centered) / k
        w, v = np.linalg.eigh(cov)                    # ascending eigenvalues
        nrm = v[:, :, 0].copy()
        scale = w[:, 2]
        # rank < 2: second eigenvalue vanishes relative to the largest
        ok = (scale > 1e-18) & (w[:, 1] > 1e-9 * np.maximum(scale, 1e-18))
        nrm[nrm[:, 2] < 0.0] *= -1.0
        nrm[~ok] = 0.0
        normals[part], valid[part] = nrm, ok

    map_blocks(block, len(rows))
    return normals, valid


def query_within(tree: cKDTree, points: np.ndarray, radius: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest neighbour in `tree` of each point, searched out to `radius`.

    Every neighbour at distance <= `radius` is found, with the distance and
    index an unbounded query returns; farther ones read as distance inf and
    index `tree.n`. SciPy's bound is strict, hence the next float up.
    """
    return tree.query(points,
                      distance_upper_bound=np.nextafter(radius, np.inf))


def rotation_from_angle_axis(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix for `angle` radians about unit `axis`."""
    u = as_vec3(axis)
    if not is_unit(u):
        raise ValidationError("rotation axis must be unit norm")
    return rodrigues(u, angle)


def rodrigues(u: np.ndarray, angle: float) -> np.ndarray:
    """`rotation_from_angle_axis` without its checks: `u` must already be a
    unit 3-vector."""
    ux, uy, uz = u
    K = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def rotation_to_angle_axis(R) -> tuple[np.ndarray, float]:
    """Extract (unit axis, angle in [0, pi]) from a rotation matrix.

    Uses the quaternion route (largest-pivot extraction), which stays stable
    at both branch points angle -> 0 and angle -> pi. Zero rotation returns
    axis (0, 0, 1) by convention.
    """
    R = check_rotation(R)
    t = np.trace(R)
    # Shepperd's method: pick the largest of the four quaternion components.
    q = np.empty(4)  # (w, x, y, z)
    if t > R[0, 0] and t > R[1, 1] and t > R[2, 2]:
        s = np.sqrt(1.0 + t) * 2.0
        q[0] = 0.25 * s
        q[1] = (R[2, 1] - R[1, 2]) / s
        q[2] = (R[0, 2] - R[2, 0]) / s
        q[3] = (R[1, 0] - R[0, 1]) / s
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q[0] = (R[2, 1] - R[1, 2]) / s
        q[1] = 0.25 * s
        q[2] = (R[0, 1] + R[1, 0]) / s
        q[3] = (R[0, 2] + R[2, 0]) / s
    elif R[1, 1] >= R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q[0] = (R[0, 2] - R[2, 0]) / s
        q[1] = (R[0, 1] + R[1, 0]) / s
        q[2] = 0.25 * s
        q[3] = (R[1, 2] + R[2, 1]) / s
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q[0] = (R[1, 0] - R[0, 1]) / s
        q[1] = (R[0, 2] + R[2, 0]) / s
        q[2] = (R[1, 2] + R[2, 1]) / s
        q[3] = 0.25 * s
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    vec_norm = float(np.linalg.norm(q[1:]))
    angle = 2.0 * float(np.arctan2(vec_norm, q[0]))
    if vec_norm < 1e-300 or angle == 0.0:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return q[1:] / vec_norm, angle


def point_to_line_distance(points, origin, direction) -> np.ndarray:
    """Distance of point(s) to the infinite line through `origin` along unit `direction`."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    o = as_vec3(origin)
    u = normalize(direction)
    rel = pts - o
    cross = np.cross(rel, u)
    d = np.linalg.norm(cross, axis=1)
    return d


def closest_point_on_line(point, origin, direction) -> np.ndarray:
    o = as_vec3(origin)
    u = normalize(direction)
    p = as_vec3(point)
    return o + np.dot(p - o, u) * u


def line_to_line_distance(origin_a, dir_a, origin_b, dir_b) -> float:
    """Minimum distance between two infinite lines (skew-line formula).

    Parallel lines fall back to point-to-line distance.
    """
    a0, ua = as_vec3(origin_a), normalize(dir_a)
    b0, ub = as_vec3(origin_b), normalize(dir_b)
    n = np.cross(ua, ub)
    nn = float(np.linalg.norm(n))
    if nn < 1e-12:
        return float(point_to_line_distance(b0[None, :], a0, ua)[0])
    return abs(float(np.dot(b0 - a0, n))) / nn


# ---------------------------------------------------------------------------
# Cloud serialization, binary little-endian layout:
#   magic  b"SKPC", u16 version (=1), u16 flags, u64 count,
#   f64 positions [N*3], then per flag bit: f64 colors [N*3] (bit 0),
#   i64 point_ids [N] (bit 2). Bit 1 marked per-point part ids, which clouds
#   no longer carry; a file with it set is refused.
# ---------------------------------------------------------------------------

_BIN_MAGIC = b"SKPC"
_FLAG_COLORS, _FLAG_PARTS, _FLAG_IDS = 1, 2, 4


def save_cloud_binary(cloud: PointCloud, path) -> None:
    flags = 0
    if cloud.colors is not None:
        flags |= _FLAG_COLORS
    if cloud.point_ids is not None:
        flags |= _FLAG_IDS
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<HHQ", 1, flags, len(cloud)))
        fh.write(cloud.positions.astype("<f8").tobytes())
        if cloud.colors is not None:
            fh.write(cloud.colors.astype("<f8").tobytes())
        if cloud.point_ids is not None:
            fh.write(cloud.point_ids.astype("<i8").tobytes())


def load_cloud_binary(path) -> PointCloud:
    """Read a cloud written by `save_cloud_binary`.

    Raises ValidationError when the magic, version or flags are unknown,
    when the file holds part ids (flag bit 1, written before clouds dropped
    them), or when the file length differs from the one its header implies.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:4]
    if magic != _BIN_MAGIC:
        raise ValidationError(f"bad cloud file magic {magic!r}")
    if len(data) < 16:
        raise ValidationError(
            f"cloud file header truncated at {len(data)} bytes")
    version, flags, n = struct.unpack_from("<HHQ", data, 4)
    if version != 1:
        raise ValidationError(f"unsupported cloud file version {version}")
    if flags & ~(_FLAG_COLORS | _FLAG_PARTS | _FLAG_IDS):
        raise ValidationError(f"unknown cloud file flags {flags:#x}")
    if flags & _FLAG_PARTS:
        raise ValidationError(f"cloud file {path} holds part ids, a field "
                              "clouds no longer carry; re-run collect to "
                              "rewrite it")
    fields = [("positions", "<f8", (n, 3))]
    if flags & _FLAG_COLORS:
        fields.append(("colors", "<f8", (n, 3)))
    if flags & _FLAG_IDS:
        fields.append(("point_ids", "<i8", (n,)))
    expected = 16 + sum(8 * math.prod(shape) for _, _, shape in fields)
    if len(data) != expected:
        raise ValidationError(f"cloud file holds {len(data)} bytes, its "
                              f"header implies {expected}")
    arrays, offset = {}, 16
    for name, dtype, shape in fields:
        count = math.prod(shape)
        arrays[name] = np.frombuffer(data, dtype, count, offset
                                     ).reshape(shape).copy()
        offset += 8 * count
    return PointCloud(**arrays)
