"""Block-parallel per-point geometry and scoring (`geom.map_blocks`) and
per-row normals (`PointCloud.normals`): results equal the whole-cloud
computations bit for bit, whatever the thread count of the pool or of
OpenBLAS and whichever rows are asked for, and the per-process pool survives
a fork."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.spatial import cKDTree

from scenekin import affordance, geom
from scenekin.affordance import (
    AffordanceConfig,
    FeatureSet,
    complete,
    extract_features,
    predict,
)
from scenekin.geom import BLOCK_ROWS, PointCloud, estimate_normals
from scenekin.sensing import CameraPose, CaptureConfig, _nearest_hits
from scenekin.simworld import GenerationConfig, generate_scene

SIZES = (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 7)
FEATURES = (AffordanceConfig(), CaptureConfig().voxel)


def tied_cloud(n, seed=0):
    """`n` points on a 2 cm floor grid and a wall grid, a quarter of them
    duplicated, so k-NN distances tie within and across neighbourhoods."""
    g = 0.02 * np.arange(40)
    floor = np.stack(np.meshgrid(g, g, [0.0]), -1).reshape(-1, 3)
    wall = np.stack(np.meshgrid([0.0], g, 0.02 + g), -1).reshape(-1, 3)
    rng = np.random.default_rng(seed)
    grid = np.vstack([floor, wall])
    base = grid[rng.choice(len(grid), n - n // 4, replace=False)]
    pos = np.vstack([base, base[:n // 4]])
    return PointCloud(pos, colors=rng.uniform(0.0, 1.0, size=(n, 3)))


def whole_cloud_normals(cloud, k):
    """Reference: every step of `estimate_normals` over the whole cloud."""
    _, idx = cloud.tree.query(cloud.positions, k=k)
    neigh = cloud.positions[idx]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    w, v = np.linalg.eigh(cov)
    normals = v[:, :, 0].copy()
    scale = w[:, 2]
    valid = (scale > 1e-18) & (w[:, 1] > 1e-9 * np.maximum(scale, 1e-18))
    normals[normals[:, 2] < 0.0] *= -1.0
    normals[~valid] = 0.0
    return normals, valid


def whole_features(cloud):
    """`extract_features` completed at every row."""
    feats = extract_features(cloud, *FEATURES)
    return complete(feats, cloud, np.arange(len(cloud)))


def one_block(fn, n):
    """Reference `map_blocks`: one call over all rows on the calling thread."""
    return [fn(slice(0, n))]


def assert_same_bytes(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("k", [3, 12])
def test_normals_match_whole_cloud(n, k):
    cloud = tied_cloud(n)
    assert_same_bytes(estimate_normals(cloud, k, np.arange(n)),
                      whole_cloud_normals(cloud, k))


def reference_normals(cloud, k):
    """`whole_cloud_normals` with `PointCloud.normals`'s clamp of k."""
    k = min(k, len(cloud))
    if k < 3:
        return np.zeros((len(cloud), 3)), np.zeros(len(cloud), dtype=bool)
    return whole_cloud_normals(cloud, k)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 2 * BLOCK_ROWS + 7])
def test_row_normals_match_whole_cloud(n, threads):
    # unsorted, repeated, empty and all rows, asked in turn of one cloud so
    # later requests mix cached and new rows; n = 7 is below k = 12
    rng = np.random.default_rng(n)
    cloud = tied_cloud(n, seed=6)
    subsets = [rng.permutation(n)[:max(1, n // 3)],
               rng.integers(0, n, size=n), np.zeros(0, dtype=np.int64),
               np.arange(n)]
    with ThreadPoolExecutor(threads) as pool, \
            mock.patch.object(geom, "_pool", lambda: pool), \
            mock.patch.object(geom, "_threads", lambda: threads):
        for k in (3, 12):
            want = reference_normals(cloud, k)
            for rows in subsets:
                assert_same_bytes(cloud.normals(k, rows),
                                  (want[0][rows], want[1][rows]))


def test_each_row_is_estimated_once_per_k(monkeypatch):
    n = 2 * BLOCK_ROWS + 7
    cloud = tied_cloud(n, seed=7)
    asked = {3: [], 12: []}
    real = geom.estimate_normals

    def spy(cloud, k, rows):
        asked[k].append(np.array(rows))
        return real(cloud, k, rows)

    monkeypatch.setattr(geom, "estimate_normals", spy)
    rng = np.random.default_rng(0)
    for _ in range(4):
        for k in (3, 12):
            cloud.normals(k, rng.integers(0, n, size=BLOCK_ROWS))
    for k in (3, 12):
        cloud.normals(k, np.arange(n))
        calls = len(asked[k])
        cloud.normals(k, rng.permutation(n))
        assert len(asked[k]) == calls
        rows = np.concatenate(asked[k])
        assert np.array_equal(np.sort(rows), np.arange(n))


@pytest.mark.parametrize("n", SIZES)
def test_features_match_whole_cloud(n):
    cloud = tied_cloud(n, seed=1)
    got = whole_features(cloud)
    with mock.patch.object(affordance, "map_blocks", one_block), \
            mock.patch.object(geom, "map_blocks", one_block):
        want = whole_features(PointCloud(cloud.positions, cloud.colors))
    assert_same_bytes((got.values, got.valid), (want.values, want.valid))


class UnboundedTree(cKDTree):
    """A k-d tree whose `query` ignores `distance_upper_bound`."""

    def query(self, x, distance_upper_bound=np.inf, **kwargs):
        return super().query(x, **kwargs)


def test_bounded_discontinuity_query_matches_unbounded():
    # a 0.78 m floor meets a wall along one edge: the far floor lies beyond
    # the cap from every discontinuity, so its bounded queries miss
    cloud = tied_cloud(2 * BLOCK_ROWS + 7, seed=4)
    got = whole_features(cloud)
    with mock.patch.object(affordance, "cKDTree", UnboundedTree):
        want = whole_features(PointCloud(cloud.positions, cloud.colors))
    assert_same_bytes((got.values, got.valid), (want.values, want.valid))
    ddist = got.values[got.valid, 9]
    cap = affordance.DISCONTINUITY_CAP
    assert (ddist == cap).sum() > 100 and (ddist < cap).sum() > 100


def test_every_block_runs_once_under_contention():
    # eight claimants on a short switch interval: a block claimed twice or
    # never shows in its list of claimants
    claimed = [[] for _ in range(4000)]
    out = {}

    def run():
        out["got"] = geom.map_blocks(
            lambda rows: claimed[rows.start].append(rows.start) or rows.start,
            len(claimed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(7) as pool, \
                mock.patch.object(geom, "BLOCK_ROWS", 1), \
                mock.patch.object(geom, "_pool", lambda: pool), \
                mock.patch.object(geom, "_threads", lambda: 8):
            caller = threading.Thread(target=run)
            caller.start()
            caller.join(60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [len(c) for c in claimed] == [1] * len(claimed)
    assert out["got"] == list(range(len(claimed)))


def _ring_rays():
    scene = generate_scene(2, GenerationConfig())
    cam = CameraPose([2.0, 1.5, 1.3], [3.0, 2.0, 1.0], vfov_deg=60.0,
                     resolution=(64, 48))
    return scene.boxes, cam.position, cam.ray_directions()


def scoring_model(feats):
    """A 16-unit network standardized on the valid rows of `feats`."""
    x = feats.values[feats.valid]
    return replace(affordance.init_model(16, 0), scaler_mean=x.mean(axis=0),
                   scaler_std=np.maximum(x.std(axis=0), 1e-8))


def gapped_features(cloud):
    """`extract_features` completed at every row outside the second block,
    so that block holds no valid row."""
    n = len(cloud)
    rows = np.r_[0:BLOCK_ROWS, 2 * BLOCK_ROWS:n]
    feats = complete(extract_features(cloud, *FEATURES), cloud, rows)
    blocks = [feats.valid[a:a + BLOCK_ROWS] for a in range(0, n, BLOCK_ROWS)]
    assert [b.any() for b in blocks] == [True, False, True]
    return feats


def _outputs():
    cloud = tied_cloud(2 * BLOCK_ROWS + 7, seed=2)
    feats = whole_features(cloud)
    gapped = gapped_features(cloud)
    boxes, origin, dirs = _ring_rays()
    return (*cloud.normals(12, np.arange(len(cloud))), feats.values,
            feats.valid, predict(scoring_model(feats), feats),
            predict(scoring_model(gapped), gapped),
            *_nearest_hits(boxes, origin, dirs, 10.0))


def test_thread_count_does_not_change_bytes():
    outputs = []
    for threads in (1, 3):
        with ThreadPoolExecutor(threads) as pool, \
                mock.patch.object(geom, "_pool", lambda: pool), \
                mock.patch.object(geom, "_threads", lambda: threads):
            outputs.append(_outputs())
    assert_same_bytes(*outputs)


def test_predict_evaluates_blocks_with_a_valid_row(monkeypatch):
    cloud = tied_cloud(2 * BLOCK_ROWS + 7, seed=5)
    feats = gapped_features(cloud)
    model = scoring_model(feats)
    want = predict(model, feats)
    sizes = []
    real = affordance._forward

    def spy(model, x):
        sizes.append(len(x))
        return real(model, x)

    monkeypatch.setattr(affordance, "_forward", spy)
    got = predict(model, feats)
    assert sorted(sizes) == [7, BLOCK_ROWS]
    assert got.tobytes() == want.tobytes()
    assert not got[BLOCK_ROWS:2 * BLOCK_ROWS].any()


def score_digests():
    """sha256 of `predict`'s scores and of the same network run as one
    product over all rows, on the features of a tied cloud and on 44,001
    random rows (a 64x48 room's size), half of them valid. At 44,001 rows
    the one product is big enough for OpenBLAS to thread."""
    cloud = tied_cloud(2 * BLOCK_ROWS + 7, seed=2)
    feats = gapped_features(cloud)
    rng = np.random.default_rng(0)
    n = 44_001
    random_rows = FeatureSet(rng.normal(size=(n, 10)), rng.uniform(size=n) < 0.5)
    inputs = [(scoring_model(feats), feats),
              (replace(affordance.init_model(16, 0), b1=rng.normal(size=16)),
               random_rows)]
    scores, whole = [], []
    for model, fs in inputs:
        scores.append(predict(model, fs))
        x = (fs.values - model.scaler_mean) / model.scaler_std
        z, _ = affordance._forward(model, x)
        whole.append(np.where(fs.valid, affordance._sigmoid(z), 0.0))
    return [hashlib.sha256(np.concatenate(a).tobytes()).hexdigest()
            for a in (scores, whole)]


def test_blas_thread_count_does_not_change_scores():
    # OPENBLAS_NUM_THREADS is read when numpy loads, so each count gets a
    # child process; only the children's environment sets it
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(affordance.__file__)))
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, tests]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import test_blocks; print(*test_blocks.score_digests())"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        digests[threads] = out.stdout.split()
    # the same scores under both counts, equal to one single-thread product
    assert digests["1"][0] == digests["2"][0] == digests["1"][1]


def test_pool_survives_fork():
    # a forked child inherits the parent's pool object but not its threads;
    # a child that used it would wait forever for its blocks
    cloud = tied_cloud(2 * BLOCK_ROWS + 7, seed=3)
    rows = np.arange(len(cloud))
    want = estimate_normals(cloud, 12, rows)     # the parent's pool is live
    pool = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(estimate_normals, cloud, 12, rows)
                   for _ in range(2)]
        got = [f.result(timeout=60) for f in futures]
    except FutureTimeout:
        for process in pool._processes.values():
            process.kill()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
    for result in got:
        assert_same_bytes(result, want)
