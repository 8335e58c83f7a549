"""Block-parallel per-point geometry (`geom.map_blocks`, `geom.submit_leaf`):
results equal the whole-cloud computations bit for bit, whatever the thread
count, a background task never outlives its caller, and the per-process pool
survives a fork."""

import multiprocessing
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from unittest import mock

import numpy as np
import pytest
from scipy.spatial import cKDTree

from scenekin import affordance, geom
from scenekin.affordance import AffordanceConfig, extract_features
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
    assert_same_bytes(estimate_normals(cloud, k), whole_cloud_normals(cloud, k))


@pytest.mark.parametrize("n", SIZES)
def test_features_match_whole_cloud(n):
    cloud = tied_cloud(n, seed=1)
    got = extract_features(cloud, *FEATURES)
    with mock.patch.object(affordance, "map_blocks", one_block), \
            mock.patch.object(geom, "map_blocks", one_block):
        want = extract_features(PointCloud(cloud.positions, cloud.colors),
                                *FEATURES)
    assert_same_bytes((got.values, got.valid), (want.values, want.valid))


class UnboundedTree(cKDTree):
    """A k-d tree whose `query` ignores `distance_upper_bound`."""

    def query(self, x, distance_upper_bound=np.inf, **kwargs):
        return super().query(x, **kwargs)


def test_bounded_discontinuity_query_matches_unbounded():
    # a 0.78 m floor meets a wall along one edge: the far floor lies beyond
    # the cap from every discontinuity, so its bounded queries miss
    cloud = tied_cloud(2 * BLOCK_ROWS + 7, seed=4)
    got = extract_features(cloud, *FEATURES)
    with mock.patch.object(affordance, "cKDTree", UnboundedTree):
        want = extract_features(PointCloud(cloud.positions, cloud.colors),
                                *FEATURES)
    assert_same_bytes((got.values, got.valid), (want.values, want.valid))
    ddist = got.values[got.valid, 9]
    cap = FEATURES[0].discontinuity_cap
    assert (ddist == cap).sum() > 100 and (ddist < cap).sum() > 100


def _slow_sums(done, error=None):
    """A `_neighborhood_sums` that finishes late, sets `done`, and raises
    `error` if given."""
    real = affordance._neighborhood_sums

    def sums(cloud, radius):
        try:
            time.sleep(0.3)
            if error is not None:
                raise error
            return real(cloud, radius)
        finally:
            done.set()
    return sums


def test_neighbourhood_task_finishes_before_features_return():
    done = threading.Event()
    cloud = tied_cloud(300)
    with mock.patch.object(affordance, "_neighborhood_sums",
                           _slow_sums(done)):
        extract_features(cloud, *FEATURES)
        assert done.is_set()


def test_neighbourhood_task_error_reaches_the_caller():
    done = threading.Event()
    with mock.patch.object(affordance, "_neighborhood_sums",
                           _slow_sums(done, KeyError("in the task"))), \
            pytest.raises(KeyError, match="in the task"):
        extract_features(tied_cloud(300), *FEATURES)
    assert done.is_set()


def test_normals_error_waits_for_the_neighbourhood_task():
    done = threading.Event()

    def failing_normals(cloud, k):
        raise KeyError("in the normals")

    with mock.patch.object(affordance, "_neighborhood_sums",
                           _slow_sums(done)), \
            mock.patch.object(geom, "estimate_normals", failing_normals), \
            pytest.raises(KeyError, match="in the normals"):
        extract_features(tied_cloud(300), *FEATURES)
    assert done.is_set()


def test_blocks_do_not_wait_behind_a_leaf_task():
    # the leaf holds the pool's only thread; the caller runs every block
    release = threading.Event()
    with ThreadPoolExecutor(1) as pool, \
            mock.patch.object(geom, "_pool", lambda: pool), \
            mock.patch.object(geom, "_threads", lambda: 2):
        leaf = geom.submit_leaf(release.wait, 30.0)
        try:
            got = geom.map_blocks(lambda rows: rows.start, 5 * BLOCK_ROWS)
            assert not leaf.done()
        finally:
            release.set()
    assert got == [k * BLOCK_ROWS for k in range(5)]


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
    return scene.world_parts(), cam.position, cam.ray_directions()


def _outputs():
    cloud = tied_cloud(2 * BLOCK_ROWS + 7, seed=2)
    feats = extract_features(cloud, *FEATURES)
    world, origin, dirs = _ring_rays()
    return (*cloud.normals(12), feats.values, feats.valid,
            *_nearest_hits(world, origin, dirs, 10.0))


def test_thread_count_does_not_change_bytes():
    outputs = []
    for threads in (1, 3):
        with ThreadPoolExecutor(threads) as pool, \
                mock.patch.object(geom, "_pool", lambda: pool), \
                mock.patch.object(geom, "_threads", lambda: threads):
            outputs.append(_outputs())
    assert_same_bytes(*outputs)


def test_pool_survives_fork():
    # a forked child inherits the parent's pool object but not its threads;
    # a child that used it would wait forever for its blocks
    cloud = tied_cloud(2 * BLOCK_ROWS + 7, seed=3)
    want = estimate_normals(cloud, 12)           # the parent's pool is live
    pool = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(estimate_normals, cloud, 12) for _ in range(2)]
        got = [f.result(timeout=60) for f in futures]
    except FutureTimeout:
        for process in pool._processes.values():
            process.kill()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
    for result in got:
        assert_same_bytes(result, want)
