"""Block-parallel per-point geometry (`geom.map_blocks`): results equal the
whole-cloud computations bit for bit, whatever the thread count, and the
per-process pool survives a fork."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from unittest import mock

import numpy as np
import pytest

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


def _ring_rays():
    scene = generate_scene(2, GenerationConfig())
    cam = CameraPose([2.0, 1.5, 1.3], [3.0, 2.0, 1.0], resolution=(64, 48))
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
                mock.patch.object(geom, "_pool", lambda: pool):
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
