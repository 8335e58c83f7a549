import hashlib
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from scenekin import affordance, geom, hotspot, pipeline, sensing
from scenekin.affordance import (
    DISCONTINUITY_CAP,
    FEATURE_DIM,
    FEATURE_NAMES,
    IGNORE,
    K_NORMALS,
    NEGATIVE,
    POSITIVE,
    VARIATION_THRESHOLD,
    AffordanceConfig,
    AffordanceLabelSet,
    FeatureSet,
    TrainConfig,
    collect_labels,
    complete,
    extract_features,
    init_model,
    labels_from_dict,
    labels_to_dict,
    load_model,
    loss_and_grad,
    predict,
    refine_bounds,
    save_model,
    score_bounds,
    train,
)
from scenekin.config import config_from_dict, derive_seed
from scenekin.errors import TrainingError, ValidationError
from scenekin.geom import BLOCK_ROWS, PointCloud
from scenekin.simworld import (
    CONTACT_TOL,
    GRIPPER_RADIUS,
    GenerationConfig,
    InteractionConfig,
    canonical_pull_directions,
    generate_scene,
    gripper_clearance,
    interact,
    nearest_part,
    probe,
    surface_normal,
)
from scenekin.sensing import (
    VOXEL,
    CaptureConfig,
    capture_scene_cloud,
    id_parts,
)


def flat_patch_cloud(n=400, seed=0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = np.column_stack([xy, np.zeros(n)])
    colors = np.full((n, 3), 0.4)
    return PointCloud(pts, colors=colors)


def features(cloud, config):
    """Features of every cloud point, completed at every row."""
    return complete(extract_features(cloud, config), cloud,
                    np.arange(len(cloud)))


class TestFeatures:
    def test_flat_patch_planarity(self):
        # grid sampling mirrors the near-regular spacing of ray-cast clouds
        xs = np.linspace(-0.5, 0.5, 21)
        gx, gy = np.meshgrid(xs, xs)
        pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        cloud = PointCloud(pts, colors=np.full((len(pts), 3), 0.4))
        feats = features(cloud, AffordanceConfig(feature_radius=0.12))
        interior = feats.valid
        assert interior.sum() > 300
        planarity = feats.values[interior, 2]
        linearity = feats.values[interior, 3]
        assert np.median(planarity) > 0.9
        assert np.median(linearity) < 0.2

    def test_edge_strip_linearity(self):
        # thin strip: one dominant direction
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.5, 0.5, size=300)
        y = rng.uniform(-0.005, 0.005, size=300)
        cloud = PointCloud(np.column_stack([x, y, np.zeros(300)]))
        feats = features(cloud, AffordanceConfig(feature_radius=0.08))
        lin = feats.values[feats.valid, 3]
        assert np.median(lin) > 0.8

    def test_deterministic(self):
        cloud = flat_patch_cloud(seed=3)
        a = features(cloud, AffordanceConfig(feature_radius=0.07))
        b = features(cloud, AffordanceConfig(feature_radius=0.07))
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.valid, b.valid)

    def test_feature_dim(self):
        feats = features(flat_patch_cloud(60, seed=2),
                         AffordanceConfig(feature_radius=0.2))
        assert feats.values.shape == (60, FEATURE_DIM)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300),
           st.sampled_from([0.03, 0.05, 0.1]),
           st.sampled_from(["box", "slab", "grid"]), st.booleans())
    @example(0, 2 * BLOCK_ROWS + 7, 0.05, "box", True)
    @example(1, 2 * BLOCK_ROWS + 7, 0.05, "slab", False)
    @example(2, 2 * BLOCK_ROWS + 7, 0.03, "grid", True)
    @example(3, 2 * BLOCK_ROWS + 7, 0.1, "grid", False)
    @example(4, 1, 0.05, "box", True)
    # no two points within the radius, so no pairs: only this example
    # draws the "apart" kind
    @example(5, 300, 0.05, "apart", True)
    @example(6, BLOCK_ROWS, 0.05, "slab", True)
    # the last block holds one row
    @example(7, BLOCK_ROWS + 1, 0.03, "grid", False)
    def test_matches_ball_query_reference(self, seed, n, radius, kind,
                                          colored):
        cloud = oracle_cloud(seed, n, radius, kind, colored)
        config = AffordanceConfig(feature_radius=radius)
        feats = extract_features(cloud, config)
        free = [FEATURE_NAMES.index("normal_up"),
                FEATURE_NAMES.index("discontinuity_dist")]
        assert np.isnan(feats.values[feats.valid][:, free]).all()
        if kind == "apart" or n == 1:
            # every neighbourhood is the point alone
            assert not feats.valid.any()
        feats = features(cloud, config)
        values, valid = ball_query_features(cloud, config, VOXEL)
        assert feats.values.tobytes() == values.tobytes()
        np.testing.assert_array_equal(feats.valid, valid)


def oracle_cloud(seed, n, radius, kind, colored):
    """`n` points in a box, a thin slab (as ray-cast surfaces are), or on a
    grid, in shuffled order. The "grid" step is `radius`, so neighbours tie
    at the radius, and a quarter of its points are duplicated; the "apart"
    step is twice the radius, so no point has a neighbour."""
    rng = np.random.default_rng(seed)
    if kind in ("grid", "apart"):
        side = math.ceil(n ** (1 / 3)) + 1
        g = radius * np.arange(side) * (1 if kind == "grid" else 2)
        grid = np.stack(np.meshgrid(g, g, g), -1).reshape(-1, 3)
        dup = n // 4 if kind == "grid" else 0
        base = grid[rng.choice(len(grid), n - dup, replace=False)]
        pts = rng.permutation(np.vstack([base, base[:dup]]))
    else:
        pts = rng.uniform(-0.2, 0.2, size=(n, 3))
        if kind == "slab":
            pts[:, 2] *= 0.01
    colors = rng.uniform(0.0, 1.0, size=(n, 3)) if colored else None
    return PointCloud(pts, colors=colors)


def ball_query_features(cloud, config, voxel):
    """Reference `extract_features` completed at every row: each point's
    sorted ball-query list, one sparse product over the whole cloud, then
    the covariance, density, colour and discontinuity steps over every row
    at once, with `normal_up` and its validity from `PointCloud.normals`."""
    n, pos, radius = len(cloud), cloud.positions, config.feature_radius
    lists = cloud.tree.query_ball_point(pos, r=radius, return_sorted=True)
    counts = np.array([len(l) for l in lists])
    adjacency = csr_matrix(
        (np.ones(counts.sum()), np.concatenate(lists).astype(np.int64),
         np.concatenate([[0], np.cumsum(counts)])), shape=(n, n))
    ia, ib = np.triu_indices(3)
    columns = [pos, pos[:, ia] * pos[:, ib]]
    if cloud.colors is not None:
        columns.append(cloud.colors)
    sums = adjacency @ np.column_stack(columns)
    c = counts[:, None]
    mean = sums[:, :3] / c
    sq = np.empty((n, 3, 3))
    sq[:, ia, ib] = sq[:, ib, ia] = sums[:, 3:9] / c
    w = np.linalg.eigvalsh(sq - np.einsum("ni,nj->nij", mean, mean))
    lam3, lam2, lam1 = np.maximum(w[:, 0], 0.0), w[:, 1], w[:, 2]
    safe1 = np.maximum(lam1, 1e-18)
    variation = lam3 / np.maximum(lam1 + lam2 + lam3, 1e-18)
    disc = variation > VARIATION_THRESHOLD
    ddist = np.full(n, DISCONTINUITY_CAP)
    if disc.any():
        ddist = np.minimum(cKDTree(pos[disc]).query(pos)[0], ddist)
    density = np.minimum(counts / (math.pi * radius ** 2 / voxel ** 2),
                         2.0) / 2.0
    mean_color = (sums[:, 9:] / c if cloud.colors is not None
                  else np.zeros((n, 3)))
    normals, normals_valid = cloud.normals(K_NORMALS, np.arange(n))
    values = np.column_stack([
        pos[:, 2], normals[:, 2], (lam2 - lam3) / safe1,
        (lam1 - lam2) / safe1, lam3 / safe1, density, mean_color, ddist])
    valid = (counts >= 3) & (lam1 > 1e-18) & normals_valid
    values[~valid] = 0.0
    return values, valid


class TestCollectLabels:
    def test_jointless_scene_all_negative_or_ignore(self):
        scene = generate_scene(3, GenerationConfig(0, 0, 2))
        cloud = capture_scene_cloud(
            scene, CaptureConfig(resolution=(60, 45)), None)
        labels = collect_labels(scene, cloud, 60, 5, InteractionConfig())
        assert POSITIVE not in labels.labels
        assert NEGATIVE in labels.labels

    def test_drawer_face_positive(self):
        scene = generate_scene(13, GenerationConfig(0, 1, 0))
        part_idx, _ = scene.joints[0]
        cloud = capture_scene_cloud(
            scene, CaptureConfig(resolution=(100, 75)), None)
        labels = collect_labels(scene, cloud, 400, 7, InteractionConfig())
        on_panel = id_parts(cloud.point_ids[labels.indices]) == part_idx
        got = [l for l, m in zip(labels.labels, on_panel) if m]
        assert got.count(POSITIVE) >= max(1, int(0.8 * len(got)))

    def test_deterministic(self):
        scene = generate_scene(4, GenerationConfig(1, 1, 1))
        cloud = capture_scene_cloud(
            scene, CaptureConfig(resolution=(60, 45)), None)
        a = collect_labels(scene, cloud, 80, 11, InteractionConfig())
        b = collect_labels(scene, cloud, 80, 11, InteractionConfig())
        np.testing.assert_array_equal(a.indices, b.indices)
        assert a.labels == b.labels

    def test_replay_oracle(self):
        # every positive replays to a success, every negative to three failures
        scene = generate_scene(6, GenerationConfig(1, 1, 1))
        cloud = capture_scene_cloud(
            scene, CaptureConfig(resolution=(80, 60)), None)
        interaction = InteractionConfig()
        labels = collect_labels(scene, cloud, 120, 13, interaction)
        for i, label in zip(labels.indices, labels.labels):
            if label == IGNORE:
                continue
            point = cloud.positions[i]
            normal = surface_normal(scene, point)
            assert gripper_clearance(scene, point, normal, GRIPPER_RADIUS)
            results = []
            for d in canonical_pull_directions(normal):
                outcome, _ = interact(scene, point, d,
                                      interaction.pull.total)
                results.append(outcome.success)
            if label == POSITIVE:
                assert any(results)
            else:
                assert not any(results)

    def test_probes_only_samples_on_jointed_parts(self, monkeypatch):
        """Every sample on a jointed part with clearance and on the surface
        is probed, and no other sample is."""
        scene = generate_scene(6, GenerationConfig(2, 2, 1))
        cloud = capture_scene_cloud(
            scene, CaptureConfig(resolution=(80, 60)), None)
        interaction = InteractionConfig()
        probed = []

        def spy(scene, contact, normal, interaction):
            probed.append(contact.tobytes())
            return probe(scene, contact, normal, interaction)

        monkeypatch.setattr(affordance, "probe", spy)
        labels = collect_labels(scene, cloud, 200, 13, interaction)
        jointed = {part for part, _ in scene.joints}
        expect = []
        for i in labels.indices:
            point = cloud.positions[i]
            part, dist = nearest_part(scene, point)
            if part in jointed and dist <= CONTACT_TOL and gripper_clearance(
                    scene, point, surface_normal(scene, point),
                    GRIPPER_RADIUS):
                expect.append(point.tobytes())
        assert probed == expect
        assert 0 < len(probed) < labels.labels.count(NEGATIVE) \
            + labels.labels.count(POSITIVE)


class TestLossAndGrad:
    def test_perfect_prediction_dice_vanishes(self):
        model = init_model(hidden=1, seed=0)
        # giant logits: the unit saturates at +-1, p -> exactly 0/1 in
        # float, dice -> 0
        x = np.array([[1.0] + [0.0] * (FEATURE_DIM - 1),
                      [-1.0] + [0.0] * (FEATURE_DIM - 1)])
        big = model.with_params(np.array(
            [50.0] + [0.0] * (FEATURE_DIM - 1) + [0.0, 1e3, 0.0]))
        y = np.array([1.0, 0.0])
        loss, _ = loss_and_grad(big, x, y)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_single_positive_at_half(self):
        # p = 0.5 on one positive: CE = ln 2, dice = 1 - 2*0.5/(0.5+1+eps)
        model = init_model(hidden=1, seed=0)
        zero = model.with_params(np.zeros_like(model.params()))
        x = np.zeros((1, FEATURE_DIM))
        y = np.ones(1)
        loss, _ = loss_and_grad(zero, x, y)
        expect = math.log(2.0) + (1.0 - 2.0 * 0.5 / (1.5 + 1e-7))
        assert loss == pytest.approx(expect, abs=1e-9)

    @pytest.mark.parametrize("hidden", [1, 8])
    def test_gradient_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(42)
        for _ in range(25):
            model = init_model(hidden=hidden, seed=rng.integers(10**6))
            params = model.params() + rng.normal(scale=0.3,
                                                 size=model.params().shape)
            model = model.with_params(params)
            x = rng.normal(size=(12, FEATURE_DIM))
            y = (rng.uniform(size=12) < 0.4).astype(float)
            if y.sum() == 0:
                y[0] = 1.0
            _, grad = loss_and_grad(model, x, y)
            eps = 1e-6
            for k in rng.choice(len(params), size=6, replace=False):
                up = params.copy(); up[k] += eps
                dn = params.copy(); dn[k] -= eps
                lu, _ = loss_and_grad(model.with_params(up), x, y)
                ld, _ = loss_and_grad(model.with_params(dn), x, y)
                fd = (lu - ld) / (2 * eps)
                denom = max(abs(fd), abs(grad[k]), 1e-8)
                assert abs(grad[k] - fd) / denom < 1e-4

    def test_dice_permutation_symmetric(self):
        rng = np.random.default_rng(9)
        model = init_model(hidden=1, seed=1)
        x = rng.normal(size=(30, FEATURE_DIM))
        y = (rng.uniform(size=30) < 0.5).astype(float)
        y[0] = 1.0
        perm = rng.permutation(30)
        l1, _ = loss_and_grad(model, x, y)
        l2, _ = loss_and_grad(model, x[perm], y[perm])
        assert l1 == pytest.approx(l2, abs=1e-12)

    def test_all_ignored_rejected(self):
        model = init_model(hidden=1, seed=0)
        with pytest.raises(TrainingError):
            loss_and_grad(model, np.zeros((0, FEATURE_DIM)), np.zeros(0))


def separable_dataset(n_scenes=4, n=200, seed=0):
    """Toy scenes: feature 0 alone decides the label."""
    from scenekin.affordance import FeatureSet

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_scenes):
        feats = rng.normal(size=(n, FEATURE_DIM))
        y = feats[:, 0] > 0.0
        feats[:, 0] += np.where(y, 1.0, -1.0)
        labels = tuple(POSITIVE if v else NEGATIVE for v in y)
        out.append((FeatureSet(feats, np.ones(n, dtype=bool)),
                    AffordanceLabelSet(np.arange(n), labels)))
    return out


class TestTrainPredict:
    def test_separable_data_high_accuracy(self):
        dataset = separable_dataset()
        model, log = train(dataset, TrainConfig(epochs=300, hidden=1,
                                                learning_rate=1.0), seed=0)
        feats, labelset = dataset[-1]
        scores = predict(model, feats)
        pred = scores[labelset.indices] >= 0.5
        truth = np.array([l == POSITIVE for l in labelset.labels])
        assert (pred == truth).mean() >= 0.99
        assert len(log) == 300

    def test_validation_loss_is_loss_and_grad_loss(self):
        """The validation loss train logs, computed without a gradient,
        equals `loss_and_grad`'s loss bit for bit."""
        dataset = separable_dataset(4, seed=7)
        model, log = train(dataset, TrainConfig(epochs=40, hidden=8), seed=1)
        feats, labelset = dataset[-1]   # the validation split
        xv = (feats.values - model.scaler_mean) / model.scaler_std
        yv = np.array([l == POSITIVE for l in labelset.labels], dtype=float)
        loss, _ = loss_and_grad(model, xv, yv)
        assert np.float64(min(row["val_loss"] for row in log)).tobytes() \
            == np.float64(loss).tobytes()

    def test_zero_epochs_returns_initialized(self):
        dataset = separable_dataset(2)
        model, log = train(dataset, TrainConfig(epochs=0, hidden=1), seed=3)
        ref = init_model(hidden=1, seed=3)
        np.testing.assert_array_equal(model.params(), ref.params())
        assert log == []

    def test_deterministic(self):
        dataset = separable_dataset(3, seed=5)
        m1, _ = train(dataset, TrainConfig(epochs=50, hidden=8), seed=2)
        m2, _ = train(dataset, TrainConfig(epochs=50, hidden=8), seed=2)
        np.testing.assert_array_equal(m1.params(), m2.params())

    def test_predict_zero_model_is_half(self):
        model = init_model(hidden=1, seed=0)
        model = model.with_params(np.zeros_like(model.params()))
        from scenekin.affordance import FeatureSet
        feats = FeatureSet(np.random.default_rng(0).normal(size=(10, FEATURE_DIM)),
                           np.array([True] * 9 + [False]))
        scores = predict(model, feats)
        np.testing.assert_allclose(scores[:9], 0.5)
        assert scores[9] == 0.0

    def test_large_bias_saturates(self):
        model = init_model(hidden=1, seed=0)
        model = model.with_params(np.concatenate(
            [np.zeros(len(model.params()) - 1), [50.0]]))
        from scenekin.affordance import FeatureSet
        feats = FeatureSet(np.zeros((5, FEATURE_DIM)), np.ones(5, dtype=bool))
        assert predict(model, feats).min() > 1.0 - 1e-9

    def test_permutation_equivariant(self):
        from scenekin.affordance import FeatureSet
        rng = np.random.default_rng(11)
        vals = rng.normal(size=(40, FEATURE_DIM))
        feats = FeatureSet(vals, np.ones(40, dtype=bool))
        model, _ = train(separable_dataset(2),
                         TrainConfig(epochs=40, hidden=1), seed=0)
        scores = predict(model, feats)
        perm = rng.permutation(40)
        scores_p = predict(model, FeatureSet(vals[perm], np.ones(40, bool)))
        np.testing.assert_allclose(scores_p, scores[perm], atol=1e-12)


class TestSerialization:
    def test_labels_round_trip(self):
        ls = AffordanceLabelSet(np.array([3, 1, 4]),
                                (POSITIVE, IGNORE, NEGATIVE))
        back = labels_from_dict(labels_to_dict(ls, scene_seed=7))
        np.testing.assert_array_equal(back.indices, ls.indices)
        assert back.labels == ls.labels
        # a set that sampled no points is a valid one
        empty = labels_from_dict(labels_to_dict(
            AffordanceLabelSet(np.zeros(0, dtype=np.int64), ()), 7))
        assert empty.indices.dtype == np.int64 and empty.indices.shape == (0,)

    def test_model_round_trip(self, tmp_path):
        model, _ = train(separable_dataset(2),
                         TrainConfig(epochs=20, hidden=8), seed=0)
        p = tmp_path / "model.json"
        save_model(model, p, "0" * 16, 0)
        back = load_model(p)
        np.testing.assert_array_equal(back.params(), model.params())
        np.testing.assert_array_equal(back.scaler_mean, model.scaler_mean)

    @pytest.mark.parametrize("field, value", [("hidden", 0), ("w1", None)])
    def test_model_without_hidden_layer_rejected(self, tmp_path, field,
                                                 value):
        p = tmp_path / "model.json"
        save_model(init_model(hidden=1, seed=0), p, "0" * 16, 0)
        doc = json.loads(p.read_text())
        p.write_text(json.dumps({**doc, field: value}))
        with pytest.raises(ValidationError, match=f"model file {p}"):
            load_model(p)

    @pytest.mark.parametrize("field, value, message", [
        ("scaler_mean", lambda v: v[:-1], "scaler_mean must be numbers"),
        ("scaler_std", lambda v: v + [1.0], "scaler_std must be numbers"),
        ("w1", lambda v: [row[:-1] for row in v], "w1 must be numbers"),
        ("w1", lambda v: v[:1] + [v[1][:-1]] + v[2:], "w1 must be numbers"),
        ("b1", lambda v: v[:-1], "b1 must be numbers"),
        ("w2", lambda v: v[:-1], "w2 must be numbers"),
        ("w2", lambda v: ["x"] * len(v), "w2 must be numbers"),
        ("b2", lambda v: None, "b2 must be a finite number"),
        ("b2", lambda v: "NaN", "b2 must be a finite number"),
    ])
    def test_model_whose_arrays_do_not_fit_rejected(self, tmp_path, field,
                                                    value, message):
        """Every array must have the shape the feature count and the hidden
        width give it, and `b2` must be a finite number."""
        p = tmp_path / "model.json"
        save_model(init_model(hidden=4, seed=0), p, "0" * 16, 0)
        doc = json.loads(p.read_text())
        p.write_text(json.dumps({**doc, field: value(doc[field])}))
        with pytest.raises(ValidationError, match=f"model file {p}: {message}"):
            load_model(p)


def bounded_rows(seed, n, scale, tiny_std, hidden):
    """(model, features, cloud, real normal_up, real discontinuity
    distance) of `n` random rows under a random head: every feature but
    `normal_up` and `discontinuity_dist` drawn, those two NaN as
    `extract_features` leaves them, a tenth of the rows invalid, and a
    random fifth of the cloud's points as the discontinuities. With
    `tiny_std` both free features have the scaler floor of `train`, so
    their standardized values span 1e8."""
    rng = np.random.default_rng(seed)
    model = init_model(hidden, seed)
    model = replace(
        model.with_params(rng.normal(scale=scale, size=model.params().shape)),
        scaler_mean=rng.normal(size=FEATURE_DIM),
        scaler_std=rng.uniform(0.05, 3.0, size=FEATURE_DIM))
    if tiny_std:
        model.scaler_std[[1, 9]] = 1e-8
    cloud = PointCloud(rng.uniform(-1.0, 1.0, size=(n, 3)))
    values = rng.normal(scale=3.0, size=(n, FEATURE_DIM))
    valid = rng.uniform(size=n) < 0.9
    values[:, [1, 9]] = np.nan
    values[~valid] = 0.0
    disc = cKDTree(cloud.positions[rng.uniform(size=n) < 0.2])
    feats = FeatureSet(values, valid, disc)
    real_dist = np.minimum(disc.query(cloud.positions)[0], DISCONTINUITY_CAP)
    return model, feats, cloud, rng.uniform(0.0, 1.0, size=n), real_dist


def two_pass_bounds(model, feats, cloud, threshold):
    """(bounds, loose rows) of the eager two-pass `score_bounds` that
    `refine_bounds` replaced: the first pass over every row, then every
    valid row whose first-pass bound reaches `threshold` refined in index
    order, per block of those rows. Kept as the reference the refinement
    must equal byte for byte; `feats` is left as it was.

    The loose rows are those whose bytes here depend on the rows beside
    them: OpenBLAS sums the last `len % 4` rows of a matrix-vector product,
    and a lone row of a matrix product, in another order. `refine_bounds`
    pads its products to whole groups of 4, so it may differ from the
    reference in the last bits there."""
    mean, std = model.scaler_mean, model.scaler_std
    up, disc = FEATURE_NAMES.index("normal_up"), FEATURE_NAMES.index(
        "discontinuity_dist")
    free = [up, disc]
    rising = model.w2 * model.w1[free] >= 0.0
    low = (0.0 - mean[free]) / std[free]
    high = (np.array([1.0, DISCONTINUITY_CAP]) - mean[free]) / std[free]
    free_shift = (model.w1[free] * np.where(rising, high[:, None],
                                            low[:, None])).sum(axis=0)
    slope = model.w1[up]
    knots = (np.linspace(0.0, 1.0, 5) - mean[up]) / std[up]
    loose = []

    def product(a, b, rows):
        loose.extend(rows[len(rows) - len(rows) % 4:] if b.ndim == 1
                     else rows if len(rows) == 1 else [])
        return a @ b

    def bound(a, rows):
        z = product(np.tanh(a, out=a), model.w2, rows) + model.b2
        return affordance._sigmoid(z + 1e-9)

    def normal_up_bound(pre, lo, hi, rows):
        return bound(pre + slope * np.where(rising[0], hi, lo), rows)

    bounds = np.empty(len(feats))

    def first(rows):
        x = feats.values[rows] - mean
        x /= std
        x[:, free] = 0.0
        rows = np.arange(rows.start, rows.stop)
        pre = product(x, model.w1, rows)
        pre += model.b1
        pre += free_shift
        bounds[rows] = np.where(feats.valid[rows], bound(pre, rows), 0.0)

    for rows in geom.row_blocks(len(feats)):
        first(rows)
    left = np.flatnonzero(feats.valid & (bounds >= threshold))

    def second(part):
        rows = left[part]
        x = feats.values[rows] - mean
        x[:, disc] = np.minimum(geom.query_within(
            feats.discontinuities, cloud.positions[rows],
            DISCONTINUITY_CAP)[0], DISCONTINUITY_CAP)
        x[:, disc] -= mean[disc]
        x /= std
        x[:, up] = 0.0
        pre = product(x, model.w1, rows)
        pre += model.b1
        b = normal_up_bound(pre, knots[0], knots[-1], rows)
        reach = b >= threshold
        b[reach] = np.max([normal_up_bound(pre[reach], lo, hi, rows[reach])
                           for lo, hi in zip(knots, knots[1:])], axis=0)
        bounds[rows] = b

    for part in geom.row_blocks(len(left)):
        second(part)
    return bounds, np.unique(np.asarray(loose, dtype=np.intp))


class TestScoreBound:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 16]), st.integers(0, 2 ** 32 - 1),
           st.floats(0.1, 5.0), st.booleans())
    def test_bound_reaches_every_score(self, hidden, seed, scale, tiny_std):
        """Every bound is at least the row's score: the first pass's over
        any `normal_up` in [0, 1] and any discontinuity distance in [0,
        cap] (the threshold 2 refines no row), and the refined one, of
        each valid row whose first-pass bound reaches the threshold, over
        any `normal_up` at the exact distance. The bounds equal the
        two-pass reference's outside its loose rows. Invalid rows read
        0."""
        model, feats, cloud, real_up, real_dist = bounded_rows(
            seed, 200, scale, tiny_std, hidden)
        n, valid, cap = len(feats), feats.valid, DISCONTINUITY_CAP
        rng = np.random.default_rng(seed)
        first = score_bounds(model, feats)
        for threshold in (0.0, 0.5, 1.0, 2.0):
            reference, loose = two_pass_bounds(model, feats, cloud,
                                               threshold)
            second = valid & (first >= threshold)
            bounds = first.copy()
            bounds[second] = refine_bounds(model, feats, cloud,
                                           np.flatnonzero(second), threshold)
            same = np.ones(n, dtype=bool)
            same[loose] = False
            assert bounds[same].tobytes() == reference[same].tobytes()
            assert not bounds[~valid].any()
            for dist in (real_dist, 0.0, cap, rng.uniform(0.0, cap, n)):
                dist = np.where(second, real_dist, dist)
                for up in (0.0, 0.25, 0.5, 0.75, 1.0, real_up):
                    exact = feats.values.copy()
                    exact[:, 1] = up
                    exact[:, 9] = dist
                    exact[~valid] = 0.0
                    scores = predict(model, FeatureSet(exact, valid))
                    assert (bounds >= scores).all()


def _spots(spots):
    """(index, position bytes, score bytes) of each hotspot."""
    return [(h.index, h.position.tobytes(), np.float64(h.score).tobytes())
            for h in spots]


def run_ranking(cloud, model, config):
    """`hotspot.ranked` of a cloud's features, extracted as
    `pipeline.run_scene` extracts them."""
    return hotspot.ranked(cloud, extract_features(cloud, config.affordance),
                          model, config.hotspot)


def ranked_room(seed, n, radius, threshold, b2=None):
    """(cloud, model, config) of `n` random coloured points in a 60 cm box
    and a random 16-unit head standardized on its valid rows; `b2`, when
    given, replaces the head's bias."""
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.uniform(0.0, 0.6, size=(n, 3)),
                       colors=rng.uniform(0.0, 1.0, size=(n, 3)))
    config = config_from_dict({
        "affordance": {"feature_radius": 0.15},
        "hotspot": {"radius": radius, "score_threshold": threshold}})
    x = features(cloud, config.affordance).values
    model = init_model(16, seed)
    model = replace(
        model.with_params(rng.normal(scale=2.0, size=model.params().shape)),
        scaler_mean=x.mean(axis=0), scaler_std=np.maximum(x.std(axis=0), 1e-8))
    if b2 is not None:
        model = replace(model, b2=b2)
    return cloud, model, config


class TestRankedHotspots:
    def ranked(self, cloud, model, config):
        """(hotspots of `hotspot.ranked` with a first round of one
        row, valid rows of each `predict` call, the candidates' bounds),
        checked against whole-cloud NMS over every row completed."""
        calls = []
        real = affordance.predict

        def spy(model, feats):
            calls.append(int(feats.valid.sum()))
            return real(model, feats)

        whole = hotspot.nms(cloud, predict(model, features(
            cloud, config.affordance)), config.hotspot)
        with mock.patch.object(hotspot, "FIRST_ROUND", 1), \
                mock.patch.object(affordance, "predict", spy):
            got = list(run_ranking(cloud, model, config))
        assert _spots(got) == _spots(whole)
        bounds, _ = two_pass_bounds(
            model, extract_features(cloud, config.affordance),
            cloud, config.hotspot.score_threshold)
        return got, calls, bounds[bounds >= config.hotspot.score_threshold]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(20, 400),
           st.sampled_from([0.05, 0.15, 0.4]), st.floats(0.2, 0.9))
    @example(0, 400, 0.05, 0.5)
    def test_every_prefix_equals_whole_cloud_nms(self, seed, n, radius,
                                                 threshold):
        """Ranked in rounds of 1, 4, 16, ... rows, the hotspots equal those
        of NMS over every row's score, so each prefix the loop takes does
        too; with two or more distinct candidate bounds the first round
        cannot take every candidate, so more than one round runs."""
        got, calls, candidates = self.ranked(
            *ranked_room(seed, n, radius, threshold))
        assert len(calls) >= 1
        if len(np.unique(candidates)) >= 2:
            assert len(calls) >= 2
        assert max(calls) <= len(candidates)

    def test_refinement_reorders_candidates(self):
        """The top candidate of the first pass is not the top once refined,
        so the first round of depth 1 refines past its first chunk before
        it scores anything."""
        cloud, model, config = ranked_room(0, 300, 0.15, 0.5)
        feats = extract_features(cloud, config.affordance)
        first = score_bounds(model, feats)
        refined, _ = two_pass_bounds(model, feats, cloud, 0.5)
        rows = np.flatnonzero(feats.valid & (first >= 0.5))
        assert (rows[np.lexsort((rows, -first[rows]))][0]
                != rows[np.lexsort((rows, -refined[rows]))][0])
        events = []
        real_refine, real_predict = affordance.refine_bounds, predict

        def refine(*args):
            events.append("refine")
            return real_refine(*args)

        def score(*args):
            events.append("predict")
            return real_predict(*args)

        with mock.patch.object(affordance, "refine_bounds", refine), \
                mock.patch.object(affordance, "predict", score):
            got, calls, candidates = self.ranked(cloud, model, config)
        assert events.index("predict") >= 2
        assert len(calls) >= 2 and len(got) > 1

    def test_no_row_reaches(self):
        got, calls, candidates = self.ranked(
            *ranked_room(1, 300, 0.15, 0.5, b2=-1e3))
        assert got == [] and len(candidates) == 0 and calls == [0]

    def test_every_valid_row_reaches(self):
        """Every valid row's bound is 1, so they all tie and one round
        scores them all."""
        cloud, model, config = ranked_room(2, 300, 0.15, 0.5, b2=1e3)
        got, calls, candidates = self.ranked(cloud, model, config)
        valid = features(cloud, config.affordance).valid
        assert len(candidates) == valid.sum() > 0
        assert (candidates == 1.0).all() and calls == [valid.sum()]
        assert len(got) > 1


# Benchmark workload configs (bench/workloads.py): (overrides, root seed and
# room count of the training rooms).
PROBE_DEFAULT = ({"capture": {"resolution": [64, 48]},
                  "run": {"max_hotspots": 3}}, 0, 2)
SURVEY_DENSE = ({"capture": {"resolution": [64, 48]},
                 "generation": {"n_revolute": 3, "n_prismatic": 3,
                                "n_distractor": 5},
                 "affordance": {"samples_per_scene": 1200},
                 "run": {"max_hotspots": 0}}, 25, 1)


@pytest.fixture(scope="module")
def workload_models(tmp_path_factory):
    """{name: (run overrides, model)} trained as the benchmark's set-up
    trains them."""
    out = {}
    for name, (overrides, seed, rooms) in (("probe-default", PROBE_DEFAULT),
                                           ("survey-dense", SURVEY_DENSE)):
        base = tmp_path_factory.mktemp(name)
        config = config_from_dict({**overrides, "seed": seed,
                                   "run": {**overrides["run"],
                                           "n_scenes": rooms}})
        pipeline.gen_scenes(config, base / "scenes")
        pipeline.collect(config, base / "scenes", base / "data")
        pipeline.train_model(config, base / "data", base / "model")
        out[name] = overrides, load_model(base / "model" / "model.json")
    return out


def _hotspot_sha(hotspot_sets):
    h = hashlib.sha256()
    for spots in hotspot_sets:
        for spot in spots:
            h.update(np.int64(spot.index).tobytes()
                     + spot.position.tobytes()
                     + np.float64(spot.score).tobytes())
        h.update(b"|")
    return h.hexdigest()


@pytest.mark.parametrize("workload, root_seed, rooms, resolution, pinned", [
    ("probe-default", 20, 2, None,
     "942f9fb84cf752592c37c71acd77ec0e4c922585824fee341a17cd2e24f50d89"),
    ("survey-dense", 25, 2, None,
     "35cc5a31b174ce1c6526a679aaa21c9e4fa4686a4dfd41f4fee1306a8c2ca022"),
    ("probe-default", 21, 1, [160, 120],
     "5c0b2b6eec6dc305d90fd3e1c50c8cfb137559073c12dc500169c0a6ba6621b7"),
], ids=["probe-default", "survey-dense", "default-resolution"])
def test_run_hotspots_equal_whole_cloud_scoring(workload_models, workload,
                                                root_seed, rooms, resolution,
                                                pinned):
    """The run's hotspots, ranked in rounds and drained, equal those of
    scoring every row, on rooms of the benchmark workloads and on one room
    at the default 160x120 capture. The pins were recorded by scoring every
    row before the bound existed. `survey-dense` probes no hotspot, so its
    run artifacts cannot show these sets."""
    overrides, model = workload_models[workload]
    capture = {"resolution": resolution or [64, 48]}
    config = config_from_dict({**overrides, "seed": root_seed,
                               "capture": capture})
    run, whole = [], []
    for k in range(rooms):
        scene = generate_scene(derive_seed(root_seed, "scene", k),
                               config.generation)
        ring_rng = np.random.default_rng(
            derive_seed(root_seed, "run", scene.seed))
        cloud = capture_scene_cloud(scene, config.capture, ring_rng)
        run.append(tuple(run_ranking(cloud, model, config)))
        whole.append(hotspot.nms(
            cloud, predict(model, features(cloud, config.affordance)),
            config.hotspot))
        assert len(run[-1]) > 0
    assert _hotspot_sha(run) == _hotspot_sha(whole) == pinned


def test_probes_complete_only_the_rows_ranked(workload_models, monkeypatch):
    """On the first pinned `probe-default` room (root seed 20), the
    hotspots that 3 probes take complete at most 1,024 rows' normals and
    measure at most 5,000 rows' discontinuity distances of the 44,457-row
    scene cloud. Here they take 256 and 2,560. With the eager two-pass
    bounds they measured 15,650; before hotspots were ranked, scoring
    every row the bound let through completed 3,808 and 44,457 (every
    row)."""
    overrides, model = workload_models["probe-default"]
    config = config_from_dict({**overrides, "seed": 20})
    scene = generate_scene(derive_seed(20, "scene", 0), config.generation)
    clouds, normals, dists = [], [], []
    real_capture = sensing.capture_scene_cloud
    real_normals = geom.estimate_normals
    real_dist = affordance._discontinuity_dist

    def capture(*args):
        clouds.append(real_capture(*args))
        return clouds[-1]

    def estimate(cloud, k, rows):
        normals.extend(rows if cloud is clouds[0] else [])
        return real_normals(cloud, k, rows)

    def distance(features, cloud, rows):
        dists.append(len(rows) if cloud is clouds[0] else 0)
        return real_dist(features, cloud, rows)

    monkeypatch.setattr(sensing, "capture_scene_cloud", capture)
    monkeypatch.setattr(geom, "estimate_normals", estimate)
    monkeypatch.setattr(affordance, "_discontinuity_dist", distance)
    record = pipeline.run_scene(scene, model, config)
    assert len(clouds[0]) == 44457
    assert sum(r["stage"] == "initial" for r in record["interactions"]) == 3
    assert 0 < len(normals) <= 1024 and len(set(normals)) == len(normals)
    assert 0 < sum(dists) <= 5000


@pytest.mark.parametrize("workload, root_seed", [("probe-default", 20),
                                                 ("survey-dense", 25)])
def test_refined_bounds_equal_two_pass_bounds(workload_models, workload,
                                              root_seed):
    """Drained on the first room of a pinned workload set, the ranking
    refines every candidate once, and each refined bound has the bytes the
    eager two-pass bounds give that row, unless the reference's own bytes
    there depend on the rows beside it (under 1 %: 19 of 15,394 rows on
    `probe-default` and 71 of 37,057 on `survey-dense`)."""
    overrides, model = workload_models[workload]
    config = config_from_dict({**overrides, "seed": root_seed})
    scene = generate_scene(derive_seed(root_seed, "scene", 0),
                           config.generation)
    cloud = capture_scene_cloud(scene, config.capture, np.random.default_rng(
        derive_seed(root_seed, "run", scene.seed)))
    refined = []
    real = affordance.refine_bounds

    def refine(model, feats, cloud, rows, threshold):
        refined.append((rows.copy(), real(model, feats, cloud, rows,
                                          threshold)))
        return refined[-1][1]

    with mock.patch.object(affordance, "refine_bounds", refine):
        assert len(list(run_ranking(cloud, model, config))) > 0
    rows = np.concatenate([r for r, _ in refined])
    threshold = config.hotspot.score_threshold
    feats = extract_features(cloud, config.affordance)
    first = score_bounds(model, feats)
    reference, loose = two_pass_bounds(model, feats, cloud, threshold)
    assert len(refined) > 1
    assert np.array_equal(np.sort(rows),
                          np.flatnonzero(feats.valid & (first >= threshold)))
    got = np.concatenate([b for _, b in refined])
    same = ~np.isin(rows, loose)
    assert got[same].tobytes() == reference[rows[same]].tobytes()
    # each of the reference's products leaves at most 3 rows loose
    assert (~same).sum() < 0.01 * len(rows)


def test_survey_measures_no_row(workload_models, monkeypatch):
    """`survey-dense` probes no hotspot, so its run bounds no row's score,
    measures no discontinuity distance and estimates no normal."""
    overrides, model = workload_models["survey-dense"]
    config = config_from_dict({**overrides, "seed": 25})
    scene = generate_scene(derive_seed(25, "scene", 0), config.generation)
    calls = []
    monkeypatch.setattr(geom, "estimate_normals",
                        lambda *args: calls.append("normals"))
    monkeypatch.setattr(affordance, "_discontinuity_dist",
                        lambda *args: calls.append("distance"))
    monkeypatch.setattr(affordance, "score_bounds",
                        lambda *args: calls.append("bounds"))
    record = pipeline.run_scene(scene, model, config)
    assert record["hotspots"]["items"] == [] and calls == []
