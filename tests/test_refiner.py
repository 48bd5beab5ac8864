from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pytest
from fdcheck import assert_grad_close, central_difference

from physeg import benchmark, losses
from physeg.inference import AttenuationConfig, infer
from physeg.losses import (
    COMPONENTS,
    LossWeights,
    loss_step,
    phys_loss,
    prepare_targets,
    region_stats,
    total_loss,
)
from physeg.priors import Interval, PriorEntry, PriorGraph
from physeg.refiner import (
    RefinerParams,
    Scene,
    TrainConfig,
    TrainingError,
    assemble_joint,
    evaluate_losses,
    init_params,
    mock_backbone,
    refine,
    train,
    zero_phys_channels,
)
from physeg.synth import SynthConfig, synthesize_scene


def entry(category, ndvi, dem, sar):
    return PriorEntry(
        category=category,
        meaning="",
        modifier_analysis="",
        coarse_class="",
        ndvi_range=Interval(*ndvi),
        dem_range=Interval(*dem),
        sar_range=Interval(*sar),
        reasoning="",
    )


@pytest.fixture
def graph3():
    return PriorGraph(
        (
            entry("a", (0.30, 0.70), (0.0, 100.0), (-14.0, -8.0)),
            entry("b", (-0.50, -0.10), (0.0, 100.0), (-26.0, -18.0)),
            entry("c", (0.00, 0.20), (0.0, 100.0), (-6.0, 0.0)),
        )
    )


class TestAssembleJoint:
    def test_channel_arithmetic(self, graph3):
        features = np.zeros((4, 4, 4))
        coarse = np.full((4, 4, 3), 1 / 3)
        rasters = {
            "NDVI": np.zeros((4, 4)),
            "DEM": np.zeros((4, 4)),
            "SAR": np.zeros((4, 4)),
        }
        z = assemble_joint(features, coarse, rasters, graph3)
        assert z.shape == (4, 4, 10)

    def test_no_modalities_zero_filled(self, graph3):
        z = assemble_joint(np.ones((2, 2, 2)), np.full((2, 2, 3), 0.3), {}, graph3)
        assert np.all(z[:, :, -3:] == 0.0)

    def test_single_modality_populates_its_slot(self, graph3):
        rasters = {"NDVI": np.full((2, 2), 0.5)}
        z = assemble_joint(np.ones((2, 2, 2)), np.full((2, 2, 3), 0.3), rasters, graph3)
        assert np.all(z[:, :, -3] != 0.0)  # NDVI slot populated
        assert np.all(z[:, :, -2:] == 0.0)  # DEM and SAR slots zero

    def test_standardization_uses_graph_stats(self, graph3):
        mu, sigma = graph3.modality_stats("SAR")
        rasters = {"SAR": np.full((1, 1), mu)}
        z = assemble_joint(np.zeros((1, 1, 1)), np.full((1, 1, 3), 0.3), rasters, graph3)
        assert z[0, 0, -1] == pytest.approx(0.0, abs=1e-12)
        rasters = {"SAR": np.full((1, 1), mu + sigma)}
        z = assemble_joint(np.zeros((1, 1, 1)), np.full((1, 1, 3), 0.3), rasters, graph3)
        assert z[0, 0, -1] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_names_input(self, graph3):
        with pytest.raises(ValueError, match="coarse"):
            assemble_joint(np.zeros((2, 2, 1)), np.zeros((3, 3, 3)), {}, graph3)
        with pytest.raises(ValueError, match="NDVI"):
            assemble_joint(
                np.zeros((2, 2, 1)),
                np.full((2, 2, 3), 0.3),
                {"NDVI": np.zeros((5, 5))},
                graph3,
            )

    def test_wrong_class_count_rejected(self, graph3):
        with pytest.raises(ValueError, match="classes"):
            assemble_joint(np.zeros((2, 2, 1)), np.full((2, 2, 5), 0.2), {}, graph3)

    def test_unknown_raster_key_rejected(self, graph3):
        with pytest.raises(ValueError, match="sar"):
            assemble_joint(
                np.zeros((2, 2, 1)),
                np.full((2, 2, 3), 0.3),
                {"sar": np.zeros((2, 2))},
                graph3,
            )


class TestRefine:
    def test_zero_head_is_identity(self, graph3):
        rng = np.random.default_rng(0)
        coarse = rng.uniform(0.1, 0.9, size=(3, 3, 3))
        z = assemble_joint(rng.normal(size=(3, 3, 2)), coarse, {}, graph3)
        params = init_params(2, 3, TrainConfig(seed=1))
        y1, dy = refine(params, z, coarse)
        assert np.all(dy == 0.0)
        assert y1.tobytes() == coarse.tobytes()

    def test_zero_residual_scale_is_identity(self, graph3):
        rng = np.random.default_rng(1)
        coarse = rng.uniform(0.1, 0.9, size=(3, 3, 3))
        z = assemble_joint(rng.normal(size=(3, 3, 2)), coarse, {}, graph3)
        params = init_params(2, 3, TrainConfig(seed=1, residual_scale=0.0))
        params.w2 = rng.normal(size=params.w2.shape)
        y1, _ = refine(params, z, coarse)
        assert np.array_equal(y1, coarse)

    def test_outputs_clamped(self, graph3):
        rng = np.random.default_rng(2)
        coarse = rng.uniform(0.0, 1.0, size=(5, 5, 3))
        z = assemble_joint(rng.normal(size=(5, 5, 2)), coarse, {}, graph3)
        params = init_params(2, 3, TrainConfig(seed=3, residual_scale=1.0))
        params.w2 = rng.normal(scale=3.0, size=params.w2.shape)
        params.b2 = rng.normal(scale=3.0, size=params.b2.shape)
        y1, _ = refine(params, z, coarse)
        assert y1.min() >= 1e-6
        assert y1.max() <= 1.0

    def test_non_finite_params_rejected(self, graph3):
        params = init_params(2, 3, TrainConfig(seed=1))
        params.w1[0, 0] = np.nan
        z = np.zeros((2, 2, 8))
        with pytest.raises(ArithmeticError):
            refine(params, z, np.full((2, 2, 3), 0.3))

    def test_zero_pad_equivalence(self, graph3):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(4, 4, 2))
        coarse = rng.uniform(0.1, 0.9, size=(4, 4, 3))
        rasters = {"SAR": rng.uniform(-30, 0, size=(4, 4))}
        params = init_params(2, 3, TrainConfig(seed=5))
        params.w2 = rng.normal(scale=0.5, size=params.w2.shape)
        z_absent = assemble_joint(features, coarse, {}, graph3)
        z_zeroed = zero_phys_channels(assemble_joint(features, coarse, rasters, graph3))
        y_absent, _ = refine(params, z_absent, coarse)
        y_zeroed, _ = refine(params, z_zeroed, coarse)
        assert y_absent.tobytes() == y_zeroed.tobytes()


def make_dataset(graph, seed=0, n=2, size=12, pairs=((1, 2),)):
    rng = np.random.default_rng(seed)
    scenes = []
    for k in range(n):
        labels = rng.integers(1, graph.num_classes + 1, size=(size, size)).astype(np.int32)
        rasters = synthesize_scene(labels, graph, {"NDVI", "DEM", "SAR"}, SynthConfig(seed=seed + k))
        features, coarse = mock_backbone(labels, graph, pairs, seed=seed + 10 + k)
        scenes.append(Scene(features=features, coarse=coarse, rasters=rasters, labels=labels))
    return scenes


class TestTrain:
    def test_seg_loss_decreases(self, graph3):
        scenes = make_dataset(graph3, seed=1, n=1)
        config = TrainConfig(
            seed=2,
            epochs=200,
            learning_rate=0.05,
            weights=LossWeights(alpha=1.0, lambda1=0.0, lambda2=0.0),
            modality_dropout_prob=0.0,
        )
        _, history = train(scenes, graph3, config)
        assert history[-1]["seg"] < history[0]["seg"]

    def test_phys_loss_drops_below_tenth(self, graph3):
        scenes = make_dataset(graph3, seed=3, n=2)
        config = TrainConfig(seed=4, epochs=300, learning_rate=0.1, modality_dropout_prob=0.0)
        _, history = train(scenes, graph3, config)
        assert history[0]["phys"] > 0.0
        assert history[-1]["phys"] < 0.1 * history[0]["phys"]

    def test_deterministic_parameters(self, graph3):
        scenes = make_dataset(graph3, seed=5, n=2)
        config = TrainConfig(seed=7, epochs=40)
        p1, h1 = train(scenes, graph3, config)
        p2, h2 = train(scenes, graph3, config)
        assert p1.w1.tobytes() == p2.w1.tobytes()
        assert p1.w2.tobytes() == p2.w2.tobytes()
        assert p1.b1.tobytes() == p2.b1.tobytes()
        assert p1.b2.tobytes() == p2.b2.tobytes()
        assert h1 == h2

    def test_minibatch_runs_and_is_deterministic(self, graph3):
        scenes = make_dataset(graph3, seed=6, n=3)
        config = TrainConfig(seed=8, epochs=10, batch_size=2)
        p1, _ = train(scenes, graph3, config)
        p2, _ = train(scenes, graph3, config)
        assert p1.w1.tobytes() == p2.w1.tobytes()

    def test_non_finite_loss_raises_training_error(self, graph3, monkeypatch):
        # tanh squashing keeps healthy runs finite and non-finite inputs are
        # rejected up front, so a loss step that returns NaN on its third call
        # exercises the divergence guard
        scenes = make_dataset(graph3, seed=9, n=1)
        config = TrainConfig(seed=10, epochs=5)
        calls = []

        def nan_on_third_call(*args):
            total, comps, grad = loss_step(*args)
            calls.append(total)
            return (np.nan if len(calls) == 3 else total), comps, grad

        monkeypatch.setattr("physeg.refiner.loss_step", nan_on_third_call)
        with pytest.raises(TrainingError, match="loss became non-finite at epoch 2") as err:
            train(scenes, graph3, config)
        monkeypatch.undo()
        two_steps, _ = train(scenes, graph3, TrainConfig(seed=10, epochs=2))
        assert err.value.params is not None
        assert err.value.params.w1.tobytes() == two_steps.w1.tobytes()
        assert len(err.value.history) == 2

    @pytest.mark.parametrize("field", ["features", "coarse"])
    def test_non_finite_input_rejected_before_the_first_step(self, graph3, monkeypatch, field):
        scenes = make_dataset(graph3, seed=9, n=2)
        getattr(scenes[1], field)[3, 4, 0] = np.nan
        steps = []
        monkeypatch.setattr("physeg.refiner.loss_step", lambda *args: steps.append(args))
        name = {"features": "feature map", "coarse": "coarse map"}[field]
        with pytest.raises(ValueError, match=f"^{name} has 1 non-finite cells$"):
            train(scenes, graph3, TrainConfig(epochs=1))
        assert steps == []
        params = init_params(3, 3, TrainConfig())
        with pytest.raises(ValueError, match=f"^{name} has 1 non-finite cells$"):
            infer(params, scenes[1].features, scenes[1].coarse, {}, graph3, AttenuationConfig())

    def test_empty_dataset_rejected(self, graph3):
        with pytest.raises(ValueError):
            train([], graph3, TrainConfig())

    def test_misaligned_ground_truth_rejected_before_training(self, graph3):
        scenes = make_dataset(graph3, seed=2, n=2)
        bad = scenes[1]
        scenes[1] = Scene(bad.features, bad.coarse, bad.rasters, bad.labels[:-1])
        with pytest.raises(
            ValueError,
            match=re.escape("ground-truth mask shape (11, 12) does not match prediction (12, 12)"),
        ):
            train(scenes, graph3, TrainConfig(epochs=1))


def demo_dataset(size=32, seed=0):
    """The demo benchmark's scenes in memory, seeded as ``build_demo`` seeds them."""
    graph = benchmark.demo_graph()
    scenes = []
    for k in range(3):
        labels = benchmark.demo_labels(k, size=size)
        rasters = synthesize_scene(
            labels, graph, {"NDVI", "DEM", "SAR"}, SynthConfig(seed=seed * 1000 + k)
        )
        features, coarse = mock_backbone(
            labels, graph, (benchmark.AMBIGUOUS_PAIR,), seed=seed * 1000 + 500 + k
        )
        scenes.append(Scene(features, coarse, rasters, labels))
    return graph, scenes


def reference_train(dataset, graph, config):
    """``train`` written out step by step, scoring every step with public ``total_loss``."""
    from physeg.refiner import _backward, _forward

    params = init_params(dataset[0].features.shape[2], graph.num_classes, config)
    z_full = [assemble_joint(s.features, s.coarse, s.rasters, graph) for s in dataset]
    z_dropped = [zero_phys_channels(z) for z in z_full]
    drop_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 1])))
    batch_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 2])))
    n = len(dataset)
    batch = n if config.batch_size == 0 else min(config.batch_size, n)
    history = []
    for _ in range(config.epochs):
        order = np.arange(n) if batch == n else batch_rng.permutation(n)
        for start in range(0, n, batch):
            chunk = order[start : start + batch]
            names = ("w1", "b1", "w2", "b2")
            grads = [np.zeros_like(getattr(params, name)) for name in names]
            sums = dict.fromkeys(("seg", "region", "phys", "total"), 0.0)
            for idx in chunk:
                scene = dataset[idx]
                drop = drop_rng.random() < config.modality_dropout_prob
                y1, _, cache = _forward(params, z_dropped[idx] if drop else z_full[idx], scene.coarse)
                _, comps, grad_pred = total_loss(
                    y1, scene.labels, scene.features, scene.rasters, graph, config.weights
                )
                for acc, g in zip(grads, _backward(params, cache, grad_pred)):
                    acc += g
                for key in sums:
                    sums[key] += comps[key]
            lr = config.learning_rate / len(chunk)
            for name, g in zip(names, grads):
                setattr(params, name, getattr(params, name) - lr * g)
            record = {key: value / len(chunk) for key, value in sums.items()}
            record["step"] = len(history)
            history.append(record)
    return params, history


@pytest.mark.parametrize("batch_size", [0, 2])
def test_train_is_bitwise_the_total_loss_reference(batch_size):
    # train() prepares each scene's loss targets once; a stale or mixed-up
    # target would show up as a parameter or history difference here
    graph, scenes = demo_dataset()
    config = TrainConfig(
        seed=3,
        epochs=20,
        batch_size=batch_size,
        weights=LossWeights(alpha=1.0, lambda1=0.05, lambda2=0.4),
        modality_dropout_prob=0.5,
        residual_scale=0.3,
    )
    params, history = train(scenes, graph, config)
    ref_params, ref_history = reference_train(scenes, graph, config)
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(params, name).tobytes() == getattr(ref_params, name).tobytes()
    def as_bits(hist):
        return [{key: float(value).hex() for key, value in rec.items()} for rec in hist]

    assert as_bits(history) == as_bits(ref_history)
    assert any(rec["phys"] > 0.0 for rec in history)  # the hinge gradient took part


def test_history_records_hold_step_and_components():
    graph, scenes = demo_dataset()
    _, history = train(scenes, graph, TrainConfig(epochs=2))
    assert [set(rec) for rec in history] == [{"step", *COMPONENTS}] * len(history)


def test_train_steps_skip_the_hard_hinge_and_raster_means(monkeypatch):
    # a step runs each trained term through its public name, once per scene;
    # phys_loss, the hard hinge over hard-region raster means, never runs
    graph, scenes = demo_dataset()
    calls = Counter()

    def counted(name, term):
        def wrapper(*args):
            calls[name] += 1
            return term(*args)

        return wrapper

    def no_hard_hinge(*args):
        raise AssertionError("the hard-region hinge ran")

    trained_terms = ("seg_loss", "region_stats", "region_loss", "phys_loss_soft")
    for name in trained_terms:
        monkeypatch.setattr(losses, name, counted(name, getattr(losses, name)))
    monkeypatch.setattr(losses, "phys_loss", no_hard_hinge)
    epochs = 2
    params, _ = train(scenes, graph, TrainConfig(epochs=epochs))
    assert calls == dict.fromkeys(trained_terms, epochs * len(scenes))
    # the report computes the hard hinge, so the patches are live
    with pytest.raises(AssertionError, match="hard-region hinge"):
        evaluate_losses(params, scenes, graph)


def demo_prediction(scene):
    """A trained refiner's prediction on one 32x32 demo scene, with its graph and scene."""
    graph, scenes = demo_dataset()
    params, _ = train(scenes, graph, TrainConfig(epochs=5))
    scene = scenes[scene]
    z = assemble_joint(scene.features, scene.coarse, scene.rasters, graph)
    pred, _ = refine(params, z, scene.coarse)
    return pred, graph, scene


@pytest.mark.parametrize("scene", range(3))
def test_loss_step_is_bitwise_the_total_loss_report(scene):
    pred, graph, scene = demo_prediction(scene)
    weights = LossWeights(alpha=0.5, lambda1=0.5, lambda2=0.4)
    targets = prepare_targets(scene.labels, scene.features, scene.rasters, graph, pred.shape)
    step_total, step_comps, step_grad = loss_step(pred, targets, weights)
    total, comps, grad = total_loss(
        pred, scene.labels, scene.features, scene.rasters, graph, weights
    )
    assert tuple(step_comps) == COMPONENTS
    assert step_comps["phys"] > 0.0
    assert [float(v).hex() for v in (step_total, *step_comps.values())] == [
        float(v).hex() for v in (total, *(comps[key] for key in COMPONENTS))
    ]
    assert step_grad.tobytes() == grad.tobytes()


@pytest.mark.parametrize("scene", range(3))
def test_total_loss_reports_the_hard_region_hinge(scene):
    pred, graph, scene = demo_prediction(scene)
    _, comps, _ = total_loss(pred, scene.labels, scene.features, scene.rasters, graph)
    targets = prepare_targets(scene.labels, scene.features, scene.rasters, graph, pred.shape)
    hinge = phys_loss(region_stats(pred, targets), targets)
    assert (comps["phys_argmax"], comps["phys_terms"]) == hinge
    assert comps["phys_terms"]


class TestComposedGradient:
    @pytest.mark.parametrize("seed", range(3))
    def test_refine_total_loss_composition_matches_fd(self, seed, graph3):
        rng = np.random.default_rng(300 + seed)
        h, w, c, d = 4, 3, 3, 2
        labels = rng.integers(1, c + 1, size=(h, w)).astype(np.int32)
        features = rng.normal(size=(h, w, d))
        coarse = rng.uniform(0.2, 0.8, size=(h, w, c))
        rasters = {
            "NDVI": rng.uniform(-1, 1, size=(h, w)),
            "SAR": rng.uniform(-30, 0, size=(h, w)),
        }
        z = assemble_joint(features, coarse, rasters, graph3)
        config = TrainConfig(seed=seed, hidden=4, residual_scale=0.2)
        params = init_params(d, c, config)
        params.w2 = rng.normal(scale=0.1, size=params.w2.shape)
        params.b2 = rng.normal(scale=0.05, size=params.b2.shape)
        weights = LossWeights(alpha=0.7, lambda1=0.05, lambda2=0.4)

        from physeg.refiner import _backward, _forward

        y1, _, cache = _forward(params, z, coarse)
        _, _, grad_pred = total_loss(y1, labels, features, rasters, graph3, weights)
        g_w1, g_b1, g_w2, g_b2 = _backward(params, cache, grad_pred)

        def loss_for(theta_name, theta_value):
            trial = params.copy()
            setattr(trial, theta_name, theta_value)
            y, _, _ = _forward(trial, z, coarse)
            return total_loss(y, labels, features, rasters, graph3, weights)[0]

        for name, analytic in (("w1", g_w1), ("b1", g_b1), ("w2", g_w2), ("b2", g_b2)):
            numeric = central_difference(
                lambda v, _n=name: loss_for(_n, v), getattr(params, name)
            )
            assert_grad_close(analytic, numeric)


class TestMockBackbone:
    def test_no_ambiguity_high_accuracy(self, graph3):
        rng = np.random.default_rng(0)
        labels = rng.integers(1, 4, size=(32, 32)).astype(np.int32)
        _, coarse = mock_backbone(labels, graph3, (), seed=1)
        acc = float((coarse.argmax(axis=2) + 1 == labels).mean())
        assert acc >= 0.99

    def test_pair_accuracy_near_half(self, graph3):
        rng = np.random.default_rng(1)
        labels = rng.integers(1, 3, size=(40, 40)).astype(np.int32)  # only classes 1, 2
        _, coarse = mock_backbone(labels, graph3, ((1, 2),), seed=2)
        acc = float((coarse.argmax(axis=2) + 1 == labels).mean())
        assert 0.35 <= acc <= 0.65

    def test_pair_features_share_distribution(self, graph3):
        labels = np.array([[1, 2]], dtype=np.int32)
        big = np.repeat(np.repeat(labels, 40, axis=0), 40, axis=1)
        features, _ = mock_backbone(big, graph3, ((1, 2),), seed=3)
        mean1 = features[big == 1].mean(axis=0)
        mean2 = features[big == 2].mean(axis=0)
        assert np.allclose(mean1, mean2, atol=0.1)

    def test_reproducible(self, graph3):
        labels = np.ones((8, 8), dtype=np.int32)
        f1, c1 = mock_backbone(labels, graph3, ((1, 2),), seed=9)
        f2, c2 = mock_backbone(labels, graph3, ((1, 2),), seed=9)
        assert f1.tobytes() == f2.tobytes()
        assert c1.tobytes() == c2.tobytes()

    def test_invalid_pair_rejected(self, graph3):
        labels = np.ones((4, 4), dtype=np.int32)
        with pytest.raises(ValueError):
            mock_backbone(labels, graph3, ((1, 9),), seed=0)
        with pytest.raises(ValueError):
            mock_backbone(labels, graph3, ((2, 2),), seed=0)

    def test_coarse_rows_sum_to_one(self, graph3):
        labels = np.ones((6, 6), dtype=np.int32)
        _, coarse = mock_backbone(labels, graph3, ((1, 2),), seed=4)
        assert np.allclose(coarse.sum(axis=2), 1.0, atol=1e-12)
