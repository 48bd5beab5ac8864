"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

from __future__ import annotations

import copy
import json
import math
import os
import time

import numpy as np
import pytest
from fdcheck import assert_grad_close, central_difference
from oracles import attenuation

from physeg import benchmark
from physeg.cli import main as cli_main
from physeg.inference import AttenuationConfig, infer, reweight
from physeg.losses import (
    LossWeights,
    phys_loss,
    phys_loss_soft,
    prepare_targets,
    region_loss,
    region_stats,
    seg_loss,
    total_loss,
)
from physeg.metrics import confusion_counts, miou_from_confusion, plausibility_rate, reliability
from physeg.priors import (
    Interval,
    PriorEntry,
    PriorGraph,
    PriorParseError,
    PriorSchemaError,
    PriorValidationError,
    parse_pckg,
    serialize_pckg,
)
from physeg.refiner import TrainConfig, train


def _report(number, description, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {number} ({description}): PASS{suffix}")


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_demo")
    benchmark.build_demo(str(root), seed=0)
    graph, scenes, manifest = benchmark.load_manifest(str(root / benchmark.MANIFEST_NAME))
    return {"dir": str(root), "graph": graph, "scenes": scenes, "manifest": manifest}


@pytest.fixture(scope="module")
def trained(demo):
    config = benchmark.demo_train_config(
        0, benchmark.DEMO_EPOCHS, benchmark.DEMO_LEARNING_RATE, benchmark.DEMO_PHYS_LAMBDA2
    )
    start = time.monotonic()
    params, history = train(demo["scenes"], demo["graph"], config)
    return {"params": params, "history": history, "train_seconds": time.monotonic() - start}


def _targets(pred, graph, gt=None, features=None, rasters=None):
    h, w = pred.shape[:2]
    gt = np.zeros((h, w), dtype=np.int32) if gt is None else gt
    features = np.zeros((h, w, 1)) if features is None else features
    return prepare_targets(gt, features, rasters, graph, pred.shape)


def _hard_hinge(mean, graph):
    pred = np.zeros((2, 2, graph.num_classes))
    pred[:, :, 0] = 1.0
    targets = _targets(pred, graph, rasters={"NDVI": np.full((2, 2), mean)})
    return phys_loss(region_stats(pred, targets), targets)[0]


def test_criterion_1_equation_oracles():
    start = time.monotonic()
    graph = PriorGraph(
        (
            PriorEntry(
                category="x",
                meaning="",
                modifier_analysis="",
                coarse_class="",
                ndvi_range=Interval(0.30, 0.70),
                dem_range=Interval(0.0, 10.0),
                sar_range=Interval(-10.0, 0.0),
                reasoning="",
            ),
        )
    )
    # region-mean hinge: 0.9 and 0.1 against [0.3, 0.7] -> 0.04; inside -> 0
    for mean, expected in ((0.90, 0.04), (0.10, 0.04), (0.50, 0.0)):
        assert abs(_hard_hinge(mean, graph) - expected) <= 1e-12

    # Gaussian attenuation at d = sigma (cap above sigma) -> e^-1
    assert abs(attenuation(1.5, tau=3.0, sigma=1.5) - math.exp(-1.0)) <= 1e-12
    assert attenuation(0.0, tau=1.0, sigma=1.0) == 1.0

    # re-weighted two-class pixel: s = (1, e^-1) on even scores -> 1/(1+e^-1)
    pair = PriorGraph(
        (
            PriorEntry(
                category="in",
                meaning="",
                modifier_analysis="",
                coarse_class="",
                ndvi_range=Interval(-0.1, 0.1),
                dem_range=Interval(0.0, 10.0),
                sar_range=Interval(-10.0, 0.0),
                reasoning="",
            ),
            PriorEntry(
                category="out",
                meaning="",
                modifier_analysis="",
                coarse_class="",
                ndvi_range=Interval(-0.1, 0.1),
                dem_range=Interval(0.0, 10.0),
                sar_range=Interval(-30.0, -14.0),
                reasoning="",
            ),
        )
    )
    # the "out" interval is 16 dB wide: sigma 6, tau 12
    config = AttenuationConfig(available=("SAR",), sigma_rel=0.375, tau_rel=2.0)
    probs, labels, _ = reweight(
        np.array([[[0.5, 0.5]]]), {"SAR": np.array([[-8.0]])}, pair, config
    )
    expected = 1.0 / (1.0 + math.exp(-1.0))
    assert abs(probs[0, 0, 0] - expected) <= 1e-12
    assert labels[0, 0] == 1

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, "equation oracles", f"{elapsed:.3f}s")


def test_criterion_2_gradient_checks():
    start = time.monotonic()
    graph = PriorGraph(
        tuple(
            PriorEntry(
                category=f"c{k}",
                meaning="",
                modifier_analysis="",
                coarse_class="",
                ndvi_range=Interval(-0.5 + 0.2 * k, -0.2 + 0.2 * k),
                dem_range=Interval(10.0 * k, 10.0 * k + 20.0),
                sar_range=Interval(-25.0 + 5.0 * k, -18.0 + 5.0 * k),
                reasoning="",
            )
            for k in range(4)
        )
    )
    instances = 0

    for seed in range(8):  # pixel loss
        rng = np.random.default_rng(1000 + seed)
        h, w, c = rng.integers(2, 9), rng.integers(2, 9), rng.integers(2, 5)
        pred = rng.uniform(0.05, 0.95, size=(h, w, c))
        gt = rng.integers(0, c + 1, size=(h, w)).astype(np.int32)
        gt[0, 0] = 1
        alpha = float(rng.uniform(0.0, 2.0))
        targets = _targets(pred, graph, gt)
        _, grad = seg_loss(pred, targets, alpha)
        numeric = central_difference(lambda p: seg_loss(p, targets, alpha)[0], pred)
        assert_grad_close(grad, numeric, rtol=1e-4)
        instances += 1

    for seed in range(4):  # region path: frozen assignment => zero gradient
        rng = np.random.default_rng(2000 + seed)
        pred = rng.uniform(0.05, 0.95, size=(6, 6, 3))
        features = rng.normal(size=(6, 6, 4))
        targets = _targets(pred, graph, features=features)
        numeric = central_difference(lambda p: region_loss(region_stats(p, targets), targets), pred)
        assert_grad_close(np.zeros_like(pred), numeric, rtol=1e-4)
        instances += 1

    for seed in range(8):  # physics hinge on probability-weighted means
        rng = np.random.default_rng(3000 + seed)
        h, w = rng.integers(3, 9), rng.integers(3, 9)
        pred = rng.uniform(0.05, 0.95, size=(h, w, 4))
        rasters = {
            "NDVI": rng.uniform(-1.0, 1.0, size=(h, w)),
            "SAR": rng.uniform(-30.0, 0.0, size=(h, w)),
        }
        targets = _targets(pred, graph, rasters=rasters)
        _, grad = phys_loss_soft(pred, targets)
        assert grad is not None
        numeric = central_difference(lambda p: phys_loss_soft(p, targets)[0], pred)
        assert_grad_close(grad, numeric, rtol=1e-4)
        instances += 1

    from physeg.refiner import _backward, _forward, assemble_joint, init_params

    for seed in range(4):  # full refine + total-loss composition w.r.t. parameters
        rng = np.random.default_rng(4000 + seed)
        h, w, c, d = 5, 4, 4, 2
        labels = rng.integers(1, c + 1, size=(h, w)).astype(np.int32)
        features = rng.normal(size=(h, w, d))
        coarse = rng.uniform(0.2, 0.8, size=(h, w, c))
        rasters = {"SAR": rng.uniform(-30.0, 0.0, size=(h, w))}
        z = assemble_joint(features, coarse, rasters, graph)
        params = init_params(d, c, TrainConfig(seed=seed, hidden=4, residual_scale=0.2))
        params.w2 = rng.normal(scale=0.1, size=params.w2.shape)
        params.b2 = rng.normal(scale=0.05, size=params.b2.shape)
        weights = LossWeights(alpha=0.8, lambda1=0.05, lambda2=0.4)
        y1, buffers = _forward(params, z)
        _, _, grad_pred = total_loss(y1, labels, features, rasters, graph, weights)
        grads = _backward(params, z, buffers, grad_pred)
        analytic = dict(zip(("w1", "b1", "w2", "b2"), grads))

        def loss_with(name, value):
            trial = copy.deepcopy(params)
            setattr(trial, name, value)
            y, _ = _forward(trial, z)
            return total_loss(y, labels, features, rasters, graph, weights)[0]

        for name in ("w1", "b1", "w2", "b2"):
            numeric = central_difference(
                lambda v, _n=name: loss_with(_n, v), getattr(params, name)
            )
            assert_grad_close(analytic[name], numeric, rtol=1e-4)
        instances += 1

    elapsed = time.monotonic() - start
    assert instances >= 20
    assert elapsed < 30.0
    _report(2, "gradient checks", f"{instances} instances, {elapsed:.1f}s")


def test_criterion_3_dual_mode_weight_sharing(demo, trained):
    params = trained["params"]
    graph = demo["graph"]
    config = AttenuationConfig(available=())
    for k, scene in enumerate(demo["scenes"]):
        zeros = {name: np.zeros_like(grid) for name, grid in scene.rasters.items()}
        labels_without, probs_without, _ = infer(
            params, scene.features, scene.coarse, {}, graph, config
        )
        labels_zeroed, probs_zeroed, _ = infer(
            params, scene.features, scene.coarse, zeros, graph, config
        )
        assert np.array_equal(labels_without, labels_zeroed), f"scene {k} labels differ"
        assert probs_without.tobytes() == probs_zeroed.tobytes()
    _report(3, "dual-mode weight sharing", f"{len(demo['scenes'])} scenes identical")


def _ambiguous_accuracy(labels, gt, pair):
    mask = np.isin(gt, pair)
    return float((labels == gt)[mask].mean())


def test_criterion_4_toy_ambiguity_benchmark(demo, trained):
    start = time.monotonic()
    graph = demo["graph"]
    pair = tuple(demo["manifest"]["ambiguous_pair"])

    coarse_conf = None
    amb_hits = amb_total = 0
    for scene in demo["scenes"]:
        coarse_labels = (scene.coarse.argmax(axis=2) + 1).astype(np.int32)
        mask = np.isin(scene.labels, pair)
        amb_hits += int((coarse_labels == scene.labels)[mask].sum())
        amb_total += int(mask.sum())
        conf = confusion_counts(coarse_labels, scene.labels, graph.num_classes)
        coarse_conf = conf if coarse_conf is None else coarse_conf + conf
    coarse_amb = amb_hits / amb_total
    assert 0.40 <= coarse_amb <= 0.60, f"coarse ambiguous accuracy {coarse_amb:.3f}"
    coarse_miou = miou_from_confusion(coarse_conf).miou

    assert len(trained["history"]) <= 2000  # seeded training stays within budget

    config = AttenuationConfig(available=("SAR",))
    refined_conf = None
    amb_hits = 0
    for scene in demo["scenes"]:
        labels, _, _ = infer(
            trained["params"],
            scene.features,
            scene.coarse,
            {"SAR": scene.rasters["SAR"]},
            graph,
            config,
        )
        mask = np.isin(scene.labels, pair)
        amb_hits += int((labels == scene.labels)[mask].sum())
        conf = confusion_counts(labels, scene.labels, graph.num_classes)
        refined_conf = conf if refined_conf is None else refined_conf + conf
    refined_amb = amb_hits / amb_total
    refined_miou = miou_from_confusion(refined_conf).miou

    assert refined_amb >= 0.95, f"ambiguous-pixel accuracy {refined_amb:.4f}"
    assert refined_miou - coarse_miou >= 0.10, (
        f"mIoU gain {refined_miou - coarse_miou:.4f}"
    )
    elapsed = time.monotonic() - start + trained["train_seconds"]
    assert elapsed < 120.0
    _report(
        4,
        "toy ambiguity benchmark",
        f"coarse amb {coarse_amb:.3f} -> {refined_amb:.4f}, "
        f"mIoU {coarse_miou:.4f} -> {refined_miou:.4f}, {elapsed:.1f}s",
    )


def test_criterion_5_ablation_ladder(demo, tmp_path):
    out = tmp_path / "ablation"
    code = cli_main(
        ["ablate", "--demo-dir", demo["dir"], "--out", str(out), "--seed", "0"]
    )
    assert code == 0
    table = json.loads((out / "ablation.json").read_text())
    mious = [row["miou"] for row in table["rows"]]
    assert len(mious) == 4
    assert table["ordering_ok"] is True
    assert mious[0] < mious[1] < mious[2] < mious[3]
    _report(5, "ablation ladder", " < ".join(f"{m:.4f}" for m in mious))


def test_criterion_6_synthesis_reliability(demo):
    graph = demo["graph"]
    checked = 0
    for scene in demo["scenes"]:
        rate, _ = plausibility_rate(scene.labels, scene.rasters, graph)
        assert rate == 1.0
        for name, raster in scene.rasters.items():
            rate_single, _ = plausibility_rate(scene.labels, {name: raster}, graph)
            assert rate_single == 1.0
            report = reliability(raster, raster, scene.labels, graph, name)
            for record in report.per_class.values():
                assert record["median_offset_delta"] == 0.0
                assert record["coverage_delta"] == 0.0
            checked += 1
    _report(6, "synthesis reliability", f"{checked} (scene, modality) pairs")


def test_criterion_7_pipeline_determinism(tmp_path, monkeypatch):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    for entry in benchmark.demo_graph():
        obj = {
            "Category": entry.category,
            "Meaning": entry.meaning,
            "Modifier Analysis": entry.modifier_analysis,
            "Coarse Class": entry.coarse_class,
            "NDVI Range": [entry.ndvi_range.lo, entry.ndvi_range.hi],
            "DEM Range": [entry.dem_range.lo, entry.dem_range.hi],
            "SAR Range": [entry.sar_range.lo, entry.sar_range.hi],
            "Reasoning": entry.reasoning,
        }
        name = entry.category.replace(" ", "%20") + ".json"
        (fixtures / name).write_text(json.dumps(obj), encoding="utf-8")
    vocab = ",".join(e.category for e in benchmark.demo_graph())

    def run_pipeline(workdir):
        monkeypatch.chdir(workdir)
        steps = [
            [
                "pckg", "extract",
                "--vocab", vocab,
                "--fixtures", str(fixtures),
                "--out", "extracted.json",
                "--report", "extract_report.json",
            ],
            ["synth", "--demo", "--out", "demo", "--seed", "0"],
            [
                "synth",
                "--pckg", "extracted.json",
                "--labels", "demo/scene_0.labels.pgrd",
                "--seed", "11",
                "--out", "rasters",
            ],
            [
                "train",
                "--manifest", "demo/manifest.json",
                "--out", "params.psp",
                "--history", "history.csv",
                "--seed", "0",
                "--epochs", "150",
                "--dropout", "0.25",
                "--residual-scale", "0.3",
            ],
            [
                "refine",
                "--params", "params.psp",
                "--pckg", "demo/pckg.json",
                "--features", "demo/scene_0.features.pgrd",
                "--coarse", "demo/scene_0.coarse.pgrd",
                "--rasters", "sar=demo/scene_0.sar.pgrd",
                "--mode", "physical",
                "--out", "refined",
            ],
            [
                "eval",
                "--pred", "refined/labels.pgrd",
                "--gt", "demo/scene_0.labels.pgrd",
                "--pckg", "demo/pckg.json",
                "--rasters", "sar=demo/scene_0.sar.pgrd",
                "--out", "eval.json",
            ],
        ]
        for argv in steps:
            assert cli_main(argv) == 0, argv

    def collect(root):
        table = {}
        for base, _, files in os.walk(root):
            for name in files:
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    table[os.path.relpath(path, root)] = fh.read()
        return table

    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    run_a.mkdir()
    run_b.mkdir()
    run_pipeline(run_a)
    run_pipeline(run_b)
    bytes_a, bytes_b = collect(run_a), collect(run_b)
    assert set(bytes_a) == set(bytes_b)
    mismatched = [name for name in bytes_a if bytes_a[name] != bytes_b[name]]
    assert not mismatched, f"artifacts differ: {mismatched}"
    _report(7, "pipeline determinism", f"{len(bytes_a)} artifacts byte-identical")


def _random_valid_entry(rng, index):
    def text(n):
        alphabet = "abcdefghijklmnopqrstuvwxyz -"
        return "".join(rng.choice(list(alphabet)) for _ in range(int(rng.integers(1, n))))

    def interval(lo, hi):
        a = round(float(rng.uniform(lo, hi)), 2)
        b = round(float(rng.uniform(a, hi)), 2)
        return [a, b]

    return {
        "Category": f"cat-{index}-{text(8)}",
        "Meaning": text(20),
        "Modifier Analysis": text(20),
        "Coarse Class": text(10),
        "NDVI Range": interval(-1.0, 1.0),
        "DEM Range": interval(-100.0, 5000.0),
        "SAR Range": interval(-40.0, 10.0),
        "Reasoning": text(40),
    }


def test_criterion_8_round_trip_and_validation():
    rng = np.random.default_rng(99)
    total = 0
    for block in range(10):
        doc = json.dumps([_random_valid_entry(rng, block * 100 + k) for k in range(100)])
        graph = parse_pckg(doc)
        assert parse_pckg(serialize_pckg(graph)) == graph
        total += graph.num_classes
    assert total == 1000

    mutations = [
        ("inverted-ndvi", PriorValidationError, lambda o: o.update({"NDVI Range": [0.8, 0.1]})),
        ("inverted-dem", PriorValidationError, lambda o: o.update({"DEM Range": [50.0, 1.0]})),
        ("inverted-sar", PriorValidationError, lambda o: o.update({"SAR Range": [-5.0, -25.0]})),
        ("ndvi-bounds", PriorValidationError, lambda o: o.update({"NDVI Range": [0.5, 1.5]})),
        ("empty-category", PriorValidationError, lambda o: o.update({"Category": "  "})),
        ("missing-category", PriorSchemaError, lambda o: o.pop("Category")),
        ("missing-meaning", PriorSchemaError, lambda o: o.pop("Meaning")),
        ("missing-range", PriorSchemaError, lambda o: o.pop("SAR Range")),
        ("range-arity", PriorSchemaError, lambda o: o.update({"DEM Range": [1.0]})),
        ("range-type", PriorSchemaError, lambda o: o.update({"NDVI Range": ["a", "b"]})),
        ("text-type", PriorSchemaError, lambda o: o.update({"Reasoning": 42})),
    ]
    rejected = 0
    for k in range(100):
        name, expected, mutate = mutations[k % len(mutations)]
        obj = _random_valid_entry(rng, 10_000 + k)
        mutate(obj)
        with pytest.raises(expected):
            parse_pckg(json.dumps([obj]))
        rejected += 1
    # duplicate category and malformed JSON are document-level rejections
    dup = _random_valid_entry(rng, 20_000)
    with pytest.raises(PriorValidationError, match="duplicate"):
        parse_pckg(json.dumps([dup, dup]))
    with pytest.raises(PriorParseError, match="line"):
        parse_pckg('[{"Category": "x",]')

    _report(8, "round-trip and validation", f"1000 round-tripped, {rejected}+2 rejected")
