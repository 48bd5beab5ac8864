from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physeg import benchmark, losses
from physeg.metrics import miou, plausibility_rate, reliability
from physeg.priors import MODALITIES, Interval, PriorEntry, PriorGraph
from physeg.synth import SynthConfig, synthesize_raster, synthesize_scene


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
def graph2():
    return PriorGraph(
        (
            entry("veg", (0.30, 0.70), (0.0, 200.0), (-14.0, -8.0)),
            entry("water", (-0.50, -0.10), (0.0, 20.0), (-26.0, -18.0)),
        )
    )


def ground_truth_hinges(labels, rasters, graph):
    """``total_loss``'s hard-region hinge records for the one-hot ground truth, by (class, modality)."""
    one_hot = np.eye(graph.num_classes)[labels - 1]
    features = np.zeros(labels.shape + (1,))
    _, components, _ = losses.total_loss(one_hot, labels, features, rasters, graph)
    return {(rec["class_id"], rec["modality"]): rec for rec in components["phys_terms"]}


class TestMiou:
    def test_identical_masks_give_one(self):
        rng = np.random.default_rng(0)
        mask = rng.integers(1, 4, size=(10, 10)).astype(np.int32)
        report = miou(mask, mask, num_classes=3)
        assert report.miou == 1.0
        assert all(v == 1.0 for v in report.per_class.values() if v is not None)

    def test_disjoint_single_class_masks(self):
        pred = np.full((4, 4), 1, dtype=np.int32)
        gt = np.full((4, 4), 2, dtype=np.int32)
        report = miou(pred, gt, num_classes=2)
        assert report.per_class[1] == 0.0
        assert report.per_class[2] == 0.0
        assert report.miou == 0.0

    def test_2x2_hand_counted_confusion(self):
        gt = np.array([[1, 1], [2, 2]], dtype=np.int32)
        pred = np.array([[1, 2], [2, 2]], dtype=np.int32)
        report = miou(pred, gt, num_classes=2)
        # class 1: TP=1, FP=0, FN=1 -> 1/2; class 2: TP=2, FP=1, FN=0 -> 2/3
        assert report.per_class[1] == pytest.approx(0.5)
        assert report.per_class[2] == pytest.approx(2 / 3)
        assert report.miou == pytest.approx((0.5 + 2 / 3) / 2)

    def test_swapping_masks_preserves_per_class_iou(self):
        rng = np.random.default_rng(5)
        a = rng.integers(1, 5, size=(12, 12)).astype(np.int32)
        b = rng.integers(1, 5, size=(12, 12)).astype(np.int32)
        r_ab = miou(a, b, num_classes=4, ignore_background=False)
        r_ba = miou(b, a, num_classes=4, ignore_background=False)
        assert r_ab.per_class == r_ba.per_class

    def test_absent_class_excluded_from_mean(self):
        gt = np.full((3, 3), 1, dtype=np.int32)
        pred = np.full((3, 3), 1, dtype=np.int32)
        report = miou(pred, gt, num_classes=3)
        assert report.per_class[2] is None
        assert report.per_class[3] is None
        assert report.miou == 1.0

    def test_background_ignored_by_default(self):
        gt = np.array([[0, 1], [0, 1]], dtype=np.int32)
        pred = np.array([[2, 1], [2, 1]], dtype=np.int32)
        report = miou(pred, gt, num_classes=2)
        assert report.miou == 1.0  # background mistakes invisible when ignored

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shapes"):
            miou(np.zeros((2, 2), dtype=int), np.zeros((3, 3), dtype=int), num_classes=1)


class TestPlausibility:
    def test_synthetic_pair_is_fully_plausible(self, graph2):
        rng = np.random.default_rng(1)
        labels = rng.integers(1, 3, size=(16, 16)).astype(np.int32)
        rasters = synthesize_scene(labels, graph2, {"NDVI", "DEM", "SAR"}, SynthConfig(seed=2))
        rate, breakdown = plausibility_rate(labels, rasters, graph2)
        assert rate == 1.0
        assert all(rec["inside"] for per in breakdown.values() for rec in per.values())

    def test_swapped_labels_with_disjoint_intervals(self, graph2):
        rng = np.random.default_rng(2)
        labels = rng.integers(1, 3, size=(16, 16)).astype(np.int32)
        rasters = {"NDVI": synthesize_raster(labels, graph2, "NDVI", SynthConfig(seed=3))}
        swapped = np.where(labels == 1, 2, 1).astype(np.int32)
        rate, _ = plausibility_rate(swapped, rasters, graph2)
        assert rate == 0.0

    def test_mixed_case_matches_brute_force(self, graph2):
        rng = np.random.default_rng(3)
        labels = rng.integers(1, 3, size=(12, 12)).astype(np.int32)
        rasters = {
            "NDVI": rng.uniform(-1, 1, size=(12, 12)),
            "SAR": rng.uniform(-30, 0, size=(12, 12)),
        }
        rate, _ = plausibility_rate(labels, rasters, graph2)

        # independent recount
        per_modality = []
        for name in ("NDVI", "SAR"):
            hits = 0
            for cid in (1, 2):
                iv = graph2.interval(cid, name)
                mean = rasters[name][labels == cid].mean()
                hits += iv.lo <= mean <= iv.hi
            per_modality.append(hits / 2)
        assert rate == pytest.approx(sum(per_modality) / 2, abs=1e-15)

    @pytest.mark.parametrize("steps", range(-2, 3))
    def test_inside_is_the_physics_hinge_rule_at_the_tolerance_edge(self, steps):
        # grassland SAR is [-14, -8] with tol 1.4e-8.  Every cell is within a few
        # ulps of hi + tol, and the region mean (16 sequential adds, then / 16)
        # rounds across it: steps -2..0 read inside, 1 and 2 read outside
        graph = benchmark.demo_graph()
        grassland = 3
        iv = graph.interval(grassland, "SAR")
        assert (iv.lo, iv.hi, iv.edge_tol) == (-14.0, -8.0, 1e-9 * 14)
        cell = np.nextafter(-8 + 1.4e-8, np.inf)
        for _ in range(abs(steps)):
            cell = np.nextafter(cell, np.sign(steps) * np.inf)
        labels = np.full((4, 4), grassland, dtype=np.int32)
        rasters = {"SAR": np.full((4, 4), cell)}
        _, breakdown = plausibility_rate(labels, rasters, graph)
        record = breakdown[grassland]["SAR"]
        (hinge,) = ground_truth_hinges(labels, rasters, graph).values()
        assert record["mean"].hex() == hinge["mean"].hex()
        assert record["inside"] == (hinge["term"] == 0.0) == (steps < 1)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64])
    def test_any_integer_mask_dtype(self, graph2, dtype):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 3, size=(6, 6))
        rasters = {"SAR": rng.uniform(-30, 0, size=(6, 6))}
        expected = plausibility_rate(labels.astype(np.int32), rasters, graph2)
        assert plausibility_rate(labels.astype(dtype), rasters, graph2) == expected

    def test_unknown_label_raises(self, graph2):
        labels = np.full((4, 4), 7, dtype=np.int32)
        with pytest.raises(ValueError, match=re.escape("mask label 7 outside 0..2")):
            plausibility_rate(labels, {"NDVI": np.zeros((4, 4))}, graph2)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(["spread", "ends"]), min_size=3, max_size=3),
)
def test_plausibility_is_the_hinge_of_the_ground_truth(h, w, seed, kinds):
    # a fully labelled mask, scored by the metric and by total_loss's one-hot hinge
    graph = benchmark.demo_graph()
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, graph.num_classes + 1, size=(h, w)).astype(np.int32)
    rasters = {}
    for name, kind in zip(MODALITIES, kinds):
        ivs = [graph.interval(cid, name) for cid in range(1, graph.num_classes + 1)]
        lo = np.array([iv.lo for iv in ivs])[labels - 1]
        width = np.array([iv.width for iv in ivs])[labels - 1]
        if kind == "spread":  # regions inside and past either end
            where = rng.uniform(-0.3, 1.3, size=(h, w))
        else:  # cells on an endpoint, give or take an edge tolerance
            where = rng.integers(0, 2, size=(h, w)) + rng.normal(scale=1e-9, size=(h, w))
        rasters[name] = lo + width * where
    _, breakdown = plausibility_rate(labels, rasters, graph)
    hinges = ground_truth_hinges(labels, rasters, graph)
    records = {(cid, name): rec for cid, per in breakdown.items() for name, rec in per.items()}
    assert records.keys() == hinges.keys()
    for key, record in records.items():
        assert record["mean"].hex() == hinges[key]["mean"].hex()
        assert record["inside"] == (hinges[key]["term"] == 0.0)


class TestReliability:
    def test_identical_rasters_identical_stats(self, graph2):
        rng = np.random.default_rng(4)
        labels = rng.integers(1, 3, size=(20, 20)).astype(np.int32)
        raster = synthesize_raster(labels, graph2, "SAR", SynthConfig(seed=5))
        report = reliability(raster, raster, labels, graph2, "SAR")
        for rec in report.per_class.values():
            assert rec["synthetic"] == rec["reference"]
            assert rec["median_offset_delta"] == 0.0
            assert rec["coverage_delta"] == 0.0

    def test_shifted_reference_drops_coverage(self, graph2):
        rng = np.random.default_rng(6)
        labels = np.ones((20, 20), dtype=np.int32)
        synth = synthesize_raster(labels, graph2, "NDVI", SynthConfig(seed=7))
        shifted = synth + 2.0  # far beyond the veg interval [0.30, 0.70]
        report = reliability(synth, shifted, labels, graph2, "NDVI")
        rec = report.per_class[1]
        assert rec["synthetic"]["coverage"] == 1.0
        assert rec["reference"]["coverage"] == 0.0
        assert rec["median_offset_delta"] == pytest.approx(2.0, abs=1e-12)

    def test_gaussian_vs_uniform_same_interval(self, graph2):
        labels = np.ones((40, 40), dtype=np.int32)
        gaussian = synthesize_raster(
            labels, graph2, "NDVI", SynthConfig(seed=8, noise_model="truncated_gaussian", smoothing_radius=0)
        )
        uniform = synthesize_raster(
            labels, graph2, "NDVI", SynthConfig(seed=8, noise_model="uniform", smoothing_radius=0)
        )
        report = reliability(gaussian, uniform, labels, graph2, "NDVI")
        rec = report.per_class[1]
        assert rec["synthetic"]["coverage"] == 1.0
        assert rec["reference"]["coverage"] == 1.0
        # midpoint-peaked sampling concentrates harder than uniform
        assert rec["synthetic"]["iqr"] < rec["reference"]["iqr"]

    def test_shape_mismatch_raises(self, graph2):
        with pytest.raises(ValueError):
            reliability(np.zeros((2, 2)), np.zeros((3, 3)), np.ones((2, 2), dtype=int), graph2, "SAR")
