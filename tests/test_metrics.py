from __future__ import annotations

import re

import numpy as np
import pytest

from physeg import benchmark, losses
from physeg.metrics import miou, plausibility_rate, reliability
from physeg.priors import Interval, PriorEntry, PriorGraph
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
        # grassland SAR is [-14, -8] with tol 1.4e-8: -8 + 1.4e-8 rounds onto the
        # rounded hi + tol, but its exact mean - hi exceeds tol, so the hinge bites
        graph = benchmark.demo_graph()
        grassland = 3
        iv = graph.interval(grassland, "SAR")
        assert (iv.lo, iv.hi, iv.edge_tol) == (-14.0, -8.0, 1e-9 * 14)
        mean = -8 + 1.4e-8
        for _ in range(abs(steps)):
            mean = np.nextafter(mean, np.sign(steps) * np.inf)
        labels = np.full((4, 4), grassland, dtype=np.int32)
        _, breakdown = plausibility_rate(labels, {"SAR": np.full((4, 4), mean)}, graph)
        record = breakdown[grassland]["SAR"]
        assert record["mean"] == mean
        term, _ = losses._hinge_sq(mean, iv.lo, iv.hi, iv.edge_tol)
        assert record["inside"] == (term == 0.0) == (steps < 0)

    def test_unknown_label_raises(self, graph2):
        labels = np.full((4, 4), 7, dtype=np.int32)
        with pytest.raises(ValueError, match=re.escape("mask label 7 outside 0..2")):
            plausibility_rate(labels, {"NDVI": np.zeros((4, 4))}, graph2)


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
