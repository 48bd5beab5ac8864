from __future__ import annotations

import math
import re

import numpy as np
import pytest
from fdcheck import assert_grad_close, central_difference

from physeg.losses import (
    LossWeights,
    loss_step,
    phys_loss,
    phys_loss_soft,
    prepare_targets,
    region_loss,
    region_stats,
    seg_loss,
    total_loss,
)
from physeg.priors import Interval, PriorEntry, PriorGraph


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


GRAPH3 = PriorGraph(
    (
        entry("a", (0.30, 0.70), (0.0, 100.0), (-14.0, -8.0)),
        entry("b", (-0.50, -0.10), (0.0, 100.0), (-26.0, -18.0)),
        entry("c", (0.00, 0.20), (0.0, 100.0), (-6.0, 0.0)),
    )
)


@pytest.fixture
def graph3():
    return GRAPH3


def targets_for(pred, gt=None, features=None, rasters=None, graph=GRAPH3):
    """Prepared loss targets for ``pred``: an unlabeled mask and one zero feature by default."""
    h, w = pred.shape[:2]
    gt = np.zeros((h, w), dtype=np.int32) if gt is None else gt
    features = np.zeros((h, w, 1)) if features is None else features
    return prepare_targets(gt, features, rasters, graph, pred.shape)


def hard_hinge(pred, rasters, graph=GRAPH3):
    """(value, records) of the hard-region hinge of ``pred`` against ``rasters``."""
    targets = targets_for(pred, rasters=rasters, graph=graph)
    return phys_loss(region_stats(pred, targets), targets)


def soft_hinge(pred, rasters, graph=GRAPH3):
    """(value, gradient) of the probability-weighted hinge; the gradient is never None here."""
    value, grad = phys_loss_soft(pred, targets_for(pred, rasters=rasters, graph=graph))
    assert grad is not None
    return value, grad


def random_instance(rng, h=5, w=4, c=3, d=2):
    pred = rng.uniform(0.05, 0.95, size=(h, w, c))
    gt = rng.integers(0, c + 1, size=(h, w)).astype(np.int32)
    gt[0, 0] = 1  # keep at least one labeled pixel
    features = rng.normal(size=(h, w, d))
    return pred, gt, features


class TestSegLoss:
    def test_half_half_single_pixel_is_ln2(self):
        pred = np.array([[[0.5, 0.5]]])
        gt = np.array([[1]], dtype=np.int32)
        value, _ = seg_loss(pred, targets_for(pred, gt), alpha=0.0)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_one_hot_is_near_zero(self):
        gt = np.array([[1, 2], [2, 1]], dtype=np.int32)
        pred = np.zeros((2, 2, 2))
        eps = 1e-7
        for i in range(2):
            for j in range(2):
                pred[i, j] = eps
                pred[i, j, gt[i, j] - 1] = 1.0 - eps
        value, _ = seg_loss(pred, targets_for(pred, gt), alpha=1.0)
        assert value == pytest.approx(0.0, abs=1e-5)

    def test_disjoint_one_hot_dice_term_is_one(self):
        gt = np.ones((3, 3), dtype=np.int32)
        pred = np.zeros((3, 3, 2))
        pred[:, :, 1] = 1.0  # everything predicted as class 2
        targets = targets_for(pred, gt)
        value_a0, _ = seg_loss(pred, targets, alpha=0.0)
        value_a1, _ = seg_loss(pred, targets, alpha=1.0)
        assert value_a1 - value_a0 == pytest.approx(1.0, abs=1e-12)

    def test_background_pixels_ignored(self):
        pred = np.array([[[0.5, 0.5], [0.9, 0.1]]])
        gt_with_bg = np.array([[1, 0]], dtype=np.int32)
        gt_without = np.array([[1]], dtype=np.int32)
        v1, _ = seg_loss(pred, targets_for(pred, gt_with_bg), alpha=0.7)
        v2, _ = seg_loss(pred[:, :1], targets_for(pred[:, :1], gt_without), alpha=0.7)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_shape_mismatch_raises(self):
        # the mask is checked where the targets are prepared, not by the term
        with pytest.raises(ValueError, match="ground-truth"):
            targets_for(np.zeros((2, 2, 3)), np.zeros((3, 3), dtype=int))

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        pred, gt, _ = random_instance(rng)
        alpha = rng.uniform(0.0, 2.0)
        targets = targets_for(pred, gt)
        _, grad = seg_loss(pred, targets, alpha)
        numeric = central_difference(lambda p: seg_loss(p, targets, alpha)[0], pred)
        assert_grad_close(grad, numeric)


class TestRegionStats:
    def test_uniform_prediction_single_region(self):
        pred = np.zeros((4, 4, 3))
        pred[:, :, 1] = 0.9
        stats = region_stats(pred, targets_for(pred, features=np.ones((4, 4, 2))))
        assert stats.counts.tolist() == [0, 16, 0]
        # empty classes get zero mean rows
        assert stats.feature_means.tolist() == [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]

    def test_feature_mean_is_arithmetic_mean(self):
        pred = np.zeros((1, 2, 2))
        pred[:, :, 0] = 1.0
        features = np.array([[[0.0], [2.0]]])
        stats = region_stats(pred, targets_for(pred, features=features))
        assert stats.feature_means[0].tolist() == [1.0]

    def test_exact_tie_goes_to_lower_class(self):
        pred = np.full((1, 1, 2), 0.5)
        stats = region_stats(pred, targets_for(pred))
        assert stats.region_map[0, 0] == 1

    def test_raster_means(self):
        # the hard-region raster means are computed, and reported, by phys_loss
        pred = np.zeros((1, 2, 2))
        pred[0, 0, 0] = 1.0
        pred[0, 1, 1] = 1.0
        _, records = hard_hinge(pred, {"SAR": np.array([[-10.0, -20.0]])})
        assert [rec["mean"] for rec in records] == [-10.0, -20.0]


class TestRegionLoss:
    def test_constant_features_give_zero(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0.1, 0.9, size=(4, 4, 2))
        features = np.full((4, 4, 3), 2.5)
        targets = targets_for(pred, features=features)
        value = region_loss(region_stats(pred, targets), targets)
        assert value == pytest.approx(0.0, abs=1e-18)

    def test_two_feature_region_hand_case(self):
        pred = np.zeros((1, 2, 2))
        pred[:, :, 0] = 1.0
        features = np.array([[[0.0], [2.0]]])
        targets = targets_for(pred, features=features)
        value = region_loss(region_stats(pred, targets), targets)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_empty_class_contributes_zero(self):
        pred = np.zeros((2, 2, 3))
        pred[:, :, 0] = 1.0
        features = np.array([[[0.0], [2.0]], [[4.0], [6.0]]])
        targets = targets_for(pred, features=features)
        value = region_loss(region_stats(pred, targets), targets)
        expected = ((3.0**2) + 1.0 + 1.0 + 3.0**2) / 4.0
        assert value == pytest.approx(expected, abs=1e-12)

    def test_gradient_wrt_pred_is_zero_and_fd_agrees(self):
        rng = np.random.default_rng(3)
        pred, _, features = random_instance(rng)
        targets = targets_for(pred, features=features)
        # the term has no analytic gradient: finite differences must agree with zero
        numeric = central_difference(lambda p: region_loss(region_stats(p, targets), targets), pred)
        assert_grad_close(np.zeros_like(pred), numeric)


class TestPhysLoss:
    def _hinge_with_mean(self, mean, graph):
        pred = np.zeros((2, 2, 3))
        pred[:, :, 0] = 1.0
        return hard_hinge(pred, {"NDVI": np.full((2, 2), mean)}, graph)

    def test_mean_inside_interval_gives_zero(self, graph3):
        value, diags = self._hinge_with_mean(0.50, graph3)
        assert value == 0.0
        assert diags[0]["term"] == 0.0

    def test_mean_above_interval(self, graph3):
        value, _ = self._hinge_with_mean(0.90, graph3)
        assert value == pytest.approx(0.04, abs=1e-12)

    def test_mean_below_interval(self, graph3):
        value, _ = self._hinge_with_mean(0.10, graph3)
        assert value == pytest.approx(0.04, abs=1e-12)

    def test_averaged_over_modalities(self, graph3):
        pred = np.zeros((2, 2, 3))
        pred[:, :, 0] = 1.0
        rasters = {"NDVI": np.full((2, 2), 0.90), "SAR": np.full((2, 2), -10.0)}
        value, _ = hard_hinge(pred, rasters, graph3)
        # NDVI violates by 0.2 -> 0.04; SAR is inside -> 0; mean over 2 modalities
        assert value == pytest.approx(0.02, abs=1e-12)

    def test_nonnegative_and_zero_iff_inside(self, graph3):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mean = rng.uniform(-1.0, 1.0)
            value, _ = self._hinge_with_mean(round(mean, 3), graph3)
            inside = 0.30 <= mean <= 0.70
            assert value >= 0.0
            assert (value == 0.0) == inside or abs(mean - 0.30) < 1e-9 or abs(mean - 0.70) < 1e-9

    def test_monotone_in_violation(self, graph3):
        values = []
        for mean in (0.75, 0.85, 0.95):
            values.append(self._hinge_with_mean(mean, graph3)[0])
        assert values[0] < values[1] < values[2]

    def test_permutation_invariance(self, graph3):
        rng = np.random.default_rng(11)
        pred = rng.uniform(0.05, 0.95, size=(4, 4, 3))
        raster = rng.uniform(-1.0, 1.0, size=(4, 4))
        base, _ = hard_hinge(pred, {"NDVI": raster}, graph3)
        perm = rng.permutation(16)
        pred_p = pred.reshape(16, 3)[perm].reshape(4, 4, 3)
        raster_p = raster.reshape(16)[perm].reshape(4, 4)
        again, _ = hard_hinge(pred_p, {"NDVI": raster_p}, graph3)
        assert again == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_soft_gradient_matches_finite_differences(self, seed, graph3):
        rng = np.random.default_rng(100 + seed)
        pred = rng.uniform(0.05, 0.95, size=(5, 4, 3))
        rasters = {
            "NDVI": rng.uniform(-1.0, 1.0, size=(5, 4)),
            "SAR": rng.uniform(-30.0, 0.0, size=(5, 4)),
        }
        _, grad = soft_hinge(pred, rasters, graph3)
        numeric = central_difference(lambda p: soft_hinge(p, rasters, graph3)[0], pred)
        assert_grad_close(grad, numeric)

    def test_soft_gradient_is_scaled_by_the_weight_and_not_built_at_zero(self, graph3):
        rng = np.random.default_rng(6)
        pred = rng.uniform(0.05, 0.95, size=(5, 4, 3))
        rasters = {
            "NDVI": rng.uniform(-1.0, 1.0, size=(5, 4)),
            "SAR": rng.uniform(-30.0, 0.0, size=(5, 4)),
        }
        targets = targets_for(pred, rasters=rasters, graph=graph3)
        value, grad = phys_loss_soft(pred, targets)
        weighted_value, weighted = phys_loss_soft(pred, targets, 0.4)
        assert weighted_value == value > 0.0
        assert weighted.tobytes() == (grad * 0.4).tobytes()
        assert phys_loss_soft(pred, targets, 0.0) == (value, None)

    def test_soft_equals_hard_at_one_hot(self, graph3):
        rng = np.random.default_rng(5)
        labels = rng.integers(1, 4, size=(6, 6))
        pred = np.zeros((6, 6, 3))
        for cid in (1, 2, 3):
            pred[labels == cid, cid - 1] = 1.0
        rasters = {"NDVI": rng.uniform(-1.0, 1.0, size=(6, 6))}
        hard, _ = hard_hinge(pred, rasters, graph3)
        soft, _ = phys_loss_soft(pred, targets_for(pred, rasters=rasters, graph=graph3))
        assert soft == pytest.approx(hard, rel=1e-12)


class TestTotalLoss:
    def test_degenerate_weights_equal_seg_loss(self, graph3):
        rng = np.random.default_rng(2)
        pred, gt, features = random_instance(rng)
        weights = LossWeights(alpha=1.0, lambda1=0.0, lambda2=0.0)
        total, comps, _ = total_loss(pred, gt, features, {}, graph3, weights)
        seg_only, _ = seg_loss(pred, targets_for(pred, gt, features, graph=graph3), alpha=1.0)
        assert total == pytest.approx(seg_only, rel=1e-12)
        assert comps["phys"] == 0.0

    def test_zero_physics_weight_gives_the_seg_gradient_and_reports_the_hinge(self, graph3):
        rng = np.random.default_rng(3)
        pred, gt, features = random_instance(rng)
        rasters = {"NDVI": rng.uniform(-1, 1, size=pred.shape[:2])}
        targets = targets_for(pred, gt, features, rasters, graph3)
        _, comps, grad = loss_step(pred, targets, LossWeights(alpha=1.0, lambda1=0.05, lambda2=0.0))
        assert comps["phys"] == phys_loss_soft(pred, targets)[0] > 0.0
        assert grad.tobytes() == seg_loss(pred, targets, alpha=1.0)[1].tobytes()

    def test_defaults_are_paper_weights(self):
        w = LossWeights()
        assert (w.alpha, w.lambda1, w.lambda2) == (1.0, 0.05, 0.40)

    def test_all_correct_prediction_zero_phys(self, graph3):
        from physeg.synth import SynthConfig, synthesize_scene

        rng = np.random.default_rng(4)
        gt = rng.integers(1, 4, size=(8, 8)).astype(np.int32)
        rasters = synthesize_scene(gt, graph3, {"NDVI", "DEM", "SAR"}, SynthConfig(seed=1))
        pred = np.zeros((8, 8, 3))
        for cid in (1, 2, 3):
            pred[gt == cid, cid - 1] = 1.0
        features = rng.normal(size=(8, 8, 2))
        _, comps, _ = total_loss(pred, gt, features, rasters, graph3)
        assert comps["phys"] == 0.0
        assert comps["phys_argmax"] == 0.0

    def test_is_weighted_sum_of_components(self, graph3):
        rng = np.random.default_rng(9)
        pred, gt, features = random_instance(rng)
        rasters = {"NDVI": rng.uniform(-1, 1, size=pred.shape[:2])}
        w = LossWeights(alpha=0.5, lambda1=0.2, lambda2=0.7)
        total, comps, _ = total_loss(pred, gt, features, rasters, graph3, w)
        assert total == pytest.approx(
            comps["seg"] + 0.2 * comps["region"] + 0.7 * comps["phys"], rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed, graph3):
        rng = np.random.default_rng(200 + seed)
        pred, gt, features = random_instance(rng)
        rasters = {
            "NDVI": rng.uniform(-1.0, 1.0, size=pred.shape[:2]),
            "SAR": rng.uniform(-30.0, 0.0, size=pred.shape[:2]),
        }
        w = LossWeights(alpha=0.8, lambda1=0.05, lambda2=0.4)
        _, _, grad = total_loss(pred, gt, features, rasters, graph3, w)
        numeric = central_difference(
            lambda p: total_loss(p, gt, features, rasters, graph3, w)[0], pred
        )
        assert_grad_close(grad, numeric)

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("gt", (3, 4), "ground-truth mask shape (3, 4) does not match prediction (4, 4)"),
            ("features", (4, 3, 2), "feature map shape (4, 3, 2) does not match prediction (4, 4)"),
            ("rasters", (4, 3), "raster 'NDVI' shape (4, 3) does not match (4, 4)"),
        ],
    )
    def test_misaligned_inputs_keep_their_messages(self, graph3, field, bad, message):
        rng = np.random.default_rng(12)
        pred, gt, features = random_instance(rng, h=4, w=4)
        inputs = {"gt": gt, "features": features, "rasters": {"NDVI": np.zeros((4, 4))}}
        inputs[field] = {"NDVI": np.zeros(bad)} if field == "rasters" else np.zeros(bad)
        args = (inputs["gt"], inputs["features"], inputs["rasters"], graph3)
        with pytest.raises(ValueError, match=re.escape(message)):
            total_loss(pred, *args)
        with pytest.raises(ValueError, match=re.escape(message)):
            prepare_targets(*args, pred.shape)

    def test_step_rejects_prediction_of_another_shape(self, graph3):
        rng = np.random.default_rng(13)
        pred, gt, features = random_instance(rng, h=4, w=4)
        targets = prepare_targets(gt, features, {}, graph3, pred.shape)
        with pytest.raises(ValueError, match="does not match the targets"):
            loss_step(pred[:, :3], targets)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(alpha=-0.1)
