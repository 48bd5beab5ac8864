"""Joint visual-physical training losses with analytic gradients.

Pixel term: cross-entropy plus a soft-Dice penalty over labeled pixels.
Region term: intra-class feature variance over hard argmax regions (no
gradient w.r.t. the prediction; regions are frozen per evaluation).
Physics term: squared hinge on region-mean physical values leaving their
class intervals.  The hinge is reported on hard argmax regions
(``phys_loss``) and trained through probability-weighted region means
(``phys_loss_soft``) so it actually carries a gradient; the two coincide
at one-hot predictions.

Hard-region means are ``priors.region_means``, the per-class sums that
``metrics.plausibility_rate`` also takes.  Every hinge is ``Interval.hinge``,
which counts a mean only past the interval's edge tolerance, so summation
rounding on exactly-clipped rasters never registers as a violation.

Everything that does not depend on the prediction (labeled pixel indices,
per-class masks, float64 rasters, interval bounds) is laid out once by
``prepare_targets``, the one place a scene is checked.  Each term is one
function of the prediction and those targets (``LossTargets``); none checks
its inputs again.  ``loss_step`` computes only the trained objective, keyed
by ``COMPONENTS``.  Training prepares each scene once and reuses its targets
on every step.  ``total_loss`` is the report: the two in one call, plus the
hard-region hinge and its per-(class, modality) records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .priors import PriorGraph, check_labels, check_rasters, region_means

CLAMP_EPS = 1e-7  # probability clamp inside cross-entropy
COMPONENTS = ("seg", "region", "phys", "total")  # what ``loss_step`` returns and training records
_SOFT_MASS_FLOOR = 1e-12


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0  # Dice weight inside the pixel term
    lambda1: float = 0.05  # region-compactness weight
    lambda2: float = 0.40  # physics-consistency weight

    def __post_init__(self):
        if not all(0 <= x < np.inf for x in (self.alpha, self.lambda1, self.lambda2)):
            raise ValueError("loss weights must be finite and non-negative")


@dataclass(frozen=True)
class RegionStats:
    """Per-class statistics over hard argmax regions (class c -> row c-1)."""

    counts: np.ndarray  # (C,) pixels per predicted class
    feature_means: np.ndarray  # (C, D); zero rows for empty classes
    region_map: np.ndarray  # (H, W) argmax class ids in 1..C


class _Labels(NamedTuple):
    """Labeled pixels of a ground-truth mask as flat row-major pixel indices."""

    pixels: np.ndarray  # (N,) flat indices of the labeled pixels
    cells: np.ndarray  # (N,) flat (H, W, C) index of each one's class: pixel * C + label - 1
    classes: tuple  # (channel, mask over ``pixels``, pixel count) per present class


class _Raster(NamedTuple):
    """One modality's float64 raster and its per-channel class intervals."""

    name: str
    values: np.ndarray  # (H, W)
    bounds: tuple  # channel -> Interval


@dataclass(frozen=True)
class LossTargets:
    """Everything the joint objective needs that does not depend on the prediction.

    Built by ``prepare_targets``, which checks the scene once; the term
    functions and ``loss_step`` then do only the arithmetic that depends on
    the prediction.
    """

    shape: tuple  # (H, W, C) of the predictions scored against these targets
    labels: _Labels
    features: np.ndarray  # (H, W, D) float64
    rasters: tuple  # _Raster per supplied modality, in modality order
    categories: tuple  # class names for the hinge records of ``total_loss``


def _check_pred(pred) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim != 3:
        raise ValueError(f"prediction must be (H, W, C), got shape {pred.shape}")
    return pred


def _check_aligned(h: int, w: int, gt, features):
    if np.asarray(gt).shape != (h, w):
        raise ValueError(
            f"ground-truth mask shape {np.asarray(gt).shape} does not match prediction {(h, w)}"
        )
    f = np.asarray(features)
    if f.ndim != 3 or f.shape[:2] != (h, w):
        raise ValueError(f"feature map shape {f.shape} does not match prediction {(h, w)}")


def _label_targets(gt, num_classes: int) -> _Labels:
    gt = check_labels(gt, num_classes)
    pixels = np.flatnonzero(gt > 0)
    channels = gt.ravel()[pixels] - 1
    classes = []
    for ch in np.unique(channels):
        in_class = channels == ch
        classes.append((int(ch), in_class, int(in_class.sum())))
    return _Labels(pixels, pixels * num_classes + channels, tuple(classes))


def _raster_targets(grids, graph: PriorGraph, num_classes: int) -> tuple:
    if grids and graph.num_classes < num_classes:
        raise ValueError(
            f"prediction has {num_classes} channels but the graph defines {graph.num_classes} classes"
        )
    return tuple(
        _Raster(
            name,
            values,
            tuple(graph.interval(ch + 1, name) for ch in range(num_classes)),
        )
        for name, values in grids.items()
    )


def prepare_targets(gt, features, rasters, graph: PriorGraph, shape) -> LossTargets:
    """Check one scene against predictions of ``shape`` (H, W, C) and lay out its targets.

    Raises ValueError when the mask or features do not align with the
    prediction grid, when ``check_rasters`` or ``check_labels`` rejects an
    input, or when the graph defines fewer than C classes while rasters are given.
    """
    h, w, c = (int(n) for n in shape)
    _check_aligned(h, w, gt, features)
    grids = check_rasters(rasters, (h, w))
    labels = _label_targets(gt, c)
    features = np.asarray(features, dtype=np.float64)
    return LossTargets(
        shape=(h, w, c),
        labels=labels,
        features=features,
        rasters=_raster_targets(grids, graph, c),
        categories=graph.categories,
    )


def seg_loss(pred, targets: LossTargets, alpha: float):
    """Cross-entropy + alpha * (1 - soft Dice) over the labeled pixels of ``targets``.

    Returns (value, gradient w.r.t. pred).  Dice averages the per-class soft
    overlap over classes present in the ground truth.
    """
    labels = targets.labels
    h, w, c = pred.shape
    grad = np.zeros((h, w, c))
    n_lab = len(labels.pixels)
    if n_lab == 0:
        return 0.0, grad
    flat_pred = pred.reshape(h * w, c)
    flat_grad = grad.reshape(h * w, c)

    p_true = pred.take(labels.cells)
    clipped = np.clip(p_true, CLAMP_EPS, 1.0 - CLAMP_EPS)
    ce = float(-np.log(clipped).mean())
    interior = (p_true > CLAMP_EPS) & (p_true < 1.0 - CLAMP_EPS)
    # labeled pixels are distinct, so one assignment is the whole accumulation
    grad.reshape(-1)[labels.cells] = np.where(interior, -1.0 / (n_lab * clipped), 0.0)

    dice_value = 0.0
    if alpha != 0.0:
        n_present = len(labels.classes)
        dice_sum = 0.0
        # one class column at a time: 1-D gathers and scatters on its strided view
        for ch, in_class, count in labels.classes:
            p_lab = flat_pred[:, ch][labels.pixels]
            inter = float(p_lab[in_class].sum())
            union = float(p_lab.sum()) + float(count)
            dice_sum += 2.0 * inter / union
            coeff = 2.0 / (union * union)
            d_dice = np.where(in_class, coeff * (union - inter), -coeff * inter)
            grad_ch = flat_grad[:, ch]
            grad_ch[labels.pixels] -= alpha * (d_dice / n_present)
        mean_dice = dice_sum / n_present
        dice_value = 1.0 - mean_dice
    return ce + alpha * dice_value, grad


def region_stats(pred, targets: LossTargets) -> RegionStats:
    """Hard argmax regions with per-class pixel counts and feature means.

    Ties in the argmax break toward the lower class id.  Empty classes
    (count 0) get zero mean rows.
    """
    region = np.argmax(pred, axis=2).astype(np.int32) + 1
    counts, feature_means = region_means(region, targets.features, pred.shape[2])
    return RegionStats(counts=counts, feature_means=feature_means, region_map=region)


def region_loss(stats: RegionStats, targets: LossTargets) -> float:
    """Intra-class feature variance: sum_c |R_c|^-1 sum_{i in R_c} ||F_i - mu_c||^2.

    Region assignment is frozen, and the features are a fixed input, so the
    term has no gradient w.r.t. the prediction.
    """
    region = stats.region_map - 1
    # the gathered region means become F - mu in place
    diff = np.take(stats.feature_means, region, axis=0)
    np.subtract(targets.features, diff, out=diff)
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    inv = np.zeros(len(stats.counts))
    nonempty = stats.counts > 0
    inv[nonempty] = 1.0 / stats.counts[nonempty]
    sq *= inv[region]
    return float(sq.sum())


def phys_loss(stats: RegionStats, targets: LossTargets):
    """Interval hinge on hard-region raster means, averaged over modalities.

    Returns (value, records); the records carry one entry per (nonempty
    class, modality) for interpretability.  Report-only: ``total_loss``
    calls it, a training step does not.
    """
    c = len(stats.counts)
    nonempty = [ch for ch in range(c) if stats.counts[ch] != 0]
    terms = []
    total = 0.0
    for name, values, bounds in targets.rasters:
        _, means = region_means(stats.region_map, values, c)
        for ch in nonempty:
            mean = float(means[ch])
            term, _ = bounds[ch].hinge(mean)
            total += term
            terms.append(
                {
                    "class_id": ch + 1,
                    "category": targets.categories[ch],
                    "modality": name,
                    "mean": mean,
                    "lo": bounds[ch].lo,
                    "hi": bounds[ch].hi,
                    "term": term,
                }
            )
    value = total / len(targets.rasters) if targets.rasters else 0.0
    return value, terms


def phys_loss_soft(pred, targets: LossTargets, weight: float = 1.0):
    """Interval hinge on probability-weighted region means, with gradient.

    Means are w_c = sum_i p_ic v_i / sum_i p_ic, making the hinge
    differentiable in the prediction; equals the hard-region hinge when the
    prediction is one-hot.  Returns (value, ``weight`` times the gradient
    w.r.t. pred, or None when no hinge is active or ``weight`` is 0).
    """
    if not targets.rasters:
        return 0.0, None
    h, w, c = pred.shape
    grad = None
    mass = pred.sum(axis=(0, 1))  # (C,)
    total = 0.0
    for _, values, bounds in targets.rasters:
        weighted = np.einsum("ijc,ij->c", pred, values)
        for ch in range(c):
            if mass[ch] < _SOFT_MASS_FLOOR:
                continue
            mean = float(weighted[ch] / mass[ch])
            term, deriv = bounds[ch].hinge(mean)
            total += term
            if deriv != 0.0 and weight != 0.0:
                if grad is None:
                    # step: (H, W) scratch for one class's gradient
                    grad, step = np.zeros((h, w, c)), np.empty((h, w))
                # deriv * (values - mean) / mass[ch], in place
                np.subtract(values, mean, out=step)
                step *= deriv
                step /= mass[ch]
                grad[:, :, ch] += step
    m = len(targets.rasters)
    if grad is not None:
        grad /= m
        grad *= weight
    return total / m, grad


def loss_step(pred, targets: LossTargets, weights: LossWeights = LossWeights()):
    """Weighted joint objective of one prediction against prepared targets.

    Returns (total, components keyed by ``COMPONENTS``, gradient w.r.t. pred);
    ``phys`` is the probability-weighted hinge, the one that is trained.
    """
    pred = _check_pred(pred)
    if pred.shape != targets.shape:
        raise ValueError(f"prediction shape {pred.shape} does not match the targets {targets.shape}")
    seg, grad = seg_loss(pred, targets, weights.alpha)
    region = region_loss(region_stats(pred, targets), targets)
    phys, grad_phys = phys_loss_soft(pred, targets, weights.lambda2)
    total = seg + weights.lambda1 * region + weights.lambda2 * phys
    if grad_phys is not None:
        grad += grad_phys
    return total, dict(zip(COMPONENTS, (seg, region, phys, total))), grad


def total_loss(pred, gt, features, rasters, graph: PriorGraph, weights: LossWeights = LossWeights()):
    """Loss report: seg + lambda1 * region + lambda2 * phys, with the hard-region hinge.

    Returns (total, components, gradient w.r.t. pred).  The total, the
    ``COMPONENTS`` and the gradient are those of ``loss_step`` on targets
    prepared for this one call.  The report adds ``phys_argmax``, the same
    hinge on hard argmax regions (``phys_loss``), and ``phys_terms``, its
    per-(class, modality) records; neither is computed during training.
    """
    pred = _check_pred(pred)
    targets = prepare_targets(gt, features, rasters, graph, pred.shape)
    total, components, grad = loss_step(pred, targets, weights)
    components["phys_argmax"], components["phys_terms"] = phys_loss(
        region_stats(pred, targets), targets
    )
    return total, components, grad
