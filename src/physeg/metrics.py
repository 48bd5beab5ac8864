"""Evaluation: mean IoU, physical-plausibility rate and reliability statistics.

IoU is computed from confusion counts; classes absent from both masks have
undefined IoU and are excluded from the mean.  Plausibility measures the
fraction of labeled regions whose mean physical value sits inside its class
interval.  It takes the means with ``priors.region_means`` and counts a region
inside exactly when ``Interval.hinge`` is 0, so on a ground-truth mask it
agrees bit for bit with the physics hinge of its one-hot prediction.  Reliability
compares a synthetic raster against a reference one using rank statistics
(coverage, median offset from the interval midpoint, IQR) per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .priors import PriorGraph, check_labels, check_rasters, region_means


@dataclass
class IoUReport:
    per_class: dict  # class id -> IoU in [0, 1], or None when undefined
    miou: float


def confusion_counts(pred, gt, num_classes: int, ignore_background: bool = True) -> np.ndarray:
    """(C+1, C+1) confusion matrix indexed [gt, pred], labels 0..C.

    With ignore_background, pixels whose ground truth is 0 are dropped.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: pred {pred.shape} vs gt {gt.shape}")
    pred, gt = check_labels(pred, num_classes), check_labels(gt, num_classes)
    keep = gt > 0 if ignore_background else np.ones_like(gt, dtype=bool)
    n = num_classes + 1
    joint = gt[keep].astype(np.int64) * n + pred[keep].astype(np.int64)
    return np.bincount(joint, minlength=n * n).reshape(n, n)


def miou_from_confusion(confusion: np.ndarray, include_background: bool = False) -> IoUReport:
    """Per-class IoU = TP / (TP + FP + FN); the mean skips undefined classes."""
    n = confusion.shape[0]
    start = 0 if include_background else 1
    per_class = {}
    defined = []
    for cid in range(start, n):
        tp = int(confusion[cid, cid])
        fp = int(confusion[:, cid].sum()) - tp
        fn = int(confusion[cid, :].sum()) - tp
        denom = tp + fp + fn
        if denom == 0:
            per_class[cid] = None
            continue
        iou = tp / denom
        per_class[cid] = iou
        defined.append(iou)
    mean = float(np.mean(defined)) if defined else 0.0
    return IoUReport(per_class=per_class, miou=mean)


def miou(pred, gt, num_classes: int, ignore_background: bool = True) -> IoUReport:
    """Mean intersection-over-union between predicted and ground-truth masks."""
    conf = confusion_counts(pred, gt, num_classes, ignore_background)
    return miou_from_confusion(conf, include_background=not ignore_background)


def plausibility_rate(labels, rasters, graph: PriorGraph):
    """Fraction of labeled regions whose mean physical value is inside its interval.

    A region is inside when its ``Interval.hinge`` term is 0.  Per modality the
    fraction runs over classes present in the mask; the rate averages the
    per-modality fractions.  Returns (rate, per-class breakdown).
    """
    # region_means' np.bincount takes no uint64 mask
    labels = check_labels(labels, graph.num_classes).astype(np.intp, copy=False)
    grids = check_rasters(rasters, labels.shape)
    present = [int(c) for c in np.unique(labels) if c != 0]
    breakdown = {cid: {} for cid in present}
    if not present or not grids:
        return 1.0, breakdown
    fractions = []
    for name, values in grids.items():
        _, means = region_means(labels, values, graph.num_classes)
        inside_count = 0
        for cid in present:
            iv = graph.interval(cid, name)
            mean = float(means[cid - 1])
            inside = iv.hinge(mean)[0] == 0.0
            breakdown[cid][name] = {"mean": mean, "lo": iv.lo, "hi": iv.hi, "inside": inside}
            inside_count += inside
        fractions.append(inside_count / len(present))
    return float(np.mean(fractions)), breakdown


@dataclass
class ReliabilityReport:
    modality: str
    per_class: dict  # class id -> {"synthetic": stats, "reference": stats, deltas}

    def to_json_dict(self) -> dict:
        return {"modality": self.modality, "per_class": {str(k): v for k, v in self.per_class.items()}}


def _rank_stats(values: np.ndarray, iv) -> dict:
    coverage = float(np.mean((values >= iv.lo) & (values <= iv.hi)))
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {
        "coverage": coverage,
        "median_offset": median - iv.midpoint,
        "iqr": q3 - q1,
    }


def reliability(synthetic, reference, labels, graph: PriorGraph, modality: str) -> ReliabilityReport:
    """Per-class rank statistics of a synthetic raster against a reference one.

    Each class present in the mask gets coverage (fraction of pixels inside
    the interval), median offset from the interval midpoint and IQR for both
    rasters, plus the synthetic-vs-reference deltas of those statistics.
    """
    labels = check_labels(labels, graph.num_classes)
    synthetic = check_rasters({modality: synthetic}, labels.shape)[modality]
    reference = check_rasters({modality: reference}, labels.shape)[modality]
    report = {}
    for cid in (int(c) for c in np.unique(labels) if c != 0):
        iv = graph.interval(cid, modality)
        mask = labels == cid
        synth_stats = _rank_stats(synthetic[mask], iv)
        ref_stats = _rank_stats(reference[mask], iv)
        report[cid] = {
            "category": graph.entry_for_id(cid).category,
            "synthetic": synth_stats,
            "reference": ref_stats,
            "median_offset_delta": ref_stats["median_offset"] - synth_stats["median_offset"],
            "coverage_delta": ref_stats["coverage"] - synth_stats["coverage"],
        }
    return ReliabilityReport(modality=modality, per_class=report)
