"""Evaluation: mean IoU, physical-plausibility rate and reliability statistics.

IoU is computed from confusion counts; classes absent from both masks have
undefined IoU and are excluded from the mean.  Plausibility measures the
fraction of labeled regions whose mean physical value sits inside its class
interval (with the same edge tolerance as the physics loss).  Reliability
compares a synthetic raster against a reference one using rank statistics
(coverage, median offset from the interval midpoint, IQR) per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .priors import MODALITY_INDEX, PriorGraph


@dataclass
class IoUReport:
    per_class: dict  # class id -> IoU in [0, 1], or None when undefined
    miou: float
    confusion: np.ndarray = field(repr=False)  # (C+1, C+1) counts incl. background row/col

    def to_json_dict(self) -> dict:
        return {
            "miou": self.miou,
            "per_class": {str(k): v for k, v in self.per_class.items()},
            "confusion": self.confusion.tolist(),
        }


def confusion_counts(pred, gt, num_classes: int, ignore_background: bool = True) -> np.ndarray:
    """(C+1, C+1) confusion matrix indexed [gt, pred], labels 0..C.

    With ignore_background, pixels whose ground truth is 0 are dropped.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: pred {pred.shape} vs gt {gt.shape}")
    if pred.min(initial=0) < 0 or gt.min(initial=0) < 0:
        raise ValueError("masks must be non-negative")
    if max(pred.max(initial=0), gt.max(initial=0)) > num_classes:
        raise ValueError(f"mask labels exceed num_classes={num_classes}")
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
    return IoUReport(per_class=per_class, miou=mean, confusion=confusion)


def miou(pred, gt, num_classes: int, ignore_background: bool = True) -> IoUReport:
    """Mean intersection-over-union between predicted and ground-truth masks."""
    conf = confusion_counts(pred, gt, num_classes, ignore_background)
    return miou_from_confusion(conf, include_background=not ignore_background)


def plausibility_rate(labels, rasters, graph: PriorGraph):
    """Fraction of labeled regions whose mean physical value is inside its interval.

    Per modality the fraction runs over classes present in the mask; the rate
    averages the per-modality fractions.  Returns (rate, per-class breakdown).
    """
    labels = np.asarray(labels)
    present = [int(c) for c in np.unique(labels) if c != 0]
    for cid in present:
        graph.entry_for_id(cid)  # raises PriorLookupError on unknown labels
    modalities = sorted(rasters, key=lambda m: MODALITY_INDEX[m])
    breakdown = {cid: {} for cid in present}
    if not present or not modalities:
        return 1.0, breakdown
    fractions = []
    for name in modalities:
        values = np.asarray(rasters[name], dtype=np.float64)
        if values.shape != labels.shape:
            raise ValueError(f"raster {name!r} shape {values.shape} != mask {labels.shape}")
        inside_count = 0
        for cid in present:
            iv = graph.interval(cid, name)
            mean = float(values[labels == cid].mean())
            inside = (iv.lo - iv.edge_tol) <= mean <= (iv.hi + iv.edge_tol)
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
    synthetic = np.asarray(synthetic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    labels = np.asarray(labels)
    if synthetic.shape != labels.shape or reference.shape != labels.shape:
        raise ValueError(
            f"raster shapes {synthetic.shape}/{reference.shape} do not match mask {labels.shape}"
        )
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
