"""Simulated physical rasters (NDVI/DEM/SAR) from label masks under interval constraints.

Every labeled pixel receives a value drawn inside its class interval for the
requested modality; optional box-blur smoothing is followed by a per-class
re-clip so containment survives spatial correlation.  Generation is
bit-deterministic for a fixed (mask, graph, config) triple, with per-modality
sub-seeds so each modality is independently reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .priors import MODALITY_INDEX, PriorGraph, check_labels, modality_order

DEFAULT_BACKGROUND = {"NDVI": 0.0, "DEM": 0.0, "SAR": -30.0}


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    noise_model: str = "truncated_gaussian"  # or "uniform"
    smoothing_radius: int = 1

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.noise_model not in ("truncated_gaussian", "uniform"):
            raise ValueError(f"unknown noise model {self.noise_model!r}")
        if self.smoothing_radius < 0:
            raise ValueError("smoothing_radius must be >= 0")


def box_blur(values: np.ndarray, radius: int) -> np.ndarray:
    """Mean filter with a (2r+1)^2 window and edge-replicated borders."""
    if radius <= 0:
        return np.array(values, dtype=np.float64, copy=True)
    k = 2 * radius + 1
    padded = np.pad(np.asarray(values, dtype=np.float64), radius, mode="edge")
    integral = np.pad(padded, ((1, 0), (1, 0))).cumsum(axis=0).cumsum(axis=1)
    window = (
        integral[k:, k:]
        - integral[:-k, k:]
        - integral[k:, :-k]
        + integral[:-k, :-k]
    )
    return window / (k * k)


def _interval_grids(labels, graph, modality, fill):
    """Per-pixel interval lo/hi grids for the given modality; background takes fill."""
    c = graph.num_classes
    lo = np.full(c + 1, fill, dtype=np.float64)
    hi = np.full(c + 1, fill, dtype=np.float64)
    for cid in range(1, c + 1):
        iv = graph.interval(cid, modality)
        lo[cid], hi[cid] = iv.lo, iv.hi
    return lo[labels], hi[labels]


def synthesize_raster(
    mask: np.ndarray,
    graph: PriorGraph,
    modality: str,
    config: SynthConfig,
) -> np.ndarray:
    """Generate one modality raster, pixel-aligned with the mask.

    Labeled pixels end up inside their class interval exactly (values are
    re-clipped after smoothing); background pixels take ``DEFAULT_BACKGROUND``.
    """
    labels = check_labels(mask, graph.num_classes)
    modality_order([modality])  # raises ValueError on an unknown name
    fill = DEFAULT_BACKGROUND[modality]
    lo, hi = _interval_grids(labels, graph, modality, fill)

    seq = np.random.SeedSequence([int(config.seed), MODALITY_INDEX[modality]])
    rng = np.random.Generator(np.random.PCG64(seq))
    if config.noise_model == "uniform":
        u = rng.random(labels.shape)
        values = lo + u * (hi - lo)
    else:
        # midpoint-peaked: N(mid, width/4) clipped to the interval
        z = rng.standard_normal(labels.shape)
        mid = 0.5 * (lo + hi)
        values = np.clip(mid + z * (hi - lo) / 4.0, lo, hi)

    if config.smoothing_radius > 0:
        values = box_blur(values, config.smoothing_radius)
        values = np.clip(values, lo, hi)

    values[labels == 0] = fill
    return values


def synthesize_scene(
    mask: np.ndarray,
    graph: PriorGraph,
    modalities,
    config: SynthConfig,
) -> dict[str, np.ndarray]:
    """Generate one raster per requested modality, all pixel-aligned."""
    out = {}
    for modality in modality_order(modalities):
        out[modality] = synthesize_raster(mask, graph, modality, config)
    return out
