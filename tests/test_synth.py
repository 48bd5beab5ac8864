from __future__ import annotations

import re

import numpy as np
import pytest

from physeg.priors import Interval, PriorEntry, PriorGraph
from physeg.synth import SynthConfig, box_blur, synthesize_raster, synthesize_scene


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
def graph():
    return PriorGraph(
        (
            entry("veg", (0.30, 0.70), (0.0, 200.0), (-14.0, -8.0)),
            entry("water", (-0.50, -0.10), (0.0, 20.0), (-26.0, -18.0)),
        )
    )


def checkerboard(h, w):
    rows, cols = np.indices((h, w))
    return ((rows + cols) % 2 + 1).astype(np.int32)


def test_values_contained_in_interval(graph):
    mask = np.ones((16, 16), dtype=np.int32)
    for noise in ("uniform", "truncated_gaussian"):
        raster = synthesize_raster(mask, graph, "NDVI", SynthConfig(seed=3, noise_model=noise))
        assert raster.shape == mask.shape
        assert np.all(raster >= 0.30) and np.all(raster <= 0.70)


def test_containment_survives_smoothing(graph):
    mask = checkerboard(20, 20)
    cfg = SynthConfig(seed=5, smoothing_radius=2)
    for modality in ("NDVI", "DEM", "SAR"):
        raster = synthesize_raster(mask, graph, modality, cfg)
        for cid in (1, 2):
            iv = graph.interval(cid, modality)
            vals = raster[mask == cid]
            assert np.all(vals >= iv.lo) and np.all(vals <= iv.hi)


def test_degenerate_interval_constant():
    g = PriorGraph((entry("flat", (0.0, 0.0), (5.0, 5.0), (-10.0, -10.0)),))
    mask = np.ones((8, 8), dtype=np.int32)
    raster = synthesize_raster(mask, g, "DEM", SynthConfig(seed=1))
    assert np.all(raster == 5.0)


def test_disjoint_intervals_give_disjoint_histograms(graph):
    mask = checkerboard(32, 32)
    raster = synthesize_raster(mask, graph, "NDVI", SynthConfig(seed=9))
    veg = raster[mask == 1]
    water = raster[mask == 2]
    assert veg.min() > water.max()


def test_background_takes_fill(graph):
    mask = np.zeros((6, 6), dtype=np.int32)
    mask[2:4, 2:4] = 1
    raster = synthesize_raster(mask, graph, "SAR", SynthConfig(seed=2, smoothing_radius=1))
    assert np.all(raster[mask == 0] == -30.0)


def test_per_class_mean_inside_interval(graph):
    # up to summation rounding: the values themselves are exactly clipped
    mask = checkerboard(24, 24)
    for modality in ("NDVI", "DEM", "SAR"):
        raster = synthesize_raster(mask, graph, modality, SynthConfig(seed=11))
        for cid in (1, 2):
            iv = graph.interval(cid, modality)
            mean = raster[mask == cid].mean()
            eps = 1e-9 * max(1.0, abs(iv.lo), abs(iv.hi))
            assert iv.lo - eps <= mean <= iv.hi + eps


def test_deterministic_for_fixed_seed(graph):
    mask = checkerboard(16, 16)
    cfg = SynthConfig(seed=7)
    a = synthesize_raster(mask, graph, "NDVI", cfg)
    b = synthesize_raster(mask, graph, "NDVI", cfg)
    assert a.tobytes() == b.tobytes()


def test_modalities_independently_reproducible(graph):
    mask = checkerboard(12, 12)
    cfg = SynthConfig(seed=4)
    full = synthesize_scene(mask, graph, {"NDVI", "DEM", "SAR"}, cfg)
    only_sar = synthesize_scene(mask, graph, {"SAR"}, cfg)
    assert full["SAR"].tobytes() == only_sar["SAR"].tobytes()


def test_scene_outputs_aligned(graph):
    mask = checkerboard(10, 14)
    out = synthesize_scene(mask, graph, {"NDVI", "DEM", "SAR"}, SynthConfig(seed=0))
    assert set(out) == {"NDVI", "DEM", "SAR"}
    assert all(r.shape == (10, 14) for r in out.values())


def test_empty_modality_set(graph):
    assert synthesize_scene(np.ones((4, 4), dtype=int), graph, set(), SynthConfig()) == {}


def test_unresolvable_label_raises(graph):
    mask = np.full((4, 4), 9, dtype=np.int32)
    with pytest.raises(ValueError, match=re.escape("mask label 9 outside 0..2")):
        synthesize_raster(mask, graph, "NDVI", SynthConfig())


def test_box_blur_preserves_constants():
    a = np.full((9, 9), 3.25)
    assert np.allclose(box_blur(a, 2), 3.25)


def test_box_blur_matches_naive():
    rng = np.random.default_rng(0)
    a = rng.random((7, 5))
    r = 1
    padded = np.pad(a, r, mode="edge")
    naive = np.empty_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            naive[i, j] = padded[i : i + 2 * r + 1, j : j + 2 * r + 1].mean()
    assert np.allclose(box_blur(a, r), naive)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        SynthConfig(noise_model="salt")
    with pytest.raises(ValueError):
        SynthConfig(smoothing_radius=-1)
