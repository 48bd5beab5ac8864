from __future__ import annotations

import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import attenuation, interval_distance

from physeg import benchmark, inference
from physeg.inference import (
    FLIP_FIELDS,
    SIGMA_FLOOR,
    AttenuationConfig,
    RefinementTrace,
    _attenuation_grids,
    attenuate,
    infer,
    reweight,
)
from physeg.priors import (
    MODALITIES,
    Interval,
    PriorEntry,
    PriorGraph,
    interval_distance_grid,
)
from physeg.refiner import TrainConfig, init_params
from physeg.synth import SynthConfig, synthesize_scene


def assert_chunks_join_to_the_whole(trace):
    """``to_jsonl`` slices of 1, 7 and all flips, and ``write_jsonl``, give ``to_jsonl()``."""
    whole = trace.to_jsonl()
    stop = len(trace) or 1  # a trace without flips is one slice: its warnings
    for k in (1, 7, stop):
        assert "".join(trace.to_jsonl(a, a + k) for a in range(0, stop, k)) == whole
    out = io.StringIO()
    trace.write_jsonl(out)
    assert out.getvalue() == whole


def entry(category, ndvi, dem, sar, reasoning=""):
    return PriorEntry(
        category=category,
        meaning="",
        modifier_analysis="",
        coarse_class="",
        ndvi_range=Interval(*ndvi),
        dem_range=Interval(*dem),
        sar_range=Interval(*sar),
        reasoning=reasoning,
    )


@pytest.fixture
def graph2():
    return PriorGraph(
        (
            entry("metal", (-0.1, 0.1), (0.0, 100.0), (-6.0, 2.0), "strong backscatter"),
            entry("concrete", (-0.1, 0.1), (0.0, 100.0), (-20.0, -8.0), "weak backscatter"),
        )
    )


@pytest.fixture
def graph4():
    return PriorGraph(
        (
            entry("a", (0.3, 0.7), (0.0, 50.0), (-6.0, 2.0)),
            entry("b", (-0.5, -0.1), (0.0, 50.0), (-18.0, -10.0)),
            entry("c", (0.0, 0.2), (50.0, 100.0), (-9.0, -4.0)),
            entry("d", (-1.0, -0.6), (100.0, 200.0), (-30.0, -20.0)),
        )
    )


class TestAttenuation:
    def test_zero_distance_gives_one(self):
        assert attenuation(0.0, tau=2.0, sigma=1.0) == 1.0

    def test_d_equals_sigma(self):
        s = attenuation(1.5, tau=3.0, sigma=1.5)
        assert abs(s - math.exp(-1.0)) <= 1e-12

    def test_cap_saturation(self):
        tau, sigma = 2.0, 1.0
        assert attenuation(10 * tau, tau, sigma) == attenuation(tau, tau, sigma)

    def test_non_increasing(self):
        ds = np.linspace(0, 5, 50)
        vals = [attenuation(d, tau=3.0, sigma=1.0) for d in ds]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            attenuation(1.0, tau=1.0, sigma=0.0)
        with pytest.raises(ValueError):
            attenuation(1.0, tau=-1.0, sigma=1.0)
        with pytest.raises(ValueError):
            AttenuationConfig(sigma_rel=0.0)
        with pytest.raises(ValueError):
            AttenuationConfig(available=("LST",))


class TestReweight:
    def test_empty_available_degrades_to_renormalized(self, graph2):
        refined = np.array([[[0.6, 0.4]]])
        probs, labels, trace = reweight(refined, {}, graph2, AttenuationConfig())
        assert np.allclose(probs, [[[0.6, 0.4]]], atol=1e-12)
        assert labels[0, 0] == 1
        assert trace.flips == []

    def test_visual_mode_is_bitwise_the_renormalized_refined_map(self, graph4):
        rng = np.random.default_rng(11)
        refined = rng.uniform(1e-6, 1.0, size=(6, 5, 4))
        before = refined.copy()
        probs, labels, trace = reweight(refined, {}, graph4, AttenuationConfig())
        assert probs.tobytes() == (refined / refined.sum(axis=2, keepdims=True)).tobytes()
        assert np.array_equal(labels, refined.argmax(axis=2) + 1)
        assert len(trace) == 0 and trace.warnings == []
        assert refined.tobytes() == before.tobytes()
        assert not np.shares_memory(probs, refined)

    def test_uniform_attenuation_cancels(self):
        # equal widths give equal (tau, sigma); equal distances then give
        # equal scores -> unchanged probs
        graph = PriorGraph(
            (
                entry("metal", (-0.1, 0.1), (0.0, 100.0), (-6.0, 2.0)),
                entry("concrete", (-0.1, 0.1), (0.0, 100.0), (-16.0, -8.0)),
            )
        )
        refined = np.array([[[0.6, 0.4]]])
        config = AttenuationConfig(available=("SAR",), sigma_rel=0.25, tau_rel=2.0)
        # -7 is 1 dB outside both [-6, 2] and [-16, -8]
        probs, _, _ = reweight(refined, {"SAR": np.array([[-7.0]])}, graph, config)
        assert np.allclose(probs, [[[0.6, 0.4]]], atol=1e-12)

    def test_hand_case_e_inverse(self, graph2):
        refined = np.array([[[0.5, 0.5]]])
        config = AttenuationConfig(available=("SAR",), sigma_rel=0.25, tau_rel=2.0)
        # value -8: inside concrete (d=0, s=1); 2 dB below metal's lo, d=2=sigma
        probs, labels, _ = reweight(refined, {"SAR": np.array([[-8.0]])}, graph2, config)
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(probs[0, 0, 1] - expected) <= 1e-12
        assert labels[0, 0] == 2

    def test_probabilities_sum_to_one(self, graph4):
        rng = np.random.default_rng(3)
        refined = rng.uniform(1e-6, 1.0, size=(6, 5, 4))
        rasters = {
            "NDVI": rng.uniform(-1, 1, size=(6, 5)),
            "SAR": rng.uniform(-35, 5, size=(6, 5)),
        }
        config = AttenuationConfig(available=("NDVI", "SAR"))
        probs, _, _ = reweight(refined, rasters, graph4, config)
        assert np.all(np.abs(probs.sum(axis=2) - 1.0) <= 1e-9)

    def test_matches_per_pixel_brute_force(self, graph4):
        rng = np.random.default_rng(11)
        h, w = 5, 4
        refined = rng.uniform(1e-6, 1.0, size=(h, w, 4))
        rasters = {
            "NDVI": rng.uniform(-1, 1, size=(h, w)),
            "DEM": rng.uniform(0, 250, size=(h, w)),
            "SAR": rng.uniform(-35, 5, size=(h, w)),
        }
        config = AttenuationConfig(available=("NDVI", "DEM", "SAR"))
        probs, labels, _ = reweight(refined, rasters, graph4, config)

        for i in range(h):
            for j in range(w):
                weighted = []
                for cid in range(1, 5):
                    s = 1.0
                    for name in ("NDVI", "DEM", "SAR"):
                        iv = graph4.interval(cid, name)
                        tau, sigma = config.params_for(iv)
                        d = min(interval_distance(float(rasters[name][i, j]), iv), tau)
                        s *= math.exp(-(d * d) / (sigma * sigma))
                    weighted.append(float(refined[i, j, cid - 1]) * s)
                denom = sum(weighted)
                for cid in range(1, 5):
                    assert abs(probs[i, j, cid - 1] - weighted[cid - 1] / denom) <= 1e-12
                assert labels[i, j] == 1 + int(np.argmax(weighted))

    def test_monotone_correction(self, graph2):
        # moving the measurement farther outside class 1's interval (below cap)
        # never increases class 1's probability
        refined = np.array([[[0.7, 0.3]]])
        config = AttenuationConfig(available=("SAR",), sigma_rel=0.375, tau_rel=10.0)
        last = 1.0
        for value in (-6.0, -8.0, -10.0, -12.0, -14.0):
            probs, _, _ = reweight(refined, {"SAR": np.array([[value]])}, graph2, config)
            assert probs[0, 0, 0] <= last + 1e-15
            last = probs[0, 0, 0]

    def test_trace_records_flips_with_reasoning(self, graph2):
        refined = np.array([[[0.45, 0.55], [0.9, 0.1]]])
        config = AttenuationConfig(available=("SAR",), sigma_rel=0.25, tau_rel=2.0)
        # first pixel measures solidly metal -> flips 2 -> 1; second stays 1
        probs, labels, trace = reweight(
            refined, {"SAR": np.array([[0.0, 0.0]])}, graph2, config
        )
        assert labels[0, 0] == 1 and labels[0, 1] == 1
        assert len(trace.flips) == 1
        flip = trace.flips[0]
        assert (flip["pre_label"], flip["post_label"]) == (2, 1)
        assert flip["post_reasoning"] == "strong backscatter"
        assert "SAR" in flip["modalities"]
        jsonl = trace.to_jsonl()
        assert jsonl.count("\n") == 1

    def test_full_attenuation_falls_back_with_warning(self, graph2):
        refined = np.array([[[1e-6, 1e-6]]])
        config = AttenuationConfig(available=("SAR",), sigma_rel=0.0125, tau_rel=1000.0)
        probs, _, trace = reweight(refined, {"SAR": np.array([[50.0]])}, graph2, config)
        assert trace.warnings
        assert np.allclose(probs.sum(axis=2), 1.0)
        assert refined.tolist() == [[[1e-6, 1e-6]]]  # re-weighting never writes its input

        # attenuate's fallback pixels are the ones the trace warns about
        rng = np.random.default_rng(7)
        refined = rng.uniform(1e-6, 1.0, size=(4, 5, 2))
        sar = rng.choice([0.0, -10.0, 50.0], size=(4, 5))
        pixels = np.transpose(attenuate(refined, {"SAR": sar}, graph2, config)[2]).tolist()
        trace = reweight(refined, {"SAR": sar}, graph2, config)[2]
        assert len(pixels) > 1 and pixels == np.argwhere(sar == 50.0).tolist()
        assert [w[: w.index(":")] for w in trace.warnings] == [f"pixel ({y}, {x})" for y, x in pixels]

    def test_trace_with_flips_and_warnings_writes_in_chunks(self, graph2, monkeypatch):
        # under this config SAR 0 keeps only metal, -10 only concrete, 50 neither
        config = AttenuationConfig(available=("SAR",), sigma_rel=0.0125, tau_rel=1000.0)
        rng = np.random.default_rng(31)
        refined = rng.uniform(1e-6, 1.0, size=(5, 8, 2))
        before = refined.copy()
        sar = rng.choice([0.0, -10.0, 50.0], size=(5, 8))
        _, _, trace = reweight(refined, {"SAR": sar}, graph2, config)
        assert refined.tobytes() == before.tobytes()
        assert len(trace) >= 8 and len(trace.warnings) >= 8
        records = list(trace.flips) + [{"warning": msg} for msg in trace.warnings]
        assert trace.to_jsonl() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        assert_chunks_join_to_the_whole(trace)
        assert_chunks_join_to_the_whole(RefinementTrace(warnings=trace.warnings))

        # every chunk goes through to_jsonl, so a wrapper around it sees every byte
        seen = []
        to_jsonl = RefinementTrace.to_jsonl

        def recorded(self, *args):
            seen.append(to_jsonl(self, *args))
            return seen[-1]

        monkeypatch.setattr(inference, "JSONL_CHUNK", 3)
        monkeypatch.setattr(RefinementTrace, "to_jsonl", recorded)
        out = io.StringIO()
        trace.write_jsonl(out)
        assert len(seen) == -(-len(trace) // 3)
        assert "".join(seen) == out.getvalue() == to_jsonl(trace)

    def test_reweight_holds_one_map_whatever_the_sensor_count(self):
        # a 128 x 128 demo scene whose refined map is sure of the true class: nothing flips
        graph = benchmark.demo_graph()
        labels = benchmark.demo_labels(0, size=128)
        rasters = synthesize_scene(labels, graph, set(MODALITIES), SynthConfig(seed=0))
        refined = np.full(labels.shape + (graph.num_classes,), 0.1)
        np.put_along_axis(refined, labels[..., None] - 1, 0.7, axis=2)

        def peak(available):
            config = AttenuationConfig(available=available)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                trace = reweight(refined, rasters, graph, config)[2]
                return tracemalloc.get_traced_memory()[1] - base, len(trace)
            finally:
                tracemalloc.stop()

        reweight(refined, rasters, graph, AttenuationConfig(available=MODALITIES))  # warm-up
        (one, flips_one), (three, flips_three) = peak(("SAR",)), peak(("NDVI", "DEM", "SAR"))
        assert flips_one == flips_three == 0
        # the attenuation product, which becomes the returned probabilities, and a
        # few (H, W) planes; no (H, W, C) grid per modality
        assert three <= 3 * refined.nbytes
        assert abs(three - one) < refined.nbytes / 2

    @pytest.mark.parametrize("available", [("SAR",), MODALITIES])
    def test_one_distance_call_per_class_and_per_flip_side(self, available, monkeypatch):
        # perfbench's traced check: m * (C + 2 * flips) calls through this module's name
        graph = benchmark.demo_graph()
        labels = benchmark.demo_labels(0, size=32)
        rasters = synthesize_scene(labels, graph, set(MODALITIES), SynthConfig(seed=0))
        refined = np.random.default_rng(5).uniform(1e-3, 1.0, size=labels.shape + (graph.num_classes,))
        calls = []

        def counted(values, interval):
            calls.append(type(values))
            return interval_distance_grid(values, interval)

        monkeypatch.setattr(inference, "interval_distance_grid", counted)
        config = AttenuationConfig(available=available)
        probs, labels, trace = reweight(refined, rasters, graph, config)
        m, flips = len(available), len(trace)
        assert flips > 0
        assert len(calls) == m * (graph.num_classes + 2 * flips)
        # each flip's distances take the float branch
        assert calls.count(float) == 2 * m * flips

        # attenuate makes only the per-class calls, on grids, and the same probs and labels
        calls.clear()
        att_probs, att_labels, _ = attenuate(refined, rasters, graph, config)
        assert len(calls) == m * graph.num_classes
        assert float not in calls
        assert att_probs.tobytes() == probs.tobytes()
        assert att_labels.tobytes() == labels.tobytes() and att_labels.dtype == labels.dtype

    def test_zero_width_interval_uses_sigma_floor(self):
        graph = PriorGraph(
            (
                entry("pole", (-0.1, 0.1), (0.0, 10.0), (-5.0, -5.0)),
                entry("field", (-0.1, 0.1), (0.0, 10.0), (-9.0, -1.0)),
            )
        )
        config = AttenuationConfig(available=("SAR",), sigma_rel=0.5, tau_rel=3.0)
        assert config.params_for(graph.interval(1, "SAR")) == (3.0 * SIGMA_FLOOR, SIGMA_FLOOR)
        # (tau, sigma) per class: the floor for the point interval, 0.5 * 8 dB for the other
        params = {1: (3.0 * SIGMA_FLOOR, SIGMA_FLOOR), 2: (12.0, 4.0)}
        sar = np.array([[-5.0, -5.0005, -5.002], [-4.99, -3.0, -10.0]])
        refined = np.random.default_rng(5).uniform(0.1, 1.0, size=(2, 3, 2))
        probs, labels, _ = reweight(refined, {"SAR": sar}, graph, config)
        for i in range(2):
            for j in range(3):
                weighted = [
                    float(refined[i, j, cid - 1])
                    * attenuation(
                        interval_distance(float(sar[i, j]), graph.interval(cid, "SAR")),
                        *params[cid],
                    )
                    for cid in (1, 2)
                ]
                for cid in (1, 2):
                    expected = weighted[cid - 1] / sum(weighted)
                    assert abs(probs[i, j, cid - 1] - expected) <= 1e-12
                assert labels[i, j] == 1 + int(np.argmax(weighted))

    def test_declared_but_missing_raster_rejected(self, graph2):
        with pytest.raises(ValueError, match="SAR"):
            reweight(
                np.full((1, 1, 2), 0.5), {}, graph2, AttenuationConfig(available=("SAR",))
            )

    @pytest.mark.parametrize("available", [(), ("SAR",)])
    @pytest.mark.parametrize(
        "cells, count",
        [
            ([np.nan], 1),
            ([np.inf], 1),
            ([-np.inf, np.nan], 2),
            ([-1.0, -1.0, -1.0], 3),
            # whole score rows: a zero-sum pixel, and two whose sum 2e-13 is below DENOM_FLOOR
            ([[0.0, 0.0]], 1),
            ([[1e-13, 1e-13]] * 2, 2),
        ],
    )
    def test_non_finite_or_negative_refined_cells_rejected(self, graph2, available, cells, count):
        refined = np.full((3, 3, 2), 0.5)
        cells = np.array(cells)
        if cells.ndim == 1:  # cells of the first class
            refined[0, : len(cells), 0] = cells
            message = f"^refined map has {count} non-finite or negative cells$"
        else:  # the score rows of the first pixels
            refined[0, : len(cells)] = cells
            message = f"^refined map has {count} pixels whose scores sum below 1e-12$"
        rasters = {"SAR": np.full((3, 3), -10.0)}
        with pytest.raises(ValueError, match=message):
            reweight(refined, rasters, graph2, AttenuationConfig(available=available))


class TestInfer:
    def test_zero_head_no_modalities_is_coarse_argmax(self, graph2):
        rng = np.random.default_rng(0)
        coarse = rng.uniform(0.1, 0.9, size=(5, 5, 2))
        features = rng.normal(size=(5, 5, 3))
        params = init_params(3, 2, TrainConfig(seed=1))
        labels, probs, trace = infer(params, features, coarse, {}, graph2, AttenuationConfig())
        assert np.array_equal(labels, coarse.argmax(axis=2) + 1)
        assert trace.flips == []

    def test_visual_only_ignores_supplied_rasters(self, graph2):
        rng = np.random.default_rng(1)
        coarse = rng.uniform(0.1, 0.9, size=(4, 4, 2))
        features = rng.normal(size=(4, 4, 3))
        params = init_params(3, 2, TrainConfig(seed=2))
        params.w2 = rng.normal(scale=0.3, size=params.w2.shape)
        config = AttenuationConfig(available=())
        l1, p1, _ = infer(params, features, coarse, {}, graph2, config)
        l2, p2, _ = infer(
            params,
            features,
            coarse,
            {"SAR": rng.uniform(-30, 0, size=(4, 4))},
            graph2,
            config,
        )
        assert np.array_equal(l1, l2)
        assert p1.tobytes() == p2.tobytes()

    def test_missing_declared_modality_raises(self, graph2):
        params = init_params(1, 2, TrainConfig(seed=0))
        with pytest.raises(ValueError, match="available"):
            infer(
                params,
                np.zeros((2, 2, 1)),
                np.full((2, 2, 2), 0.5),
                {},
                graph2,
                AttenuationConfig(available=("NDVI",)),
            )

    def test_trace_nonempty_exactly_where_labels_changed(self, graph2):
        rng = np.random.default_rng(5)
        h = w = 8
        labels_true = rng.integers(1, 3, size=(h, w)).astype(np.int32)
        coarse = np.full((h, w, 2), 0.5) + rng.normal(scale=0.01, size=(h, w, 2))
        coarse = np.clip(coarse, 1e-4, None)
        coarse /= coarse.sum(axis=2, keepdims=True)
        features = rng.normal(size=(h, w, 2))
        sar = np.where(labels_true == 1, -2.0, -14.0)
        params = init_params(2, 2, TrainConfig(seed=3))
        config = AttenuationConfig(available=("SAR",))
        out_labels, _, trace = infer(params, features, coarse, {"SAR": sar}, graph2, config)
        pre_labels = coarse.argmax(axis=2) + 1
        flipped = {(rec["y"], rec["x"]) for rec in trace.flips}
        expected = {tuple(map(int, yx)) for yx in np.argwhere(out_labels != pre_labels)}
        assert flipped == expected
        assert expected  # the SAR prior must flip at least some ambiguous pixels

    def test_physical_infer_holds_each_large_intermediate_once(self, graph4):
        # 256 x 256, SAR only; the coarse map is wrong at ~2% of pixels, which SAR flips back
        rng = np.random.default_rng(41)
        h = w = 256
        truth = rng.integers(1, 5, size=(h, w))
        shown = np.where(rng.random((h, w)) < 0.02, truth % 4 + 1, truth)
        coarse = rng.uniform(0.05, 0.25, size=(h, w, 4))
        coarse[np.arange(h)[:, None], np.arange(w), shown - 1] += 0.5
        sar_range = np.array(
            [(iv.lo, iv.hi) for iv in (graph4.interval(cid, "SAR") for cid in range(1, 5))]
        )
        sar = rng.uniform(sar_range[truth - 1, 0], sar_range[truth - 1, 1])
        features = rng.normal(size=(h, w, 4))
        params = init_params(4, 4, TrainConfig(seed=5))
        joint_bytes = h * w * (4 + 4 + len(MODALITIES)) * 8
        config = AttenuationConfig(available=("SAR",))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, _, trace = infer(params, features, coarse, {"SAR": sar}, graph4, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(trace) > 500
        # the joint tensor and the (H, W, C) maps each held once: ~1.9 joint tensors
        assert peak < 3 * joint_bytes

    def test_visual_infer_never_holds_the_joint_tensor_whole(self, graph4):
        # 256 x 256, no modality: the head writes the joint tensor one pixel block at a time
        rng = np.random.default_rng(43)
        h = w = 256
        coarse = rng.uniform(0.05, 0.75, size=(h, w, 4))
        features = rng.normal(size=(h, w, 4))
        params = init_params(4, 4, TrainConfig(seed=6))
        params.w2 = rng.normal(scale=0.5, size=params.w2.shape)
        joint_bytes = h * w * (4 + 4 + len(MODALITIES)) * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            labels, _, trace = infer(params, features, coarse, {}, graph4, AttenuationConfig())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert labels.shape == (h, w) and len(trace) == 0
        # the correction, refined and probability maps (4 x 4 floats a pixel each)
        # and one block of the joint tensor: ~1.1 joint tensors
        assert peak < 1.5 * joint_bytes


def test_trace_matches_per_pixel_reference():
    graph = PriorGraph(
        tuple(
            entry(name, ndvi, dem, sar, f"reasoning for {name}")
            for name, ndvi, dem, sar in (
                ("a", (0.3, 0.7), (0.0, 50.0), (-6.0, 2.0)),
                ("b", (-0.5, -0.1), (0.0, 50.0), (-18.0, -10.0)),
                ("c", (0.0, 0.2), (50.0, 100.0), (-9.0, -4.0)),
            )
        )
    )
    rng = np.random.default_rng(21)
    h, w = 6, 7
    refined = rng.uniform(1e-6, 1.0, size=(h, w, 3))
    rasters = {"DEM": rng.uniform(-20, 150, size=(h, w)), "SAR": rng.uniform(-25, 5, size=(h, w))}
    config = AttenuationConfig(available=("SAR", "DEM"))
    _, labels, trace = reweight(refined, rasters, graph, config)
    # each modality's attenuation grid on its own
    parts = {
        name: _attenuation_grids(rasters, graph, AttenuationConfig(available=(name,)), 3)
        for name in config.available
    }

    pre_labels = refined.argmax(axis=2) + 1
    expected = []
    for y, x in np.argwhere(labels != pre_labels):
        pre, post = int(pre_labels[y, x]), int(labels[y, x])
        per_modality = {}
        for name in config.available:
            record = {"value": float(rasters[name][y, x])}
            for tag, cid in (("pre", pre), ("post", post)):
                iv = graph.entry_for_id(cid).interval(name)
                cell = rasters[name][y : y + 1, x : x + 1]
                record[f"distance_{tag}"] = float(interval_distance_grid(cell, iv)[0, 0])
                record[f"score_{tag}"] = float(parts[name][y, x, cid - 1])
            per_modality[name] = record
        expected.append(
            {
                "y": int(y),
                "x": int(x),
                "pre_label": pre,
                "post_label": post,
                "pre_category": graph.entry_for_id(pre).category,
                "post_category": graph.entry_for_id(post).category,
                "modalities": per_modality,
                "pre_reasoning": graph.entry_for_id(pre).reasoning,
                "post_reasoning": graph.entry_for_id(post).reasoning,
            }
        )
    assert len(expected) >= 5
    assert len(trace) == len(expected)
    assert trace.flips == expected
    assert json.dumps(list(trace.flips)) == json.dumps(expected)  # the same key order too
    # reading every record kept none: the trace holds only its columns, the view only the trace
    assert vars(trace).keys() == {f.name for f in dataclasses.fields(trace)}
    assert vars(trace.flips) == {"_trace": trace}
    assert trace.to_jsonl() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in expected)
    assert_chunks_join_to_the_whole(trace)


def test_trace_jsonl_empty():
    assert RefinementTrace().to_jsonl() == ""
    assert_chunks_join_to_the_whole(RefinementTrace())


class TestFlipView:
    @pytest.fixture
    def trace(self, graph4):
        # 64 x 64, all three modalities, random scores and rasters: a few thousand flips
        rng = np.random.default_rng(47)
        h = w = 64
        refined = rng.uniform(1e-6, 1.0, size=(h, w, 4))
        rasters = {
            "NDVI": rng.uniform(-1.0, 0.7, size=(h, w)),
            "DEM": rng.uniform(0.0, 200.0, size=(h, w)),
            "SAR": rng.uniform(-30.0, 2.0, size=(h, w)),
        }
        trace = reweight(refined, rasters, graph4, AttenuationConfig(available=MODALITIES))[2]
        assert len(trace) > 2 * inference.JSONL_CHUNK  # iteration crosses column slices
        return trace

    def test_count_truth_and_one_record_build_only_what_is_read(self, trace):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            count, truth, last = len(trace.flips), bool(trace.flips), trace.flips[-1]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (count, truth) == (len(trace), True)
        assert last == list(trace.flips)[len(trace) - 1]
        # one record's dicts; the list of every record takes several MB
        assert peak < 8 * 1024
        assert not RefinementTrace().flips and len(RefinementTrace().flips) == 0

    def test_reads_match_the_list_of_records(self, trace):
        records = list(trace.flips)
        n = len(records)
        for k in (0, 1, inference.JSONL_CHUNK, n - 1, -1, -n):
            assert trace.flips[k] == records[k]
        assert trace.flips[np.int64(3)] == records[3]
        for k in (n, -n - 1, 10**9):
            with pytest.raises(IndexError):
                trace.flips[k]
        for rows in (
            slice(None),
            slice(5, 17),
            slice(-9, None),
            slice(None, None, -1),
            slice(3, n, 700),
            slice(n, n + 5),
            slice(-3, 2),
        ):
            assert trace.flips[rows] == records[rows]
        assert [trace.flips[k] for k in range(n)] == records  # indexing agrees with iteration
        assert list(reversed(trace.flips)) == records[::-1]
        assert trace.flips == records and records == trace.flips
        assert trace.flips != records[:-1] and trace.flips != records + [{}]
        assert trace.flips == trace.flips
        assert repr(trace.flips) == repr(records)


_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e-300, 1e16, 0.1]
    ),
)
_TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ['"quoted"', "back\\slash", "\x00\x1f\x7f", "caf\u00e9 \u6c34 \U0001f30a", "100%s", ""]
    ),
)


@st.composite
def _columnar_traces(draw):
    num_classes = draw(st.integers(1, 4))  # some ids may be named by no flip
    classes = {cid: (draw(_TEXT), draw(_TEXT)) for cid in range(1, num_classes + 1)}
    n = draw(st.integers(0, 12))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    ids = st.integers(1, num_classes)  # few ids: (pre, post) pairs repeat
    names = draw(st.permutations(MODALITIES))[: draw(st.integers(0, 3))]
    return RefinementTrace(
        ys=column(st.integers(0, 10**6)),
        xs=column(st.integers(0, 10**6)),
        pre_labels=column(ids),
        post_labels=column(ids),
        modalities={
            name: {key: np.array(column(_NUMBERS), dtype=np.float64) for key in FLIP_FIELDS}
            for name in names
        },
        classes=classes,
        warnings=draw(st.lists(_TEXT, max_size=3)),
    )


@settings(max_examples=150, deadline=None)
@given(_columnar_traces())
def test_to_jsonl_is_json_dumps_of_each_record_property(trace):
    records = list(trace.flips) + [{"warning": msg} for msg in trace.warnings]
    assert len(trace) == len(trace.flips)
    assert trace.to_jsonl() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    assert_chunks_join_to_the_whole(trace)
