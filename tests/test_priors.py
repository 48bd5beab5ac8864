from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import interval_distance

from physeg.inference import AttenuationConfig, infer, reweight
from physeg.losses import prepare_targets, region_stats, total_loss
from physeg.metrics import confusion_counts, plausibility_rate, reliability
from physeg.priors import (
    EmptyGraphWarning,
    Interval,
    PriorEntry,
    PriorGraph,
    PriorLookupError,
    PriorParseError,
    PriorSchemaError,
    PriorValidationError,
    modality_order,
    parse_pckg,
    region_means,
    serialize_pckg,
)
from physeg.refiner import Scene, TrainConfig, assemble_joint, init_params, mock_backbone, train
from physeg.synth import SynthConfig, synthesize_raster, synthesize_scene

WATER_OBJ = {
    "Category": "water",
    "Meaning": "open water body",
    "Modifier Analysis": "no modifiers",
    "Coarse Class": "water",
    "NDVI Range": [-0.50, 0.10],
    "DEM Range": [0.00, 50.00],
    "SAR Range": [-25.00, -15.00],
    "Reasoning": "water absorbs NIR and scatters radar away from the sensor",
}


def make_entry(category="water", **over):
    fields = dict(
        category=category,
        meaning="m",
        modifier_analysis="none",
        coarse_class="water",
        ndvi_range=Interval(-0.5, 0.1),
        dem_range=Interval(0.0, 50.0),
        sar_range=Interval(-25.0, -15.0),
        reasoning="r",
    )
    fields.update(over)
    return PriorEntry(**fields)


class TestInterval:
    def test_quantizes_to_two_decimals(self):
        iv = Interval(0.123, 0.456)
        assert iv.lo == 0.12
        assert iv.hi == 0.46

    def test_inverted_rejected(self):
        with pytest.raises(PriorValidationError, match="inverted"):
            Interval(0.60, 0.20)

    def test_non_finite_rejected(self):
        with pytest.raises(PriorValidationError):
            Interval(float("nan"), 1.0)

    def test_degenerate_allowed(self):
        assert Interval(5.0, 5.0).width == 0.0

    def test_distance_inside_is_zero(self):
        assert interval_distance(0.0, Interval(-0.5, 0.1)) == 0.0

    def test_distance_above(self):
        assert interval_distance(0.30, Interval(-0.5, 0.1)) == pytest.approx(0.20)

    def test_distance_at_boundary_is_zero(self):
        iv = Interval(-0.5, 0.1)
        assert interval_distance(iv.lo, iv) == 0.0
        assert interval_distance(iv.hi, iv) == 0.0

    @given(
        lo=st.floats(-100, 100),
        width=st.floats(0, 50),
        v=st.floats(-500, 500),
    )
    def test_distance_zero_iff_inside(self, lo, width, v):
        iv = Interval(lo, lo + width)
        d = interval_distance(v, iv)
        assert d >= 0.0
        assert (d == 0.0) == (iv.lo <= v <= iv.hi)

    @given(
        lo=st.floats(-100, 100),
        width=st.floats(0, 50),
        a=st.floats(-500, 500),
        b=st.floats(-500, 500),
    )
    def test_distance_is_1_lipschitz(self, lo, width, a, b):
        iv = Interval(lo, lo + width)
        lhs = abs(interval_distance(a, iv) - interval_distance(b, iv))
        assert lhs <= abs(a - b) + 1e-12

    def test_hinge_is_zero_up_to_the_edge_tolerance(self):
        iv = Interval(-14.0, -8.0)
        assert iv.edge_tol == 1e-9 * 14
        for inside in (-14.0 - 1e-8, -11.0, -8.0, -8.0 + 1e-8):
            assert iv.hinge(inside) == (0.0, 0.0)
        assert iv.hinge(-7.0) == (1.0, 2.0)
        assert iv.hinge(-16.0) == (4.0, -4.0)

    def test_edge_tol_is_derived_not_compared(self):
        iv = Interval(-14.0, -8.0)
        assert repr(iv) == "Interval(lo=-14.0, hi=-8.0)"
        assert iv == Interval(-14.001, -7.999) and hash(iv) == hash(Interval(-14.0, -8.0))


class TestRegionMeans:
    def test_id_0_is_no_class(self):
        region = np.array([[0, 1], [2, 0]])
        counts, means = region_means(region, np.array([[100.0, 1.0], [2.0, -100.0]]), 2)
        assert counts.tolist() == [1, 1]
        assert means.tolist() == [1.0, 2.0]

    def test_empty_class_has_count_0_and_zero_means(self):
        counts, means = region_means(np.full((3, 3), 2), np.ones((3, 3, 2)), 3)
        assert counts.tolist() == [0, 9, 0]
        assert means.tolist() == [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 12), st.integers(1, 12), st.integers(1, 5), st.integers(0, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_argmax_feature_means_are_per_class_bincount_sums(self, h, w, c, d, seed):
        # the sums region_stats took before it called region_means, one bincount per column
        rng = np.random.default_rng(seed)
        pred = rng.uniform(size=(h, w, c))
        features = rng.normal(size=(h, w, d))
        flat = np.argmax(pred, axis=2).ravel()
        counts = np.bincount(flat, minlength=c)
        sums = np.zeros((c, d))
        for k in range(d):
            sums[:, k] = np.bincount(flat, weights=features.reshape(h * w, d)[:, k], minlength=c)
        expected = sums / np.maximum(counts, 1)[:, None]
        expected[counts == 0] = 0.0
        got_counts, got = region_means(flat.reshape(h, w) + 1, features, c)
        assert got_counts.tolist() == counts.tolist()
        assert got.tobytes() == expected.tobytes()
        unlabelled = np.zeros((h, w), dtype=np.int32)
        stats = region_stats(pred, prepare_targets(unlabelled, features, None, PriorGraph(()), pred.shape))
        assert stats.feature_means.tobytes() == expected.tobytes()


class TestEntryValidation:
    def test_ndvi_bounds_enforced(self):
        with pytest.raises(PriorValidationError, match="NDVI"):
            make_entry(ndvi_range=Interval(-0.5, 1.2))

    def test_empty_category_rejected(self):
        with pytest.raises(PriorValidationError, match="empty category"):
            make_entry(category="  ")

    def test_valid_entry_accepted(self):
        entry = make_entry()
        assert entry.interval("SAR") == Interval(-25.0, -15.0)


class TestParse:
    def test_minimal_single_entry(self):
        graph = parse_pckg(json.dumps([WATER_OBJ]))
        assert graph.num_classes == 1
        assert graph.entry_for_id(1).category == "water"
        assert graph.interval(1, "NDVI") == Interval(-0.5, 0.1)

    def test_empty_array_warns(self):
        with pytest.warns(EmptyGraphWarning):
            graph = parse_pckg("[]")
        assert graph.num_classes == 0

    def test_inverted_interval_rejected(self):
        obj = dict(WATER_OBJ, **{"NDVI Range": [0.60, 0.20]})
        with pytest.raises(PriorValidationError, match="inverted interval"):
            parse_pckg(json.dumps([obj]))

    def test_missing_field_names_field_and_category(self):
        obj = {k: v for k, v in WATER_OBJ.items() if k != "SAR Range"}
        with pytest.raises(PriorSchemaError) as err:
            parse_pckg(json.dumps([obj]))
        assert "SAR Range" in str(err.value)
        assert "water" in str(err.value)

    def test_malformed_json_reports_line(self):
        with pytest.raises(PriorParseError, match="line"):
            parse_pckg('[{"Category": "water",]')

    def test_duplicate_category_rejected(self):
        with pytest.raises(PriorValidationError, match="duplicate"):
            parse_pckg(json.dumps([WATER_OBJ, WATER_OBJ]))

    def test_range_with_wrong_arity_is_schema_error(self):
        obj = dict(WATER_OBJ, **{"DEM Range": [1.0]})
        with pytest.raises(PriorSchemaError, match="DEM Range"):
            parse_pckg(json.dumps([obj]))

    def test_non_array_document_is_schema_error(self):
        with pytest.raises(PriorSchemaError, match="array"):
            parse_pckg(json.dumps(WATER_OBJ))

    def test_class_ids_follow_file_order(self):
        objs = [
            dict(WATER_OBJ, Category="a"),
            dict(WATER_OBJ, Category="b"),
            dict(WATER_OBJ, Category="c"),
        ]
        graph = parse_pckg(json.dumps(objs))
        assert graph.categories == ("a", "b", "c")
        assert [graph.entry_for_id(k).category for k in (1, 2, 3)] == list("abc")

    def test_parse_quantizes_endpoints(self):
        obj = dict(WATER_OBJ, **{"DEM Range": [0.004, 50.006]})
        graph = parse_pckg(json.dumps([obj]))
        assert graph.interval(1, "DEM") == Interval(0.0, 50.01)


class TestSerialize:
    def test_single_entry_has_all_eight_fields(self):
        graph = PriorGraph((make_entry(),))
        doc = json.loads(serialize_pckg(graph))
        assert len(doc) == 1
        for name in (
            "Category",
            "Meaning",
            "Modifier Analysis",
            "Coarse Class",
            "NDVI Range",
            "DEM Range",
            "SAR Range",
            "Reasoning",
        ):
            assert name in doc[0]

    def test_two_decimal_rendering(self):
        graph = PriorGraph((make_entry(ndvi_range=Interval(0.5, 0.9)),))
        text = serialize_pckg(graph)
        assert "[0.50, 0.90]" in text

    def test_round_trip_three_entries(self):
        graph = PriorGraph(
            (make_entry("a"), make_entry("b"), make_entry("c", reasoning="x\"yé"))
        )
        assert parse_pckg(serialize_pckg(graph)) == graph

    def test_extras_preserved_on_round_trip(self):
        obj = dict(WATER_OBJ, Confidence=0.9, Tags=["hydro", "flat"])
        graph = parse_pckg(json.dumps([obj]))
        again = parse_pckg(serialize_pckg(graph))
        assert again.entries[0].extras == {"Confidence": 0.9, "Tags": ["hydro", "flat"]}
        assert again == graph

    def test_exact_bytes(self):
        # fixed field order, extras last, non-ASCII kept, two-decimal ranges
        obj = {
            "Confidence": 0.9,
            **WATER_OBJ,
            "Category": "río",
            "SAR Range": [-25, -15.004],
            "Reasoning": 'agua — "NIR"',
        }
        expected = (
            "[\n"
            "  {\n"
            '    "Category": "río",\n'
            '    "Meaning": "open water body",\n'
            '    "Modifier Analysis": "no modifiers",\n'
            '    "Coarse Class": "water",\n'
            '    "NDVI Range": [-0.50, 0.10],\n'
            '    "DEM Range": [0.00, 50.00],\n'
            '    "SAR Range": [-25.00, -15.00],\n'
            '    "Reasoning": "agua — \\"NIR\\"",\n'
            '    "Confidence": 0.9\n'
            "  }\n"
            "]\n"
        )
        assert serialize_pckg(parse_pckg(json.dumps([obj]))) == expected

    def test_empty_graph_serializes(self):
        with pytest.warns(EmptyGraphWarning):
            graph = parse_pckg("[]")
        assert serialize_pckg(graph) == "[]\n"


def _interval_strategy(lo_min, lo_max):
    return st.tuples(
        st.integers(int(lo_min * 100), int(lo_max * 100)),
        st.integers(0, 80),
    ).map(lambda t: Interval(t[0] / 100.0, (t[0] + t[1]) / 100.0))


@st.composite
def _graph_strategy(draw):
    n = draw(st.integers(0, 6))
    text = st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
        min_size=0,
        max_size=12,
    )
    entries = []
    for k in range(n):
        entries.append(
            PriorEntry(
                category=f"cat-{k}-" + draw(st.text("abcxyz ", min_size=0, max_size=4)),
                meaning=draw(text),
                modifier_analysis=draw(text),
                coarse_class=draw(text),
                ndvi_range=draw(_interval_strategy(-1.0, 0.2)),
                dem_range=draw(_interval_strategy(-100, 5000)),
                sar_range=draw(_interval_strategy(-40, 10)),
                reasoning=draw(text),
            )
        )
    return PriorGraph(tuple(entries))


@settings(max_examples=100, deadline=None)
@given(_graph_strategy())
def test_round_trip_identity_property(graph):
    with pytest.warns() if not graph.entries else _no_warning():
        assert parse_pckg(serialize_pckg(graph)) == graph


class _no_warning:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestLookup:
    def test_lookup_water_ndvi(self):
        graph = parse_pckg(json.dumps([WATER_OBJ]))
        assert graph.interval(1, "NDVI") == Interval(-0.50, 0.10)

    def test_lookup_water_sar(self):
        graph = parse_pckg(json.dumps([WATER_OBJ]))
        assert graph.interval(1, "SAR") == Interval(-25.00, -15.00)

    def test_out_of_range_class_id(self):
        graph = parse_pckg(json.dumps([WATER_OBJ]))
        with pytest.raises(PriorLookupError):
            graph.interval(7, "NDVI")

    def test_unknown_modality(self):
        graph = parse_pckg(json.dumps([WATER_OBJ]))
        with pytest.raises(PriorLookupError):
            graph.interval(1, "LST")


def test_modality_order_follows_modalities():
    assert modality_order({"SAR": 0, "NDVI": 0}) == ["NDVI", "SAR"]
    assert modality_order(("DEM", "SAR", "NDVI")) == ["NDVI", "DEM", "SAR"]


_GRID = np.ones((2, 2), dtype=np.int32)
_PRED = np.ones((2, 2, 1))
_FEATURES = np.zeros((2, 2, 1))
_RASTERS = {"SAR": np.full((2, 2), -20.0), "LST": np.zeros((2, 2))}


@pytest.mark.parametrize(
    "call",
    [
        lambda g: total_loss(_PRED, _GRID, _FEATURES, _RASTERS, g),
        lambda g: prepare_targets(_GRID, _FEATURES, _RASTERS, g, _PRED.shape),
        lambda g: plausibility_rate(_GRID, _RASTERS, g),
        lambda g: synthesize_scene(_GRID, g, ("SAR", "LST"), SynthConfig()),
        lambda g: synthesize_raster(_GRID, g, "LST", SynthConfig()),
        lambda g: assemble_joint(_FEATURES, _PRED, _RASTERS, g),
        lambda g: AttenuationConfig(available=("SAR", "LST")),
    ],
    ids=[
        "total_loss",
        "prepare_targets",
        "plausibility_rate",
        "synthesize_scene",
        "synthesize_raster",
        "assemble_joint",
        "attenuation_config",
    ],
)
def test_unknown_modality_rejected(call):
    graph = parse_pckg(json.dumps([WATER_OBJ]))
    with pytest.raises(ValueError, match="unknown modality 'LST'"):
        call(graph)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: modality_order(("SAR", "NDVI", "SAR")),
        lambda g: synthesize_scene(_GRID, g, ("SAR", "SAR"), SynthConfig()),
        lambda g: AttenuationConfig(available=("SAR", "SAR")),
    ],
    ids=["modality_order", "synthesize_scene", "attenuation_config"],
)
def test_repeated_modality_rejected(call):
    graph = parse_pckg(json.dumps([WATER_OBJ]))
    with pytest.raises(ValueError, match="modality 'SAR' named more than once"):
        call(graph)


_SAR = np.full((2, 2), -20.0)
_SAR_ONLY = AttenuationConfig(available=("SAR",))


def _sar_with(cell):
    grid = _SAR.copy()
    grid[1, 0] = cell
    return grid


_BAD_RASTERS = {
    "nan": (_sar_with(np.nan), "raster 'SAR' has 1 non-finite cells"),
    "inf": (_sar_with(-np.inf), "raster 'SAR' has 1 non-finite cells"),
    "shape": (np.full((2, 1), -20.0), "raster 'SAR' shape (2, 1) does not match (2, 2)"),
}
_RASTER_ENTRY_POINTS = {
    "assemble_joint": lambda g, r: assemble_joint(_FEATURES, _PRED, r, g),
    "infer": lambda g, r: infer(init_params(1, 1, TrainConfig()), _FEATURES, _PRED, r, g, _SAR_ONLY),
    "reweight": lambda g, r: reweight(_PRED, r, g, _SAR_ONLY),
    "total_loss": lambda g, r: total_loss(_PRED, _GRID, _FEATURES, r, g),
    "prepare_targets": lambda g, r: prepare_targets(_GRID, _FEATURES, r, g, _PRED.shape),
    "plausibility_rate": lambda g, r: plausibility_rate(_GRID, r, g),
    "reliability_synthetic": lambda g, r: reliability(r["SAR"], _SAR, _GRID, g, "SAR"),
    "reliability_reference": lambda g, r: reliability(_SAR, r["SAR"], _GRID, g, "SAR"),
}

# covered by test_refiner's test_dimension_mismatch_names_input and test_cli's
# test_non_finite_raster_exit_1
_COVERED = {("assemble_joint", "nan"), ("assemble_joint", "shape"), ("infer", "nan")}


@pytest.mark.parametrize(
    "entry_point, bad",
    [
        (entry_point, bad)
        for entry_point in sorted(_RASTER_ENTRY_POINTS)
        for bad in sorted(_BAD_RASTERS)
        if (entry_point, bad) not in _COVERED
    ],
)
def test_bad_raster_rejected(entry_point, bad):
    graph = parse_pckg(json.dumps([WATER_OBJ]))
    grid, message = _BAD_RASTERS[bad]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _RASTER_ENTRY_POINTS[entry_point](graph, {"SAR": grid})


_BAD_LABELS = {
    "negative": (np.array([[1, 0], [-1, 1]]), "mask label -1 outside 0..1"),
    "above_c": (np.array([[1, 0], [2, 1]]), "mask label 2 outside 0..1"),
    "float": (
        np.ones((2, 2)),
        "label mask must be a 2-D integer array, got float64 (2, 2)",
    ),
}
_LABEL_ENTRY_POINTS = {
    "mock_backbone": lambda g, m: mock_backbone(m, g),
    "train": lambda g, m: train([Scene(_FEATURES, _PRED, {}, m)], g, TrainConfig(epochs=1)),
    "total_loss": lambda g, m: total_loss(_PRED, m, _FEATURES, {}, g),
    "prepare_targets": lambda g, m: prepare_targets(m, _FEATURES, {}, g, _PRED.shape),
    "confusion_counts_pred": lambda g, m: confusion_counts(m, _GRID, 1),
    "confusion_counts_gt": lambda g, m: confusion_counts(_GRID, m, 1),
    "plausibility_rate": lambda g, m: plausibility_rate(m, {"SAR": _SAR}, g),
    "reliability": lambda g, m: reliability(_SAR, _SAR, m, g, "SAR"),
    "synthesize_raster": lambda g, m: synthesize_raster(m, g, "SAR", SynthConfig()),
    "synthesize_scene": lambda g, m: synthesize_scene(m, g, ("SAR",), SynthConfig()),
}


@pytest.mark.parametrize("bad", sorted(_BAD_LABELS))
@pytest.mark.parametrize("entry_point", sorted(_LABEL_ENTRY_POINTS))
def test_bad_label_rejected(entry_point, bad):
    graph = parse_pckg(json.dumps([WATER_OBJ]))
    mask, message = _BAD_LABELS[bad]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _LABEL_ENTRY_POINTS[entry_point](graph, mask)
