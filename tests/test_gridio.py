from __future__ import annotations

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physeg import gridio
from physeg.gridio import (
    GRID_KINDS,
    GridFormatError,
    read_grid,
    read_grid_as,
    read_params,
    write_grid,
    write_params,
)
from physeg.refiner import RefinerParams, TrainConfig, init_params


def test_label_round_trip(tmp_path):
    path = tmp_path / "labels.pgrd"
    labels = np.arange(12, dtype=np.int32).reshape(3, 4) % 5
    write_grid(path, "LABEL", labels)
    kind, back = read_grid(path)
    assert kind == "LABEL"
    assert back.dtype == np.int32
    assert np.array_equal(back, labels)


@pytest.mark.parametrize("kind", ["NDVI", "DEM", "SAR"])
def test_modality_round_trip_exact(tmp_path, kind):
    rng = np.random.default_rng(3)
    raster = rng.normal(size=(5, 7))
    path = tmp_path / "grid.pgrd"
    write_grid(path, kind, raster)
    back = read_grid_as(path, kind)
    assert back.tobytes() == raster.tobytes()  # repr round-trips doubles exactly


@pytest.mark.parametrize("kind", ["PROB", "FEAT"])
def test_planar_round_trip(tmp_path, kind):
    rng = np.random.default_rng(4)
    arr = rng.random((4, 3, 6))
    path = tmp_path / "planes.pgrd"
    write_grid(path, kind, arr)
    back = read_grid_as(path, kind)
    assert back.shape == (4, 3, 6)
    assert back.tobytes() == arr.tobytes()


@pytest.mark.parametrize("kind", ["PROB", "FEAT"])
def test_planar_write_streams_planes_from_views(tmp_path, kind):
    values = np.random.default_rng(6).random((128, 128, 4))
    path = tmp_path / "planes.pgrd"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_grid(path, kind, values)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # no planar copy of the array: a row's text and the finiteness mask at most
    assert peak < values.nbytes / 4
    assert read_grid_as(path, kind).tobytes() == values.tobytes()


@pytest.mark.parametrize("kind", ["PROB", "FEAT"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_planar_writer_refuses_non_finite_values(tmp_path, kind, bad):
    # what read_grid would reject is never written; the file is not even opened
    values = np.full((2, 3, 2), 0.5)
    values[1, 2, 1] = bad
    path = tmp_path / "planes.pgrd"
    path.write_text("old\n")
    with pytest.raises(GridFormatError, match="1 non-finite cells"):
        write_grid(path, kind, values)
    assert path.read_text() == "old\n"


@pytest.mark.parametrize("field", ["w1", "b1", "w2", "b2", "residual_scale"])
def test_params_writer_refuses_non_finite_values(tmp_path, field):
    params = init_params(4, 3, TrainConfig(seed=9, hidden=6))
    if field == "residual_scale":
        params.residual_scale = float("nan")
    else:
        getattr(params, field).flat[-1] = np.inf
    path = tmp_path / "weights.psp"
    path.write_text("old\n")
    with pytest.raises(GridFormatError, match="non-finite"):
        write_params(path, params)
    assert path.read_text() == "old\n"


def test_header_checked(tmp_path):
    path = tmp_path / "bad.pgrd"
    path.write_text("PGRD LABEL 2\n1 2\n")
    with pytest.raises(GridFormatError, match="header"):
        read_grid(path)


def test_row_count_checked(tmp_path):
    path = tmp_path / "bad.pgrd"
    path.write_text("PGRD LABEL 2 2\n1 2\n")
    with pytest.raises(GridFormatError, match="rows"):
        read_grid(path)


def test_kind_mismatch(tmp_path):
    path = tmp_path / "grid.pgrd"
    write_grid(path, "NDVI", np.zeros((2, 2)))
    with pytest.raises(GridFormatError, match="expected SAR"):
        read_grid_as(path, "SAR")


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(GridFormatError):
        write_grid(tmp_path / "x.pgrd", "MASK", np.zeros((2, 2)))


def test_params_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    params = init_params(4, 3, TrainConfig(seed=9, hidden=6))
    params.w2 = rng.normal(size=params.w2.shape)
    params.b2 = rng.normal(size=params.b2.shape)
    path = tmp_path / "weights.psp"
    write_params(path, params)
    back = read_params(path)
    assert isinstance(back, RefinerParams)
    assert back.w1.tobytes() == params.w1.tobytes()
    assert back.b1.tobytes() == params.b1.tobytes()
    assert back.w2.tobytes() == params.w2.tobytes()
    assert back.b2.tobytes() == params.b2.tobytes()
    assert back.residual_scale == params.residual_scale


def test_params_header_checked(tmp_path):
    path = tmp_path / "bad.psp"
    path.write_text("PSPARAMS v2 1 1 3 1\n0\n")
    with pytest.raises(GridFormatError):
        read_params(path)


@pytest.mark.parametrize(
    "text, match",
    [
        ("PGRD LABEL 2 2\n1 2\n3 x\n", "invalid literal"),  # bad token
        ("PGRD LABEL 2 2\n1 2\n3\n", "expected 2 values per row, got 1"),
        ("PGRD SAR 1 2\n-3.5 -4.0 1.0\n", "expected 2 values per row, got 3"),
        ("PGRD FEAT 1 2 1\n0.5 nan\n", "non-finite"),
        ("PGRD PROB 1 1 2\n0.5\ninf\n", "non-finite"),
    ],
)
def test_malformed_grid_values_rejected_with_path(tmp_path, text, match):
    path = tmp_path / "bad.pgrd"
    path.write_text(text)
    with pytest.raises(GridFormatError, match=match) as info:
        read_grid(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("kind", ["NDVI", "DEM", "SAR"])
def test_modality_grids_keep_non_finite_values(tmp_path, kind):
    # a raster may mark a pixel as not measured; only FEAT/PROB must be finite
    raster = np.array([[np.nan, 1.5], [np.inf, -np.inf]])
    path = tmp_path / "grid.pgrd"
    write_grid(path, kind, raster)
    assert read_grid_as(path, kind).tobytes() == raster.tobytes()


@pytest.mark.parametrize(
    "line, text, match",
    [
        (1, "abc 0.5 0.25 0.0 1.0 2.0", "could not convert"),  # bad token in w1
        (1, "0.5 0.25", "expected 6 values per row, got 2"),  # ragged w1 row
        (3, "0.0 nan", "non-finite"),  # b1
        (-1, "inf", "non-finite"),  # residual scale
    ],
)
def test_malformed_params_rejected_with_path(tmp_path, line, text, match):
    # D=1, C=2, M=3, hidden=2: w1 rows are 6 wide, b1 is line 3, the scale is last
    path = tmp_path / "weights.psp"
    write_params(path, init_params(1, 2, TrainConfig(seed=1, hidden=2)))
    lines = path.read_text().splitlines()
    lines[line] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridFormatError, match=match) as info:
        read_params(path)
    assert str(path) in str(info.value)


def test_non_ascii_grid_rejected_with_path(tmp_path):
    path = tmp_path / "labels.pgrd"
    path.write_bytes("PGRD LABEL 1 2\n1 \u00e9\n".encode("utf-8"))
    with pytest.raises(GridFormatError, match="not an ASCII file") as info:
        read_grid(path)
    assert str(path) in str(info.value)


def test_non_ascii_params_rejected_with_path(tmp_path):
    path = tmp_path / "weights.psp"
    write_params(path, init_params(1, 2, TrainConfig(seed=1, hidden=2)))
    path.write_bytes(path.read_bytes().replace(b"\n", " \u00e9\n".encode("utf-8"), 2))
    with pytest.raises(GridFormatError, match="not an ASCII file") as info:
        read_params(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "kind, values",
    [
        ("LABEL", np.array([[0, -3], [7, 2147483647]])),
        ("SAR", np.array([[np.nan, -np.inf], [-0.0, 5e-324]])),
        ("PROB", np.full((2, 2, 3), 0.25)),
        ("FEAT", np.arange(12.0).reshape(1, 3, 4) * 1e300),
    ],
)
def test_written_grids_take_the_loadtxt_path(tmp_path, kind, values):
    path = tmp_path / "grid.pgrd"
    write_grid(path, kind, values)
    assert gridio._read_grid_fast(path) is not None
    assert read_grid_as(path, kind).tobytes() == values.astype(gridio._grid_dtype(kind)).tobytes()


# Tokens either parser may meet: every special float, integers written as
# floats, signs, underscores and junk, so both the loadtxt pass and its
# fallback are exercised.
_SPECIAL_TOKENS = (
    "nan", "-nan", "NaN", "inf", "-inf", "+inf", "Infinity", "-0.0", "0.0", "5e-324",
    "2.2250738585072014e-308", "1e300", "-1e300", "1e400", "+1", "-1", "1_0", "1.0",
    "0010", "2147483647", "2147483648", "1e", "x", "#", "1,5", "0x10",
)
_PLAIN_SPACE = (" ", "  ", "\t", " \t ", "\x1f")  # whitespace inside one line for both parsers
_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")  # end a line for str.splitlines() only


@st.composite
def _grid_texts(draw):
    """PGRD text for any kind: half well-formed, half with ragged rows, junk and odd breaks."""
    kind = draw(st.sampled_from(GRID_KINDS))
    planar = kind in ("PROB", "FEAT")
    h, w = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    c = draw(st.integers(1, 2)) if planar else 1
    messy = draw(st.booleans())
    if kind == "LABEL":
        token = st.integers(-(2**31), 2**31 - 1).map(str)
    else:
        token = st.floats(allow_nan=not planar, allow_infinity=not planar).map(repr)
    space = st.sampled_from(_PLAIN_SPACE)
    if messy:
        token = st.one_of(
            token,
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.sampled_from(_SPECIAL_TOKENS),
        )
        space = st.sampled_from(_PLAIN_SPACE + _LINE_BREAKS)
    dims = [h, w, c] if planar else [h, w]
    if messy and draw(st.integers(0, 9)) == 0:
        dims = dims[:-1]  # a short header
    pad = st.sampled_from(("", " ", "\t"))  # leading and trailing
    lines = []
    for _ in range(max(h * c + (draw(st.integers(-1, 1)) if messy else 0), 0)):
        width = w + (draw(st.sampled_from((0, 0, -1, 1))) if messy else 0)
        row = draw(space).join(draw(st.lists(token, min_size=width, max_size=width)))
        lines.append(draw(pad) + row + draw(pad))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(("",) + _PLAIN_SPACE)) + draw(space))  # blank
    newline = draw(st.sampled_from(("\n", "\n", "\r\n", "\r")))
    header = " ".join(["PGRD", kind, *map(str, dims)])
    return newline.join([header, *lines]) + draw(st.sampled_from(("", newline)))


def _outcome(path):
    try:
        kind, arr = read_grid(path)
    except GridFormatError as exc:
        return "error", str(exc)
    return kind, arr.dtype.str, arr.shape, arr.flags.c_contiguous, arr.tobytes()


@settings(max_examples=300, deadline=None)
@given(_grid_texts())
def test_loadtxt_path_matches_checked_parse_property(text):
    # the one-pass loadtxt read must return exactly what the token-by-token
    # parse returns, or fall back to it and raise the same error
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.pgrd"
        path.write_bytes(text.encode("ascii"))
        got = _outcome(path)
        with mock.patch.object(gridio, "_read_grid_fast", return_value=None):
            want = _outcome(path)
    assert got == want
