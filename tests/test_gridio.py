from __future__ import annotations

import numpy as np
import pytest

from physeg.gridio import (
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
