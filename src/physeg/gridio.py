"""ASCII grid and parameter files.

Grid format (PGRD): line 1 is ``PGRD <KIND> <H> <W> [<C>]`` where KIND is a
modality (NDVI/DEM/SAR), LABEL, PROB or FEAT.  Values follow row-major, one
row per line; PROB/FEAT store C planes sequentially (plane c = channel c).
Floats are written with repr so files are byte-stable and round-trip exactly.

Parameter format (PSPARAMS): header ``PSPARAMS v1 <D> <C> <M> <H>`` followed
by the fusion matrix, fusion bias, head matrix, head bias and residual scale,
row-major ASCII.  FEAT, PROB and PSPARAMS values must be finite; modality
rasters may hold nan or inf.  Writers raise GridFormatError on a non-finite
FEAT, PROB or PSPARAMS value before the file is opened, and write PROB/FEAT
planes row by row from views of the (H, W, C) array, never from a planar
copy.  Readers take any whitespace between values and skip blank lines.
"""

from __future__ import annotations

import warnings

import numpy as np

from .losses import COMPONENTS
from .priors import MODALITIES

GRID_KINDS = MODALITIES + ("LABEL", "PROB", "FEAT")
_PLANAR_KINDS = ("PROB", "FEAT")
# str.splitlines() ends a line at these; np.loadtxt reads them as spaces
_SPLITLINES_ONLY_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


class GridFormatError(ValueError):
    """Raised for malformed grid or parameter files."""


def _format_row(row: np.ndarray, sep: str = " ") -> str:
    """One row of an int64 or float64 array; repr round-trips doubles exactly."""
    return sep.join(map(repr, row.tolist()))


def _write_lines(path, header: str, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        fh.writelines(row + "\n" for row in rows)


def _read_lines(path, magic: str) -> tuple[list[str], list[str]]:
    """Header tokens and the non-blank value lines of a file whose line 1 starts with magic."""
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise GridFormatError(f"{path}: not an ASCII file: {exc}") from exc
    if not lines or not lines[0].startswith(magic):
        raise GridFormatError(f"{path}: missing {magic.strip()} header")
    return lines[0].split(), [ln for ln in lines[1:] if ln.strip()]


def _parse_block(path, lines, width: int, dtype, finite: bool) -> np.ndarray:
    """Parse value lines into a (len(lines), width) array of dtype.

    Each line must hold exactly ``width`` tokens that parse as dtype, and with
    ``finite`` no value may be nan or inf.  Every failure raises
    GridFormatError naming the file.
    """
    rows = [ln.split() for ln in lines]
    for row in rows:
        if len(row) != width:
            raise GridFormatError(f"{path}: expected {width} values per row, got {len(row)}")
    try:
        block = np.array(rows, dtype=dtype).reshape(len(rows), width)
    except (ValueError, OverflowError) as exc:
        raise GridFormatError(f"{path}: malformed value: {exc}") from exc
    if finite and not np.isfinite(block).all():
        raise GridFormatError(f"{path}: non-finite value where finite values are required")
    return block


def write_grid(path, kind: str, values: np.ndarray) -> None:
    """Write a LABEL (H,W int), modality (H,W float) or PROB/FEAT (H,W,C) grid."""
    if kind not in GRID_KINDS:
        raise GridFormatError(f"unknown grid kind {kind!r}")
    planar = kind in _PLANAR_KINDS
    arr = np.asarray(values, dtype=np.int64 if kind == "LABEL" else np.float64)
    if arr.ndim != (3 if planar else 2):
        layout = "(H, W, C)" if planar else "(H, W)"
        raise GridFormatError(f"{kind} grids need a {layout} array, got shape {arr.shape}")
    bad = arr.size - np.count_nonzero(np.isfinite(arr)) if planar else 0
    if bad:
        raise GridFormatError(f"{path}: {kind} grid has {bad} non-finite cells")
    header = " ".join(["PGRD", kind, *map(str, arr.shape)])
    # plane c, row y is the view arr[:, :, c][y]: no planar copy of the array
    rows = (row for c in range(arr.shape[2]) for row in arr[:, :, c]) if planar else arr
    _write_lines(path, header, (_format_row(row) for row in rows))


def _grid_layout(path, head: list[str]) -> tuple[str, int, int, int]:
    """Kind, H, W and C (1 for single-plane kinds) from PGRD header tokens."""
    kind = head[1] if len(head) > 1 else ""
    if kind not in GRID_KINDS:
        raise GridFormatError(f"{path}: unknown grid kind {kind!r}")
    planar = kind in _PLANAR_KINDS
    expect = 5 if planar else 4
    if len(head) != expect:
        raise GridFormatError(f"{path}: header needs {expect} tokens, got {len(head)}")
    try:
        dims = [int(t) for t in head[2:]]
    except ValueError as exc:
        raise GridFormatError(f"{path}: non-integer dimension in header") from exc
    return kind, dims[0], dims[1], dims[2] if planar else 1


def _plain_lines(fh):
    """The lines of fh, failing on any that str.splitlines() would split further."""
    for line in fh:
        if any(ch in line for ch in _SPLITLINES_ONLY_BREAKS):
            raise ValueError("line break other than a newline")
        yield line


def _read_grid_fast(path):
    """(kind, H, W, C, block) from one np.loadtxt pass over the file, or None.

    None on any failure, warnings included; read_grid then runs the checked
    parse, which alone decides what is accepted and what an error says.
    Where both accept a file they give the same values bit for bit.
    """
    try:
        with open(path, encoding="ascii") as fh:
            lines = _plain_lines(fh)
            head = next(lines)
            if not head.startswith("PGRD "):
                return None
            kind, h, w, c = _grid_layout(path, head.split())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                block = np.loadtxt(lines, dtype=_grid_dtype(kind), comments=None, ndmin=2)
    except Exception:  # the checked parse reports the failure, or accepts the file
        return None
    if block.shape != (h * c, w) or (kind in _PLANAR_KINDS and not np.isfinite(block).all()):
        return None
    return kind, h, w, c, block


def _grid_dtype(kind: str):
    return np.int32 if kind == "LABEL" else np.float64


def read_grid(path) -> tuple[str, np.ndarray]:
    """Read a PGRD file; returns (kind, array)."""
    fast = _read_grid_fast(path)
    if fast is not None:
        kind, h, w, c, block = fast
    else:
        head, body = _read_lines(path, "PGRD ")
        kind, h, w, c = _grid_layout(path, head)
        if len(body) != h * c:
            raise GridFormatError(f"{path}: expected {h * c} value rows, got {len(body)}")
        # features and probabilities must be finite; a raster may mark "not measured"
        block = _parse_block(path, body, w, _grid_dtype(kind), finite=kind in _PLANAR_KINDS)
    if kind in _PLANAR_KINDS:
        return kind, np.ascontiguousarray(block.reshape(c, h, w).transpose(1, 2, 0))
    return kind, block


def read_grid_as(path, kind: str) -> np.ndarray:
    got, arr = read_grid(path)
    if got != kind:
        raise GridFormatError(f"{path}: expected {kind} grid, found {got}")
    return arr


def write_params(path, params) -> None:
    """Write refiner parameters (see refiner.RefinerParams) as PSPARAMS v1."""
    hidden, din = params.w1.shape
    c = params.w2.shape[0]
    m = len(MODALITIES)
    d = din - c - m
    if d < 0:
        raise GridFormatError(f"inconsistent parameter shapes: fused width {din} < C+M")
    blocks = [
        np.atleast_2d(np.asarray(block, dtype=np.float64))
        for block in (params.w1, params.b1, params.w2, params.b2, params.residual_scale)
    ]
    if not all(np.isfinite(block).all() for block in blocks):
        raise GridFormatError(f"{path}: refiner parameters hold non-finite values")
    rows = (_format_row(row) for block in blocks for row in block)
    _write_lines(path, f"PSPARAMS v1 {d} {c} {m} {hidden}", rows)


def read_params(path):
    """Read a PSPARAMS v1 file; returns a refiner.RefinerParams."""
    from .refiner import RefinerParams

    head, body = _read_lines(path, "PSPARAMS v1 ")
    try:
        d, c, m, hidden = (int(t) for t in head[2:])
    except ValueError as exc:
        raise GridFormatError(f"{path}: malformed header") from exc
    shapes = ((hidden, d + c + m), (1, hidden), (c, hidden), (1, c), (1, 1))
    expect = sum(n for n, _ in shapes)
    if len(body) != expect:
        raise GridFormatError(f"{path}: expected {expect} value rows, got {len(body)}")
    blocks, cursor = [], 0
    for n, width in shapes:
        blocks.append(_parse_block(path, body[cursor : cursor + n], width, np.float64, finite=True))
        cursor += n
    w1, b1, w2, b2, scale = blocks
    return RefinerParams(w1=w1, b1=b1[0], w2=w2, b2=b2[0], residual_scale=float(scale[0, 0]))


def write_history_csv(path, history) -> None:
    """Write per-step loss components as CSV (step, then ``losses.COMPONENTS``)."""
    table = np.array(
        [[rec[key] for key in COMPONENTS] for rec in history], dtype=np.float64
    ).reshape(-1, len(COMPONENTS))
    rows = (f"{k},{_format_row(row, ',')}" for k, row in enumerate(table))
    _write_lines(path, ",".join(("step",) + COMPONENTS), rows)
