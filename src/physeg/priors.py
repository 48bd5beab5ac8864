"""Physical-prior knowledge graph: per-category NDVI/DEM/SAR intervals.

The graph (PCKG) is a flat, ordered collection of per-category records.
Each record holds one closed numeric interval per physical modality
(NDVI unitless, DEM meters, SAR dB) plus free-text reasoning.  Graphs are
read from and written to a UTF-8 JSON array whose field names are fixed
by the file format ("Category", "NDVI Range", ...).  Interval endpoints
carry two decimal places; values are quantized on construction so that
serialize -> parse is an identity on valid graphs.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

MODALITIES = ("NDVI", "DEM", "SAR")
MODALITY_INDEX = {m: i for i, m in enumerate(MODALITIES)}

# The record layout in file order: each PriorEntry attribute and its file field.
RECORD = (
    ("category", "Category"),
    ("meaning", "Meaning"),
    ("modifier_analysis", "Modifier Analysis"),
    ("coarse_class", "Coarse Class"),
    ("ndvi_range", "NDVI Range"),
    ("dem_range", "DEM Range"),
    ("sar_range", "SAR Range"),
    ("reasoning", "Reasoning"),
)
ENTRY_FIELDS = tuple(name for _, name in RECORD)
# Each modality's interval attribute: "NDVI" -> "ndvi_range".
_RANGE_ATTRS = {
    name.removesuffix(" Range"): attr for attr, name in RECORD if name.endswith(" Range")
}


class PriorError(Exception):
    """Base class for knowledge-graph errors."""


class PriorParseError(PriorError):
    """Document is not well-formed JSON."""


class PriorSchemaError(PriorError):
    """An entry is missing a field or a field has the wrong shape."""


class PriorValidationError(PriorError):
    """An entry violates a value invariant (inverted interval, duplicate category, ...)."""


class PriorLookupError(PriorError):
    """A class id or category does not resolve in the graph."""


class EmptyGraphWarning(UserWarning):
    """Emitted when a parsed graph contains zero entries."""


def modality_order(names) -> list[str]:
    """The given modality names in ``MODALITIES`` order.

    An unknown name, or a name given twice, is a ValueError.
    """
    names = list(names)
    for k, name in enumerate(names):
        if name not in MODALITY_INDEX:
            raise ValueError(f"unknown modality {name!r}")
        if name in names[:k]:
            raise ValueError(f"modality {name!r} named more than once")
    return sorted(names, key=MODALITY_INDEX.get)


def check_rasters(rasters, shape) -> dict:
    """The rasters as float64 grids in ``MODALITIES`` order, each checked against ``shape``.

    An unknown or repeated modality, another shape or a non-finite cell is a ValueError.
    """
    rasters = rasters or {}
    checked = {}
    for name in modality_order(rasters):
        grid = np.asarray(rasters[name], dtype=np.float64)
        if grid.shape != tuple(shape):
            raise ValueError(f"raster {name!r} shape {grid.shape} does not match {tuple(shape)}")
        bad = grid.size - np.count_nonzero(np.isfinite(grid))
        if bad:
            raise ValueError(f"raster {name!r} has {bad} non-finite cells")
        checked[name] = grid
    return checked


def check_labels(mask, num_classes: int) -> np.ndarray:
    """The mask, checked to be a 2-D integer array of labels in 0..num_classes.

    Otherwise a ValueError; it names the first label out of range in row-major order.
    """
    labels = np.asarray(mask)
    if labels.ndim != 2 or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"label mask must be a 2-D integer array, got {labels.dtype} {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) > num_classes:
        bad = labels.flat[np.argmax((labels < 0) | (labels > num_classes))]
        raise ValueError(f"mask label {int(bad)} outside 0..{num_classes}")
    return labels


def _quantize(x: float) -> float:
    return round(float(x), 2)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; endpoints quantized to two decimals."""

    lo: float
    hi: float
    # slack for comparing region means to the endpoints (absorbs summation rounding)
    edge_tol: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise PriorValidationError(f"non-finite interval endpoints [{lo}, {hi}]")
        lo, hi = _quantize(lo), _quantize(hi)
        if lo > hi:
            raise PriorValidationError(f"inverted interval [{lo:.2f}, {hi:.2f}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "edge_tol", 1e-9 * max(1.0, abs(lo), abs(hi)))

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def hinge(self, mean: float):
        """Squared excess of a region mean past the interval, and its derivative in the mean.

        ``mean - hi`` and ``lo - mean`` count only beyond ``edge_tol``, so a
        mean is inside exactly when the term is 0.0.
        """
        over = mean - self.hi
        if over > self.edge_tol:
            return over * over, 2.0 * over
        under = self.lo - mean
        if under > self.edge_tol:
            return under * under, -2.0 * under
        return 0.0, 0.0


def region_means(region_map, values, num_classes: int):
    """Per-class pixel counts (C,) and means over a map of class ids 0..C (0 is no class).

    ``values`` is (H, W) or (H, W, D); the means are (C,) or (C, D).  Each sum
    runs with ``np.bincount`` in pixel order, so the map's dtype must cast
    safely to ``np.intp`` (not uint64).  An empty class gets zero means.
    """
    ids = np.ravel(region_map)
    counts = np.bincount(ids, minlength=num_classes + 1)[1:]
    trailing = np.shape(values)[2:]
    flat = np.reshape(values, (ids.size, math.prod(trailing)))
    means = np.empty((num_classes, flat.shape[1]))
    for k in range(flat.shape[1]):
        means[:, k] = np.bincount(ids, weights=flat[:, k], minlength=num_classes + 1)[1:]
    means /= np.maximum(counts, 1)[:, None]
    return counts, means.reshape((num_classes,) + trailing)


def interval_distance_grid(values: np.ndarray | float, interval: Interval) -> np.ndarray | float:
    """Vectorized point-to-interval distance over a grid of values.

    A Python float gives a float with a 1x1 grid's bits: numpy's ``maximum`` rule in float
    arithmetic (NaN wins, a tie gives the second operand, so 0.0 beats -0.0).  Temporary:
    it serves ``reweight``'s per-flip calls until one call per (modality, class) column does.
    """
    if type(values) is float:
        a, b = interval.lo - values, values - interval.hi
        d = a if (a > b or a != a) else b
        return d if (d > 0.0 or d != d) else 0.0
    v = np.asarray(values, dtype=float)
    return np.maximum(np.maximum(interval.lo - v, v - interval.hi), 0.0)


@dataclass(frozen=True)
class PriorEntry:
    """One category's physical priors: three intervals plus reasoning text.

    Unknown fields from the source JSON are kept in ``extras`` and written
    back verbatim on serialization, but carry no semantics here.
    """

    category: str
    meaning: str
    modifier_analysis: str
    coarse_class: str
    ndvi_range: Interval
    dem_range: Interval
    sar_range: Interval
    reasoning: str
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.category or not self.category.strip():
            raise PriorValidationError("entry has an empty category")
        nd = self.ndvi_range
        if nd.lo < -1.0 or nd.hi > 1.0:
            raise PriorValidationError(
                f"category {self.category!r}: NDVI interval "
                f"[{nd.lo:.2f}, {nd.hi:.2f}] outside [-1.00, 1.00]"
            )

    def interval(self, modality: str) -> Interval:
        if modality not in _RANGE_ATTRS:
            raise PriorLookupError(f"unknown modality {modality!r}")
        return getattr(self, _RANGE_ATTRS[modality])


def _require_text(obj: dict, name: str, where: str) -> str:
    if name not in obj:
        raise PriorSchemaError(f"{where}: missing field {name!r}")
    value = obj[name]
    if not isinstance(value, str):
        raise PriorSchemaError(f"{where}: field {name!r} must be a string")
    return value


def _require_range(obj: dict, name: str, where: str) -> Interval:
    if name not in obj:
        raise PriorSchemaError(f"{where}: missing field {name!r}")
    value = obj[name]
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise PriorSchemaError(f"{where}: field {name!r} must be a 2-element numeric array")
    try:
        return Interval(float(value[0]), float(value[1]))
    except PriorValidationError as exc:
        raise PriorValidationError(f"{where}: field {name!r}: {exc}") from exc


def entry_from_json_obj(obj, where: str = "entry") -> PriorEntry:
    """Validate one JSON entry object against the record schema."""
    if not isinstance(obj, dict):
        raise PriorSchemaError(f"{where}: expected a JSON object")
    category = obj.get(ENTRY_FIELDS[0])
    if isinstance(category, str) and category.strip():
        where = f"category {category!r}"
    fields = {}
    for attr, name in RECORD:
        require = _require_range if attr in _RANGE_ATTRS.values() else _require_text
        fields[attr] = require(obj, name, where)
    extras = {k: v for k, v in obj.items() if k not in ENTRY_FIELDS}
    try:
        return PriorEntry(**fields, extras=extras)
    except PriorValidationError as exc:
        if where not in str(exc):
            raise PriorValidationError(f"{where}: {exc}") from exc
        raise


@dataclass(frozen=True)
class PriorGraph:
    """Ordered collection of entries; class ids 1..C assigned in entry order."""

    entries: tuple[PriorEntry, ...]

    def __post_init__(self):
        seen = set()
        for entry in self.entries:
            if entry.category in seen:
                raise PriorValidationError(f"duplicate category {entry.category!r}")
            seen.add(entry.category)

    @property
    def num_classes(self) -> int:
        return len(self.entries)

    @property
    def categories(self) -> tuple[str, ...]:
        return tuple(e.category for e in self.entries)

    def entry_for_id(self, class_id: int) -> PriorEntry:
        if not isinstance(class_id, (int, np.integer)) or not 1 <= class_id <= len(self.entries):
            raise PriorLookupError(
                f"class id {class_id!r} outside 1..{len(self.entries)}"
            )
        return self.entries[int(class_id) - 1]

    def interval(self, class_id: int, modality: str) -> Interval:
        return self.entry_for_id(class_id).interval(modality)

    def modality_stats(self, modality: str) -> tuple[float, float]:
        """Population mean/scale of interval midpoints, used to standardize rasters.

        Scale falls back to the mean half-width (then 1.0) when the midpoints
        are degenerate, so standardization stays finite on 1-class graphs.
        """
        if not self.entries:
            return 0.0, 1.0
        mids = np.array([e.interval(modality).midpoint for e in self.entries])
        halves = np.array([0.5 * e.interval(modality).width for e in self.entries])
        mu = float(mids.mean())
        sigma = float(mids.std())
        if sigma < 1e-9:
            sigma = float(halves.mean())
        if sigma < 1e-9:
            sigma = 1.0
        return mu, sigma

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def parse_pckg(document: str) -> PriorGraph:
    """Parse a JSON knowledge-graph document into a validated PriorGraph.

    Raises PriorParseError (malformed JSON, with line position),
    PriorSchemaError (missing/mistyped field) or PriorValidationError
    (inverted interval, duplicate category, NDVI bounds, empty category).
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise PriorParseError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, list):
        raise PriorSchemaError("top-level value must be a JSON array of entries")
    entries = [entry_from_json_obj(obj, where=f"entry {k}") for k, obj in enumerate(data)]
    graph = PriorGraph(tuple(entries))
    if not entries:
        warnings.warn("parsed an empty knowledge graph (0 categories)", EmptyGraphWarning)
    return graph


def _json_text(value) -> str:
    """Canonical text of a key or field value: intervals with two decimals."""
    if isinstance(value, Interval):
        return f"[{value.lo:.2f}, {value.hi:.2f}]"
    return json.dumps(value, ensure_ascii=False)


def _entry_lines(entry: PriorEntry) -> list[str]:
    pairs = [(name, getattr(entry, attr)) for attr, name in RECORD]
    pairs += entry.extras.items()
    return [f"    {_json_text(k)}: {_json_text(v)}" for k, v in pairs]


def serialize_pckg(graph: PriorGraph) -> str:
    """Render a graph as the canonical JSON document (2-decimal interval endpoints).

    The output is byte-deterministic and satisfies
    ``parse_pckg(serialize_pckg(g)) == g`` for every valid graph.
    """
    if not graph.entries:
        return "[]\n"
    blocks = []
    for entry in graph.entries:
        body = ",\n".join(_entry_lines(entry))
        blocks.append("  {\n" + body + "\n  }")
    return "[\n" + ",\n".join(blocks) + "\n]\n"


def load_graph(path) -> PriorGraph:
    """Read and parse a graph file; any parse, schema or validation error names its path."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = fh.read()
    except UnicodeDecodeError as exc:
        raise PriorParseError(f"{path}: not a UTF-8 file: {exc}") from exc
    try:
        return parse_pckg(document)
    except PriorError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_graph(graph: PriorGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_pckg(graph))
