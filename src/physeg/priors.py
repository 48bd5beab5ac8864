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

FIELD_CATEGORY = "Category"
FIELD_MEANING = "Meaning"
FIELD_MODIFIERS = "Modifier Analysis"
FIELD_COARSE = "Coarse Class"
FIELD_NDVI = "NDVI Range"
FIELD_DEM = "DEM Range"
FIELD_SAR = "SAR Range"
FIELD_REASONING = "Reasoning"

ENTRY_FIELDS = (
    FIELD_CATEGORY,
    FIELD_MEANING,
    FIELD_MODIFIERS,
    FIELD_COARSE,
    FIELD_NDVI,
    FIELD_DEM,
    FIELD_SAR,
    FIELD_REASONING,
)

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


def _quantize(x: float) -> float:
    return round(float(x), 2)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; endpoints quantized to two decimals."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise PriorValidationError(f"non-finite interval endpoints [{lo}, {hi}]")
        lo, hi = _quantize(lo), _quantize(hi)
        if lo > hi:
            raise PriorValidationError(f"inverted interval [{lo:.2f}, {hi:.2f}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def edge_tol(self) -> float:
        """Slack for comparing region means to the endpoints (absorbs summation rounding)."""
        return 1e-9 * max(1.0, abs(self.lo), abs(self.hi))

    def as_pair(self) -> list[float]:
        return [self.lo, self.hi]


def interval_distance(value: float, interval: Interval) -> float:
    """Distance from a scalar to a closed interval (0 when the value is inside)."""
    if value < interval.lo:
        return interval.lo - value
    if value > interval.hi:
        return value - interval.hi
    return 0.0


def interval_distance_grid(values: np.ndarray, interval: Interval) -> np.ndarray:
    """Vectorized point-to-interval distance over a grid of values."""
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
        if modality == "NDVI":
            return self.ndvi_range
        if modality == "DEM":
            return self.dem_range
        if modality == "SAR":
            return self.sar_range
        raise PriorLookupError(f"unknown modality {modality!r}")


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
    category = obj.get(FIELD_CATEGORY)
    if isinstance(category, str) and category.strip():
        where = f"category {category!r}"
    fields = {
        "category": _require_text(obj, FIELD_CATEGORY, where),
        "meaning": _require_text(obj, FIELD_MEANING, where),
        "modifier_analysis": _require_text(obj, FIELD_MODIFIERS, where),
        "coarse_class": _require_text(obj, FIELD_COARSE, where),
        "ndvi_range": _require_range(obj, FIELD_NDVI, where),
        "dem_range": _require_range(obj, FIELD_DEM, where),
        "sar_range": _require_range(obj, FIELD_SAR, where),
        "reasoning": _require_text(obj, FIELD_REASONING, where),
    }
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
    _by_category: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        index = {}
        for k, entry in enumerate(self.entries):
            if entry.category in index:
                raise PriorValidationError(f"duplicate category {entry.category!r}")
            index[entry.category] = k + 1
        object.__setattr__(self, "_by_category", index)

    @property
    def num_classes(self) -> int:
        return len(self.entries)

    @property
    def categories(self) -> tuple[str, ...]:
        return tuple(e.category for e in self.entries)

    def class_id(self, category: str) -> int:
        try:
            return self._by_category[category]
        except KeyError:
            raise PriorLookupError(f"unknown category {category!r}") from None

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


def _json_scalar(value) -> str:
    return json.dumps(value, ensure_ascii=False)


def _entry_lines(entry: PriorEntry) -> list[str]:
    pairs = [
        (FIELD_CATEGORY, _json_scalar(entry.category)),
        (FIELD_MEANING, _json_scalar(entry.meaning)),
        (FIELD_MODIFIERS, _json_scalar(entry.modifier_analysis)),
        (FIELD_COARSE, _json_scalar(entry.coarse_class)),
        (FIELD_NDVI, f"[{entry.ndvi_range.lo:.2f}, {entry.ndvi_range.hi:.2f}]"),
        (FIELD_DEM, f"[{entry.dem_range.lo:.2f}, {entry.dem_range.hi:.2f}]"),
        (FIELD_SAR, f"[{entry.sar_range.lo:.2f}, {entry.sar_range.hi:.2f}]"),
        (FIELD_REASONING, _json_scalar(entry.reasoning)),
    ]
    for key, value in entry.extras.items():
        pairs.append((key, json.dumps(value, ensure_ascii=False)))
    return [f"    {_json_scalar(k)}: {v}" for k, v in pairs]


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
