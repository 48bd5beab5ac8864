"""Two-mode inference: residual refinement plus interval-distance re-weighting.

For each available modality the per-pixel distance between the measured value
and each class's admissible interval feeds a Gaussian attenuation
``s = exp(-min(d, tau)^2 / sigma^2)``; class scores are multiplied by the
product of attenuations and renormalized.  With no modalities available the
attenuation is identically 1 and the refined probabilities are simply
renormalized (visual-only mode).  Every pixel whose argmax label changes is
recorded in a trace carrying distances, attenuations and the knowledge-graph
reasoning for the classes involved.  The trace is kept as columns (one list
per field); per-flip record dicts are built only when ``trace.flips`` is
read, and ``to_jsonl`` encodes the columns straight to the bytes a
per-record ``json.dumps(record, sort_keys=True)`` would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .priors import PriorGraph, interval_distance_grid, modality_order
from .refiner import RefinerParams, assemble_joint, refine

DENOM_FLOOR = 1e-12
SIGMA_FLOOR = 1e-3  # modality units; guards zero-width intervals


@dataclass(frozen=True)
class AttenuationConfig:
    """Cap/tolerance settings per modality, interval-width-relative by default.

    In relative mode each (modality, class) pair gets sigma = sigma_rel * width
    and tau = tau_rel * sigma; zero-width intervals fall back to the sigma
    floor.  Absolute per-modality overrides replace both for every class of
    that modality.
    """

    available: tuple = ()
    sigma_rel: float = 0.5
    tau_rel: float = 2.0
    sigma_abs: dict = field(default_factory=dict)
    tau_abs: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "available", tuple(self.available))
        modality_order(self.available)  # raises ValueError on an unknown name
        if self.sigma_rel <= 0 or self.tau_rel <= 0:
            raise ValueError("sigma_rel and tau_rel must be > 0")
        for table, label in ((self.sigma_abs, "sigma"), (self.tau_abs, "tau")):
            for name, value in table.items():
                if value <= 0:
                    raise ValueError(f"absolute {label} for {name!r} must be > 0")

    def params_for(self, modality: str, interval) -> tuple[float, float]:
        """Resolved (tau, sigma) for one (modality, class interval) pair."""
        sigma = self.sigma_abs.get(modality)
        tau = self.tau_abs.get(modality)
        if sigma is None:
            sigma = max(self.sigma_rel * interval.width, SIGMA_FLOOR)
        if tau is None:
            tau = self.tau_rel * sigma
        return tau, sigma


# Per-modality columns of a flip, in the key order of a ``flips`` record.
FLIP_FIELDS = ("value", "distance_pre", "score_pre", "distance_post", "score_post")
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(column) -> list[str]:
    """``json.dumps`` text of each number in ``column``: repr, or NaN/Infinity."""
    text = list(map(float.__repr__, column))
    if "nan" in text or "inf" in text or "-inf" in text:
        text = [_JSON_NON_FINITE.get(t, t) for t in text]
    return text


@dataclass
class RefinementTrace:
    """Argmax flips caused by re-weighting, stored as columns, plus warnings.

    ``ys``, ``xs``, ``pre_labels`` and ``post_labels`` hold one entry per flip.
    ``modalities`` maps each modality, in the order re-weighting used it, to
    its ``FLIP_FIELDS`` columns; ``classes`` maps every class id a flip names
    to its (category, reasoning).  ``flips`` builds one record dict per flip
    on first read and keeps it; ``len(trace)`` is the flip count.
    """

    ys: list = field(default_factory=list)
    xs: list = field(default_factory=list)
    pre_labels: list = field(default_factory=list)
    post_labels: list = field(default_factory=list)
    modalities: dict = field(default_factory=dict)
    classes: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ys)

    @cached_property
    def flips(self) -> list:
        """One dict per flip: pixel, both labels and classes, per-modality values."""
        per_modality = {
            name: list(zip(*(cols[f] for f in FLIP_FIELDS)))
            for name, cols in self.modalities.items()
        }
        flips = zip(self.ys, self.xs, self.pre_labels, self.post_labels)
        return [
            {
                "y": y,
                "x": x,
                "pre_label": pre,
                "post_label": post,
                "pre_category": self.classes[pre][0],
                "post_category": self.classes[post][0],
                "modalities": {
                    name: dict(zip(FLIP_FIELDS, rows[k])) for name, rows in per_modality.items()
                },
                "pre_reasoning": self.classes[pre][1],
                "post_reasoning": self.classes[post][1],
            }
            for k, (y, x, pre, post) in enumerate(flips)
        ]

    def to_jsonl(self) -> str:
        """``json.dumps(record, sort_keys=True)`` per flip, then per warning, one a line.

        Each column is encoded once and each (pre, post) class pair's text
        once; every line is then one ``%`` format over the encoded columns.
        """
        names = sorted(self.modalities)
        keys = sorted(FLIP_FIELDS)
        columns = [
            _json_numbers(self.modalities[name][key]) for name in names for key in keys
        ]
        block = "{" + ", ".join(f'"{key}": %s' for key in keys) + "}"
        template = (
            '{"modalities": {'
            + ", ".join(f"{encode_basestring_ascii(name)}: {block}" for name in names)
            + '}, %s, "x": %s, "y": %s}\n'
        )
        pairs = list(zip(self.pre_labels, self.post_labels))
        pair_text = {pair: self._pair_json(*pair) for pair in set(pairs)}
        columns.append([pair_text[pair] for pair in pairs])
        columns.append(list(map(int.__repr__, self.xs)))
        columns.append(list(map(int.__repr__, self.ys)))
        lines = [template % row for row in zip(*columns)]
        lines += ['{"warning": %s}\n' % encode_basestring_ascii(msg) for msg in self.warnings]
        return "".join(lines)

    def _pair_json(self, pre: int, post: int) -> str:
        """The sorted record keys between ``modalities`` and ``x`` for one class pair."""
        (pre_category, pre_reasoning), (post_category, post_reasoning) = (
            self.classes[pre],
            self.classes[post],
        )
        return (
            f'"post_category": {encode_basestring_ascii(post_category)}, '
            f'"post_label": {post!r}, '
            f'"post_reasoning": {encode_basestring_ascii(post_reasoning)}, '
            f'"pre_category": {encode_basestring_ascii(pre_category)}, '
            f'"pre_label": {pre!r}, '
            f'"pre_reasoning": {encode_basestring_ascii(pre_reasoning)}'
        )


def attenuation(d: float, tau: float, sigma: float) -> float:
    """Gaussian attenuation of a single interval distance: in (0, 1], 1 at d=0."""
    if sigma <= 0:
        raise ValueError("attenuation tolerance sigma must be > 0")
    if tau <= 0:
        raise ValueError("attenuation cap tau must be > 0")
    capped = min(float(d), tau)
    return math.exp(-(capped * capped) / (sigma * sigma))


def _attenuation_grids(rasters, graph, config, num_classes):
    """Stack of per-class attenuation products S (H, W, C) and per-modality parts."""
    shape = next(iter(rasters.values())).shape
    scores = np.ones(shape + (num_classes,))
    parts = {}
    for name in modality_order(config.available):
        values = np.asarray(rasters[name], dtype=np.float64)
        per_mod = np.empty(shape + (num_classes,))
        for ch in range(num_classes):
            iv = graph.interval(ch + 1, name)
            tau, sigma = config.params_for(name, iv)
            d = np.minimum(interval_distance_grid(values, iv), tau)
            per_mod[:, :, ch] = np.exp(-(d * d) / (sigma * sigma))
        parts[name] = per_mod
        scores *= per_mod
    return scores, parts


def reweight(refined, rasters, graph: PriorGraph, config: AttenuationConfig):
    """Multiply refined scores by interval attenuations and renormalize.

    Returns (probabilities, labels, trace).  Only modalities listed in
    ``config.available`` participate; an empty set degrades to plain
    renormalization of the refined scores.  If attenuation wipes out every
    class at a pixel the refined scores are used there and a warning is
    recorded.
    """
    refined = np.asarray(refined, dtype=np.float64)
    if refined.ndim != 3:
        raise ValueError(f"refined map must be (H, W, C), got shape {refined.shape}")
    h, w, c = refined.shape
    if c != graph.num_classes:
        raise ValueError(
            f"refined map has {c} channels but the graph defines {graph.num_classes} classes"
        )
    used = {}
    for name in config.available:
        if name not in rasters:
            raise ValueError(f"modality {name!r} declared available but no raster supplied")
        grid = np.asarray(rasters[name], dtype=np.float64)
        if grid.shape != (h, w):
            raise ValueError(f"raster {name!r} shape {grid.shape} does not match {(h, w)}")
        used[name] = grid

    trace = RefinementTrace()
    pre_labels = np.argmax(refined, axis=2).astype(np.int32) + 1

    if used:
        scores, parts = _attenuation_grids(used, graph, config, c)
    else:
        scores, parts = np.ones_like(refined), {}

    weighted = refined * scores
    denom = weighted.sum(axis=2, keepdims=True)
    dead = denom[:, :, 0] < DENOM_FLOOR
    if np.any(dead):
        refined_sum = refined.sum(axis=2, keepdims=True)
        weighted = np.where(dead[:, :, None], refined, weighted)
        denom = np.where(dead[:, :, None], refined_sum, denom)
        for y, x in np.argwhere(dead):
            trace.warnings.append(
                f"pixel ({int(y)}, {int(x)}): all classes fully attenuated; "
                "kept refined probabilities"
            )
    probs = weighted / np.maximum(denom, DENOM_FLOOR)
    labels = np.argmax(probs, axis=2).astype(np.int32) + 1

    # Flip columns: values and scores are gathered once and each class entry
    # is resolved once.  Each distance stays one 1x1 interval_distance_grid
    # call through this module's name: perfbench's traced runs patch it and
    # check m * (C + 2 * flips) calls per re-weighting.
    ys, xs = np.nonzero(labels != pre_labels)
    pre_ids, post_ids = pre_labels[ys, xs], labels[ys, xs]
    trace.ys, trace.xs = ys.tolist(), xs.tolist()
    trace.pre_labels, trace.post_labels = pre_ids.tolist(), post_ids.tolist()
    entries = {cid: graph.entry_for_id(cid) for cid in np.union1d(pre_ids, post_ids).tolist()}
    trace.classes = {cid: (entry.category, entry.reasoning) for cid, entry in entries.items()}
    for name, grid in used.items():
        intervals = {cid: entry.interval(name) for cid, entry in entries.items()}
        values = grid[ys, xs]
        cells = values.reshape(-1, 1, 1)  # iterates as one 1x1 grid per flip
        trace.modalities[name] = {
            "value": values.tolist(),
            "distance_pre": [
                interval_distance_grid(cell, intervals[cid]).item()
                for cell, cid in zip(cells, trace.pre_labels)
            ],
            "score_pre": parts[name][ys, xs, pre_ids - 1].tolist(),
            "distance_post": [
                interval_distance_grid(cell, intervals[cid]).item()
                for cell, cid in zip(cells, trace.post_labels)
            ],
            "score_post": parts[name][ys, xs, post_ids - 1].tolist(),
        }
    return probs, labels, trace


def infer(
    params: RefinerParams,
    features,
    coarse,
    rasters,
    graph: PriorGraph,
    config: AttenuationConfig,
):
    """Full pipeline: assemble joint tensor, refine, re-weight, label.

    Rasters not listed in ``config.available`` are ignored entirely, so
    visual-only inference (empty available set) is independent of any raster
    content supplied.  Returns (labels, probabilities, trace).
    """
    rasters = rasters or {}
    used = {name: rasters[name] for name in config.available if name in rasters}
    missing = [name for name in config.available if name not in rasters]
    if missing:
        raise ValueError(f"modalities declared available but not supplied: {missing}")
    z = assemble_joint(features, coarse, used, graph)
    y1, _ = refine(params, z, coarse)
    probs, labels, trace = reweight(y1, used, graph, config)
    return labels, probs, trace
