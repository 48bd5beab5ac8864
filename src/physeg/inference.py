"""Two-mode inference: residual refinement plus interval-distance re-weighting.

For each available modality the per-pixel distance between the measured value
and each class's admissible interval feeds a Gaussian attenuation
``s = exp(-min(d, tau)^2 / sigma^2)``; ``attenuate`` multiplies class scores by
the product of attenuations and renormalizes, building no trace.  With no
modalities available the attenuation is identically 1 and the refined
probabilities are simply renormalized (visual-only mode).  ``reweight`` also
traces each pixel whose argmax label changes: distances, attenuations and the
knowledge-graph reasoning for the classes involved, kept as columns (int lists
for pixels and labels, float64 arrays for each modality's values, distances
and scores).  ``trace.flips`` is a view that builds each record dict when read
and keeps none.  ``to_jsonl`` encodes each column, and each class pair's
text, with one ``json.dumps`` call, and gives the bytes a per-record
``json.dumps(record, sort_keys=True)`` would give.  ``write_jsonl``
writes a trace in slices of ``JSONL_CHUNK`` flips, one ``to_jsonl`` call
each, so only one slice's text is alive at a time and a wrapper around
``to_jsonl`` still sees every byte.

Each large intermediate is held once: ``infer`` hands ``refine`` the
scene's ``JointParts`` from ``assemble_joint``, the head's one input form,
which it writes one pixel block at a time, so the joint tensor is never held
whole.  ``infer`` keeps only the refined map (the correction map is dropped
before re-weighting), and ``attenuate`` holds one (H, W, C) array whatever the
number of modalities: the attenuation product, which it multiplies by the
refined map and normalises in place, never writing the caller's refined map.
A flip's scores are the attenuation of the distances its trace records, so
no per-modality grid is kept; each distance is an ``interval_distance_grid``
call on a Python float, which gives a 1x1 grid's bits without numpy's overhead.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .priors import PriorGraph, check_rasters, interval_distance_grid, modality_order
from .refiner import RefinerParams, assemble_joint, refine

DENOM_FLOOR = 1e-12
SIGMA_FLOOR = 1e-3  # modality units; guards zero-width intervals
JSONL_CHUNK = 1024  # flips per ``write_jsonl`` slice and per column slice of ``iter(flips)``


@dataclass(frozen=True)
class AttenuationConfig:
    """Which modalities re-weight, and the interval-width-relative Gaussian settings.

    Each (modality, class) pair gets sigma = max(sigma_rel * width, SIGMA_FLOOR)
    and tau = tau_rel * sigma, so a zero-width interval falls back to the
    sigma floor.
    """

    available: tuple = ()
    sigma_rel: float = 0.5
    tau_rel: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "available", tuple(self.available))
        modality_order(self.available)  # raises ValueError on an unknown name
        if not (0 < self.sigma_rel < np.inf and 0 < self.tau_rel < np.inf):
            raise ValueError("sigma_rel and tau_rel must be finite and > 0")

    def params_for(self, interval) -> tuple[float, float]:
        """Resolved (tau, sigma) for one class interval."""
        sigma = max(self.sigma_rel * interval.width, SIGMA_FLOOR)
        return self.tau_rel * sigma, sigma


# Per-modality columns of a flip, in the key order of a ``flips`` record.
FLIP_FIELDS = ("value", "distance_pre", "score_pre", "distance_post", "score_post")


def _json_numbers(numbers: list) -> list[str]:
    """``json.dumps`` text of each number in a list, NaN and Infinity included."""
    return json.dumps(numbers)[1:-1].split(", ") if numbers else []


class FlipView(Sequence):
    """A trace's flips as record dicts, each built when read and never kept.

    ``len`` and truth build nothing, and iteration streams ``JSONL_CHUNK``-flip
    column slices; ``==`` and ``repr`` are the list's.
    """

    def __init__(self, trace: RefinementTrace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(self._records(k))
        k = range(len(self))[k]  # IndexError past either end
        return next(self._records(slice(k, k + 1)))

    def __iter__(self):
        for start in range(0, len(self), JSONL_CHUNK):
            yield from self._records(slice(start, start + JSONL_CHUNK))

    def __eq__(self, other):
        return list(self) == other

    def __repr__(self) -> str:
        return repr(list(self))

    def _records(self, rows: slice):
        """One dict per flip in ``rows``: pixel, both labels and classes, per-modality values."""
        t = self._trace
        per_modality = {
            name: list(zip(*(cols[f][rows].tolist() for f in FLIP_FIELDS)))
            for name, cols in t.modalities.items()
        }
        flips = zip(t.ys[rows], t.xs[rows], t.pre_labels[rows], t.post_labels[rows])
        for k, (y, x, pre, post) in enumerate(flips):
            yield {
                "y": y,
                "x": x,
                "pre_label": pre,
                "post_label": post,
                "pre_category": t.classes[pre][0],
                "post_category": t.classes[post][0],
                "modalities": {
                    name: dict(zip(FLIP_FIELDS, values[k])) for name, values in per_modality.items()
                },
                "pre_reasoning": t.classes[pre][1],
                "post_reasoning": t.classes[post][1],
            }


@dataclass
class RefinementTrace:
    """Argmax flips caused by re-weighting, stored as columns, plus warnings.

    ``ys``, ``xs``, ``pre_labels`` and ``post_labels`` hold one entry per flip.
    ``modalities`` maps each modality, in ``config.available`` order, to its
    ``FLIP_FIELDS`` columns (float64 arrays); ``classes`` maps every class id
    a flip names to its (category, reasoning).  ``flips`` is a ``FlipView``,
    whose records are built when read and never kept; ``len(trace)`` is the flip count.
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

    flips = property(FlipView)

    def to_jsonl(self, start: int = 0, stop: int | None = None) -> str:
        """``json.dumps(record, sort_keys=True)`` per flip in [start, stop), one a line,
        then one per warning if the slice reaches the last flip.

        Each column is encoded once and each (pre, post) class pair's text
        once; every line is then one ``%`` format over the encoded columns.
        """
        rows = slice(start, stop)
        names = sorted(self.modalities)
        keys = sorted(FLIP_FIELDS)
        columns = [
            _json_numbers(self.modalities[name][key][rows].tolist()) for name in names for key in keys
        ]
        block = "{" + ", ".join(f'"{key}": %s' for key in keys) + "}"
        template = (
            '{"modalities": {'
            + ", ".join(f"{json.dumps(name)}: {block}" for name in names)
            + '}, %s, "x": %s, "y": %s}\n'
        )
        pairs = list(zip(self.pre_labels[rows], self.post_labels[rows]))
        pair_text = {pair: self._pair_json(*pair) for pair in set(pairs)}
        columns.append([pair_text[pair] for pair in pairs])
        columns.append(_json_numbers(self.xs[rows]))
        columns.append(_json_numbers(self.ys[rows]))
        lines = [template % row for row in zip(*columns)]
        if stop is None or stop >= len(self):
            lines += [json.dumps({"warning": msg}) + "\n" for msg in self.warnings]
        return "".join(lines)

    def write_jsonl(self, fh) -> None:
        """Write ``to_jsonl()`` to the text file ``fh``, ``JSONL_CHUNK`` flips per call.

        Each slice goes through ``self.to_jsonl``, so a wrapper around that
        method sees every byte of the trace.
        """
        for start in range(0, len(self) or 1, JSONL_CHUNK):
            fh.write(self.to_jsonl(start, start + JSONL_CHUNK))

    def _pair_json(self, pre: int, post: int) -> str:
        """The sorted record keys between ``modalities`` and ``x`` for one class pair."""
        fields = {}
        for tag, cid in (("pre", pre), ("post", post)):
            fields[f"{tag}_category"], fields[f"{tag}_reasoning"] = self.classes[cid]
            fields[f"{tag}_label"] = cid
        return json.dumps(fields, sort_keys=True)[1:-1]


def available_rasters(rasters, config):
    """The rasters ``config.available`` names; a missing one is a ValueError."""
    rasters = rasters or {}
    missing = [name for name in config.available if name not in rasters]
    if missing:
        raise ValueError(f"modalities declared available but not supplied: {missing}")
    return {name: rasters[name] for name in config.available}


def _attenuation(d, tau, sigma):
    """Gaussian attenuation ``exp(-min(d, tau)^2 / sigma^2)`` of interval distances d."""
    d = np.minimum(d, tau)
    return np.exp(-(d * d) / (sigma * sigma))


def _attenuation_grids(rasters, graph, config, num_classes):
    """Per-class attenuation product S (H, W, C) over ``config.available``.

    S is the one (H, W, C) array: the first modality in ``MODALITIES`` order
    is written into it and each later one multiplied in, one class plane at a
    time.
    """
    shape = next(iter(rasters.values())).shape
    scores = np.empty(shape + (num_classes,))
    for k, name in enumerate(modality_order(config.available)):
        for ch in range(num_classes):
            iv = graph.interval(ch + 1, name)
            att = _attenuation(interval_distance_grid(rasters[name], iv), *config.params_for(iv))
            if k:
                att *= scores[:, :, ch]  # the same bits as scores * att
            scores[:, :, ch] = att
    return scores


def attenuate(refined, rasters, graph: PriorGraph, config: AttenuationConfig):
    """Scale refined scores by ``config.available``'s attenuations and renormalize.

    Returns (probabilities, labels, fallback) and builds no trace: ``fallback``
    is the (ys, xs) of the pixels where attenuation wiped out every class,
    which keep their refined scores.  A non-finite or negative refined cell, or
    a pixel whose refined scores sum below ``DENOM_FLOOR``, is a ValueError.
    """
    refined = np.asarray(refined, dtype=np.float64)
    if refined.ndim != 3:
        raise ValueError(f"refined map must be (H, W, C), got shape {refined.shape}")
    h, w, c = refined.shape
    if c != graph.num_classes:
        raise ValueError(
            f"refined map has {c} channels but the graph defines {graph.num_classes} classes"
        )
    # NaN fails both comparisons, -inf the first and +inf the second
    bad = refined.size - np.count_nonzero((refined >= 0.0) & (refined < np.inf))
    if bad:
        raise ValueError(f"refined map has {bad} non-finite or negative cells")
    checked = check_rasters(available_rasters(rasters, config), (h, w))

    # probs is the one (H, W, C) buffer of this call: the attenuation product,
    # then the weighted scores, then (normalised in place) the probabilities
    if checked:
        probs = _attenuation_grids(checked, graph, config, c)
        probs *= refined
    else:
        # every attenuation is 1: the weighted scores are a copy of the refined ones
        probs = refined.copy()
    denom = probs.sum(axis=2, keepdims=True)
    fallback = np.nonzero(denom[:, :, 0] < DENOM_FLOOR)
    if len(fallback[0]):
        # attenuations are at most 1, so a pixel whose refined scores sum
        # below the floor is always among these
        kept = refined[fallback]
        kept_sum = kept.sum(axis=1)
        low = np.count_nonzero(kept_sum < DENOM_FLOOR)
        if low:
            raise ValueError(f"refined map has {low} pixels whose scores sum below {DENOM_FLOOR}")
        probs[fallback] = kept
        denom[fallback] = kept_sum[:, None]
    probs /= denom  # every pixel's denominator is now at least DENOM_FLOOR
    labels = np.argmax(probs, axis=2).astype(np.int32) + 1
    return probs, labels, fallback


def reweight(refined, rasters, graph: PriorGraph, config: AttenuationConfig):
    """``attenuate``'s (probabilities, labels), plus the trace of its flips and fallback pixels."""
    probs, labels, fallback = attenuate(refined, rasters, graph, config)
    pre_labels = np.argmax(refined, axis=2).astype(np.int32) + 1

    # Flip columns: each class entry is resolved once, and each score is the
    # attenuation of the distance next to it.  Each distance is one call, on a
    # float, through this module's name: perfbench's traced runs check
    # m * (C + 2 * flips) interval_distance_grid calls per reweight, m * C in attenuate.
    ys, xs = np.nonzero(labels != pre_labels)
    pre_ids, post_ids = pre_labels[ys, xs], labels[ys, xs]
    entries = {cid: graph.entry_for_id(cid) for cid in np.union1d(pre_ids, post_ids).tolist()}
    modalities = {}
    for name in config.available:
        intervals = {cid: entry.interval(name) for cid, entry in entries.items()}
        settings = np.zeros((graph.num_classes + 1, 2))  # (tau, sigma) by class id
        for cid, iv in intervals.items():
            settings[cid] = config.params_for(iv)
        values = np.asarray(rasters[name])[ys, xs].astype(np.float64)
        floats = values.tolist()  # Python floats take interval_distance_grid's float branch
        columns = {"value": values}
        for tag, ids in (("pre", pre_ids), ("post", post_ids)):
            pairs = zip(floats, ids.tolist())
            d = np.fromiter((interval_distance_grid(v, intervals[cid]) for v, cid in pairs), float)
            columns[f"distance_{tag}"] = d
            columns[f"score_{tag}"] = _attenuation(d, settings[ids, 0], settings[ids, 1])
        modalities[name] = {key: columns[key] for key in FLIP_FIELDS}
    classes = {cid: (entry.category, entry.reasoning) for cid, entry in entries.items()}
    warning = "pixel ({}, {}): all classes fully attenuated; kept refined probabilities"
    warnings = [warning.format(y, x) for y, x in np.transpose(fallback).tolist()]
    flips = (ys.tolist(), xs.tolist(), pre_ids.tolist(), post_ids.tolist())
    return probs, labels, RefinementTrace(*flips, modalities, classes, warnings)


def infer(
    params: RefinerParams,
    features,
    coarse,
    rasters,
    graph: PriorGraph,
    config: AttenuationConfig,
):
    """Full pipeline: refine the scene's joint tensor block by block, re-weight, label.

    Rasters not listed in ``config.available`` are ignored entirely, so
    visual-only inference (empty available set) is independent of any raster
    content supplied.  Returns (labels, probabilities, trace).
    """
    used = available_rasters(rasters, config)
    # the correction map is freed before re-weighting
    y1 = refine(params, assemble_joint(features, coarse, used, graph), coarse)[0]
    probs, labels, trace = reweight(y1, used, graph, config)
    return labels, probs, trace
