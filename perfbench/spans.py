"""Span recording around physeg's public functions, from outside the package.

A ``Tracer`` wraps functions under the name their caller looks up (modules
import by name, so ``physeg.refiner.total_loss`` is patched rather than
``physeg.losses.total_loss``), records one span per call (name, start, end,
parent span) in flat in-memory arrays, and keeps counters taken at the same
boundaries.  Spans are written out once, at the end, as an ``.npz`` file.
Nothing under ``src/physeg`` is modified; ``uninstall`` restores every
original attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array
from collections import Counter

# (module, attribute, span name): every place a caller looks a function up.
PATCHES = (
    ("physeg.benchmark", "build_demo", "benchmark.build_demo"),
    ("physeg.benchmark", "load_manifest", "benchmark.load_manifest"),
    ("physeg.benchmark", "evaluate_rows", "benchmark.evaluate_rows"),
    ("physeg.cli", "extract_graph", "extraction.extract_graph"),
    ("physeg.cli", "load_graph", "priors.load_graph"),
    ("physeg.benchmark", "load_graph", "priors.load_graph"),
    ("physeg.inference", "interval_distance_grid", "priors.interval_distance_grid"),
    ("physeg.cli", "synthesize_scene", "synth.synthesize_scene"),
    ("physeg.benchmark", "synthesize_scene", "synth.synthesize_scene"),
    ("physeg.gridio", "read_grid", "gridio.read_grid"),
    ("physeg.cli", "write_grid", "gridio.write_grid"),
    ("physeg.benchmark", "write_grid", "gridio.write_grid"),
    ("physeg.cli", "read_params", "gridio.read_params"),
    ("physeg.cli", "write_params", "gridio.write_params"),
    ("physeg.cli", "train", "refiner.train"),
    ("physeg.benchmark", "train", "refiner.train"),
    ("physeg.refiner", "train", "refiner.train"),
    ("physeg.inference", "refine", "refiner.refine"),
    ("physeg.benchmark", "refine", "refiner.refine"),
    ("physeg.inference", "assemble_joint", "refiner.assemble_joint"),
    ("physeg.benchmark", "assemble_joint", "refiner.assemble_joint"),
    ("physeg.refiner", "assemble_joint", "refiner.assemble_joint"),
    ("physeg.benchmark", "mock_backbone", "refiner.mock_backbone"),
    ("physeg.cli", "evaluate_losses", "refiner.evaluate_losses"),
    ("physeg.refiner", "total_loss", "losses.total_loss"),
    ("physeg.losses", "seg_loss", "losses.seg_loss"),
    ("physeg.losses", "region_stats", "losses.region_stats"),
    ("physeg.losses", "region_loss", "losses.region_loss"),
    ("physeg.losses", "phys_loss_soft", "losses.phys_loss_soft"),
    ("physeg.losses", "phys_loss", "losses.phys_loss"),
    ("physeg.cli", "infer", "inference.infer"),
    ("physeg.benchmark", "infer", "inference.infer"),
    ("physeg.inference", "infer", "inference.infer"),
    ("physeg.inference", "reweight", "inference.reweight"),
    ("physeg.inference", "RefinementTrace.to_jsonl", "inference.to_jsonl"),
    ("physeg.cli", "miou", "metrics.miou"),
    ("physeg.cli", "plausibility_rate", "metrics.plausibility_rate"),
    ("physeg.cli", "reliability", "metrics.reliability"),
)


def _file_mb(path):
    return os.path.getsize(path) / 1e6


def _on_extract(tracer, span, args, kwargs, result):
    _, report = result
    tracer.counts["extraction.attempts"] += sum(rec["attempts"] for rec in report.terms)
    tracer.counts["extraction.failed"] += len(report.failures)


def _on_synth(tracer, span, args, kwargs, result):
    tracer.counts["synth.mpix"] += args[0].size * len(result) / 1e6


def _on_read(tracer, span, args, kwargs, result):
    tracer.counts["gridio.read_grid_mb"] += _file_mb(args[0])


def _on_write(tracer, span, args, kwargs, result):
    tracer.counts["gridio.write_grid_mb"] += _file_mb(args[0])


def _on_reweight(tracer, span, args, kwargs, result):
    refined, graph, config = args[0], args[2], args[3]
    _, _, trace = result
    flips = len(trace.flips)
    m = len(config.available)
    tracer.counts["inference.flips"] += flips
    tracer.counts["inference.dead_pixels"] += len(trace.warnings)
    if m:
        tracer.counts["inference.pixels_reweighted"] += refined.shape[0] * refined.shape[1]
    # interval_distance_grid calls this reweight must make: one per
    # (modality, class) for the attenuation grids, two per flip and modality
    tracer.expect[span] = m * (graph.num_classes + 2 * flips)


def _on_jsonl(tracer, span, args, kwargs, result):
    tracer.counts["inference.trace_mb"] += len(result) / 1e6


HOOKS = {
    "extraction.extract_graph": _on_extract,
    "synth.synthesize_scene": _on_synth,
    "gridio.read_grid": _on_read,
    "gridio.write_grid": _on_write,
    "inference.reweight": _on_reweight,
    "inference.to_jsonl": _on_jsonl,
}


class Tracer:
    """Flat span store: parallel arrays indexed by span id, plus counters."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self.code = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.expect = {}  # span id -> expected distance-grid calls (reweight)
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def _code_of(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def record(self, name, start, end):
        """Add a finished root-level span measured by the caller."""
        self.code.append(self._code_of(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name, fn):
        code = self._code_of(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.code.append(code)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every target in PATCHES plus the entry_for_id call counter."""
        for module_name, attr, name in PATCHES:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

        from physeg.priors import PriorGraph

        original = PriorGraph.entry_for_id
        counts = self.counts

        def entry_for_id(graph, class_id):
            counts["priors.entry_for_id_calls"] += 1
            return original(graph, class_id)

        self._saved.append((PriorGraph, "entry_for_id", original))
        PriorGraph.entry_for_id = entry_for_id

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def mark(self):
        """Position to slice spans and counters recorded after this point."""
        return len(self.start), Counter(self.counts)

    def snapshot(self, since=None):
        """Spans and counter deltas recorded since ``mark()``, as numpy arrays."""
        import numpy as np

        first, base = since or (0, Counter())
        counts = Counter(self.counts)
        counts.subtract(base)
        parent = np.array(self.parent[first:], dtype=np.int64) - first
        parent[parent < 0] = -1
        return {
            "names": list(self.names),
            "code": np.array(self.code[first:], dtype=np.int64),
            "parent": parent,
            "start": np.array(self.start[first:]),
            "end": np.array(self.end[first:]),
            "expect": {k - first: v for k, v in self.expect.items() if k >= first},
            "counts": dict(counts),
        }

    def dump(self, path):
        """Write every span and counter recorded so far (end-of-run output)."""
        import numpy as np

        snap = self.snapshot()
        np.savez(
            path,
            code=snap["code"],
            parent=snap["parent"],
            start=snap["start"],
            end=snap["end"],
            expect=np.array(sorted(snap["expect"].items()), dtype=np.int64).reshape(-1, 2),
            meta=np.array(json.dumps({"names": snap["names"], "counts": snap["counts"]})),
        )


def load(path):
    """Read a file written by ``Tracer.dump`` back into snapshot form."""
    import numpy as np

    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        return {
            "names": meta["names"],
            "code": data["code"],
            "parent": data["parent"],
            "start": data["start"],
            "end": data["end"],
            "expect": {int(k): int(v) for k, v in data["expect"]},
            "counts": meta["counts"],
        }


# Per-layer metrics reported by a traced run: name -> unit.  ``<span>_ms`` is
# busy time per pass, ``<span>_self_ms`` that time minus wrapped children
# (``refiner.train_self_ms``: minus its ``total_loss`` children only) and
# ``<span>_calls`` the number of calls; the rest are counters or derived.
LAYER_METRICS = {
    "cli.startup_ms": "ms",
    "benchmark.build_demo_ms": "ms",
    "benchmark.load_manifest_ms": "ms",
    "benchmark.evaluate_rows_ms": "ms",
    "extraction.extract_graph_ms": "ms",
    "extraction.attempts": "count",
    "extraction.failed": "count",
    "priors.load_graph_ms": "ms",
    "priors.interval_distance_grid_calls": "count",
    "priors.interval_distance_grid_ms": "ms",
    "priors.entry_for_id_calls": "count",
    "synth.synthesize_scene_ms": "ms",
    "synth.mpix": "Mpix",
    "gridio.read_grid_ms": "ms",
    "gridio.read_grid_mb": "MB",
    "gridio.write_grid_ms": "ms",
    "gridio.write_grid_mb": "MB",
    "gridio.read_params_ms": "ms",
    "gridio.write_params_ms": "ms",
    "refiner.train_ms": "ms",
    "refiner.train_self_ms": "ms",
    "refiner.train_steps": "count",
    "refiner.refine_ms": "ms",
    "refiner.refine_calls": "count",
    "refiner.assemble_joint_ms": "ms",
    "refiner.mock_backbone_ms": "ms",
    "refiner.evaluate_losses_ms": "ms",
    "losses.total_loss_ms": "ms",
    "losses.total_loss_calls": "count",
    "losses.seg_loss_ms": "ms",
    "losses.region_stats_ms": "ms",
    "losses.region_loss_ms": "ms",
    "losses.phys_loss_soft_ms": "ms",
    "losses.phys_loss_ms": "ms",
    "inference.infer_ms": "ms",
    "inference.reweight_ms": "ms",
    "inference.reweight_self_ms": "ms",
    "inference.flips": "count",
    "inference.flip_frac": "ratio",
    "inference.dead_pixels": "count",
    "inference.to_jsonl_ms": "ms",
    "inference.trace_mb": "MB",
    "metrics.miou_ms": "ms",
    "metrics.plausibility_rate_ms": "ms",
    "metrics.reliability_ms": "ms",
    "trace.overhead_s": "s",
}


def summarize(snaps):
    """Per-layer metrics of one pass from its span snapshots.

    Returns (metrics without ``trace.overhead_s``, number of physical
    re-weightings whose distance-grid calls differ from the expected count).
    """
    import numpy as np

    total, own, calls, counts = Counter(), Counter(), Counter(), Counter()
    startups, steps, train_self, mismatched = [], 0, 0.0, 0
    for snap in snaps:
        names, code, parent = snap["names"], snap["code"], snap["parent"]
        dur = snap["end"] - snap["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(code))
        for c, name in enumerate(names):
            sel = code == c
            calls[name] += int(sel.sum())
            total[name] += float(dur[sel].sum())
            own[name] += float((dur - child)[sel].sum())
        ids = {name: c for c, name in enumerate(names)}
        parent_code = np.where(nested, code[np.maximum(parent, 0)], -1)
        if "cli.startup" in ids:
            startups += (dur[code == ids["cli.startup"]] * 1e3).tolist()
        if "refiner.train" in ids:
            train = code == ids["refiner.train"]
            # train minus only its total_loss children: forward, backward, update
            loss = (code == ids.get("losses.total_loss", -1)) & (parent_code == ids["refiner.train"])
            loss_time = np.bincount(parent[loss], weights=dur[loss], minlength=len(code))
            train_self += float((dur - loss_time)[train].sum())
            steps += int(loss.sum())
        if snap["expect"]:
            made = np.zeros(len(code), dtype=np.int64)
            if "priors.interval_distance_grid" in ids:
                sel = (code == ids["priors.interval_distance_grid"]) & nested
                made = np.bincount(parent[sel], minlength=len(code))
            mismatched += sum(int(made[span]) != want for span, want in snap["expect"].items())
        counts.update(snap["counts"])

    out = {}
    for metric in LAYER_METRICS:
        span = metric.rsplit("_", 1)[0]
        if metric.endswith("_self_ms"):
            out[metric] = own[metric[: -len("_self_ms")]] * 1e3
        elif metric.endswith("_ms"):
            out[metric] = total[metric[: -len("_ms")]] * 1e3
        elif metric.endswith("_calls") and span in calls:
            out[metric] = calls[span]
        else:
            out[metric] = counts.get(metric, 0)
    out["cli.startup_ms"] = float(np.median(startups)) if startups else 0.0
    out["refiner.train_steps"] = steps
    out["refiner.train_self_ms"] = train_self * 1e3
    pixels = counts.get("inference.pixels_reweighted", 0)
    out["inference.flip_frac"] = counts.get("inference.flips", 0) / pixels if pixels else 0.0
    del out["trace.overhead_s"]
    return out, mismatched
