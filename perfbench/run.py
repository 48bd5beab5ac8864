"""physeg benchmark: one workload, measured for a fixed time, one JSON result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload train-infer-256 --seed 0 --seconds 45 --trace 0

Set-up runs ``setup_reps`` times and ``setup_s`` is its median, each time
adjusted to the reference host speed (``hostref.py``).  Then
fixed-work passes run back to back until the next one would end after
``--seconds``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` every other pass is traced and the
last line carries the per-layer metrics (plus the tracing overhead).  The
line before it is a full report: environment, every metric with unit,
direction and sample count, workload-specific figures and any failed checks.

Every process gets one BLAS/OpenMP thread.  Work files live under
``.perfbench/`` in the checkout; spans of traced runs are kept there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# End-to-end metrics every workload reports: name -> (unit, better).  Times
# are at the reference host speed (hostref.py): each step's time scaled by a
# fixed reference computation timed just before and after it, because the
# machine this was tuned on slows all code by up to 1.9x for minutes at a
# time.  ``wall_s`` is a pass with each kind of step at its median.  Raw
# times are in the report.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "infer_phys_ms_p50": ("ms", "lower"),
    "infer_vis_ms_p50": ("ms", "lower"),
    "miou": ("ratio", "higher"),
    "plausibility": ("ratio", "higher"),
}


def git_commit():
    """HEAD of the checkout's own .git, or None when it is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "physeg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{key: os.environ[key] for key in THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def measure(wl, seconds, trace):
    """Set up ``setup_reps`` times, then run passes for about ``seconds``.

    Returns ([(raw, adjusted) set-up seconds], passes).
    """
    from hostref import at_reference_speed, reference_seconds

    reference_seconds()  # the first call pays one-time allocation costs
    setups = []
    for _ in range(wl.scale.setup_reps):
        before = reference_seconds()
        t0 = time.perf_counter()
        wl.setup()
        raw = time.perf_counter() - t0
        setups.append((raw, at_reference_speed(raw, before, reference_seconds())))
    passes, longest = [], 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(len(passes), trace and len(passes) % 2 == 1))
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and elapsed + longest > seconds:
            return setups, passes


def op_samples(passes, attr="adjusted"):
    """Seconds (adjusted or raw) of every operation of the untraced passes, by kind."""
    samples = {}
    for p in passes:
        if not p.traced:
            for op in p.ops:
                samples.setdefault(op.kind, []).append(getattr(op, attr))
    return samples


def report_metrics(wl, setups, passes):
    import numpy as np

    from hostref import REF_SECONDS
    from workloads import metric

    def median(values):
        return float(np.median(values))

    plain = [p for p in passes if not p.traced]
    samples, raw = op_samples(passes), op_samples(passes, "seconds")
    # every pass runs the same steps: len(times) / len(plain) of a kind per pass
    wall = sum(len(times) / len(plain) * median(times) for times in samples.values())
    values = {
        "setup_s": (median([adjusted for _, adjusted in setups]), len(setups)),
        "wall_s": (wall, len(plain)),
        "peak_rss_mb": (wl.peak_rss_mb(), 1),
        "infer_phys_ms_p50": (median(samples["infer_phys"]) * 1e3, len(samples["infer_phys"])),
        "infer_vis_ms_p50": (median(samples["infer_vis"]) * 1e3, len(samples["infer_vis"])),
        "miou": (wl.miou(), 1),
        "plausibility": (wl.plausibility(), 1),
    }
    metrics = {
        name: dict(metric(value, *END_TO_END[name], n), gated=True)
        for name, (value, n) in values.items()
    }
    refs = [r for p in plain for r in p.refs]
    extras = {
        "host_slowdown": metric(median(refs) / REF_SECONDS, "ratio", "lower", len(refs)),
        "setup_raw_s": metric(median([r for r, _ in setups]), "s", "lower", len(setups)),
        "wall_raw_s_p50": metric(median([p.wall for p in plain]), "s", "lower", len(plain)),
        "infer_phys_raw_ms_p50": metric(median(raw["infer_phys"]) * 1e3, "ms", "lower",
                                        len(raw["infer_phys"])),
        "infer_vis_raw_ms_p50": metric(median(raw["infer_vis"]) * 1e3, "ms", "lower",
                                       len(raw["infer_vis"])),
        **wl.extra_metrics(samples),
    }
    for name, m in extras.items():
        metrics[name] = dict(m, gated=False)
    return metrics


def layer_metrics(passes):
    """Median over traced passes of each per-layer metric, plus the overhead."""
    import numpy as np

    import spans

    traced = [p for p in passes if p.traced]
    rows = []
    for p in traced:
        row, bad = spans.summarize(p.snaps)
        rows.append(row)
        if bad:
            for op in p.ops:
                if op.kind == "infer_phys":
                    op.problems.append(f"{bad} re-weightings made an unexpected number of distance calls")
    metrics = {
        name: {"value": float(np.median([row[name] for row in rows])),
               "unit": spans.LAYER_METRICS[name], "samples": len(rows)}
        for name in rows[0]
    }
    overhead = float(np.median([p.wall for p in traced])
                     - np.median([p.wall for p in passes if not p.traced]))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "samples": len(rows)}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest input sizes (benchmark self-test only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "physeg", "cli.py")):
        print(f"error: no physeg sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREADS)  # before numpy loads OpenBLAS
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    run_dir = os.path.join(WORK, "run-" + args.workload)
    spans_dir = os.path.join(WORK, "spans", args.workload)
    for path in (run_dir, spans_dir) if args.trace else (run_dir,):
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](run_dir, spans_dir, args.seed, scale, env)
    try:
        setups, passes = measure(wl, args.seconds, bool(args.trace))
        wl.close()
        layers = layer_metrics(passes) if args.trace else {}
        if args.trace:
            wl.dump_spans()
        e2e = report_metrics(wl, setups, passes)
    finally:
        wl.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.problems]
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "failed_frac": {"value": len(failed) / len(ops), "unit": "ratio", "better": "lower",
                        "samples": len(ops)},
        "problems": [f"{op.kind}: {msg}" for op in failed for msg in op.problems][:20],
        "setup_seconds": [raw for raw, _ in setups],
        "setup_seconds_adjusted": [adjusted for _, adjusted in setups],
        "pass_seconds": [p.wall for p in passes if not p.traced],
        "op_seconds": op_samples(passes, "seconds"),
        "op_seconds_adjusted": op_samples(passes),
        "metrics": e2e,
        "layers": layers,
    }
    chosen = layers if args.trace else e2e
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in chosen.items()
                    if args.trace or m["gated"]},
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
