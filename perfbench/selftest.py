"""Self-test of the benchmark at the smallest input size: output schema only.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json and both trace modes it runs
``run.py --smoke --seconds 1`` and checks that the last stdout line has
exactly the keys correct/attempted/failed/metrics, that it names every
metric BENCHMARK.json lists with the same unit, and that the report line
before it gives every metric a unit, a direction and a sample count.  It
also checks that the benchmark refuses to run without the physeg sources.
It makes no timing assertions.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
ENV_KEYS = {"python", "numpy", "blas", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "nproc", "seed", "git_commit", "src_sha256"}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def schema_errors(proc, expected, trace):
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("attempted is not a whole number >= 1")
    if not isinstance(result["failed"], int):
        errors.append("failed is not a whole number")
    if set(result["metrics"]) != set(expected):
        errors.append(f"metric names differ: {sorted(set(result['metrics']) ^ set(expected))}")
    for name, unit in expected.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{name}: {got} does not carry a number in {unit}")
    if not ENV_KEYS <= set(report["environment"]):
        errors.append(f"environment lacks {sorted(ENV_KEYS - set(report['environment']))}")
    described = dict(report["metrics"], failed_frac=report["failed_frac"])
    for name, m in described.items():
        if m.get("better") not in ("lower", "higher") or not m.get("unit"):
            errors.append(f"report metric {name} lacks unit or direction")
        if not isinstance(m.get("samples"), int):
            errors.append(f"report metric {name} lacks a sample count")
        if name.endswith("_tail") and not {"percentile", "beyond"} <= set(m):
            errors.append(f"report metric {name} lacks its percentile or samples beyond it")
    for name, m in report["layers"].items():
        if not m.get("unit") or not isinstance(m.get("samples"), int):
            errors.append(f"layer metric {name} lacks unit or sample count")
    if trace and set(report["layers"]) != set(expected):
        errors.append("report layers differ from the per-layer metrics")
    return errors


def bare_checkout_errors(workload):
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(workload, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["ran without the physeg sources"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    names = [w["name"] for w in bench["workloads"]]
    failures = [f"bare checkout: {e}" for e in bare_checkout_errors(names[0])]
    for workload in names:
        for trace in (0, 1):
            errors = schema_errors(run(workload, trace), expected[trace], trace)
            failures += [f"{workload} --trace {trace}: {e}" for e in errors]
            print(f"{workload} --trace {trace}: {'ok' if not errors else 'FAILED'}", flush=True)
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
