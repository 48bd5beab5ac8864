"""The physeg benchmark workloads, each a closed loop of fixed-work passes.

One client, one process at a time: every step waits for the previous one.
A pass always does the same work for a given seed, so exact counts repeat
from pass to pass and artifact digests must match pass 0.  Correctness
checks run after each step's timer has stopped.

- ``train-infer-256``: one process, no files; 256x256 training, a loop of
  physical- and visual-mode ``infer`` calls (the array-bound regime), then
  the 32x32 ablation ladder (per-call Python overhead).
- ``cli-io-256``: ``pckg extract`` and 256x256 ``synth``/``refine``/``eval``
  commands, one ``python -m physeg.cli`` process each: ASCII grid I/O and
  process start-up; no training in the measured phase.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# timed calls go through the module attributes, so span wrappers apply ...
import physeg.inference as inference
import physeg.refiner as refiner
from physeg import benchmark
from physeg.extraction import fixture_filename
from physeg.gridio import read_params, write_grid, write_params
from physeg.inference import AttenuationConfig
from physeg.losses import LossWeights
from physeg.metrics import miou, plausibility_rate
from physeg.priors import serialize_pckg
# ... while the checks' own calls use names bound here, which stay unwrapped
from physeg.refiner import Scene, TrainConfig, assemble_joint, mock_backbone, refine
from physeg.synth import SynthConfig, synthesize_scene

import spans
from hostref import at_reference_speed, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
LAUNCHER = os.path.join(HERE, "launcher.py")
COMMAND_TIMEOUT_S = 120
SCENES = 3
PROB_SUM_TOL = 1e-9
PARAMS_SEED = 0
# A 45 s run of train-infer-256 holds 36-45 infer calls per mode (9 a pass),
# so p70 leaves at least 10 samples beyond it; the report gives the count.
TAIL_PERCENTILE = 70


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``SMOKE`` is the smallest size, used by the self-test."""

    size: int = 256  # side of the 256x256 workloads
    train_epochs: int = 4  # train-infer-256: epochs per pass
    sweeps: int = 3  # train-infer-256: infer sweeps over the scenes per pass
    setup_reps: int = 3


FULL = Scale()
SMOKE = Scale(size=64, train_epochs=1, sweeps=1, setup_reps=1)


@dataclass
class Op:
    """One timed operation of a pass and the problems its checks found."""

    kind: str
    seconds: float
    problems: list = field(default_factory=list)
    adjusted: float = 0.0  # seconds at the reference host speed (hostref)


@dataclass
class Pass:
    """The ops of one pass; ``start_op`` before each op, ``finish`` at the end."""

    traced: bool
    wall: float = 0.0
    ops: list = field(default_factory=list)
    snaps: list = field(default_factory=list)  # span snapshots (traced passes)
    refs: list = field(default_factory=list)  # reference seconds between ops

    def start_op(self):
        self.refs.append(reference_seconds())

    def finish(self):
        """Adjust each op by the reference times just before and after it."""
        self.start_op()
        for op, before, after in zip(self.ops, self.refs, self.refs[1:]):
            op.adjusted = at_reference_speed(op.seconds, before, after)
        self.wall = sum(op.seconds for op in self.ops)


def metric(value, unit, better, samples):
    """A report metric that is not gated."""
    return {"value": value, "unit": unit, "better": better, "samples": samples}


def sha256_files(base, paths):
    """Digest of the named files, and of every file under named directories."""
    h = hashlib.sha256()
    for rel in paths:
        full = os.path.join(base, rel)
        files = [full]
        if os.path.isdir(full):
            files = sorted(
                os.path.join(d, f) for d, _, fs in os.walk(full) for f in fs
            )
        for path in files:
            h.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def read_pgrd(path):
    """Independent PGRD parser, so checks do not trust the program's reader."""
    with open(path, encoding="ascii") as fh:
        head = fh.readline().split()
        body = fh.read().split()
    dims = [int(t) for t in head[2:]]
    arr = np.array(body, dtype=np.int64 if head[1] == "LABEL" else np.float64)
    if len(dims) == 3:
        h, w, c = dims
        return arr.reshape(c, h, w).transpose(1, 2, 0)
    return arr.reshape(dims)


def output_problems(probs, labels, num_classes):
    problems = []
    if not np.all(np.isfinite(probs)):
        problems.append("non-finite probabilities")
    elif np.max(np.abs(probs.sum(axis=2) - 1.0)) > PROB_SUM_TOL:
        problems.append("probabilities do not sum to 1 within 1e-9")
    if labels.min() < 1 or labels.max() > num_classes:
        problems.append(f"labels outside 1..{num_classes}")
    return problems


def pre_labels(params, features, coarse, rasters, graph):
    """Argmax of the refinement head before re-weighting, recomputed here."""
    z = assemble_joint(features, coarse, rasters, graph)
    y1, _ = refine(params, z, coarse)
    return np.argmax(y1, axis=2) + 1


def demo_scenes(graph, seed, size):
    """The demo scenes in memory, with the seeds ``benchmark.build_demo`` uses."""
    scenes = []
    for k in range(SCENES):
        labels = benchmark.demo_labels(k, size=size)
        rasters = synthesize_scene(
            labels, graph, {"NDVI", "DEM", "SAR"}, SynthConfig(seed=seed * 1000 + k)
        )
        features, coarse = mock_backbone(
            labels, graph, (benchmark.AMBIGUOUS_PAIR,), seed=seed * 1000 + 500 + k
        )
        scenes.append(Scene(features, coarse, rasters, labels))
    return scenes


def demo_train_config(seed, epochs, lambda2):
    return TrainConfig(
        seed=seed,
        epochs=epochs,
        learning_rate=benchmark.DEMO_LEARNING_RATE,
        weights=LossWeights(alpha=1.0, lambda1=0.05, lambda2=lambda2),
        modality_dropout_prob=benchmark.DEMO_DROPOUT,
        residual_scale=benchmark.DEMO_RESIDUAL_SCALE,
    )


def reweight_params(graph):
    """The ablation's ``+pckg-reweight`` parameters: 32x32 demo, lambda2 = 0.

    The head is per-pixel, so they apply unchanged to 256x256 scenes.  They
    are a fixed checkpoint (seed ``PARAMS_SEED``): trained per workload seed
    they flip anywhere from 6k to 12k pixels per 256x256 scene, so the work
    of a physical ``infer`` would depend on the seed.  With them fixed it
    flips about 10.8k pixels per scene on every seed.
    """
    scenes = demo_scenes(graph, PARAMS_SEED, 32)
    params, _ = refiner.train(
        scenes, graph, demo_train_config(PARAMS_SEED, benchmark.DEMO_EPOCHS, 0.0)
    )
    return params


class Workload:
    """Set-up, one pass, quality figures and workload-specific report metrics.

    Both workloads name their timed physical- and visual-mode inference
    operations ``infer_phys`` and ``infer_vis``.
    """

    name = ""

    def __init__(self, run_dir, spans_dir, seed, scale, env):
        self.run_dir = run_dir
        self.spans_dir = spans_dir
        self.seed = seed
        self.scale = scale
        self.env = env
        self.graph = benchmark.demo_graph()
        self.first_digests = {}
        self.quality = {}

    def extra_metrics(self, samples):
        """Workload-specific report metrics from adjusted op seconds by kind:
        name -> {value, unit, better, samples}."""
        return {}

    def dump_spans(self):
        """Write this process's spans; CLI children write their own."""

    def close(self):
        """Stop every process the workload started and wait for it."""

    def peak_rss_mb(self):
        """Peak RSS of the process(es) that ran physeg's work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def digest_problems(self, key, digest):
        first = self.first_digests.setdefault(key, digest)
        return [] if digest == first else [f"artifact digest of {key} differs from pass 0"]


class CliIo256(Workload):
    """256x256 extract / synth / refine / eval commands: ASCII grid I/O.

    Each step is its own ``python -m physeg.cli`` process, started through
    ``launcher.py``.  In a traced pass the same arguments go through
    ``traced_cli.py``, which installs the span wrappers in the child before
    calling ``physeg.cli.main``.  Set-up writes the three 256x256 demo scenes
    that ``refine`` and ``eval`` read; the timed ``synth`` writes scene 0
    again, which keeps a pass short enough for several per run, and its
    files must equal set-up's byte for byte.
    """

    name = "cli-io-256"

    def __init__(self, *args):
        super().__init__(*args)
        self.setup_dir = os.path.join(self.run_dir, "setup")
        self.pass_dir = os.path.join(self.run_dir, "pass")
        self._pre = {}
        self._peak_rss_mb = None
        self.launcher = subprocess.Popen(
            [sys.executable, LAUNCHER], env=self.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.launcher.stdout.readline()  # wait until it has started

    def command(self, argv, cwd):
        """Run one command through the launcher: (exit code, stdout, stderr, seconds)."""
        request = {"argv": argv, "cwd": cwd, "timeout": COMMAND_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return reply["code"], reply["stdout"], reply["stderr"], reply["seconds"]

    def close(self):
        if self.launcher.poll() is None:
            self.launcher.stdin.close()
            self._peak_rss_mb = json.loads(self.launcher.stdout.readline())["peak_rss_mb"]
        self.launcher.wait()

    def peak_rss_mb(self):
        return self._peak_rss_mb

    def setup(self):
        shutil.rmtree(self.setup_dir, ignore_errors=True)
        os.makedirs(self.setup_dir)
        # offline extraction: one recorded chat response per demo term
        fixtures = os.path.join(self.setup_dir, "fixtures")
        os.makedirs(fixtures)
        for record in json.loads(serialize_pckg(self.graph)):
            path = os.path.join(fixtures, fixture_filename(record["Category"]))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2)
        write_params(
            os.path.join(self.setup_dir, "params.psp"), reweight_params(self.graph)
        )
        # the files `synth --demo --size 256 --seed <seed>` writes per scene
        benchmark.build_demo(
            os.path.join(self.setup_dir, "demo"), seed=self.seed, num_scenes=SCENES,
            size=self.scale.size,
        )
        # the SAR rasters `synth --demo --size 256 --seed <seed+1>` would
        # write: the reliability reference
        os.makedirs(os.path.join(self.setup_dir, "reference"))
        for k in range(SCENES):
            labels = benchmark.demo_labels(k, size=self.scale.size)
            sar = synthesize_scene(
                labels, self.graph, {"SAR"}, SynthConfig(seed=(self.seed + 1) * 1000 + k)
            )["SAR"]
            write_grid(os.path.join(self.setup_dir, "reference", f"scene_{k}.sar.pgrd"), "SAR", sar)
        # first start of the CLI: fills the bytecode and page caches
        code, _, err, _ = self.command([sys.executable, "-m", "physeg.cli", "--version"], self.setup_dir)
        if code != 0:
            raise RuntimeError(f"physeg.cli does not start: {err.strip()[-300:]}")

    def run_pass(self, index, traced):
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        os.makedirs(self.pass_dir)
        p = Pass(traced)
        finished = []
        for i, (kind, args, outputs, check) in enumerate(self.steps()):
            spans_path = os.path.join(self.spans_dir, f"pass{index}-step{i}.npz")
            if traced:
                argv = [sys.executable, TRACED_CLI, spans_path, *args]
            else:
                argv = [sys.executable, "-m", "physeg.cli", *args]
            p.start_op()
            code, out, err, seconds = self.command(argv, self.pass_dir)
            op = Op(kind, seconds)
            p.ops.append(op)
            finished.append((i, op, code, out, err, outputs, check, spans_path))
        p.finish()

        for i, op, code, out, err, outputs, check, spans_path in finished:
            if code != 0:
                op.problems.append(f"{op.kind} exited {code}: {err.strip()[-300:]}")
                continue
            try:
                op.problems += check(out)
                op.problems += self.digest_problems(
                    f"step {i} ({op.kind})", sha256_files(self.pass_dir, outputs)
                )
            except (OSError, ValueError, KeyError) as exc:
                op.problems.append(f"{op.kind} check failed: {exc!r}")
            if traced:
                p.snaps.append(spans.load(spans_path))
        return p

    def steps(self):
        """(kind, physeg arguments, output paths, check) for one pass."""
        demo, params = "../setup/demo", "../setup/params.psp"
        steps = [
            ("extract", ["pckg", "extract", "--vocab", ",".join(self.graph.categories),
                         "--fixtures", "../setup/fixtures", "--out", "pckg.json",
                         "--report", "extract.json"],
             ["pckg.json", "extract.json"], self.check_extract),
            ("synth", ["synth", "--demo", "--size", str(self.scale.size), "--scenes", "1",
                       "--seed", str(self.seed), "--out", "synth"], ["synth"], self.check_synth),
        ]
        for k in range(SCENES):
            out = f"refined_{k}"
            steps.append(("infer_phys", self.refine_args(demo, params, k, "physical", out),
                          [out], self.check_refine(k, True, out)))
        for k in range(SCENES):
            out = f"visual_{k}"
            steps.append(("infer_vis", self.refine_args(demo, params, k, "visual", out),
                          [out], self.check_refine(k, False, out)))
        for k in range(SCENES):
            out = f"eval_{k}.json"
            steps.append(("eval", ["eval", "--pred", f"refined_{k}/labels.pgrd",
                                   "--gt", f"{demo}/scene_{k}.labels.pgrd", "--pckg", f"{demo}/pckg.json",
                                   "--rasters", f"sar={demo}/scene_{k}.sar.pgrd",
                                   "--synthetic", f"{demo}/scene_{k}.sar.pgrd",
                                   "--reference", f"../setup/reference/scene_{k}.sar.pgrd",
                                   "--modality", "SAR", "--out", out],
                          [out], self.check_eval(k, out)))
        return steps

    def refine_args(self, demo, params, k, mode, out):
        return [
            "refine", "--params", params, "--pckg", f"{demo}/pckg.json",
            "--features", f"{demo}/scene_{k}.features.pgrd",
            "--coarse", f"{demo}/scene_{k}.coarse.pgrd",
            "--rasters", f"sar={demo}/scene_{k}.sar.pgrd",
            "--mode", mode, "--out", out,
        ]

    def check_extract(self, stdout):
        with open(os.path.join(self.pass_dir, "pckg.json"), encoding="utf-8") as fh:
            same = fh.read() == serialize_pckg(self.graph)
        problems = [] if same else ["extracted graph differs from demo_graph()"]
        if json.loads(stdout)["failed"]:
            problems.append("extraction reported failed terms")
        return problems

    def check_synth(self, stdout):
        demo = os.path.join(self.setup_dir, "demo")
        names = ["pckg.json"] + sorted(f for f in os.listdir(demo) if f.startswith("scene_0."))
        differ = [
            name for name in names
            if sha256_files(demo, [name]) != sha256_files(os.path.join(self.pass_dir, "synth"), [name])
        ]
        return [f"synth wrote {name} unlike build_demo" for name in differ]

    def check_refine(self, k, physical, out_dir):
        def check(stdout):
            report = json.loads(stdout)
            base = os.path.join(self.pass_dir, out_dir)
            probs = read_pgrd(os.path.join(base, "probs.pgrd"))
            labels = read_pgrd(os.path.join(base, "labels.pgrd"))
            problems = output_problems(probs, labels, self.graph.num_classes)
            with open(os.path.join(base, "trace.jsonl"), encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            if lines != report["flips"] + report["warnings"]:
                problems.append(f"trace.jsonl has {lines} lines for {report['flips']} flips")
            expected = int(np.sum(labels != self.pre(k, physical)))
            if report["flips"] != expected:
                problems.append(f"{report['flips']} flips reported, {expected} recomputed")
            if not physical and report["flips"] != 0:
                problems.append("visual mode flipped labels")
            return problems

        return check

    def pre(self, k, physical):
        """Pre-reweight labels of set-up's scene ``k``, computed once, untimed."""
        if (k, physical) not in self._pre:
            base = os.path.join(self.setup_dir, "demo")
            grid = lambda part: read_pgrd(os.path.join(base, f"scene_{k}.{part}.pgrd"))
            self._pre[k, physical] = pre_labels(
                read_params(os.path.join(self.setup_dir, "params.psp")),
                grid("features"), grid("coarse"),
                {"SAR": grid("sar")} if physical else {},
                self.graph,
            )
        return self._pre[k, physical]

    def check_eval(self, k, out):
        def check(stdout):
            with open(os.path.join(self.pass_dir, out), encoding="utf-8") as fh:
                payload = json.load(fh)
            self.quality.setdefault("eval_miou", {})[k] = payload["miou"]
            self.quality.setdefault("plausibility", {})[k] = payload["plausibility"]["rate"]
            if not 0.0 <= payload["miou"] <= 1.0:
                return [f"eval mIoU {payload['miou']} outside [0, 1]"]
            return []

        return check

    def miou(self):
        return float(np.mean(list(self.quality["eval_miou"].values())))

    def plausibility(self):
        return float(np.mean(list(self.quality["plausibility"].values())))

    def extra_metrics(self, samples):
        synth = samples["synth"]
        return {"synth_cmd_s": metric(float(np.median(synth)), "s", "lower", len(synth))}


class TrainInfer256(Workload):
    """In-process 256x256 training, physical/visual ``infer``, 32x32 ablation."""

    name = "train-infer-256"
    MODES = (("phys", ("SAR",)), ("vis", ()))

    def __init__(self, *args):
        super().__init__(*args)
        self.tracer = spans.Tracer()
        self._pre = {}

    def setup(self):
        self.scenes = demo_scenes(self.graph, self.seed, self.scale.size)
        self.demo = demo_scenes(self.graph, self.seed, 32)
        self.params = reweight_params(self.graph)

    def _reference(self):
        """Pre-reweight labels per (scene, mode), computed once, untimed."""
        if not self._pre:
            for k, scene in enumerate(self.scenes):
                for mode, available in self.MODES:
                    rasters = {m: scene.rasters[m] for m in available}
                    self._pre[k, mode] = pre_labels(
                        self.params, scene.features, scene.coarse, rasters, self.graph
                    )

    def run_pass(self, index, traced):
        self._reference()
        p = Pass(traced)
        if traced:
            mark = self.tracer.mark()
            self.tracer.install()
        try:
            self._timed_steps(p)
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            p.snaps.append(self.tracer.snapshot(mark))
        p.finish()
        return p

    @staticmethod
    def _timed(p, kind, fn, *args):
        """Time one call as an op of ``p``; a raise fails the op (result None)."""
        p.start_op()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any raise is a failed operation, not a crash
            p.ops.append(Op(kind, time.perf_counter() - t0, [f"{kind} raised {exc!r}"]))
            return p.ops[-1], None
        p.ops.append(Op(kind, time.perf_counter() - t0))
        return p.ops[-1], result

    def _timed_steps(self, p):
        config = demo_train_config(self.seed, self.scale.train_epochs, 0.40)
        op, out = self._timed(p, "train", refiner.train, self.scenes, self.graph, config)
        if out is not None:
            params, history = out
            if len(history) != config.epochs:
                op.problems.append(f"{len(history)} updates for {config.epochs} epochs")
            params_bytes = b"".join(a.tobytes() for a in (params.w1, params.b1, params.w2, params.b2))
            if not np.all(np.isfinite(np.frombuffer(params_bytes))):
                op.problems.append("non-finite parameters")
            op.problems += self.digest_problems("train", hashlib.sha256(params_bytes).hexdigest())

        for _ in range(self.scale.sweeps):
            for k, scene in enumerate(self.scenes):
                for mode, available in self.MODES:
                    op, out = self._timed(
                        p, f"infer_{mode}", inference.infer, self.params, scene.features,
                        scene.coarse, {"SAR": scene.rasters["SAR"]}, self.graph,
                        AttenuationConfig(available=available),
                    )
                    if out is not None:
                        op.problems += self._check_infer(k, mode, *out, scene)

        # the 4-row ladder of `physeg ablate` on the 32x32 demo
        op, table = self._timed(p, "ablate", benchmark.evaluate_rows, self.graph, self.demo, {}, self.seed)
        if table is not None:
            if not table["ordering_ok"]:
                op.problems.append("ablation ordering_ok is false")
            op.problems += self.digest_problems("ablate", json.dumps(table["rows"], sort_keys=True))

    def _check_infer(self, k, mode, labels, probs, trace, scene):
        problems = output_problems(probs, labels, self.graph.num_classes)
        expected = int(np.sum(labels != self._pre[k, mode]))
        if len(trace.flips) != expected:
            problems.append(f"{len(trace.flips)} flips traced, {expected} recomputed")
        if mode == "vis" and trace.flips:
            problems.append("visual mode flipped labels")
        digest = hashlib.sha256(labels.tobytes() + probs.tobytes()).hexdigest()
        problems += self.digest_problems(f"infer scene {k} {mode}", digest)
        if mode == "phys" and k not in self.quality:
            rate, _ = plausibility_rate(labels, {"SAR": scene.rasters["SAR"]}, self.graph)
            self.quality[k] = (miou(labels, scene.labels, self.graph.num_classes).miou, rate)
        return problems

    def miou(self):
        return float(np.mean([q[0] for q in self.quality.values()]))

    def plausibility(self):
        return float(np.mean([q[1] for q in self.quality.values()]))

    def extra_metrics(self, samples):
        steps = self.scale.train_epochs * len(self.scenes)
        rates = [steps / s for s in samples["train"]]
        ablate = samples["ablate"]
        out = {
            "train_steps_per_s": metric(float(np.median(rates)), "1/s", "higher", len(rates)),
            "ablate_s": metric(float(np.median(ablate)), "s", "lower", len(ablate)),
        }
        for mode in ("phys", "vis"):
            ms = np.array(samples[f"infer_{mode}"]) * 1e3
            tail = float(np.percentile(ms, TAIL_PERCENTILE))
            out[f"infer_{mode}_ms_tail"] = dict(
                metric(tail, "ms", "lower", len(ms)),
                percentile=TAIL_PERCENTILE, beyond=int(np.sum(ms > tail)),
            )
        return out

    def dump_spans(self):
        self.tracer.dump(os.path.join(self.spans_dir, "spans.npz"))


WORKLOADS = {w.name: w for w in (TrainInfer256, CliIo256)}
