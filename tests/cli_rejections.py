"""Every command line physeg must reject, as one table of rows.

Each row runs as ``physeg <argv> --out out`` in an empty directory and must
exit with its code, print nothing to stdout, print one JSON error line whose
message is the row's (exact text, or a tuple of words it must contain), and
leave the directory as it found it. ``{name}`` in an argv or a message is the
path of a file fixture, built once by ``SETUP[name]``. A row's
``never_called`` names callables that the in-process run patches and
requires to stay uncalled.

tests/test_cli.py runs the rows through ``physeg.cli.main``.

    python tests/cli_rejections.py --installed

runs them against the ``physeg`` script on PATH and prints each failing
row's id with its expected and actual exit codes and messages.
"""

from __future__ import annotations

import contextlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple


class Row(NamedTuple):
    id: str
    argv: str
    message: str | tuple
    code: int = 1
    error: str | None = None
    config: object = None
    never_called: tuple = ()


def _cli(*argv):
    from physeg.cli import main

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if main(list(argv)) != 0:
            raise RuntimeError(f"fixture command failed: physeg {' '.join(argv)}")


def _write(path, text, encoding="utf-8"):
    with open(path, "wb") as fh:
        fh.write(text.encode(encoding))


def _text(text, encoding="utf-8"):
    return lambda fx, path: _write(path, text, encoding)


def _manifest(document):
    def build(fx, path):
        os.makedirs(path)
        shutil.copy(os.path.join(fx["demo"], "pckg.json"), path)
        _write(os.path.join(path, "manifest.json"), document)

    return build


def _nan_first_value(source):
    def build(fx, path):
        with open(source.format_map(fx)) as fh:
            lines = fh.read().splitlines()
        lines[1] = "nan " + lines[1].split(" ", 1)[1]
        _write(path, "\n".join(lines) + "\n")

    return build


def _nan_demo(fx, path):
    # the demo with column 16 of scene 0's SAR raster not measured
    shutil.copytree(fx["demo"], path)
    sar = os.path.join(path, "scene_0.sar.pgrd")
    with open(sar) as fh:
        head, *rows = fh.read().splitlines()
    rows = [" ".join(cells[:16] + ["nan"] + cells[17:]) for cells in map(str.split, rows)]
    _write(sar, "\n".join([head, *rows]) + "\n")


VALID_ENTRY = {
    "Category": "water",
    "Meaning": "open water",
    "Modifier Analysis": "none",
    "Coarse Class": "water",
    "NDVI Range": [-0.50, 0.10],
    "DEM Range": [0.00, 50.00],
    "SAR Range": [-25.00, -15.00],
    "Reasoning": "radar mirrors away",
}

SETUP = {
    "demo": lambda fx, path: _cli("synth", "--demo", "--out", path, "--seed", "0"),
    "params": lambda fx, path: _cli(
        "train", "--manifest", f"{fx['demo']}/manifest.json", "--epochs", "5", "--out", path
    ),
    "graph_empty": _text(""),
    "graph_text": _text("not json"),
    "graph_latin1": _text("é", "latin-1"),
    "graph_schema": _text(json.dumps([{"Category": "water"}])),
    "graph_inverted": _text(json.dumps([dict(VALID_ENTRY, **{"NDVI Range": [0.6, 0.2]})])),
    "labels_9": _text("PGRD LABEL 4 4\n" + "9 9 9 9\n" * 4),
    "labels_non_ascii": _text("PGRD LABEL 1 2\n1 é\n"),
    "labels_empty": _text("PGRD LABEL 0 0\n"),
    "params_nan": _nan_first_value("{params}"),
    "features_nan": _nan_first_value("{demo}/scene_0.features.pgrd"),
    "nan_demo": _nan_demo,
    "no_fixtures": lambda fx, path: os.makedirs(path),
    "manifest_list": _manifest("[]"),
    "manifest_scenes_int": _manifest('{"pckg": "pckg.json", "scenes": 3}'),
    "manifest_no_scenes": _manifest('{"pckg": "pckg.json", "scenes": []}'),
    "manifest_scene_int": _manifest('{"pckg": "pckg.json", "scenes": [1]}'),
    "manifest_scene_empty": _manifest('{"pckg": "pckg.json", "scenes": [{}]}'),
    "manifest_scene_rasters_list": _manifest(json.dumps({"pckg": "pckg.json", "scenes": [
        {"features": "f.pgrd", "coarse": "c.pgrd", "labels": "l.pgrd", "rasters": {}},
        {"features": "f.pgrd", "coarse": "c.pgrd", "labels": "l.pgrd", "rasters": ["s.pgrd"]},
    ]})),
    "manifest_scene_path_int": _manifest(json.dumps({"pckg": "pckg.json", "scenes": [
        {"features": 1, "coarse": "c.pgrd", "labels": "l.pgrd", "rasters": {"SAR": 5}},
    ]})),
}


class Fixtures(dict):
    """Fixture paths by name, each built under ``root`` on first use."""

    def __init__(self, root, **given):
        super().__init__({name: str(path) for name, path in given.items()})
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def __missing__(self, name):
        path = os.path.join(self.root, name)
        SETUP[name](self, path)
        self[name] = path
        return path


POST_CHAT = ("physeg.extraction._post_chat",)
LOSS_STEP = ("physeg.refiner.loss_step",)
READ_GRID = ("physeg.cli.read_grid_as",)
LOAD_GRAPH = ("physeg.benchmark.load_graph",)

LIVE = "pckg extract --vocab water --live --endpoint http://127.0.0.1:9/v1 --retries 0"
MASK = "synth --pckg {demo}/pckg.json --labels"
TRAIN = "train --manifest {demo}/manifest.json"
SCENE = "--pckg {demo}/pckg.json --features {demo}/scene_0.features.pgrd --coarse {demo}/scene_0.coarse.pgrd"
REFINE = f"refine --params {{params}} {SCENE}"
SAR = "--rasters sar={demo}/scene_0.sar.pgrd"
SAR_TWICE = "sar={demo}/scene_0.sar.pgrd,SAR={demo}/scene_0.sar.pgrd"
LABELS = "{demo}/scene_0.labels.pgrd"
EVAL = f"eval --pckg {{demo}}/pckg.json --pred {LABELS} --gt {LABELS}"
NAN_SCENE = SCENE.replace("{demo}", "{nan_demo}") + " --rasters sar={nan_demo}/scene_0.sar.pgrd"
NAN_EVAL = EVAL.replace("{demo}", "{nan_demo}")
NAN_CELLS = "raster 'SAR' has 32 non-finite cells"
# every path these name is missing: the flag combination is rejected before any read
STUB_REFINE = "refine --params p.psp --pckg g.json --features f.pgrd --coarse c.pgrd"
STUB_EVAL = "eval --pred p.pgrd --gt g.pgrd --pckg g.json"
NOT_USED = "config file config.json sets keys the command does not read: "
NO_MODALITY = (
    "refine --mode physical re-weights with at least one modality: pass --rasters, or use --mode visual"
)
BAD_MANIFEST = "manifest must be a JSON object with a 'scenes' list and a 'pckg' string"

ROWS = [
    # pckg validate
    Row("validate-inverted-interval", "pckg validate --pckg {graph_inverted}",
        "{graph_inverted}: category 'water': field 'NDVI Range': inverted interval [0.60, 0.20]",
        error="PriorValidationError"),
    Row("validate-missing-file", "pckg validate --pckg nope.json",
        "[Errno 2] No such file or directory: 'nope.json'", error="FileNotFoundError"),
    # pckg extract
    Row("extract-needs-vocab", "pckg extract", "pckg extract needs --vocab or --vocab-file"),
    Row("extract-missing-fixture", "pckg extract --vocab water --fixtures {no_fixtures}",
        "all 1 vocabulary terms failed with transport errors", code=3, error="TransportError"),
    *(
        Row(f"extract-timeout-{value}", f"{LIVE} --timeout {value}",
            f"request_timeout must be finite and > 0, got {float(value)}", never_called=POST_CHAT)
        for value in ("inf", "nan", "-1", "0")
    ),
    Row("extract-vocab-both", "pckg extract --vocab water --vocab-file v.txt",
        "pckg extract --vocab-file without --live does not use --vocab"),
    Row("extract-fixtures-endpoint-timeout-model",
        "pckg extract --vocab water --fixtures fx --endpoint http://localhost:9/v1 --timeout 3 --model m",
        "pckg extract --vocab without --live does not use --endpoint, --timeout, --model"),
    Row("extract-fixtures-config-model", "pckg extract --vocab water --fixtures fx --config config.json",
        "pckg extract --vocab without --live does not use --model", config={"model": "m"}),
    Row("extract-live-fixtures",
        "pckg extract --vocab water --live --endpoint http://localhost:9/v1 --fixtures fx",
        "pckg extract --vocab --live does not use --fixtures"),
    # synth --demo
    *(
        Row(f"demo-{key}", f"synth --demo {flags}", f"synth --demo does not use {unused}")
        for key, flags, unused in (
            ("noise", "--noise uniform", "--noise"),
            ("smoothing", "--smoothing 3", "--smoothing"),
            ("modalities", "--modalities SAR", "--modalities"),
            ("pckg-labels", "--pckg missing.json --labels missing.pgrd", "--pckg, --labels"),
        )
    ),
    Row("demo-config-noise-smoothing", "synth --demo --config config.json",
        "synth --demo does not use --noise, --smoothing", config={"noise": "uniform", "smoothing": 3}),
    Row("demo-config-modalities", "synth --demo --config config.json",
        "synth --demo does not use --modalities", config={"modalities": "SAR", "seed": 2}),
    Row("demo-scenes-negative", "synth --demo --scenes -2", "scenes must be >= 1, got -2"),
    Row("demo-scenes-zero", "synth --demo --scenes 0", "scenes must be >= 1, got 0"),
    *(
        Row(f"demo-size-{value}", f"synth --demo --size {value}",
            f"size must be >= 8 (one 8x8 class tile), got {value}")
        for value in ("0", "-8", "7")
    ),
    Row("demo-negative-seed", "synth --demo --seed -1", "seed must be >= 0, got -1"),
    # synth from a mask
    Row("synth-needs-mask", "synth", "synth needs --pckg and --labels (or --demo)"),
    Row("synth-mask-scenes-size", "synth --pckg g.json --labels l.pgrd --scenes 5 --size 64",
        "synth without --demo does not use --scenes, --size"),
    Row("synth-config-pckg-labels", "synth --config config.json",
        NOT_USED + "pckg, labels", config={"pckg": "g.json", "labels": "l.pgrd"}),
    Row("synth-negative-seed", f"{MASK} {LABELS} --seed -1", "seed must be >= 0, got -1"),
    Row("synth-repeated-modality", f"{MASK} {LABELS} --modalities SAR,SAR",
        "modality 'SAR' named more than once", never_called=READ_GRID),
    *(
        Row(f"synth-modalities-{key}", f"{MASK} {LABELS} --modalities {shlex.quote(value)}",
            "synth --modalities names no modality; omit it to synthesize all of them",
            never_called=READ_GRID)
        for key, value in (("empty", ""), ("blank", " , "))
    ),
    Row("synth-labels-class-9", f"{MASK} {{labels_9}}", "mask label 9 outside 0..4"),
    Row("synth-labels-non-ascii", f"{MASK} {{labels_non_ascii}}",
        ("{labels_non_ascii}: not an ASCII file",), error="GridFormatError"),
    Row("synth-labels-zero-size", f"{MASK} {{labels_empty}}",
        "{labels_empty}: header dimensions must be >= 1, got 0 0", error="GridFormatError"),
    Row("graph-empty", f"synth --pckg {{graph_empty}} --labels {LABELS}",
        "{graph_empty}: malformed JSON at line 1 column 1: Expecting value", error="PriorParseError"),
    Row("graph-not-json", f"synth --pckg {{graph_text}} --labels {LABELS}",
        "{graph_text}: malformed JSON at line 1 column 1: Expecting value", error="PriorParseError"),
    Row("graph-latin-1", f"synth --pckg {{graph_latin1}} --labels {LABELS}",
        ("{graph_latin1}: not a UTF-8 file",), error="PriorParseError"),
    Row("graph-missing-field", f"synth --pckg {{graph_schema}} --labels {LABELS}",
        "{graph_schema}: category 'water': missing field 'Meaning'", error="PriorSchemaError"),
    Row("graph-inverted-interval", f"synth --pckg {{graph_inverted}} --labels {LABELS}",
        "{graph_inverted}: category 'water': field 'NDVI Range': inverted interval [0.60, 0.20]",
        error="PriorValidationError"),
    # train
    Row("train-usage", "train --epochs abc", "physeg train: argument --epochs: invalid int value: 'abc'",
        error="UsageError"),
    Row("train-needs-scene", "train", "train needs --manifest or all of --pckg/--labels/--features/--coarse"),
    Row("train-pckg-labels", "train --manifest m.json --pckg g.json --labels l.pgrd",
        "train --manifest does not use --pckg, --labels"),
    Row("train-features-coarse", "train --manifest m.json --features f.pgrd --coarse c.pgrd",
        "train --manifest does not use --features, --coarse"),
    Row("train-rasters", "train --manifest m.json --rasters sar=s.pgrd",
        "train --manifest does not use --rasters"),
    Row("train-config-not-object", "train --manifest m.json --config config.json",
        "config file config.json must hold a JSON object", config=[1]),
    Row("train-config-typos", "train --manifest m.json --config config.json",
        NOT_USED + "epoch, lamda2", config={"epoch": 5, "lamda2": 1.0}),
    Row("train-config-float-bool-string", "train --manifest m.json --config config.json",
        "config file config.json: key 'epochs' must be an integer, got 2.7; key 'seed' must be"
        ' an integer, got true; key \'dropout\' must be a number, got "0.5"',
        config={"epochs": 2.7, "seed": True, "dropout": "0.5"}),
    Row("train-manifest-list", "train --manifest {manifest_list}/manifest.json",
        f"{{manifest_list}}/manifest.json: {BAD_MANIFEST}"),
    # every scene entry is checked before the graph or any grid is read
    Row("train-manifest-scene-not-object", "train --manifest {manifest_scene_int}/manifest.json",
        "{manifest_scene_int}/manifest.json: scene 0 is not a JSON object", never_called=LOAD_GRAPH),
    Row("train-manifest-scene-missing-keys", "train --manifest {manifest_scene_empty}/manifest.json",
        "{manifest_scene_empty}/manifest.json: scene 0 lacks 'features', 'coarse', 'labels', 'rasters'",
        never_called=LOAD_GRAPH),
    Row("train-manifest-scene-rasters-list", "train --manifest {manifest_scene_rasters_list}/manifest.json",
        "{manifest_scene_rasters_list}/manifest.json: scene 1 'rasters' is not a JSON object",
        never_called=LOAD_GRAPH),
    Row("train-manifest-scene-path-not-string", "train --manifest {manifest_scene_path_int}/manifest.json",
        "{manifest_scene_path_int}/manifest.json: scene 0 file paths are not strings: 'features', 'SAR'",
        never_called=LOAD_GRAPH),
    Row("train-manifest-no-scenes", "train --manifest {manifest_no_scenes}/manifest.json",
        "{manifest_no_scenes}/manifest.json: manifest lists no scenes", never_called=LOAD_GRAPH),
    Row("train-negative-seed", f"{TRAIN} --seed -1", "seed must be >= 0, got -1"),
    # a negative batch made range(0, n, batch) empty: zero steps, an untrained head
    Row("train-negative-batch", f"{TRAIN} --epochs 3 --batch-size -2",
        "batch_size must be >= 0 (0 = full batch)"),
    # nan and inf pass an `x <= 0` test; they must not reach training
    *(
        Row(f"train-{flag[2:]}-{value}", f"{TRAIN} --epochs 3 {flag} {value}", message,
            never_called=LOSS_STEP)
        for flag, value, message in (
            ("--lr", "nan", "learning_rate must be finite and > 0"),
            ("--lr", "inf", "learning_rate must be finite and > 0"),
            ("--residual-scale", "nan", "residual_scale must be finite"),
            ("--alpha", "nan", "loss weights must be finite and non-negative"),
            ("--lambda2", "inf", "loss weights must be finite and non-negative"),
        )
    ),
    Row("train-repeated-raster", f"train --labels {LABELS} {SCENE} --rasters {SAR_TWICE}",
        f"raster argument '{SAR_TWICE}': modality 'SAR' named more than once"),
    Row("train-nan-raster", f"train --labels {{nan_demo}}/scene_0.labels.pgrd {NAN_SCENE}", NAN_CELLS,
        error="ValueError"),
    # refine
    Row("refine-unknown-mode", f"{STUB_REFINE} --config config.json",
        "unknown mode 'x'; expected visual or physical", config={"mode": "x"}),
    Row("refine-raster-without-path", f"{STUB_REFINE} --rasters sar",
        "raster argument 'sar' must look like sar=PATH"),
    Row("refine-unknown-raster-modality", f"{REFINE} --rasters lst=whatever.pgrd",
        "raster argument 'lst=whatever.pgrd': unknown modality 'LST'"),
    Row("refine-repeated-raster", f"{REFINE} --rasters {SAR_TWICE}",
        f"raster argument '{SAR_TWICE}': modality 'SAR' named more than once"),
    Row("refine-repeated-available", f"{REFINE} {SAR} --available SAR,SAR",
        "modality 'SAR' named more than once", never_called=READ_GRID),
    # nan would write NaN probabilities and inf would flip nothing
    *(
        Row(f"refine-{flag[2:]}-{value}", f"{REFINE} {SAR} --mode physical {flag} {value}",
            "sigma_rel and tau_rel must be finite and > 0")
        for flag, value in (("--sigma-rel", "nan"), ("--sigma-rel", "inf"), ("--tau-rel", "nan"))
    ),
    # physical is the default mode; without a modality it would write visual results
    Row("refine-no-rasters", REFINE, NO_MODALITY, never_called=READ_GRID),
    Row("refine-none-available", f"{REFINE} {SAR} --available ''", NO_MODALITY, never_called=READ_GRID),
    Row("refine-nan-params", f"refine --params {{params_nan}} {SCENE} {SAR}",
        "{params_nan}: non-finite value where finite values are required", error="GridFormatError"),
    Row("refine-nan-features",
        f"refine --params {{params}} --pckg {{demo}}/pckg.json --features {{features_nan}}"
        f" --coarse {{demo}}/scene_0.coarse.pgrd {SAR}",
        "{features_nan}: non-finite value where finite values are required", error="GridFormatError"),
    Row("refine-nan-raster", f"refine --params {{params}} {NAN_SCENE}", NAN_CELLS, error="ValueError"),
    Row("refine-visual-available", f"{STUB_REFINE} --mode visual --available SAR",
        "refine --mode visual does not use --available"),
    Row("refine-visual-sigma-tau", f"{STUB_REFINE} --mode visual --sigma-rel 0.9 --tau-rel 3",
        "refine --mode visual does not use --sigma-rel, --tau-rel"),
    Row("refine-config-visual-tau", f"{STUB_REFINE} --config config.json",
        "refine --mode visual does not use --tau-rel", config={"mode": "visual", "tau_rel": 3}),
    Row("refine-config-rasters-out", f"{STUB_REFINE} --config config.json",
        NOT_USED + "rasters, out", config={"rasters": "sar=s.pgrd", "out": "elsewhere"}),
    Row("refine-config-list-available", f"{STUB_REFINE} --config config.json",
        "config file config.json: key 'available' must be a string, got [\"SAR\"]",
        config={"available": ["SAR"]}),
    # eval
    *(
        Row(f"eval-{flag}", f"{STUB_EVAL} --{flag} {value}",
            f"eval without both --synthetic and --reference does not use --{flag}")
        for flag, value in (("synthetic", "s.pgrd"), ("reference", "r.pgrd"), ("modality", "SAR"))
    ),
    Row("eval-unknown-modality",
        f"{EVAL} --synthetic {{demo}}/scene_0.sar.pgrd --reference {{demo}}/scene_0.sar.pgrd --modality LST",
        "unknown modality 'LST'", never_called=READ_GRID),
    Row("eval-repeated-raster", f"{EVAL} --rasters {SAR_TWICE}",
        f"raster argument '{SAR_TWICE}': modality 'SAR' named more than once"),
    Row("eval-zero-size", "eval --pckg {demo}/pckg.json --pred {labels_empty} --gt {labels_empty}",
        "{labels_empty}: header dimensions must be >= 1, got 0 0", error="GridFormatError"),
    Row("eval-nan-raster", f"{NAN_EVAL} --rasters sar={{nan_demo}}/scene_0.sar.pgrd", NAN_CELLS,
        error="ValueError"),
    # both files are read as SAR; the message names the bad one
    Row("eval-nan-reference",
        f"{NAN_EVAL} --synthetic {{demo}}/scene_0.sar.pgrd --reference {{nan_demo}}/scene_0.sar.pgrd",
        f"{{nan_demo}}/scene_0.sar.pgrd: {NAN_CELLS}", error="ValueError"),
    # ablate
    Row("ablate-config-typos", "ablate --demo-dir demo --config config.json",
        NOT_USED + "dropout, hidden", config={"dropout": 0.9, "hidden": 4}),
    Row("ablate-config-float-epochs", "ablate --demo-dir demo --config config.json",
        "config file config.json: key 'epochs' must be an integer, got 1.9", config={"epochs": 1.9}),
    Row("ablate-config-list-lr", "ablate --demo-dir demo --config config.json",
        "config file config.json: key 'lr' must be a number, got [1]", config={"lr": [1]}),
    Row("ablate-manifest-scenes-int", "ablate --demo-dir {manifest_scenes_int}",
        f"{{manifest_scenes_int}}/manifest.json: {BAD_MANIFEST}"),
    Row("ablate-baseline-only-no-scenes", "ablate --demo-dir {manifest_no_scenes} --baseline-only",
        "{manifest_no_scenes}/manifest.json: manifest lists no scenes", never_called=LOAD_GRAPH),
    Row("ablate-negative-seed", "ablate --demo-dir {demo} --seed -2", "seed must be >= 0, got -2"),
    Row("ablate-nan-raster", "ablate --demo-dir {nan_demo} --epochs 2", NAN_CELLS, error="ValueError"),
    # the baseline row trains nothing, but its provenance records each setting
    *(
        Row(f"baseline-only-{flag[2:]}-{value}", f"ablate --demo-dir {{demo}} --baseline-only {flag} {value}",
            message)
        for flag, value, message in (
            ("--seed", "-2", "seed must be >= 0, got -2"),
            ("--epochs", "-1", "epochs and hidden width must be >= 1"),
            ("--epochs", "0", "epochs and hidden width must be >= 1"),
            ("--lr", "nan", "learning_rate must be finite and > 0"),
            ("--lr", "-0.1", "learning_rate must be finite and > 0"),
        )
    ),
]


def prepare(row, fixtures, workdir):
    """The row's argv, with its fixtures built and its config file in ``workdir``."""
    if row.config is not None:
        with open(os.path.join(workdir, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(row.config, fh)
    return [arg.format_map(fixtures) for arg in shlex.split(row.argv)] + ["--out", "out"]


def failure(row, fixtures, workdir, code, out, err):
    """None if the run in ``workdir`` rejected its input as the row says, else a report."""
    try:
        report = json.loads(err)
    except ValueError:
        report = {}
    message = report.get("message")
    if isinstance(row.message, str):
        expected = row.message.format_map(fixtures)
        matches = message == expected
    else:
        expected = tuple(word.format_map(fixtures) for word in row.message)
        matches = isinstance(message, str) and all(word in message for word in expected)
    written = sorted(set(os.listdir(workdir)) - {"config.json"})
    problems = [
        text
        for bad, text in (
            (out, f"stdout {out!r}"),
            (err.count("\n") != 1 or report.get("exit_code") != code, f"stderr {err!r}"),
            (row.error and report.get("error") != row.error,
             f"error {report.get('error')}, expected {row.error}"),
            (written, f"wrote {written}"),
        )
        if bad
    ]
    if code == row.code and matches and not problems:
        return None
    summary = [f"{row.id}: exit {code}, expected {row.code}", f"message {message!r}"]
    return "\n  ".join(summary + [f"expected {expected!r}"] + problems)


def run_installed():
    """Run every row against the ``physeg`` script on PATH; 0 iff all pass."""
    failures = []
    with tempfile.TemporaryDirectory() as root:
        fixtures = Fixtures(os.path.join(root, "fixtures"))
        for row in ROWS:
            workdir = os.path.join(root, row.id)
            os.makedirs(workdir)
            argv = prepare(row, fixtures, workdir)
            proc = subprocess.run(["physeg", *argv], cwd=workdir, capture_output=True, text=True)
            report = failure(row, fixtures, workdir, proc.returncode, proc.stdout, proc.stderr)
            if report:
                failures.append(report)
    print("\n".join(failures + [f"{len(ROWS) - len(failures)} of {len(ROWS)} rows pass"]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run_installed() if sys.argv[1:] == ["--installed"] else f"usage: {sys.argv[0]} --installed")
