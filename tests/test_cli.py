from __future__ import annotations

import argparse
import json
import os
import shutil
import tracemalloc

import numpy as np
import pytest

from physeg import cli
from physeg.cli import main
from physeg.extraction import ProviderConfig
from physeg.gridio import read_grid_as, write_grid
from physeg.inference import FLIP_FIELDS, AttenuationConfig, RefinementTrace
from physeg.priors import load_graph
from physeg.refiner import TrainConfig
from physeg.synth import SynthConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dir_bytes(root):
    table = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                table[os.path.relpath(path, root)] = fh.read()
    return table


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


class TestPckgCommands:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([VALID_ENTRY]))
        code, out, _ = run(capsys, "pckg", "validate", "--pckg", str(path))
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_validate_inverted_interval_exit_1(self, tmp_path, capsys):
        bad = dict(VALID_ENTRY, **{"NDVI Range": [0.6, 0.2]})
        path = tmp_path / "g.json"
        path.write_text(json.dumps([bad]))
        code, _, err = run(capsys, "pckg", "validate", "--pckg", str(path))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "PriorValidationError"
        assert "water" in payload["message"]
        assert "NDVI Range" in payload["message"]

    def test_validate_missing_file_exit_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "pckg", "validate", "--pckg", str(tmp_path / "nope.json"))
        assert code == 1

    def test_extract_fixture_mode(self, tmp_path, capsys):
        fixtures = tmp_path / "fx"
        fixtures.mkdir()
        terms = ["water", "bare soil", "urban park", "forest", "road"]
        for term in terms:
            obj = dict(VALID_ENTRY, Category=term)
            name = term.replace(" ", "%20") + ".json"
            (fixtures / name).write_text(json.dumps(obj))
        out_graph = tmp_path / "graph.json"
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "pckg", "extract",
            "--vocab", ",".join(terms),
            "--fixtures", str(fixtures),
            "--out", str(out_graph),
            "--report", str(report),
        )
        assert code == 0
        assert json.loads(out) == {"classes": 5, "failed": 0}
        graph = load_graph(out_graph)
        assert graph.num_classes == 5
        assert json.loads(report.read_text())["succeeded"] == 5

    def test_extract_missing_fixture_exit_3(self, tmp_path, capsys):
        fixtures = tmp_path / "fx"
        fixtures.mkdir()
        code, _, err = run(
            capsys,
            "pckg", "extract",
            "--vocab", "water",
            "--fixtures", str(fixtures),
            "--out", str(tmp_path / "g.json"),
        )
        assert code == 3
        assert json.loads(err)["error"] == "TransportError"


class TestSynthCommands:
    def test_demo_writes_manifest_and_scenes(self, tmp_path, capsys):
        demo = tmp_path / "demo"
        code, out, _ = run(capsys, "synth", "--demo", "--out", str(demo), "--seed", "3")
        assert code == 0
        manifest = json.loads((demo / "manifest.json").read_text())
        assert len(manifest["scenes"]) == 3
        assert manifest["provenance"]["seed"] == 3

    def test_demo_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "synth", "--demo", "--out", str(a), "--seed", "5")
        run(capsys, "synth", "--demo", "--out", str(b), "--seed", "5")
        bytes_a, bytes_b = dir_bytes(a), dir_bytes(b)
        assert set(bytes_a) == set(bytes_b)
        # manifests embed the --out path in provenance; everything else matches
        for name in bytes_a:
            if name != "manifest.json":
                assert bytes_a[name] == bytes_b[name], name

    @pytest.mark.parametrize(
        "flags, config, unused",
        [
            (["--noise", "uniform"], {}, "--noise"),
            (["--smoothing", "3"], {}, "--smoothing"),
            (["--modalities", "SAR"], {}, "--modalities"),
            (["--pckg", "missing.json", "--labels", "missing.pgrd"], {}, "--pckg, --labels"),
            ([], {"noise": "uniform", "smoothing": 3}, "--noise, --smoothing"),
            ([], {"modalities": "SAR", "seed": 2}, "--modalities"),
        ],
        ids=["noise", "smoothing", "modalities", "pckg-labels", "config-noise-smoothing", "config-modalities"],
    )
    def test_demo_rejects_mask_settings(self, tmp_path, capsys, flags, config, unused):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["synth", "--demo", "--out", str(tmp_path / "demo"), "--config", str(path)]
        code, out, err = run(capsys, *argv, *flags)
        assert code == 1
        assert out == ""
        assert json.loads(err)["message"] == f"synth --demo does not use {unused}"
        assert not (tmp_path / "demo").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--scenes", "-2", "scenes must be >= 1, got -2"),
            ("--scenes", "0", "scenes must be >= 1, got 0"),
            ("--size", "0", "size must be >= 8 (one 8x8 class tile), got 0"),
            ("--size", "-8", "size must be >= 8 (one 8x8 class tile), got -8"),
            ("--size", "7", "size must be >= 8 (one 8x8 class tile), got 7"),
        ],
    )
    def test_demo_rejects_an_empty_benchmark(self, tmp_path, capsys, flag, value, message):
        # a demo needs a scene and one 8x8 class tile; the message names the setting
        out = tmp_path / "demo"
        code, stdout, err = run(capsys, "synth", "--demo", flag, value, "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert json.loads(err)["message"] == message
        assert not out.exists()

    def test_synth_from_mask(self, tmp_path, capsys):
        demo = tmp_path / "demo"
        run(capsys, "synth", "--demo", "--out", str(demo), "--seed", "0")
        out = tmp_path / "rasters"
        code, stdout, _ = run(
            capsys,
            "synth",
            "--pckg", str(demo / "pckg.json"),
            "--labels", str(demo / "scene_0.labels.pgrd"),
            "--modalities", "NDVI,SAR",
            "--seed", "9",
            "--out", str(out),
        )
        assert code == 0
        labels = read_grid_as(demo / "scene_0.labels.pgrd", "LABEL")
        graph = load_graph(demo / "pckg.json")
        sar = read_grid_as(out / "sar.pgrd", "SAR")
        for cid in np.unique(labels):
            iv = graph.interval(int(cid), "SAR")
            vals = sar[labels == cid]
            assert vals.min() >= iv.lo and vals.max() <= iv.hi
        assert not (out / "dem.pgrd").exists()

    def test_repeated_modality_exit_1(self, tmp_path, capsys):
        demo = tmp_path / "demo"
        run(capsys, "synth", "--demo", "--out", str(demo), "--seed", "0")
        out = tmp_path / "rasters"
        code, stdout, err = run(
            capsys,
            "synth",
            "--pckg", str(demo / "pckg.json"),
            "--labels", str(demo / "scene_0.labels.pgrd"),
            "--modalities", "SAR,SAR",
            "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert json.loads(err)["message"] == "modality 'SAR' named more than once"
        assert not out.exists()

    def test_bad_labels_class_exit_1(self, tmp_path, capsys):
        demo = tmp_path / "demo"
        run(capsys, "synth", "--demo", "--out", str(demo), "--seed", "0")
        bad = np.full((4, 4), 9, dtype=np.int32)
        write_grid(tmp_path / "bad.pgrd", "LABEL", bad)
        code, _, err = run(
            capsys,
            "synth",
            "--pckg", str(demo / "pckg.json"),
            "--labels", str(tmp_path / "bad.pgrd"),
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "9" in json.loads(err)["message"]
        assert not (tmp_path / "x").exists()

    def test_non_ascii_labels_exit_1_naming_file(self, tmp_path, capsys):
        demo = tmp_path / "demo"
        run(capsys, "synth", "--demo", "--out", str(demo), "--seed", "0")
        labels = tmp_path / "labels.pgrd"
        labels.write_bytes("PGRD LABEL 1 2\n1 \u00e9\n".encode("utf-8"))
        code, _, err = run(
            capsys,
            "synth",
            "--pckg", str(demo / "pckg.json"),
            "--labels", str(labels),
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "GridFormatError"
        assert str(labels) in payload["message"]

    @pytest.mark.parametrize(
        "document, error",
        [
            ("", "PriorParseError"),
            ("not json", "PriorParseError"),
            ("\u00e9", "PriorParseError"),
            (json.dumps([{"Category": "water"}]), "PriorSchemaError"),
            (json.dumps([dict(VALID_ENTRY, **{"NDVI Range": [0.6, 0.2]})]), "PriorValidationError"),
        ],
        ids=["", "not json", "\u00e9", "missing field", "inverted interval"],
    )
    def test_unreadable_graph_exit_1_naming_file(self, tmp_path, capsys, document, error):
        graph = tmp_path / "graph.json"
        graph.write_bytes(document.encode("latin-1"))
        write_grid(tmp_path / "labels.pgrd", "LABEL", np.ones((2, 2), dtype=np.int32))
        code, _, err = run(
            capsys,
            "synth",
            "--pckg", str(graph),
            "--labels", str(tmp_path / "labels.pgrd"),
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == error
        assert str(graph) in payload["message"]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One demo + trained params shared by the refine/eval tests."""
    root = tmp_path_factory.mktemp("pipeline")
    demo = root / "demo"
    assert main(["synth", "--demo", "--out", str(demo), "--seed", "0"]) == 0
    params = root / "params.psp"
    assert (
        main(
            [
                "train",
                "--manifest", str(demo / "manifest.json"),
                "--out", str(params),
                "--history", str(root / "history.csv"),
                "--seed", "0",
                "--epochs", "120",
                "--dropout", "0.25",
                "--residual-scale", "0.3",
            ]
        )
        == 0
    )
    return root


class TestTrainRefineEval:
    def test_history_csv_written(self, pipeline_dir):
        lines = (pipeline_dir / "history.csv").read_text().splitlines()
        assert lines[0] == "step,seg,region,phys,total"
        assert len(lines) == 121
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 5
            int(cells[0])
            for cell in cells[1:]:  # plain parseable decimals, no repr wrappers
                float(cell)

    def test_refine_and_eval(self, pipeline_dir, capsys):
        demo = pipeline_dir / "demo"
        out = pipeline_dir / "out0"
        code, stdout, _ = run(
            capsys,
            "refine",
            "--params", str(pipeline_dir / "params.psp"),
            "--pckg", str(demo / "pckg.json"),
            "--features", str(demo / "scene_0.features.pgrd"),
            "--coarse", str(demo / "scene_0.coarse.pgrd"),
            "--rasters", f"sar={demo / 'scene_0.sar.pgrd'}",
            "--mode", "physical",
            "--out", str(out),
        )
        assert code == 0
        report = pipeline_dir / "eval.json"
        code, stdout, _ = run(
            capsys,
            "eval",
            "--pred", str(out / "labels.pgrd"),
            "--gt", str(demo / "scene_0.labels.pgrd"),
            "--pckg", str(demo / "pckg.json"),
            "--rasters", f"sar={demo / 'scene_0.sar.pgrd'}",
            "--out", str(report),
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["miou"] > 0.9
        assert "plausibility" in payload

    def test_visual_mode_ignores_raster_args(self, pipeline_dir, capsys):
        demo = pipeline_dir / "demo"
        out_with, out_without = pipeline_dir / "vis_a", pipeline_dir / "vis_b"
        base = [
            "refine",
            "--params", str(pipeline_dir / "params.psp"),
            "--pckg", str(demo / "pckg.json"),
            "--features", str(demo / "scene_0.features.pgrd"),
            "--coarse", str(demo / "scene_0.coarse.pgrd"),
            "--mode", "visual",
        ]
        code, _, _ = run(
            capsys, *base, "--rasters", f"sar={demo / 'scene_0.sar.pgrd'}", "--out", str(out_with)
        )
        assert code == 0
        code, _, _ = run(capsys, *base, "--out", str(out_without))
        assert code == 0
        assert (out_with / "labels.pgrd").read_bytes() == (out_without / "labels.pgrd").read_bytes()
        assert (out_with / "probs.pgrd").read_bytes() == (out_without / "probs.pgrd").read_bytes()

    def test_repeat_run_byte_identical(self, pipeline_dir, capsys):
        demo = pipeline_dir / "demo"
        outs = []
        for tag in ("r1", "r2"):
            out = pipeline_dir / tag
            code, _, _ = run(
                capsys,
                "refine",
                "--params", str(pipeline_dir / "params.psp"),
                "--pckg", str(demo / "pckg.json"),
                "--features", str(demo / "scene_0.features.pgrd"),
                "--coarse", str(demo / "scene_0.coarse.pgrd"),
                "--rasters", f"sar={demo / 'scene_0.sar.pgrd'}",
                "--mode", "physical",
                "--out", str(out),
            )
            assert code == 0
            outs.append(
                {
                    name: data
                    for name, data in dir_bytes(out).items()
                    if not name.endswith(".meta.json")  # sidecars embed --out
                }
            )
        assert outs[0] == outs[1]

    def test_refine_writes_a_large_trace_in_chunks(self, pipeline_dir, capsys, monkeypatch):
        # the 32x32 scene's real outputs with a 10,240-flip SAR trace in place of its own
        demo = pipeline_dir / "demo"
        graph = load_graph(str(demo / "pckg.json"))
        rng = np.random.default_rng(3)
        n = 10_240
        ids = rng.integers(1, graph.num_classes + 1, size=(2, n)).tolist()
        trace = RefinementTrace(
            ys=rng.integers(0, 256, size=n).tolist(),
            xs=rng.integers(0, 256, size=n).tolist(),
            pre_labels=ids[0],
            post_labels=ids[1],
            modalities={"SAR": {key: rng.normal(size=n) for key in FLIP_FIELDS}},
            classes={
                cid: (graph.entry_for_id(cid).category, graph.entry_for_id(cid).reasoning)
                for cid in range(1, graph.num_classes + 1)
            },
            warnings=["pixel (0, 0): all classes fully attenuated; kept refined probabilities"],
        )
        text_length = len(trace.to_jsonl())
        real_infer = cli.infer
        monkeypatch.setattr(cli, "infer", lambda *args: real_infer(*args)[:2] + (trace,))
        out = pipeline_dir / "large_trace"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code, stdout, _ = run(
                capsys,
                "refine",
                "--params", str(pipeline_dir / "params.psp"),
                "--pckg", str(demo / "pckg.json"),
                "--features", str(demo / "scene_0.features.pgrd"),
                "--coarse", str(demo / "scene_0.coarse.pgrd"),
                "--rasters", f"sar={demo / 'scene_0.sar.pgrd'}",
                "--mode", "physical",
                "--out", str(out),
            )
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(stdout) == {"flips": n, "out": str(out), "warnings": 1}
        assert (out / "trace.jsonl").read_text(encoding="utf-8") == trace.to_jsonl()
        # whole-trace text, its lines and its UTF-8 copy are never alive at once
        assert peak < text_length / 2

    def test_unknown_raster_modality_exit_1(self, pipeline_dir, capsys):
        demo = pipeline_dir / "demo"
        code, _, err = run(
            capsys,
            "refine",
            "--params", str(pipeline_dir / "params.psp"),
            "--pckg", str(demo / "pckg.json"),
            "--features", str(demo / "scene_0.features.pgrd"),
            "--coarse", str(demo / "scene_0.coarse.pgrd"),
            "--rasters", "lst=whatever.pgrd",
            "--out", str(pipeline_dir / "zz"),
        )
        assert code == 1
        assert "lst" in json.loads(err)["message"]

    def test_repeated_available_modality_exit_1(self, pipeline_dir, capsys):
        demo = pipeline_dir / "demo"
        out = pipeline_dir / "sar_twice"
        code, stdout, err = run(
            capsys,
            "refine",
            "--params", str(pipeline_dir / "params.psp"),
            "--pckg", str(demo / "pckg.json"),
            "--features", str(demo / "scene_0.features.pgrd"),
            "--coarse", str(demo / "scene_0.coarse.pgrd"),
            "--rasters", f"sar={demo / 'scene_0.sar.pgrd'}",
            "--available", "SAR,SAR",
            "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert json.loads(err)["message"] == "modality 'SAR' named more than once"
        assert not out.exists()

    def test_negative_batch_size_exit_1(self, pipeline_dir, capsys):
        # a negative batch made range(0, n, batch) empty: zero steps, an untrained head
        out = pipeline_dir / "negative_batch.psp"
        code, stdout, err = run(
            capsys,
            "train",
            "--manifest", str(pipeline_dir / "demo" / "manifest.json"),
            "--epochs", "3",
            "--batch-size", "-2",
            "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert json.loads(err)["message"] == "batch_size must be >= 0 (0 = full batch)"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--lr", "nan"), ("--lr", "inf"), ("--residual-scale", "nan"), ("--alpha", "nan"),
         ("--lambda2", "inf")],
    )
    def test_non_finite_train_setting_exit_1(self, pipeline_dir, capsys, monkeypatch, flag, value):
        # nan and inf pass an `x <= 0` test; they must not reach training and fail
        # there as "... became non-finite" (exit 2)
        steps = []
        monkeypatch.setattr("physeg.refiner.loss_step", lambda *args: steps.append(args))
        out = pipeline_dir / f"non_finite{flag}_{value}.psp"
        code, stdout, err = run(
            capsys,
            "train",
            "--manifest", str(pipeline_dir / "demo" / "manifest.json"),
            "--epochs", "3",
            flag, value,
            "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert json.loads(err)["message"] == {
            "--lr": "learning_rate must be finite and > 0",
            "--residual-scale": "residual_scale must be finite",
            "--alpha": "loss weights must be finite and non-negative",
            "--lambda2": "loss weights must be finite and non-negative",
        }[flag]
        assert steps == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--sigma-rel", "nan"), ("--sigma-rel", "inf"), ("--tau-rel", "nan")]
    )
    def test_non_finite_attenuation_setting_exit_1(self, pipeline_dir, capsys, flag, value):
        # nan would write NaN probabilities and inf would flip nothing
        demo = pipeline_dir / "demo"
        out = pipeline_dir / f"non_finite{flag}_{value}"
        code, stdout, err = run(
            capsys,
            "refine",
            "--params", str(pipeline_dir / "params.psp"),
            "--pckg", str(demo / "pckg.json"),
            "--features", str(demo / "scene_0.features.pgrd"),
            "--coarse", str(demo / "scene_0.coarse.pgrd"),
            "--rasters", f"sar={demo / 'scene_0.sar.pgrd'}",
            "--mode", "physical",
            flag, value,
            "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert json.loads(err)["message"] == "sigma_rel and tau_rel must be finite and > 0"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["refine", "train", "eval"])
    def test_repeated_raster_modality_exit_1(self, pipeline_dir, capsys, command):
        # sar= and SAR= name one modality: neither file may silently win
        demo = pipeline_dir / "demo"
        raw = f"sar={demo / 'scene_0.sar.pgrd'},SAR={demo / 'scene_0.sar.pgrd'}"
        labels = str(demo / "scene_0.labels.pgrd")
        scene = [
            "--pckg", str(demo / "pckg.json"),
            "--features", str(demo / "scene_0.features.pgrd"),
            "--coarse", str(demo / "scene_0.coarse.pgrd"),
        ]
        argv = {
            "refine": ["refine", "--params", str(pipeline_dir / "params.psp"), *scene],
            "train": ["train", "--labels", labels, *scene],
            "eval": ["eval", "--pckg", str(demo / "pckg.json"), "--pred", labels, "--gt", labels],
        }[command]
        out = pipeline_dir / f"sar_twice_{command}"
        code, stdout, err = run(capsys, *argv, "--rasters", raw, "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert json.loads(err)["message"] == (
            f"raster argument {raw!r}: modality 'SAR' named more than once"
        )
        assert not out.exists()

    @pytest.mark.parametrize("bad_input", ["params", "features"])
    def test_non_finite_input_exit_1(self, pipeline_dir, capsys, bad_input):
        demo = pipeline_dir / "demo"
        paths = {"params": pipeline_dir / "params.psp", "features": demo / "scene_0.features.pgrd"}
        lines = paths[bad_input].read_text().splitlines()
        lines[1] = "nan " + lines[1].split(" ", 1)[1]  # first value after the header
        bad = pipeline_dir / f"nan_{paths[bad_input].name}"
        bad.write_text("\n".join(lines) + "\n")
        paths[bad_input] = bad
        out = pipeline_dir / f"nan_{bad_input}_out"
        code, _, err = run(
            capsys,
            "refine",
            "--params", str(paths["params"]),
            "--pckg", str(demo / "pckg.json"),
            "--features", str(paths["features"]),
            "--coarse", str(demo / "scene_0.coarse.pgrd"),
            "--rasters", f"sar={demo / 'scene_0.sar.pgrd'}",
            "--out", str(out),
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "GridFormatError"
        assert str(bad) in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["refine", "train", "ablate", "eval-rasters", "eval-synthetic-reference"]
    )
    def test_non_finite_raster_exit_1(self, pipeline_dir, capsys, command):
        # a raster may hold nan on disk, but no stage may compute with it
        demo = pipeline_dir / "demo"
        bad_demo = pipeline_dir / f"nan_raster_{command}_demo"
        shutil.copytree(demo, bad_demo)
        sar = read_grid_as(demo / "scene_0.sar.pgrd", "SAR")
        sar[:, 16] = np.nan
        write_grid(bad_demo / "scene_0.sar.pgrd", "SAR", sar)
        scene = [
            "--pckg", str(bad_demo / "pckg.json"),
            "--features", str(bad_demo / "scene_0.features.pgrd"),
            "--coarse", str(bad_demo / "scene_0.coarse.pgrd"),
            "--rasters", f"sar={bad_demo / 'scene_0.sar.pgrd'}",
        ]
        labels = str(bad_demo / "scene_0.labels.pgrd")
        masks = ["eval", "--pckg", str(bad_demo / "pckg.json"), "--pred", labels, "--gt", labels]
        out = pipeline_dir / f"nan_raster_{command}_out"
        argv = {
            "refine": ["refine", "--params", str(pipeline_dir / "params.psp"), *scene],
            "train": ["train", "--labels", str(bad_demo / "scene_0.labels.pgrd"), *scene],
            "ablate": ["ablate", "--demo-dir", str(bad_demo), "--epochs", "2"],
            "eval-rasters": [*masks, "--rasters", f"sar={bad_demo / 'scene_0.sar.pgrd'}"],
            "eval-synthetic-reference": [
                *masks,
                "--synthetic", str(demo / "scene_0.sar.pgrd"),
                "--reference", str(bad_demo / "scene_0.sar.pgrd"),
            ],
        }[command]
        message = "raster 'SAR' has 32 non-finite cells"
        if command == "eval-synthetic-reference":
            # both files are read as SAR; the message names the bad one
            message = f"{bad_demo / 'scene_0.sar.pgrd'}: {message}"
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 1
        assert stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"] == message
        assert not out.exists()


class TestAblate:
    def test_four_rows_and_artifacts(self, tmp_path, capsys):
        demo = tmp_path / "demo"
        run(capsys, "synth", "--demo", "--out", str(demo), "--seed", "0")
        out = tmp_path / "ablation"
        code, stdout, _ = run(
            capsys,
            "ablate",
            "--demo-dir", str(demo),
            "--out", str(out),
            "--seed", "0",
            "--epochs", "30",  # fast structural check; full budget runs in acceptance
        )
        assert code == 0
        table = json.loads((out / "ablation.json").read_text())
        assert [row["name"] for row in table["rows"]] == [
            "baseline",
            "+synth-training",
            "+pckg-reweight",
            "+phys-loss",
        ]
        assert "ordering" in (out / "ablation.txt").read_text()
        assert "baseline" in stdout

    def test_baseline_only_single_row(self, tmp_path, capsys):
        demo = tmp_path / "demo"
        run(capsys, "synth", "--demo", "--out", str(demo), "--seed", "0")
        out = tmp_path / "baseline"
        code, _, _ = run(
            capsys, "ablate", "--demo-dir", str(demo), "--out", str(out), "--baseline-only"
        )
        assert code == 0
        table = json.loads((out / "ablation.json").read_text())
        assert len(table["rows"]) == 1
        assert table["rows"][0]["name"] == "baseline"


_REFINE = [
    "refine", "--params", "p.psp", "--pckg", "g.json", "--features", "f.pgrd", "--coarse", "c.pgrd"
]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["train", "--manifest", "m.json", "--pckg", "g.json", "--labels", "l.pgrd"],
            "train --manifest does not use --pckg, --labels",
        ),
        (
            ["train", "--manifest", "m.json", "--features", "f.pgrd", "--coarse", "c.pgrd"],
            "train --manifest does not use --features, --coarse",
        ),
        (
            ["train", "--manifest", "m.json", "--rasters", "sar=s.pgrd"],
            "train --manifest does not use --rasters",
        ),
        (
            ["eval", "--pred", "p.pgrd", "--gt", "g.pgrd", "--pckg", "g.json", "--synthetic", "s.pgrd"],
            "eval without both --synthetic and --reference does not use --synthetic",
        ),
        (
            ["eval", "--pred", "p.pgrd", "--gt", "g.pgrd", "--pckg", "g.json", "--reference", "r.pgrd"],
            "eval without both --synthetic and --reference does not use --reference",
        ),
        (
            ["eval", "--pred", "p.pgrd", "--gt", "g.pgrd", "--pckg", "g.json", "--modality", "SAR"],
            "eval without both --synthetic and --reference does not use --modality",
        ),
        (
            ["pckg", "extract", "--vocab", "water", "--vocab-file", "v.txt"],
            "pckg extract --vocab-file without --live does not use --vocab",
        ),
        (
            [
                "pckg", "extract", "--vocab", "water", "--fixtures", "fx",
                "--endpoint", "http://localhost:9/v1", "--timeout", "3", "--model", "m",
            ],
            "pckg extract --vocab without --live does not use --endpoint, --timeout, --model",
        ),
        (
            ["pckg", "extract", "--vocab", "water", "--fixtures", "fx", "--config", {"model": "m"}],
            "pckg extract --vocab without --live does not use --model",
        ),
        (
            [
                "pckg", "extract", "--vocab", "water", "--live",
                "--endpoint", "http://localhost:9/v1", "--fixtures", "fx",
            ],
            "pckg extract --vocab --live does not use --fixtures",
        ),
        (
            [*_REFINE, "--mode", "visual", "--available", "SAR"],
            "refine --mode visual does not use --available",
        ),
        (
            [*_REFINE, "--mode", "visual", "--sigma-rel", "0.9", "--tau-rel", "3"],
            "refine --mode visual does not use --sigma-rel, --tau-rel",
        ),
        (
            [*_REFINE, "--config", {"mode": "visual", "tau_rel": 3}],
            "refine --mode visual does not use --tau-rel",
        ),
        (
            ["synth", "--pckg", "g.json", "--labels", "l.pgrd", "--scenes", "5", "--size", "64"],
            "synth without --demo does not use --scenes, --size",
        ),
        (
            ["train", "--manifest", "m.json", "--config", {"epoch": 5, "lamda2": 1.0}],
            "config file config.json sets keys the command does not read: epoch, lamda2",
        ),
        (
            ["ablate", "--demo-dir", "demo", "--config", {"dropout": 0.9, "hidden": 4}],
            "config file config.json sets keys the command does not read: dropout, hidden",
        ),
        (
            [*_REFINE, "--config", {"rasters": "sar=s.pgrd", "out": "elsewhere"}],
            "config file config.json sets keys the command does not read: rasters, out",
        ),
        (
            ["synth", "--config", {"pckg": "g.json", "labels": "l.pgrd"}],
            "config file config.json sets keys the command does not read: pckg, labels",
        ),
        (
            ["train", "--manifest", "m.json", "--config", {"epochs": 2.7, "seed": True, "dropout": "0.5"}],
            "config file config.json: key 'epochs' must be an integer, got 2.7; key 'seed' must be"
            ' an integer, got true; key \'dropout\' must be a number, got "0.5"',
        ),
        (
            ["ablate", "--demo-dir", "demo", "--config", {"epochs": 1.9}],
            "config file config.json: key 'epochs' must be an integer, got 1.9",
        ),
        (
            [*_REFINE, "--config", {"available": ["SAR"]}],
            "config file config.json: key 'available' must be a string, got [\"SAR\"]",
        ),
        (
            ["ablate", "--demo-dir", "demo", "--config", {"lr": [1]}],
            "config file config.json: key 'lr' must be a number, got [1]",
        ),
    ],
    ids=[
        "train-pckg-labels",
        "train-features-coarse",
        "train-rasters",
        "eval-synthetic",
        "eval-reference",
        "eval-modality",
        "extract-vocab-both",
        "extract-fixtures-endpoint-timeout-model",
        "extract-fixtures-config-model",
        "extract-live-fixtures",
        "refine-visual-available",
        "refine-visual-sigma-tau",
        "refine-config-visual-tau",
        "synth-mask-scenes-size",
        "train-config-typos",
        "ablate-config-typos",
        "refine-config-rasters-out",
        "synth-config-pckg-labels",
        "train-config-float-bool-string",
        "ablate-config-float-epochs",
        "refine-config-list-available",
        "ablate-config-list-lr",
    ],
)
def test_rejects_inputs_the_command_ignores(tmp_path, capsys, monkeypatch, argv, message):
    # every named path is missing: the flag combination is rejected before any read
    monkeypatch.chdir(tmp_path)
    written = []
    if isinstance(argv[-1], dict):  # a config file, the one path that exists
        (tmp_path / "config.json").write_text(json.dumps(argv[-1]))
        argv, written = [*argv[:-1], "config.json"], ["config.json"]
    code, out, err = run(capsys, *argv, "--out", "result")
    assert code == 1
    assert out == ""
    assert json.loads(err)["message"] == message
    assert os.listdir(tmp_path) == written


# per subcommand, the inputs it reads in every mode; cli.MODE_INPUTS holds the others
_READ_IN_EVERY_MODE = {
    "pckg validate": "pckg out",
    "pckg extract": "live retries parallelism out report config",
    "synth": "demo seed config out",
    "train": (
        "manifest seed lr epochs batch_size dropout hidden residual_scale"
        " alpha lambda1 lambda2 history losses config out"
    ),
    "refine": "params pckg features coarse rasters mode config out",
    "eval": "pred gt pckg rasters include_background csv out",
    "ablate": "demo_dir baseline_only seed epochs lr config out",
}


def _subcommand_parsers(parser, prefix=""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommand_parsers(sub, f"{prefix} {name}".strip())
            return
    yield prefix, parser


def test_every_input_is_read_in_every_mode_or_declared_for_one():
    parsers = dict(_subcommand_parsers(cli.build_parser()))
    assert set(parsers) == set(_READ_IN_EVERY_MODE)
    assert set(cli.MODE_INPUTS) <= set(parsers)
    for command, parser in parsers.items():
        dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        every = _READ_IN_EVERY_MODE[command].split()
        one = [key for keys in cli.MODE_INPUTS.get(command, {}).values() for key in keys.split()]
        assert len(set(every + one)) == len(every + one), command
        assert set(every + one) == dests, command


def test_usage_error_exits_1_with_one_json_line(capsys):
    code, out, err = run(capsys, "train", "--epochs", "abc", "--out", "x")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["exit_code"] == 1
    assert report["error"] == "UsageError"
    assert "--epochs" in report["message"]
    for argv in (["--version"], ["train", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    capsys.readouterr()


def test_config_file_overridden_by_flags(tmp_path, capsys):
    demo = tmp_path / "demo"
    run(capsys, "synth", "--demo", "--out", str(demo), "--seed", "0")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "epochs": 10, "dropout": 0.0}))
    out_a = tmp_path / "a.psp"
    out_b = tmp_path / "b.psp"
    base = ["train", "--manifest", str(demo / "manifest.json"), "--config", str(config)]
    assert main(base + ["--out", str(out_a)]) == 0
    # flag overrides config seed -> different parameters
    assert main(base + ["--seed", "2", "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() != out_b.read_bytes()


def test_config_file_null_is_unset_and_an_integer_is_a_number(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lr": 1, "seed": None, "mode": "visual"}))
    config = cli._load_config_file(str(path), {"lr": float, "seed": int, "mode": str})
    assert config == {"lr": 1, "seed": None, "mode": "visual"}


@pytest.mark.parametrize(
    "argv, seed",
    [
        (["synth", "--demo", "--seed", "-1"], -1),
        (["train", "--manifest", "{demo}/manifest.json", "--seed", "-1"], -1),
        (["ablate", "--demo-dir", "{demo}", "--seed", "-2"], -2),
        (["ablate", "--demo-dir", "{demo}", "--baseline-only", "--seed", "-2"], -2),
    ],
    ids=["synth-demo", "train", "ablate", "ablate-baseline-only"],
)
def test_negative_seed_exit_1_naming_seed_before_anything_is_written(
    pipeline_dir, tmp_path, capsys, argv, seed
):
    argv = [arg.format(demo=pipeline_dir / "demo") for arg in argv]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert json.loads(err)["message"] == f"seed must be >= 0, got {seed}"
    assert os.listdir(tmp_path) == []


class _Captured(Exception):
    """Stops a command once its callee has received the config object."""


# one non-default value per setting-table key the command's mode reads, per command
_NON_DEFAULT = {
    "pckg extract": {"fixtures": "fixtures-b", "retries": 4, "parallelism": 3},
    "pckg extract --live": {
        "endpoint": "http://localhost:9/v1",
        "timeout": 12.5,
        "retries": 4,
        "model": "model-b",
        "parallelism": 3,
    },
    "synth": {"seed": 7, "noise": "uniform", "smoothing": 2},
    "train": {
        "seed": 7,
        "lr": 0.01,
        "epochs": 3,
        "batch_size": 2,
        "dropout": 0.25,
        "hidden": 8,
        "residual_scale": 0.3,
        "alpha": 0.5,
        "lambda1": 0.1,
        "lambda2": 0.2,
    },
    "refine": {"sigma_rel": 0.7, "tau_rel": 3.0},
}


@pytest.mark.parametrize("command", sorted(_NON_DEFAULT))
def test_config_file_and_flags_set_the_same_config(pipeline_dir, tmp_path, monkeypatch, command):
    demo = pipeline_dir / "demo"
    base, callee, position, tables, expected_default = {
        "pckg extract": (
            ["pckg", "extract", "--vocab", "water", "--out", str(tmp_path / "g.json")],
            "extract_graph",
            1,
            [cli.PROVIDER_SETTINGS],
            # fixture mode needs a fixture directory, so the bare run names one
            ProviderConfig(fixture_dir="fixtures-a"),
        ),
        "pckg extract --live": (
            ["pckg", "extract", "--vocab", "water", "--live", "--out", str(tmp_path / "g.json")],
            "extract_graph",
            1,
            [cli.PROVIDER_SETTINGS],
            # likewise live mode needs an endpoint
            ProviderConfig(mode="live", endpoint="http://localhost:8/v1"),
        ),
        "synth": (
            [
                "synth",
                "--pckg", str(demo / "pckg.json"),
                "--labels", str(demo / "scene_0.labels.pgrd"),
                "--out", str(tmp_path / "s"),
            ],
            "synthesize_scene",
            3,
            [cli.SYNTH_SETTINGS],
            SynthConfig(),
        ),
        "train": (
            ["train", "--manifest", str(demo / "manifest.json"), "--out", str(tmp_path / "p.psp")],
            "train",
            2,
            [cli.TRAIN_SETTINGS, cli.LOSS_SETTINGS],
            TrainConfig(),
        ),
        "refine": (
            [
                "refine",
                "--params", str(pipeline_dir / "params.psp"),
                "--pckg", str(demo / "pckg.json"),
                "--features", str(demo / "scene_0.features.pgrd"),
                "--coarse", str(demo / "scene_0.coarse.pgrd"),
                "--out", str(tmp_path / "r"),
            ],
            "infer",
            5,
            [cli.ATTENUATION_SETTINGS],
            AttenuationConfig(),
        ),
    }[command]
    values = _NON_DEFAULT[command]
    unread = {
        "pckg extract": cli.MODE_INPUTS["pckg extract"]["--live"],
        "pckg extract --live": cli.MODE_INPUTS["pckg extract"]["without --live"],
    }.get(command, "")
    assert set(values) == {key for table in tables for key in table} - set(unread.split())
    captured = []

    def fake(*args):
        captured.append(args[position])
        raise _Captured

    monkeypatch.setattr(cli, callee, fake)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    bare = {
        "pckg extract": ["--fixtures", "fixtures-a"],
        "pckg extract --live": ["--endpoint", "http://localhost:8/v1"],
    }.get(command, [])
    for extra in (["--config", str(config)], flags, bare):
        assert main(base + extra) == cli.EXIT_RUNTIME
    from_file, from_flags, from_neither = captured
    assert from_file == from_flags
    assert from_neither == expected_default

    def table_fields(obj):
        objs = [obj, obj.weights] if command == "train" else [obj]
        return [getattr(o, table[key]) for o, table in zip(objs, tables) for key in table if key in values]

    for set_value, default in zip(table_fields(from_file), table_fields(from_neither)):
        assert set_value != default
