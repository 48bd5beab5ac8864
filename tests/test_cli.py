from __future__ import annotations

import json
import os

import numpy as np
import pytest

from physeg import cli
from physeg.cli import main
from physeg.extraction import ProviderConfig
from physeg.gridio import read_grid_as, write_grid
from physeg.inference import AttenuationConfig
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
            (["--noise", "uniform"], {}, "noise"),
            (["--smoothing", "3"], {}, "smoothing"),
            (["--modalities", "SAR"], {}, "modalities"),
            (["--pckg", "missing.json", "--labels", "missing.pgrd"], {}, "pckg, labels"),
            ([], {"noise": "uniform", "smoothing": 3}, "noise, smoothing"),
            ([], {"modalities": "SAR", "seed": 2}, "modalities"),
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
        assert not (out / "sar.pgrd").exists()

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


class _Captured(Exception):
    """Stops a command once its callee has received the config object."""


# one non-default value per setting-table key, per command
_NON_DEFAULT = {
    "pckg extract": {
        "endpoint": "http://localhost:9/v1",
        "fixtures": "fixtures-b",
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
    assert set(values) == {key for table in tables for key in table}
    captured = []

    def fake(*args):
        captured.append(args[position])
        raise _Captured

    monkeypatch.setattr(cli, callee, fake)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    bare = ["--fixtures", "fixtures-a"] if command == "pckg extract" else []
    for extra in (["--config", str(config)], flags, bare):
        assert main(base + extra) == cli.EXIT_RUNTIME
    from_file, from_flags, from_neither = captured
    assert from_file == from_flags
    assert from_neither == expected_default

    def table_fields(obj):
        objs = [obj, obj.weights] if command == "train" else [obj]
        return [getattr(o, name) for o, table in zip(objs, tables) for name in table.values()]

    for set_value, default in zip(table_fields(from_file), table_fields(from_neither)):
        assert set_value != default
