from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tracemalloc

import cli_rejections
import numpy as np
import pytest

from physeg import cli, inference
from physeg.cli import main
from physeg.extraction import ProviderConfig
from physeg.gridio import read_grid_as, write_grid
from physeg.inference import FLIP_FIELDS, AttenuationConfig, RefinementTrace
from physeg.metrics import reliability
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


# Every row id a test below runs. A row keeps the test name its case had before
# the table; test_rejection runs the rows that no other test names.
_ROWS_RUN = []
ROW = {row.id: row for row in cli_rejections.ROWS}


def _runs_rows(cases, method=True):
    """A test running table rows through ``reject``: one row id, or {case id: row id}."""
    if isinstance(cases, str):
        _ROWS_RUN.append(cases)

        def test(self, reject):
            reject(cases)

        return test
    _ROWS_RUN.extend(cases.values())
    if method:

        def test(self, reject, row_id):
            reject(row_id)

    else:

        def test(reject, row_id):
            reject(row_id)

    return pytest.mark.parametrize("row_id", [pytest.param(r, id=c) for c, r in cases.items()])(test)


class TestPckgCommands:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([cli_rejections.VALID_ENTRY]))
        code, out, _ = run(capsys, "pckg", "validate", "--pckg", str(path))
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_validate_writes_its_report(self, pipeline_dir, tmp_path, capsys):
        report = tmp_path / "report.json"
        pckg = str(pipeline_dir / "demo" / "pckg.json")
        code, _, _ = run(capsys, "pckg", "validate", "--pckg", pckg, "--out", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert set(payload) == {"valid", "classes", "categories", "warnings", "provenance"}
        assert payload["valid"] is True
        assert payload["classes"] == 4
        assert payload["categories"] == list(load_graph(pckg).categories)
        assert payload["warnings"] == []

    @staticmethod
    def fixture_dir(root, terms):
        fixtures = root / "fx"
        fixtures.mkdir()
        for term in terms:
            obj = dict(cli_rejections.VALID_ENTRY, Category=term)
            name = term.replace(" ", "%20") + ".json"
            (fixtures / name).write_text(json.dumps(obj))
        return fixtures

    def test_extract_vocab_file_strips_terms_and_skips_blank_lines(self, tmp_path, capsys):
        fixtures = self.fixture_dir(tmp_path, ["water", "bare soil", "road"])
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("water\n\n  bare soil \n \t\nroad")
        graphs = []
        for flag, value in (("--vocab-file", str(vocab)), ("--vocab", "water,bare soil,road")):
            graphs.append(tmp_path / f"graph{len(graphs)}.json")
            code, out, _ = run(
                capsys, "pckg", "extract", flag, value, "--fixtures", str(fixtures), "--out", str(graphs[-1])
            )
            assert code == 0
            assert json.loads(out) == {"classes": 3, "failed": 0}
        assert graphs[0].read_bytes() == graphs[1].read_bytes()
        assert load_graph(graphs[0]).categories == ("water", "bare soil", "road")

    def test_extract_fixture_mode(self, tmp_path, capsys):
        terms = ["water", "bare soil", "urban park", "forest", "road"]
        fixtures = self.fixture_dir(tmp_path, terms)
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

    test_validate_inverted_interval_exit_1 = _runs_rows("validate-inverted-interval")
    test_validate_missing_file_exit_1 = _runs_rows("validate-missing-file")
    test_extract_missing_fixture_exit_3 = _runs_rows("extract-missing-fixture")
    test_extract_bad_timeout_exit_1_before_any_request = _runs_rows(
        {case: f"extract-timeout-{case}" for case in ("inf", "nan", "-1", "0")}
    )

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

    test_demo_rejects_mask_settings = _runs_rows({case: f"demo-{case}" for case in (
        "noise", "smoothing", "modalities", "pckg-labels", "config-noise-smoothing", "config-modalities")})
    # case id: flag, value and message
    test_demo_rejects_an_empty_benchmark = _runs_rows({
        "-".join([*ROW[r].argv.split()[2:], ROW[r].message]): r
        for r in ("demo-scenes-negative", "demo-scenes-zero", "demo-size-0", "demo-size--8", "demo-size-7")})
    test_repeated_modality_exit_1 = _runs_rows("synth-repeated-modality")
    test_modality_list_naming_none_exit_1 = _runs_rows({c: f"synth-modalities-{c}" for c in ("empty", "blank")})
    test_bad_labels_class_exit_1 = _runs_rows("synth-labels-class-9")
    test_non_ascii_labels_exit_1_naming_file = _runs_rows("synth-labels-non-ascii")
    test_unreadable_graph_exit_1_naming_file = _runs_rows(dict(zip(
        ["", "not json", "\u00e9", "missing field", "inverted interval"],
        ["graph-empty", "graph-not-json", "graph-latin-1", "graph-missing-field", "graph-inverted-interval"])))

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

    def test_train_reads_the_manifest_file_it_is_given(self, pipeline_dir, tmp_path, capsys):
        # a renamed one-scene manifest beside the demo's three-scene manifest.json
        demo = tmp_path / "demo"
        shutil.copytree(pipeline_dir / "demo", demo)
        manifest = json.loads((demo / "manifest.json").read_text())
        manifest["scenes"] = manifest["scenes"][:1]
        (demo / "one_scene.json").write_text(json.dumps(manifest))
        losses = tmp_path / "losses.json"
        code, _, err = run(
            capsys, "train", "--manifest", str(demo / "one_scene.json"), "--epochs", "2",
            "--losses", str(losses), "--out", str(tmp_path / "params.psp"),
        )
        assert code == 0, err
        assert len(json.loads(losses.read_text())["phys_terms"]) == 1

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

    def test_eval_csv_lists_each_class_then_miou(self, pipeline_dir, tmp_path, capsys):
        demo = pipeline_dir / "demo"
        gt = read_grid_as(demo / "scene_0.labels.pgrd", "LABEL")
        assert (gt == 4).any()
        # class 4 in neither mask, so its IoU is undefined; class 1 predicted as 2
        truth = np.where(gt == 4, 3, gt)
        write_grid(tmp_path / "gt.pgrd", "LABEL", truth)
        write_grid(tmp_path / "pred.pgrd", "LABEL", np.where(truth == 1, 2, truth))
        base = ["eval", "--pckg", str(demo / "pckg.json"),
                "--pred", str(tmp_path / "pred.pgrd"), "--gt", str(tmp_path / "gt.pgrd")]
        sar = ["--rasters", f"sar={demo / 'scene_0.sar.pgrd'}"]
        for name, extra in (("plain", []), ("rasters", sar)):
            report, table = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            code, _, _ = run(capsys, *base, *extra, "--out", str(report), "--csv", str(table))
            assert code == 0
            payload = json.loads(report.read_text())
            per_class = payload["per_class"]
            assert per_class["4"] is None
            want = ["metric,class,value", *(f"iou,{c},{per_class[c]!r}" for c in "123"), "iou,4,"]
            want.append(f"miou,,{payload['miou']!r}")
            if extra:
                want.append(f"plausibility,,{payload['plausibility']['rate']!r}")
            assert table.read_text() == "\n".join(want) + "\n"

    def test_eval_reliability_of_a_synthetic_raster(self, pipeline_dir, tmp_path, capsys):
        demo = pipeline_dir / "demo"
        labels = str(demo / "scene_0.labels.pgrd")
        synthetic, reference = (str(demo / f"scene_{k}.sar.pgrd") for k in (0, 1))
        report = tmp_path / "eval.json"
        code, _, _ = run(
            capsys, "eval", "--pckg", str(demo / "pckg.json"), "--pred", labels, "--gt", labels,
            "--synthetic", synthetic, "--reference", reference, "--out", str(report),
        )
        assert code == 0
        block = json.loads(report.read_text())["reliability"]
        gt = read_grid_as(labels, "LABEL")
        assert block["modality"] == "SAR"
        assert sorted(block["per_class"]) == [str(c) for c in np.unique(gt) if c != 0]
        graph = load_graph(str(demo / "pckg.json"))
        want = reliability(read_grid_as(synthetic, "SAR"), read_grid_as(reference, "SAR"), gt, graph, "SAR")
        assert block == json.loads(json.dumps(want.to_json_dict()))

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

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 the caller keeps infer's arguments")
    @pytest.mark.parametrize("mode", ["physical", "visual"])
    def test_refine_frees_its_inputs_before_reweighting(
        self, pipeline_dir, tmp_path, capsys, monkeypatch, mode
    ):
        # a 64x64 scene: its features, coarse map and the refined map are (H, W, 4) float64 maps
        demo = tmp_path / "demo"
        assert run(capsys, "synth", "--demo", "--size", "64", "--scenes", "1", "--out", str(demo))[0] == 0
        map_bytes = 64 * 64 * 4 * 8
        argv = [
            "refine",
            "--params", str(pipeline_dir / "params.psp"),
            "--pckg", str(demo / "pckg.json"),
            "--features", str(demo / "scene_0.features.pgrd"),
            "--coarse", str(demo / "scene_0.coarse.pgrd"),
            "--rasters", f"sar={demo / 'scene_0.sar.pgrd'}",
            "--mode", mode,
            "--out", str(tmp_path / "out"),
        ]
        # a first run loads whatever the command imports lazily, which would count as held
        assert run(capsys, *argv)[0] == 0
        held = []
        real_attenuate = inference.attenuate

        def attenuate(*args):
            held.append(tracemalloc.get_traced_memory()[0] - base)
            return real_attenuate(*args)

        monkeypatch.setattr(inference, "attenuate", attenuate)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code, _, _ = run(capsys, *argv)
        finally:
            tracemalloc.stop()
        assert code == 0
        # the refined map, and in physical mode the SAR raster; features and coarse map are freed
        assert len(held) == 1 and held[0] < 3 * map_bytes

    test_unknown_raster_modality_exit_1 = _runs_rows("refine-unknown-raster-modality")
    test_repeated_available_modality_exit_1 = _runs_rows("refine-repeated-available")
    test_negative_batch_size_exit_1 = _runs_rows("train-negative-batch")
    test_non_finite_train_setting_exit_1 = _runs_rows({f"--{c}": f"train-{c}" for c in (
        "lr-nan", "lr-inf", "residual-scale-nan", "alpha-nan", "lambda2-inf")})
    test_non_finite_attenuation_setting_exit_1 = _runs_rows(
        {f"--{c}": f"refine-{c}" for c in ("sigma-rel-nan", "sigma-rel-inf", "tau-rel-nan")})
    test_physical_refine_without_a_modality_exit_1 = _runs_rows(
        {c: f"refine-{c}" for c in ("no-rasters", "none-available")})
    test_repeated_raster_modality_exit_1 = _runs_rows(
        {c: f"{c}-repeated-raster" for c in ("refine", "train", "eval")})
    test_non_finite_input_exit_1 = _runs_rows({c: f"refine-nan-{c}" for c in ("params", "features")})
    test_non_finite_raster_exit_1 = _runs_rows({
        "refine": "refine-nan-raster", "train": "train-nan-raster", "ablate": "ablate-nan-raster",
        "eval-rasters": "eval-nan-raster", "eval-synthetic-reference": "eval-nan-reference"})

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


@pytest.fixture(scope="module")
def rejection_fixtures(pipeline_dir, tmp_path_factory):
    return cli_rejections.Fixtures(
        tmp_path_factory.mktemp("fixtures"),
        demo=pipeline_dir / "demo",
        params=pipeline_dir / "params.psp",
    )


@pytest.fixture
def reject(rejection_fixtures, tmp_path, capsys, monkeypatch):
    """Runs one table row through main(), with its never_called callables patched."""

    def check(row_id):
        row = ROW[row_id]
        argv = cli_rejections.prepare(row, rejection_fixtures, tmp_path)
        calls = []
        for name in row.never_called:
            monkeypatch.setattr(name, lambda *args, name=name: calls.append(name))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert cli_rejections.failure(row, rejection_fixtures, tmp_path, code, out, err) is None
        assert calls == []

    return check


# row ids are the case ids
test_rejects_inputs_the_command_ignores = _runs_rows({r: r for r in """
    train-pckg-labels train-features-coarse train-rasters eval-synthetic eval-reference eval-modality
    extract-vocab-both extract-fixtures-endpoint-timeout-model extract-fixtures-config-model
    extract-live-fixtures refine-visual-available refine-visual-sigma-tau refine-config-visual-tau
    synth-mask-scenes-size train-config-typos ablate-config-typos refine-config-rasters-out
    synth-config-pckg-labels train-config-float-bool-string ablate-config-float-epochs
    refine-config-list-available ablate-config-list-lr""".split()}, method=False)
test_negative_seed_exit_1_naming_seed_before_anything_is_written = _runs_rows({
    "synth-demo": "demo-negative-seed", "train": "train-negative-seed", "ablate": "ablate-negative-seed",
    "ablate-baseline-only": "baseline-only-seed--2"}, method=False)
test_baseline_only_ablate_checks_epochs_and_lr_before_anything_is_written = _runs_rows({
    "epochs-negative": "baseline-only-epochs--1", "epochs-zero": "baseline-only-epochs-0",
    "lr-nan": "baseline-only-lr-nan", "lr-negative": "baseline-only-lr--0.1"}, method=False)
test_rejection = _runs_rows({r.id: r.id for r in cli_rejections.ROWS if r.id not in _ROWS_RUN}, method=False)


def test_rejection_table_covers_every_subcommand():
    ids = [row.id for row in cli_rejections.ROWS]
    assert len(set(ids)) == len(ids)
    # 82 cases folded from earlier tests, then manifest, zero-size grid and modality rows
    assert len(ids) >= 82 + 5
    # each row runs under exactly one test name
    assert sorted(_ROWS_RUN) == sorted(ids)
    for command in dict(_subcommand_parsers(cli.build_parser())):
        assert any(f"{row.argv} ".startswith(f"{command} ") for row in cli_rejections.ROWS), command


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
                "--rasters", f"sar={demo / 'scene_0.sar.pgrd'}",
                "--out", str(tmp_path / "r"),
            ],
            "infer",
            5,
            [cli.ATTENUATION_SETTINGS],
            # physical mode needs a modality, so the bare run supplies SAR
            AttenuationConfig(available=("SAR",)),
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
