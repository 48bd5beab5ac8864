from __future__ import annotations

import dataclasses
import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest

from physeg import benchmark, cli, inference
from physeg.benchmark import (
    AMBIGUOUS_PAIR,
    build_demo,
    demo_graph,
    demo_labels,
    evaluate_rows,
    format_table,
    load_manifest,
    read_scene,
)
from physeg.priors import MODALITIES, interval_distance_grid
from physeg.refiner import TrainingError


def test_demo_graph_shape():
    graph = demo_graph()
    assert graph.num_classes == 4
    a, b = AMBIGUOUS_PAIR
    # the ambiguous pair is SAR-separable: disjoint intervals
    sar_a, sar_b = graph.interval(a, "SAR"), graph.interval(b, "SAR")
    assert sar_a.lo > sar_b.hi or sar_b.lo > sar_a.hi
    # and visually confusable: identical NDVI/DEM priors
    assert graph.interval(a, "NDVI") == graph.interval(b, "NDVI")
    assert graph.interval(a, "DEM") == graph.interval(b, "DEM")


def test_demo_labels_cover_all_classes():
    for k in range(3):
        labels = demo_labels(k)
        assert labels.shape == (32, 32)
        assert sorted(np.unique(labels).tolist()) == [1, 2, 3, 4]


def test_manifest_round_trip(tmp_path):
    build_demo(str(tmp_path), seed=4, num_scenes=2, size=16)
    graph, scenes, manifest = load_manifest(str(tmp_path / benchmark.MANIFEST_NAME))
    assert graph.num_classes == 4
    assert len(scenes) == 2
    for scene in scenes:
        assert scene.labels.shape == (16, 16)
        assert scene.coarse.shape == (16, 16, 4)
        assert set(scene.rasters) == {"NDVI", "DEM", "SAR"}
    assert manifest["seed"] == 4


def test_read_scene_reads_each_grid_once_in_entry_order(tmp_path, monkeypatch):
    names = build_demo(str(tmp_path), seed=4, num_scenes=2, size=16)["scenes"][1]
    # a path given whole stays whole: os.path.join drops the root before it
    names = dict(names, labels=str(tmp_path / names["labels"]))
    reads, read = [], benchmark.read_grid_as

    def spy(path, kind):
        reads.append((path, kind))
        return read(path, kind)

    monkeypatch.setattr(benchmark, "read_grid_as", spy)
    scene = read_scene(names, str(tmp_path))
    expected = [(names["features"], "FEAT"), (names["coarse"], "PROB")]
    expected += [(names["rasters"][m], m) for m in MODALITIES] + [(names["labels"], "LABEL")]
    assert reads == [(os.path.join(str(tmp_path), path), kind) for path, kind in expected]
    assert list(scene.rasters) == list(MODALITIES)
    assert scene.labels.dtype == np.int32 and np.array_equal(scene.labels, demo_labels(1, size=16))


def test_perfbench_patches_resolve():
    # perfbench times physeg by patching these names: a rename would zero a metric silently
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, attr, _ in spans.PATCHES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_format_table_mentions_rows():
    table = {
        "rows": [
            {
                "name": "baseline",
                "use_synth_data": False,
                "use_pckg_reweight": False,
                "use_phys_loss": False,
                "miou": 0.5,
                "delta": 0.0,
            }
        ],
        "ordering_ok": True,
    }
    text = format_table(table)
    assert "baseline" in text and "0.5000" in text


@pytest.fixture
def fork_start_method():
    """Fork workers for the test's duration: a forked worker sees monkeypatches."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    yield
    multiprocessing.set_start_method(previous, force=True)


def test_worker_failure_reaches_the_caller(tmp_path, monkeypatch, capsys, fork_start_method):
    real_train = benchmark.train

    def train(scenes, graph, config):
        if config.weights.lambda2 > 0:
            raise TrainingError(f"diverged in process {os.getpid()}")
        return real_train(scenes, graph, config)

    monkeypatch.setattr(benchmark, "train", train)
    build_demo(str(tmp_path / "demo"), seed=0)
    graph, scenes, manifest = load_manifest(str(tmp_path / "demo" / benchmark.MANIFEST_NAME))
    with pytest.raises(TrainingError, match=r"^diverged in process \d+$") as caught:
        evaluate_rows(graph, scenes, manifest, epochs=2)
    # the physics-loss head trained in a worker, not here
    assert str(caught.value) != f"diverged in process {os.getpid()}"

    out = tmp_path / "ablation"
    argv = ["ablate", "--demo-dir", str(tmp_path / "demo"), "--epochs", "2", "--out", str(out)]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "TrainingError"
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_caller_failure_stops_the_worker(tmp_path, monkeypatch, fork_start_method):
    def train(scenes, graph, config):
        if config.weights.lambda2 > 0:
            time.sleep(30)  # the worker's head; it must not be waited for
        raise TrainingError("diverged in the caller")

    monkeypatch.setattr(benchmark, "train", train)
    build_demo(str(tmp_path / "demo"), seed=0)
    graph, scenes, manifest = load_manifest(str(tmp_path / "demo" / benchmark.MANIFEST_NAME))
    start = time.monotonic()
    with pytest.raises(TrainingError, match="^diverged in the caller$"):
        evaluate_rows(graph, scenes, manifest, epochs=2)
    assert time.monotonic() - start < 10.0
    assert multiprocessing.active_children() == []


def test_worker_death_is_an_error(tmp_path, monkeypatch, fork_start_method):
    real_train = benchmark.train

    def train(scenes, graph, config):
        if config.weights.lambda2 > 0:
            os._exit(3)  # the worker dies without sending a result
        return real_train(scenes, graph, config)

    monkeypatch.setattr(benchmark, "train", train)
    build_demo(str(tmp_path / "demo"), seed=0)
    graph, scenes, manifest = load_manifest(str(tmp_path / "demo" / benchmark.MANIFEST_NAME))
    with pytest.raises(RuntimeError, match="^ablation worker exited with code 3 and no result$"):
        evaluate_rows(graph, scenes, manifest, epochs=2)
    assert multiprocessing.active_children() == []


def test_ablation_builds_no_trace(tmp_path, monkeypatch, fork_start_method):
    def reweight(*args):
        raise AssertionError("the ablation built a flip trace")

    calls = []

    def counted(values, interval):
        calls.append(type(values))
        return interval_distance_grid(values, interval)

    monkeypatch.setattr(inference, "reweight", reweight)
    monkeypatch.setattr(inference, "interval_distance_grid", counted)
    build_demo(str(tmp_path / "demo"), seed=0)
    graph, scenes, manifest = load_manifest(str(tmp_path / "demo" / benchmark.MANIFEST_NAME))
    table = evaluate_rows(graph, scenes, manifest, epochs=2)
    assert [row["name"] for row in table["rows"]] == [entry[0] for entry in benchmark.LADDER]
    # one call per (modality, class) per scene in each re-weighting row, none per flip
    rows = sum(entry[2] for entry in benchmark.LADDER)
    m = len(manifest["inference_available"])
    assert calls == [np.ndarray] * (rows * len(scenes) * m * graph.num_classes)


def test_build_demo_writes_rasters_without_the_backbone_maps(tmp_path, monkeypatch):
    # 64x64: the mock backbone's features and coarse map are (H, W, 4) float64 maps
    map_bytes = 64 * 64 * 4 * 8
    # a first run loads whatever build_demo imports lazily, which would count as held
    build_demo(str(tmp_path / "first"), seed=0, num_scenes=1, size=64)
    held = {}
    real_write_grid = benchmark.write_grid

    def write_grid(path, kind, values):
        held[kind] = tracemalloc.get_traced_memory()[0] - base
        real_write_grid(path, kind, values)

    monkeypatch.setattr(benchmark, "write_grid", write_grid)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_demo(str(tmp_path / "demo"), seed=0, num_scenes=1, size=64)
    finally:
        tracemalloc.stop()
    assert set(held) == {"LABEL", "FEAT", "PROB", *MODALITIES}
    # labels and the three rasters; the backbone maps are already freed
    assert max(held[m] for m in MODALITIES) < 1.5 * map_bytes


def test_baseline_only_reads_no_raster(tmp_path):
    # the refined rows would need each scene's SAR raster; the baseline row reads none
    build_demo(str(tmp_path), seed=0, num_scenes=2, size=16)
    graph, scenes, _ = load_manifest(str(tmp_path / benchmark.MANIFEST_NAME))
    bare = [dataclasses.replace(scene, rasters={}) for scene in scenes]
    table = evaluate_rows(graph, bare, {}, baseline_only=True)
    assert table == evaluate_rows(graph, scenes, {}, baseline_only=True)
    with pytest.raises(ValueError, match=r"^scene 0: modalities declared available but not supplied: \['SAR'\]$"):
        evaluate_rows(graph, bare, {}, epochs=1)


# Run as a script so that spawn and forkserver workers re-import it as a module.
START_METHOD_SCRIPT = """
import json, multiprocessing, sys
from physeg.benchmark import evaluate_rows, load_manifest

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    print(json.dumps(evaluate_rows(*load_manifest(sys.argv[2]), epochs=20), sort_keys=True))
"""


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_table_is_the_same_under_every_start_method(tmp_path, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} start method unavailable")
    build_demo(str(tmp_path / "demo"), seed=0)
    manifest = str(tmp_path / "demo" / benchmark.MANIFEST_NAME)
    script = tmp_path / "ablate.py"
    script.write_text(START_METHOD_SCRIPT)
    src = os.path.dirname(os.path.dirname(os.path.abspath(benchmark.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, str(script), method, manifest],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    expected = evaluate_rows(*load_manifest(manifest), epochs=20)
    assert out == json.dumps(expected, sort_keys=True) + "\n"


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_main_program_from_stdin_is_an_error_before_any_worker(tmp_path, monkeypatch, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} start method unavailable")
    # what `python - < script.py` leaves as the main module
    stdin_main = types.ModuleType("__main__")
    stdin_main.__file__ = "<stdin>"
    build_demo(str(tmp_path / "demo"), seed=0)
    graph, scenes, manifest = load_manifest(str(tmp_path / "demo" / benchmark.MANIFEST_NAME))

    def fail(what):
        def call(*args, **kwargs):
            raise AssertionError(f"{what} started")

        return call

    get_context = multiprocessing.get_context
    context = get_context(method)
    monkeypatch.setitem(sys.modules, "__main__", stdin_main)
    monkeypatch.setattr(multiprocessing, "get_context", lambda: context)
    monkeypatch.setattr(context, "Process", fail("a worker"))
    monkeypatch.setattr(benchmark, "train", fail("a head's training"))
    with pytest.raises(RuntimeError, match=rf"under the {method} start method: .*<stdin>"):
        evaluate_rows(graph, scenes, manifest, epochs=2)
    assert multiprocessing.active_children() == []
    # a forked worker inherits the main program instead of re-running it
    assert benchmark._check_main_reimportable(get_context("fork")) is None
