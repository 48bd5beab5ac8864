from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from physeg import benchmark, cli
from physeg.benchmark import (
    AMBIGUOUS_PAIR,
    build_demo,
    demo_graph,
    demo_labels,
    evaluate_rows,
    format_table,
    load_manifest,
)
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
    graph, scenes, manifest = load_manifest(str(tmp_path))
    assert graph.num_classes == 4
    assert len(scenes) == 2
    for scene in scenes:
        assert scene.labels.shape == (16, 16)
        assert scene.coarse.shape == (16, 16, 4)
        assert set(scene.rasters) == {"NDVI", "DEM", "SAR"}
    assert manifest["seed"] == 4


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
    graph, scenes, manifest = load_manifest(str(tmp_path / "demo"))
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
    graph, scenes, manifest = load_manifest(str(tmp_path / "demo"))
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
    graph, scenes, manifest = load_manifest(str(tmp_path / "demo"))
    with pytest.raises(RuntimeError, match="^ablation worker exited with code 3 and no result$"):
        evaluate_rows(graph, scenes, manifest, epochs=2)
    assert multiprocessing.active_children() == []


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
    demo = str(tmp_path / "demo")
    build_demo(demo, seed=0)
    script = tmp_path / "ablate.py"
    script.write_text(START_METHOD_SCRIPT)
    src = os.path.dirname(os.path.dirname(os.path.abspath(benchmark.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, str(script), method, demo],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    expected = evaluate_rows(*load_manifest(demo), epochs=20)
    assert out == json.dumps(expected, sort_keys=True) + "\n"
