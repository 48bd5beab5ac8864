"""Golden SHA-256 digests of the README quick-start at 32² with a short budget,
and of a training over scenes of several sizes (32² to 64²).

Every artifact the quick-start writes is byte-deterministic, so a refactor of
the I/O layer, the training step or the ablation ladder must reproduce these
digests exactly; the mixed-size training covers the step buffers of each
scene shape.  Float formatting and summation order belong to the numpy
build, so the digests are tied to the numpy version they were recorded with
and the test skips on any other version.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from physeg import benchmark
from physeg.cli import main
from physeg.losses import LossWeights
from physeg.refiner import Scene, TrainConfig, mock_backbone, train
from physeg.synth import SynthConfig, synthesize_scene

NUMPY_VERSION = "2.4.6"

QUICK_START = (
    ("synth", "--demo", "--out", "demo", "--seed", "0"),
    (
        "train", "--manifest", "demo/manifest.json", "--out", "params.psp",
        "--history", "history.csv", "--losses", "losses.json",
        "--seed", "0", "--epochs", "20", "--dropout", "0.25", "--residual-scale", "0.3",
    ),
    (
        "refine", "--params", "params.psp", "--pckg", "demo/pckg.json",
        "--features", "demo/scene_0.features.pgrd", "--coarse", "demo/scene_0.coarse.pgrd",
        "--rasters", "sar=demo/scene_0.sar.pgrd", "--mode", "physical", "--out", "refined",
    ),
    (
        "eval", "--pred", "refined/labels.pgrd", "--gt", "demo/scene_0.labels.pgrd",
        "--pckg", "demo/pckg.json", "--rasters", "sar=demo/scene_0.sar.pgrd", "--out", "eval.json",
    ),
    ("ablate", "--demo-dir", "demo", "--out", "ablation", "--seed", "0", "--epochs", "20"),
)

DIGESTS = {
    "demo/scene_0.labels.pgrd": "f4ed7252906e2d289788e05790bda9e36dc69112b10342f0eba1f4cde718574c",
    "demo/scene_0.features.pgrd": "1ff8ab98e7a888bb5cfeff1fba65ea6c1caf77431327df09c4d7af6779ce042f",
    "demo/scene_0.coarse.pgrd": "d365466ff45f74808f5d2ccf2762263997143e37f30885160de4a63a37d86d6e",
    "demo/scene_0.sar.pgrd": "daa43371ee5542ce9246ad0ccd4fd88b945a6e5c85703953e92b24844cbbe74e",
    "params.psp": "c5bc6b12b638fd459d9c432992252a999d4511507d18bf215dd8a41aff4e64b0",
    "history.csv": "ee972e9be045b85b972c6b308216ff7465b32d03058b134cadd849f2fdb56dd5",
    "losses.json": "837e86c07ecfd7df267455028b01aa062233591f3fbbac80286ed7d87a6615b0",
    "refined/labels.pgrd": "c439ffe2c449c917628fc9d80e74b79aed22577f67a8c3331b648a57ca6e3c69",
    "refined/probs.pgrd": "49b24711d27adecdf02a5d45b0d2df474187cc536d96940e6d41beb7471ec692",
    "refined/trace.jsonl": "cfd5ce7cff78f1ac2e6d65d1beb15398b460db4f06f7b86e012dc68435f39f92",
    "eval.json": "732203374e719842ee6b3489e9243919a25a84b4ab701210303c35ffc59d5491",
    "ablation/ablation.json": "dbf72cd1e8405b17d912e2b4e7e5c4605e0d2d9fadc13c3ee48c4ec7d47bf8bf",
}


# Training on scenes of several sizes, in mini-batches that mix them, with
# modality dropout: each scene shape has its own step buffers.
MIXED_SIZES = (32, 48, 64, 32)
MIXED_CONFIG = TrainConfig(
    seed=5,
    epochs=6,
    batch_size=3,
    weights=LossWeights(lambda2=0.4),
    modality_dropout_prob=0.5,
    residual_scale=0.3,
)
MIXED_DIGESTS = {
    "params": "9e5e09e06815f5adcbe20226e2484bcb1d932a6046cfcbea8d8f732ebf9586c6",
    "history": "4f56487157eb93f0900179d504ce6f475fe907debc665b4b0612350602e5cd27",
}

recorded_numpy = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"golden digests were recorded with numpy {NUMPY_VERSION}",
)


def mixed_shape_digests() -> dict:
    """SHA-256 of the parameters and of the history of a mixed-shape training."""
    graph = benchmark.demo_graph()
    scenes = []
    for k, size in enumerate(MIXED_SIZES):
        labels = benchmark.demo_labels(k, size=size)
        rasters = synthesize_scene(labels, graph, {"NDVI", "DEM", "SAR"}, SynthConfig(seed=k))
        features, coarse = mock_backbone(labels, graph, (benchmark.AMBIGUOUS_PAIR,), seed=10 + k)
        scenes.append(Scene(features, coarse, rasters, labels))
    return training_digests(*train(scenes, graph, MIXED_CONFIG))


def training_digests(params, history) -> dict:
    """SHA-256 of trained parameters and of their history."""
    arrays = (params.w1, params.b1, params.w2, params.b2)
    records = [{key: float(value).hex() for key, value in rec.items()} for rec in history]
    return {
        "params": hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest(),
        "history": hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest(),
    }


@recorded_numpy
def test_mixed_shape_training_matches_golden_digests():
    assert mixed_shape_digests() == MIXED_DIGESTS


@recorded_numpy
def test_quick_start_artifacts_match_golden_digests(tmp_path, monkeypatch, capsys):
    # relative paths keep the command lines, and so the provenance blocks, fixed
    monkeypatch.chdir(tmp_path)
    for argv in QUICK_START:
        assert main(list(argv)) == 0, argv
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert got == DIGESTS
