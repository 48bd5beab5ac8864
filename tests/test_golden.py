"""Golden SHA-256 digests of the README quick-start at 32² with a short budget.

Every artifact the quick-start writes is byte-deterministic, so a refactor of
the I/O layer, the training step or the ablation ladder must reproduce these
digests exactly.  Float formatting and summation order belong to the numpy
build, so the digests are tied to the numpy version they were recorded with
and the test skips on any other version.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from physeg.cli import main

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
    "eval.json": "d6094c9428e2a46c6e525bc6bf442d12ef68cc107a741578b13d7a1e4fbaf463",
    "ablation/ablation.json": "dbf72cd1e8405b17d912e2b4e7e5c4605e0d2d9fadc13c3ee48c4ec7d47bf8bf",
}


@pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"golden digests were recorded with numpy {NUMPY_VERSION}",
)
def test_quick_start_artifacts_match_golden_digests(tmp_path, monkeypatch, capsys):
    # relative paths keep the command lines, and so the provenance blocks, fixed
    monkeypatch.chdir(tmp_path)
    for argv in QUICK_START:
        assert main(list(argv)) == 0, argv
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert got == DIGESTS
