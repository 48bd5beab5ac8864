"""Deterministic toy benchmark: scenes with one physically resolvable ambiguity.

Four classes; the two roof classes share visual statistics (the mock backbone
splits their coarse probability ~50/50) and are separable only through SAR
backscatter.  Their SAR intervals are disjoint with a 1 dB gap, but the
sampling piles mass exactly at the facing interval edges, where Gaussian
attenuation is nearly neutral: re-weighting alone cannot decide those pixels,
which is precisely the headroom the physics-consistency loss claims in the
ablation ladder.  Scenes, rasters, features and coarse maps all derive from
one seed, are written as grid files plus a manifest, and feed the training /
inference / ablation commands.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .gridio import read_grid_as, write_grid
# infer is not called here; perfbench's traced runs patch it under this module's name
from .inference import AttenuationConfig, attenuate, available_rasters, infer  # noqa: F401
from .losses import LossWeights
from .metrics import confusion_counts, miou_from_confusion
from .priors import MODALITIES, Interval, PriorEntry, PriorGraph, load_graph, modality_order, save_graph
from .refiner import Scene, TrainConfig, assemble_joint, mock_backbone, refine, train
from .synth import SynthConfig, synthesize_scene

AMBIGUOUS_PAIR = (1, 2)
INFERENCE_MODALITIES = ("SAR",)
MANIFEST_NAME = "manifest.json"


DEMO_SCENES = 3
DEMO_SIZE = 32
DEMO_EPOCHS = 500
DEMO_LEARNING_RATE = 0.05
DEMO_DROPOUT = 0.25
DEMO_RESIDUAL_SCALE = 0.3
DEMO_PHYS_LAMBDA2 = 0.40


def demo_graph() -> PriorGraph:
    """Four-class graph; the roof pair is separable only via SAR backscatter."""

    def entry(category, meaning, coarse, ndvi, dem, sar, reasoning):
        return PriorEntry(
            category=category,
            meaning=meaning,
            modifier_analysis="none",
            coarse_class=coarse,
            ndvi_range=Interval(*ndvi),
            dem_range=Interval(*dem),
            sar_range=Interval(*sar),
            reasoning=reasoning,
        )

    return PriorGraph(
        (
            entry(
                "metal roof",
                "building roof made of metal sheeting",
                "building",
                (-0.10, 0.10),
                (0.00, 100.00),
                (-5.00, 4.00),
                "bare metal acts as a corner reflector, returning strong radar echoes",
            ),
            entry(
                "concrete roof",
                "building roof made of concrete",
                "building",
                (-0.10, 0.10),
                (0.00, 100.00),
                (-20.00, -6.00),
                "rough concrete scatters radar diffusely, returning weak echoes",
            ),
            entry(
                "grassland",
                "low herbaceous vegetation cover",
                "vegetation",
                (0.40, 0.80),
                (0.00, 100.00),
                (-14.00, -8.00),
                "chlorophyll raises NDVI well above built surfaces",
            ),
            entry(
                "water",
                "open water body",
                "water",
                (-0.50, -0.10),
                (0.00, 20.00),
                (-26.00, -19.00),
                "smooth water reflects radar away from the sensor and absorbs NIR",
            ),
        )
    )


def demo_labels(scene_index: int, size: int = 32) -> np.ndarray:
    """Blocky class layout; each scene rotates the tile assignment."""
    tiles = size // 8
    labels = np.zeros((size, size), dtype=np.int32)
    for ti in range(tiles):
        for tj in range(tiles):
            cid = 1 + (ti + 2 * tj + scene_index) % 4
            labels[ti * 8 : (ti + 1) * 8, tj * 8 : (tj + 1) * 8] = cid
    return labels


def build_demo(
    out_dir, seed: int = 0, num_scenes: int = DEMO_SCENES, size: int = DEMO_SIZE
) -> dict:
    """Write graph, scenes and manifest under out_dir; returns the manifest dict.

    Each scene's grids are written as they are made: its labels, then the
    mock backbone's features and coarse map, which are dropped before its
    rasters are synthesized, so the two sets are never alive together.
    Every array has its own seed, so the files do not depend on this order.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if num_scenes < 1:
        raise ValueError(f"scenes must be >= 1, got {num_scenes}")
    if size < 8:
        raise ValueError(f"size must be >= 8 (one 8x8 class tile), got {size}")
    os.makedirs(out_dir, exist_ok=True)
    graph = demo_graph()
    save_graph(graph, os.path.join(out_dir, "pckg.json"))

    scenes = []
    for k in range(num_scenes):
        names = {
            "labels": f"scene_{k}.labels.pgrd",
            "features": f"scene_{k}.features.pgrd",
            "coarse": f"scene_{k}.coarse.pgrd",
            "rasters": {m: f"scene_{k}.{m.lower()}.pgrd" for m in MODALITIES},
        }
        labels = demo_labels(k, size=size)
        write_grid(os.path.join(out_dir, names["labels"]), "LABEL", labels)
        features, coarse = mock_backbone(
            labels, graph, (AMBIGUOUS_PAIR,), seed=seed * 1000 + 500 + k
        )
        write_grid(os.path.join(out_dir, names["features"]), "FEAT", features)
        write_grid(os.path.join(out_dir, names["coarse"]), "PROB", coarse)
        del features, coarse
        rasters = synthesize_scene(labels, graph, MODALITIES, SynthConfig(seed=seed * 1000 + k))
        for modality, grid in rasters.items():
            write_grid(os.path.join(out_dir, names["rasters"][modality]), modality, grid)
        del rasters
        scenes.append(names)

    manifest = {
        "pckg": "pckg.json",
        "scenes": scenes,
        "inference_available": list(INFERENCE_MODALITIES),
        "ambiguous_pair": list(AMBIGUOUS_PAIR),
        "seed": seed,
    }
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def read_scene(names, root=""):
    """The ``Scene`` of one manifest scene entry, each of its paths joined to ``root``.

    Reads ``features`` as FEAT, ``coarse`` as PROB, each of ``rasters``
    ({modality: path}) as its modality, then ``labels`` as LABEL.
    """
    return Scene(
        features=read_grid_as(os.path.join(root, names["features"]), "FEAT"),
        coarse=read_grid_as(os.path.join(root, names["coarse"]), "PROB"),
        rasters={m: read_grid_as(os.path.join(root, file), m) for m, file in names["rasters"].items()},
        labels=read_grid_as(os.path.join(root, names["labels"]), "LABEL"),
    )


def load_manifest(path, reweights=()):
    """Load the manifest file ``path`` into (graph, scenes, manifest).

    Each scene entry is read by ``read_scene``, its files resolved against
    the manifest's directory.  ``reweights`` names the modalities the caller
    re-weights with when the manifest has no ``inference_available``; every
    scene must name a raster for each of them, and its raster keys must be
    modality names in exact case (``SAR``, not ``sar``).  All of this is
    checked with the rest of the manifest before any other file is read.
    """
    root = os.path.dirname(path)
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("scenes"), list)
        and isinstance(manifest.get("pckg"), str)
    ):
        raise ValueError(
            f"{path}: manifest must be a JSON object with a 'scenes' list and a 'pckg' string"
        )
    if not manifest["scenes"]:
        raise ValueError(f"{path}: manifest lists no scenes")
    # the modalities the re-weighting rows read: every scene must name a raster for each
    available, source = list(reweights), "the modalities re-weighted by default"
    if "inference_available" in manifest:
        available, source = manifest["inference_available"], "'inference_available'"
        named = isinstance(available, list) and all(isinstance(m, str) for m in available)
        if not (named and available):
            raise ValueError(f"{path}: 'inference_available' must be a non-empty list of modalities")
        try:
            modality_order(available)
        except ValueError as exc:
            raise ValueError(f"{path}: 'inference_available': {exc}") from None
    for k, names in enumerate(manifest["scenes"]):
        if not isinstance(names, dict):
            raise ValueError(f"{path}: scene {k} is not a JSON object")
        missing = [key for key in ("features", "coarse", "labels", "rasters") if key not in names]
        if missing:
            raise ValueError(f"{path}: scene {k} lacks {', '.join(map(repr, missing))}")
        if not isinstance(names["rasters"], dict):
            raise ValueError(f"{path}: scene {k} 'rasters' is not a JSON object")
        bad = [key for key in ("features", "coarse", "labels") if not isinstance(names[key], str)]
        bad += [m for m, file in names["rasters"].items() if not isinstance(file, str)]
        if bad:
            raise ValueError(
                f"{path}: scene {k} file paths are not strings: {', '.join(map(repr, bad))}"
            )
        try:
            modality_order(names["rasters"])
        except ValueError as exc:
            raise ValueError(f"{path}: scene {k} 'rasters': {exc}") from None
        lacking = [m for m in available if m not in names["rasters"]]
        if lacking:
            raise ValueError(
                f"{path}: scene {k} 'rasters' lacks {', '.join(map(repr, lacking))} from {source}"
            )
    graph = load_graph(os.path.join(root, manifest["pckg"]))
    return graph, [read_scene(names, root) for names in manifest["scenes"]], manifest


def demo_train_config(seed, epochs, learning_rate, lambda2) -> TrainConfig:
    """Training settings of the demo ablation for one physics-loss weight."""
    return TrainConfig(
        seed=seed,
        epochs=epochs,
        learning_rate=learning_rate,
        weights=LossWeights(lambda2=lambda2),
        modality_dropout_prob=DEMO_DROPOUT,
        residual_scale=DEMO_RESIDUAL_SCALE,
    )


# one row per component of the paper's ablation, each adding to the row above:
# (name, synthetic training, interval re-weighting, physics loss)
LADDER = (
    ("baseline", False, False, False),
    ("+synth-training", True, False, False),
    ("+pckg-reweight", True, True, False),
    ("+phys-loss", True, True, True),
)
_LADDER_KEYS = ("name", "use_synth_data", "use_pckg_reweight", "use_phys_loss")


def _send_head(conn, scenes, graph, config):
    """Worker process: send one head's parameters, or the exception that stopped it."""
    try:
        result = train(scenes, graph, config)[0]
    except Exception as exc:
        result = exc
    conn.send(result)
    conn.close()


def _receive_head(receiver, worker):
    """The worker's result, or a RuntimeError once it has exited without one."""
    from multiprocessing.connection import wait

    # wait for the worker's exit as well as for the pipe: under spawn and
    # forkserver this process holds a copy of the sending end until the worker
    # has taken it, so a worker that dies before that never ends the pipe
    wait([receiver, worker.sentinel])
    if receiver.poll():
        try:
            return receiver.recv()
        except EOFError:
            pass
    worker.join()
    raise RuntimeError(f"ablation worker exited with code {worker.exitcode} and no result")


def _check_main_reimportable(context):
    """RuntimeError if a worker of ``context`` could not re-import the main program.

    Under spawn and forkserver a worker re-runs a main program that has no
    module name from the path ``multiprocessing.spawn`` records for it; a
    program read from standard input records ``<stdin>``, which is no file.
    """
    if context.get_start_method() == "fork":
        return
    from multiprocessing import spawn

    path = spawn.get_preparation_data("ablation worker").get("init_main_from_path")
    if path is not None and not os.path.exists(path):
        raise RuntimeError(
            f"the ablation worker cannot start under the {context.get_start_method()} start "
            f"method: it re-runs the main program from {path!r}, which does not exist "
            "(a program read from standard input?); run the program from a file, or "
            "use the fork start method"
        )


def evaluate_rows(
    graph,
    scenes,
    manifest,
    seed=0,
    epochs=DEMO_EPOCHS,
    learning_rate=DEMO_LEARNING_RATE,
    baseline_only=False,
):
    """Run the ablation ladder (``LADDER``, or its baseline row alone); returns the table.

    The refiner trains once per physics-loss setting, both heads up front and
    side by side: this process trains the head without the physics loss while
    one worker process trains the head with it.  Each head is one seeded
    ``train`` call, so the table does not depend on where it ran.  With
    ``baseline_only`` nothing trains and no worker starts; otherwise a scene
    without a raster of the manifest's ``inference_available`` (SAR when the
    key is absent) is a ValueError before anything trains.  An exception in
    the worker is raised here with its class and message; an exception here
    stops the worker at once.  A worker that dies without a result is a
    RuntimeError.  Under the spawn and forkserver start methods the worker
    re-imports the main program, so that program must be a file (under a
    ``__main__`` guard): for a main program read from standard input this
    call raises RuntimeError before any training or worker starts.  The
    re-weighting rows take ``attenuate``'s labels and build no flip trace.
    """
    # built first, so a bad seed, epoch count or rate fails even with nothing to train
    configs = {
        phys: demo_train_config(seed, epochs, learning_rate, DEMO_PHYS_LAMBDA2 if phys else 0.0)
        for phys in (False, True)
    }
    available = tuple(manifest.get("inference_available", INFERENCE_MODALITIES))
    gating = AttenuationConfig(available=available)
    ladder = LADDER[:1] if baseline_only else LADDER
    # each scene's rasters for the refined rows, chosen as infer chooses them
    # and before any head trains; the baseline row reads none
    selected = []
    for k, scene in enumerate([] if baseline_only else scenes):
        try:
            selected.append(available_rasters(scene.rasters, gating))
        except ValueError as exc:
            raise ValueError(f"scene {k}: {exc}") from None

    heads = {}
    if not baseline_only:
        # imported here: `import physeg.cli` must not load multiprocessing
        import multiprocessing

        context = multiprocessing.get_context()
        _check_main_reimportable(context)
        receiver, sender = context.Pipe(duplex=False)
        worker = context.Process(target=_send_head, args=(sender, scenes, graph, configs[True]))
        worker.start()
        sender.close()
        try:
            heads[False] = train(scenes, graph, configs[False])[0]
            phys = _receive_head(receiver, worker)
            if isinstance(phys, Exception):
                raise phys
            heads[True] = phys
        finally:
            # a no-op when the worker is done; otherwise the caller failed
            worker.terminate()
            worker.join()
            receiver.close()

    def predict(k, synth, reweight, phys_loss):
        scene = scenes[k]
        if not synth:
            return (scene.coarse.argmax(axis=2) + 1).astype(np.int32)
        # rows without re-weighting still refine in visual-physical mode: the
        # available rasters populate the joint tensor, only the interval
        # gating at the output is toggled
        rasters = selected[k]
        # the joint parts are dropped before re-weighting, as in infer
        refined = refine(
            heads[phys_loss], assemble_joint(scene.features, scene.coarse, rasters, graph), scene.coarse
        )[0]
        if reweight:
            return attenuate(refined, rasters, graph, gating)[1]
        return (refined.argmax(axis=2) + 1).astype(np.int32)

    rows = []
    for entry in ladder:
        row = dict(zip(_LADDER_KEYS, entry))
        conf = sum(
            confusion_counts(predict(k, *entry[1:]), s.labels, graph.num_classes)
            for k, s in enumerate(scenes)
        )
        row["miou"] = miou_from_confusion(conf).miou
        row["delta"] = row["miou"] - rows[-1]["miou"] if rows else 0.0
        rows.append(row)
    return {
        "rows": rows,
        "ordering_ok": all(a["miou"] < b["miou"] for a, b in zip(rows, rows[1:])),
        "seed": seed,
        "epochs": epochs,
        "learning_rate": learning_rate,
    }


def format_table(table: dict) -> str:
    header = f"{'row':<18} {'synth':>5} {'pckg':>5} {'phys':>5} {'mIoU':>8} {'delta':>8}"
    lines = [header, "-" * len(header)]
    for row in table["rows"]:
        lines.append(
            f"{row['name']:<18} "
            f"{'x' if row['use_synth_data'] else '':>5} "
            f"{'x' if row['use_pckg_reweight'] else '':>5} "
            f"{'x' if row['use_phys_loss'] else '':>5} "
            f"{row['miou']:8.4f} {row['delta']:+8.4f}"
        )
    lines.append(f"ordering non-decreasing and strict: {'yes' if table['ordering_ok'] else 'NO'}")
    return "\n".join(lines)
