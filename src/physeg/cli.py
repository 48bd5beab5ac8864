"""Command-line pipeline: graph validation/extraction, synthesis, training,
refinement, evaluation and the ablation ladder.

Every command is a thin deterministic wrapper over one module: identical
arguments and seed produce byte-identical artifacts.  JSON outputs embed a
provenance block (command line, seed, config digest); grid/parameter/trace
files get a ``<name>.meta.json`` sidecar with the same block, since their
formats have no comment syntax.

Exit codes: 0 success, 1 usage, validation or input error, 2 runtime or
numeric error, 3 transport (LLM provider) error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import warnings

from . import __version__, benchmark
from .extraction import ExtractionError, ProviderConfig, TransportError, extract_graph
from .gridio import read_grid_as, read_params, write_grid, write_history_csv, write_params
from .inference import AttenuationConfig, available_rasters, infer
from .losses import COMPONENTS, LossWeights
from .metrics import miou, plausibility_rate, reliability
from .priors import (
    MODALITIES,
    EmptyGraphWarning,
    PriorError,
    check_rasters,
    load_graph,
    modality_order,
    save_graph,
)
from .refiner import TrainConfig, TrainingError, evaluate_losses, train
from .synth import SynthConfig, synthesize_scene

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RUNTIME = 2
EXIT_TRANSPORT = 3


class UsageError(ValueError):
    """A command line the parser rejects: unknown flag, bad value, missing argument."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _load_config_file(path, keys):
    """The JSON object in ``path`` (``{}`` without one).

    ``keys`` maps each key it may set to the type of that key's flag; a value
    must be the JSON kind of that type, and null means unset.
    """
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = ", ".join(key for key in config if key not in keys)
    if unknown:
        raise ValueError(f"config file {path} sets keys the command does not read: {unknown}")
    kinds = {int: ("an integer", int), float: ("a number", (int, float)), str: ("a string", str)}
    wrong = "; ".join(
        f"key {key!r} must be {kinds[keys[key]][0]}, got {json.dumps(value)}"
        for key, value in config.items()
        if value is not None and (isinstance(value, bool) or not isinstance(value, kinds[keys[key]][1]))
    )
    if wrong:
        raise ValueError(f"config file {path}: {wrong}")
    return config


def _resolve(args, config, key, default=None):
    """Explicit CLI flag wins, then the config file, then the default."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    return default if value is None else value


# One table per config dataclass: flag / config-file key -> the field it sets.
# The dataclass owns each default, and the type of that default is the type of
# the flag, which a config-file value must match (an integer also serves a float).
PROVIDER_SETTINGS = {
    "endpoint": "endpoint",
    "fixtures": "fixture_dir",
    "timeout": "request_timeout",
    "retries": "max_retries",
    "model": "model",
    "parallelism": "parallelism",
}
SYNTH_SETTINGS = {"seed": "seed", "noise": "noise_model", "smoothing": "smoothing_radius"}
TRAIN_SETTINGS = {
    "seed": "seed",
    "lr": "learning_rate",
    "epochs": "epochs",
    "batch_size": "batch_size",
    "dropout": "modality_dropout_prob",
    "hidden": "hidden",
    "residual_scale": "residual_scale",
}
LOSS_SETTINGS = {"alpha": "alpha", "lambda1": "lambda1", "lambda2": "lambda2"}
ATTENUATION_SETTINGS = {"sigma_rel": "sigma_rel", "tau_rel": "tau_rel"}


# Per command, the inputs (flags and config-file keys) only one mode reads, keyed
# by that mode; every other input is read in all modes, so a mode may have no entry.
# A run has one mode per axis: pckg extract reads its vocabulary from --vocab or
# --vocab-file, and its responses from a live endpoint or from fixtures.
MODE_INPUTS = {
    "pckg extract": {
        "--vocab": "vocab",
        "--vocab-file": "vocab_file",
        "--live": "endpoint timeout model",
        "without --live": "fixtures",
    },
    "synth": {"--demo": "scenes size", "without --demo": "pckg labels modalities noise smoothing"},
    "train": {"without --manifest": "pckg labels features coarse rasters"},
    "refine": {"--mode physical": "available sigma_rel tau_rel"},
    "eval": {"with --synthetic and --reference": "synthetic reference modality"},
}


def _check_mode(command, args, config, *modes):
    """Reject each input, as a flag or a config-file key, that only another mode reads."""
    unused = [
        "--" + key.replace("_", "-")
        for name, keys in MODE_INPUTS[command].items() if name not in modes
        for key in keys.split() if _resolve(args, config, key) is not None
    ]
    if unused:
        raise ValueError(f"{command} {' '.join(modes)} does not use {', '.join(unused)}")


def _field_defaults(cls, table):
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return {key: defaults[name] for key, name in table.items()}


def _add_settings(parser, cls, table):
    for key, default in _field_defaults(cls, table).items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default))


def _settings(cls, table, args, config, **fixed):
    """Build ``cls`` from its setting table; returns (instance, {key: value})."""
    resolved = {
        key: type(default)(_resolve(args, config, key, default))
        for key, default in _field_defaults(cls, table).items()
    }
    return cls(**{table[key]: value for key, value in resolved.items()}, **fixed), resolved


def _provenance(argv, seed, resolved):
    digest = hashlib.sha256(
        json.dumps(resolved, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()
    return {"command": ["physeg"] + list(argv), "seed": seed, "config_digest": digest}


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_sidecar(path, provenance):
    _write_json(str(path) + ".meta.json", {"provenance": provenance})


def _parse_rasters(raw):
    """Parse 'ndvi=a.pgrd,sar=b.pgrd' into {modality: path}."""
    if not raw:
        return {}
    pairs = []
    for item in raw.split(","):
        if "=" not in item:
            raise ValueError(f"raster argument {item!r} must look like sar=PATH")
        key, path = item.split("=", 1)
        pairs.append((key.strip().upper(), path.strip()))
    try:
        modality_order([key for key, _ in pairs])
    except ValueError as exc:
        raise ValueError(f"raster argument {raw!r}: {exc}") from None
    return dict(pairs)


def _load_rasters(table):
    return {name: read_grid_as(path, name) for name, path in table.items()}


def _parse_modalities(raw, default=()):
    if raw is None:
        return tuple(default)
    names = [part.strip().upper() for part in raw.split(",") if part.strip()]
    modality_order(names)  # checks the names; the user's order reaches provenance
    return tuple(names)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_pckg_validate(args, argv, config):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", EmptyGraphWarning)
        graph = load_graph(args.pckg)
    report = {
        "valid": True,
        "classes": graph.num_classes,
        "categories": list(graph.categories),
        "warnings": [str(w.message) for w in caught],
    }
    resolved = {"pckg": args.pckg}
    report["provenance"] = _provenance(argv, None, resolved)
    if args.out:
        _write_json(args.out, report)
    print(json.dumps({k: report[k] for k in ("valid", "classes", "warnings")}, sort_keys=True))
    return EXIT_OK


def cmd_pckg_extract(args, argv, config):
    vocab_mode = "--vocab-file" if args.vocab_file else "--vocab"
    _check_mode("pckg extract", args, config, vocab_mode, "--live" if args.live else "without --live")
    if args.vocab_file:
        with open(args.vocab_file, encoding="utf-8") as fh:
            terms = [line.strip() for line in fh if line.strip()]
    elif args.vocab:
        terms = [t.strip() for t in args.vocab.split(",") if t.strip()]
    else:
        raise ValueError("pckg extract needs --vocab or --vocab-file")
    provider, _ = _settings(
        ProviderConfig, PROVIDER_SETTINGS, args, config, mode="live" if args.live else "fixture"
    )
    graph, report = extract_graph(terms, provider)
    save_graph(graph, args.out)
    resolved = {"terms": terms, "mode": provider.mode, "retries": provider.max_retries}
    provenance = _provenance(argv, None, resolved)
    _write_sidecar(args.out, provenance)
    if args.report:
        payload = report.to_json_dict()
        payload["provenance"] = provenance
        _write_json(args.report, payload)
    print(
        json.dumps(
            {"classes": graph.num_classes, "failed": len(report.failures)}, sort_keys=True
        )
    )
    return EXIT_OK


def cmd_synth(args, argv, config):
    _check_mode("synth", args, config, "--demo" if args.demo else "without --demo")
    synth_config, resolved = _settings(SynthConfig, SYNTH_SETTINGS, args, config)
    seed = synth_config.seed
    out_dir = args.out

    if args.demo:
        scenes = _resolve(args, config, "scenes", benchmark.DEMO_SCENES)
        size = _resolve(args, config, "size", benchmark.DEMO_SIZE)
        resolved = {"demo": True, "seed": seed, "scenes": scenes, "size": size}
        provenance = _provenance(argv, seed, resolved)
        manifest = benchmark.build_demo(out_dir, seed=seed, num_scenes=scenes, size=size)
        manifest["provenance"] = provenance
        _write_json(os.path.join(out_dir, benchmark.MANIFEST_NAME), manifest)
        print(json.dumps({"scenes": len(manifest["scenes"]), "out": out_dir}, sort_keys=True))
        return EXIT_OK

    if not args.pckg or not args.labels:
        raise ValueError("synth needs --pckg and --labels (or --demo)")
    modalities = _parse_modalities(_resolve(args, config, "modalities"), default=MODALITIES)
    if not modalities:
        raise ValueError("synth --modalities names no modality; omit it to synthesize all of them")
    graph = load_graph(args.pckg)
    labels = read_grid_as(args.labels, "LABEL")
    resolved["modalities"] = list(modalities)
    provenance = _provenance(argv, seed, resolved)
    rasters = synthesize_scene(labels, graph, modalities, synth_config)
    os.makedirs(out_dir, exist_ok=True)
    written = {}
    for name, grid in rasters.items():
        path = os.path.join(out_dir, f"{name.lower()}.pgrd")
        write_grid(path, name, grid)
        _write_sidecar(path, provenance)
        written[name] = path
    print(json.dumps({"written": written}, sort_keys=True))
    return EXIT_OK


def _scenes_from_args(args):
    if args.manifest:
        graph, scenes, _ = benchmark.load_manifest(args.manifest)
        return graph, scenes
    needed = ("pckg", "labels", "features", "coarse")
    if not all(getattr(args, key) for key in needed):
        raise ValueError("train needs --manifest or all of --pckg/--labels/--features/--coarse")
    names = {key: getattr(args, key) for key in ("features", "coarse", "labels")}
    names["rasters"] = _parse_rasters(args.rasters)  # checked before anything is read
    return load_graph(args.pckg), [benchmark.read_scene(names)]


def cmd_train(args, argv, config):
    _check_mode("train", args, config, "--manifest" if args.manifest else "without --manifest")
    graph, scenes = _scenes_from_args(args)
    weights, loss_settings = _settings(LossWeights, LOSS_SETTINGS, args, config)
    train_config, resolved = _settings(TrainConfig, TRAIN_SETTINGS, args, config, weights=weights)
    params, history = train(scenes, graph, train_config)
    resolved.update(loss_settings, scenes=len(scenes))
    provenance = _provenance(argv, train_config.seed, resolved)
    write_params(args.out, params)
    _write_sidecar(args.out, provenance)
    if args.history:
        write_history_csv(args.history, history)
        _write_sidecar(args.history, provenance)
    final = evaluate_losses(params, scenes, graph, train_config.weights)
    if args.losses:
        payload = dict(final)
        payload["provenance"] = provenance
        _write_json(args.losses, payload)
    summary = {key: final[key] for key in COMPONENTS}
    print(json.dumps(dict(summary, steps=len(history)), sort_keys=True))
    return EXIT_OK


def cmd_refine(args, argv, config):
    mode = _resolve(args, config, "mode", "physical")
    if mode not in ("visual", "physical"):
        raise ValueError(f"unknown mode {mode!r}; expected visual or physical")
    _check_mode("refine", args, config, "--mode " + mode)
    raster_paths = _parse_rasters(args.rasters)
    if mode == "visual":
        available = ()
    else:
        available = _parse_modalities(
            _resolve(args, config, "available"), default=tuple(sorted(raster_paths))
        )
        if not available:
            raise ValueError(
                "refine --mode physical re-weights with at least one modality: "
                "pass --rasters, or use --mode visual"
            )
    att_config, resolved = _settings(
        AttenuationConfig, ATTENUATION_SETTINGS, args, config, available=available
    )
    available_rasters(raster_paths, att_config)  # a declared modality without a path fails here
    graph = load_graph(args.pckg)
    params = read_params(args.params)
    # infer is handed the only references to the grids, so it can free them
    # once the head has read them; every --rasters grid is read in both modes
    labels, probs, trace = infer(
        params,
        read_grid_as(args.features, "FEAT"),
        read_grid_as(args.coarse, "PROB"),
        _load_rasters(raster_paths),
        graph,
        att_config,
    )
    resolved.update(mode=mode, available=list(available))
    provenance = _provenance(argv, None, resolved)
    os.makedirs(args.out, exist_ok=True)
    labels_path = os.path.join(args.out, "labels.pgrd")
    probs_path = os.path.join(args.out, "probs.pgrd")
    trace_path = os.path.join(args.out, "trace.jsonl")
    write_grid(labels_path, "LABEL", labels)
    write_grid(probs_path, "PROB", probs)
    with open(trace_path, "w", encoding="utf-8") as fh:
        trace.write_jsonl(fh)
    for path in (labels_path, probs_path, trace_path):
        _write_sidecar(path, provenance)
    print(
        json.dumps(
            {"flips": len(trace), "warnings": len(trace.warnings), "out": args.out},
            sort_keys=True,
        )
    )
    return EXIT_OK


def cmd_eval(args, argv, config):
    both = args.synthetic and args.reference
    mode = ("with" if both else "without both") + " --synthetic and --reference"
    _check_mode("eval", args, config, mode)
    modality = "SAR" if args.modality is None else args.modality.upper()
    modality_order([modality])  # an unknown name fails before any file is read
    raster_paths = _parse_rasters(args.rasters)  # so does a bad --rasters
    graph = load_graph(args.pckg)
    pred = read_grid_as(args.pred, "LABEL")
    gt = read_grid_as(args.gt, "LABEL")
    report = miou(
        pred, gt, graph.num_classes, ignore_background=not args.include_background
    )
    payload = {"miou": report.miou, "per_class": {str(k): v for k, v in report.per_class.items()}}
    rasters = _load_rasters(raster_paths)
    if rasters:
        rate, breakdown = plausibility_rate(pred, rasters, graph)
        payload["plausibility"] = {
            "rate": rate,
            "per_class": {str(k): v for k, v in breakdown.items()},
        }
    if both:
        grids = []
        for path in (args.synthetic, args.reference):
            grid = read_grid_as(path, modality)
            # both files are the one modality: only the path tells them apart
            try:
                check_rasters({modality: grid}, gt.shape)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            grids.append(grid)
        rel = reliability(*grids, gt, graph, modality)
        payload["reliability"] = rel.to_json_dict()
    payload["provenance"] = _provenance(argv, None, {"pred": args.pred, "gt": args.gt})
    if args.out:
        _write_json(args.out, payload)
    if args.csv:
        _write_eval_csv(args.csv, payload)
    print(json.dumps({"miou": payload["miou"]}, sort_keys=True))
    return EXIT_OK


def _write_eval_csv(path, payload):
    lines = ["metric,class,value"]
    for cid, iou in sorted(payload["per_class"].items(), key=lambda kv: int(kv[0])):
        lines.append(f"iou,{cid},{'' if iou is None else repr(iou)}")
    lines.append(f"miou,,{payload['miou']!r}")
    if "plausibility" in payload:
        lines.append(f"plausibility,,{payload['plausibility']['rate']!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_ablate(args, argv, config):
    seed = int(_resolve(args, config, "seed", 0))
    epochs = int(_resolve(args, config, "epochs", benchmark.DEMO_EPOCHS))
    lr = float(_resolve(args, config, "lr", benchmark.DEMO_LEARNING_RATE))
    # a bad setting fails before the manifest is read, even when nothing trains
    benchmark.demo_train_config(seed, epochs, lr, 0.0)
    # the re-weighting rows read SAR unless the manifest names their modalities
    reweights = () if args.baseline_only else benchmark.INFERENCE_MODALITIES
    graph, scenes, manifest = benchmark.load_manifest(
        os.path.join(args.demo_dir, benchmark.MANIFEST_NAME), reweights=reweights
    )
    table = benchmark.evaluate_rows(
        graph,
        scenes,
        manifest,
        seed=seed,
        epochs=epochs,
        learning_rate=lr,
        baseline_only=args.baseline_only,
    )
    table["provenance"] = _provenance(argv, seed, {"seed": seed, "epochs": epochs, "lr": lr})
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "ablation.json"), table)
    text = benchmark.format_table(table)
    with open(os.path.join(args.out, "ablation.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def _config_keys(parser, keys):
    """Each key ``--config`` may set, mapped to the type of its flag in ``parser``."""
    types = {action.dest: action.type or str for action in parser._actions}
    return {key: types[key] for key in keys}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="physeg",
        description="Physics-prior segmentation refinement pipeline",
    )
    parser.add_argument("--version", action="version", version=f"physeg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pckg = sub.add_parser("pckg", help="knowledge-graph validation and extraction")
    pckg_sub = pckg.add_subparsers(dest="subcommand", required=True)

    validate = pckg_sub.add_parser("validate", help="validate a graph file")
    validate.add_argument("--pckg", required=True)
    validate.add_argument("--out")
    validate.set_defaults(func=cmd_pckg_validate)

    extract = pckg_sub.add_parser("extract", help="extract a graph from vocabulary terms")
    extract.add_argument("--vocab")
    extract.add_argument("--vocab-file")
    extract.add_argument("--live", action="store_true")
    _add_settings(extract, ProviderConfig, PROVIDER_SETTINGS)
    extract.add_argument("--out", required=True)
    extract.add_argument("--report")
    extract.add_argument("--config")
    extract.set_defaults(func=cmd_pckg_extract, config_keys=_config_keys(extract, PROVIDER_SETTINGS))

    synth = sub.add_parser("synth", help="synthesize physical rasters (or the demo benchmark)")
    synth.add_argument("--demo", action="store_true")
    synth.add_argument("--scenes", type=int)
    synth.add_argument("--size", type=int)
    synth.add_argument("--pckg")
    synth.add_argument("--labels")
    synth.add_argument("--modalities")
    _add_settings(synth, SynthConfig, SYNTH_SETTINGS)
    synth.add_argument("--config")
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth, config_keys=_config_keys(synth, [*SYNTH_SETTINGS, "modalities"]))

    train_p = sub.add_parser("train", help="train the residual refinement head")
    train_p.add_argument("--manifest")
    train_p.add_argument("--pckg")
    train_p.add_argument("--labels")
    train_p.add_argument("--features")
    train_p.add_argument("--coarse")
    train_p.add_argument("--rasters")
    _add_settings(train_p, TrainConfig, TRAIN_SETTINGS)
    _add_settings(train_p, LossWeights, LOSS_SETTINGS)
    train_p.add_argument("--history")
    train_p.add_argument("--losses")
    train_p.add_argument("--config")
    train_p.add_argument("--out", required=True)
    train_p.set_defaults(func=cmd_train, config_keys=_config_keys(train_p, [*TRAIN_SETTINGS, *LOSS_SETTINGS]))

    refine_p = sub.add_parser("refine", help="refine a coarse map and re-weight with intervals")
    refine_p.add_argument("--params", required=True)
    refine_p.add_argument("--pckg", required=True)
    refine_p.add_argument("--features", required=True)
    refine_p.add_argument("--coarse", required=True)
    refine_p.add_argument("--rasters")
    refine_p.add_argument("--mode", choices=("visual", "physical"))
    refine_p.add_argument("--available")
    _add_settings(refine_p, AttenuationConfig, ATTENUATION_SETTINGS)
    refine_p.add_argument("--config")
    refine_p.add_argument("--out", required=True)
    refine_p.set_defaults(
        func=cmd_refine, config_keys=_config_keys(refine_p, [*ATTENUATION_SETTINGS, "mode", "available"])
    )

    eval_p = sub.add_parser("eval", help="evaluate predicted labels")
    eval_p.add_argument("--pred", required=True)
    eval_p.add_argument("--gt", required=True)
    eval_p.add_argument("--pckg", required=True)
    eval_p.add_argument("--rasters")
    eval_p.add_argument("--synthetic")
    eval_p.add_argument("--reference")
    eval_p.add_argument("--modality")
    eval_p.add_argument("--include-background", action="store_true")
    eval_p.add_argument("--csv")
    eval_p.add_argument("--out")
    eval_p.set_defaults(func=cmd_eval)

    ablate = sub.add_parser("ablate", help="run the 4-row ablation ladder on the demo benchmark")
    ablate.add_argument("--demo-dir", required=True)
    ablate.add_argument("--baseline-only", dest="baseline_only", action="store_true")
    ablate.add_argument("--seed", type=int)
    ablate.add_argument("--epochs", type=int)
    ablate.add_argument("--lr", type=float)
    ablate.add_argument("--config")
    ablate.add_argument("--out", required=True)
    ablate.set_defaults(func=cmd_ablate, config_keys=_config_keys(ablate, ["seed", "epochs", "lr"]))

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        config = _load_config_file(getattr(args, "config", None), getattr(args, "config_keys", ()))
        return args.func(args, argv, config)
    except TransportError as exc:
        return _fail(EXIT_TRANSPORT, exc)
    except (TrainingError, ArithmeticError) as exc:
        return _fail(EXIT_RUNTIME, exc)
    except (PriorError, ExtractionError, ValueError, KeyError, OSError) as exc:
        return _fail(EXIT_INPUT, exc)
    except Exception as exc:  # anything else is a runtime failure
        return _fail(EXIT_RUNTIME, exc)


def _fail(code: int, exc: Exception) -> int:
    print(
        json.dumps(
            {"error": type(exc).__name__, "message": str(exc), "exit_code": code},
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
