"""Command-line experiment runner.

Subcommands: ``build`` (construct an initial model), ``stream`` (drive it
over the arriving split), ``eval`` (NRMSE on a split), ``compare``
(multi-variant table), ``sweep`` (grid search), ``gen`` (synthetic data).

Exit codes: 0 success, 1 config error, 2 data error, 3 all trials failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import yaml

from .errors import (
    AllTrialsFailed,
    ConfigError,
    CorruptFile,
    DimensionMismatch,
    EmptyFile,
    EmptyWindow,
    MissingColumn,
    NonNumericCell,
    VersionMismatch,
    WashoutTooLarge,
    ZeroVariance,
)
from .experiment import (
    ExperimentConfig,
    build_variant_model,
    compare_variants,
    grid_search,
    prepare_dataset,
    static_eval,
    stream_and_score,
    write_surface_csv,
)
from .model_io import load_model, save_model

_DATA_ERRORS = (
    MissingColumn,
    NonNumericCell,
    EmptyFile,
    WashoutTooLarge,
    EmptyWindow,
    DimensionMismatch,
    ZeroVariance,
    CorruptFile,
    VersionMismatch,
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML experiment config")
    common.add_argument("--seed", type=int, default=None, help="override run.base_seed")
    common.add_argument("--trials", type=int, default=None, help="override run.trials")
    common.add_argument("--out", default=None, help="override run.out_dir")
    common.add_argument("--variant", default=None, help="override model.variant")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted config override, e.g. --set model.theta=0.8 (YAML-parsed value)",
    )

    parser = argparse.ArgumentParser(
        prog="sorscn",
        description="Self-organizing recurrent stochastic configuration network experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build", parents=[common], help="construct an initial model and save it")
    p_stream = sub.add_parser("stream", parents=[common], help="drive a model over the arriving split")
    p_stream.add_argument("--model", default=None, help="saved model file (default: build first)")
    p_eval = sub.add_parser("eval", parents=[common], help="NRMSE of a model on a split")
    p_eval.add_argument("--model", default=None, help="saved model file (default: build first)")
    p_eval.add_argument(
        "--split", choices=("train", "validation", "test"), default="test"
    )
    sub.add_parser("compare", parents=[common], help="run all variants on identical seeds")
    sub.add_parser("sweep", parents=[common], help="grid search over the config's sweep section")
    sub.add_parser("gen", parents=[common], help="write the configured synthetic series to CSV")
    return parser


def _assign_dotted(raw: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = raw
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {dotted!r} crosses a non-mapping value")
    node[parts[-1]] = value


def _load_config(args) -> tuple[ExperimentConfig, dict]:
    try:
        with open(args.config) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    raw = raw or {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        _assign_dotted(raw, key.strip(), yaml.safe_load(value))
    sweep = raw.pop("sweep", None)
    if args.variant is not None:
        raw.setdefault("model", {})["variant"] = args.variant
    run_section = raw.setdefault("run", {})
    if args.seed is not None:
        run_section["base_seed"] = args.seed
    if args.trials is not None:
        run_section["trials"] = args.trials
    if args.out is not None:
        run_section["out_dir"] = args.out
    return ExperimentConfig.from_dict(raw), (sweep or {})


def _out_dir(cfg: ExperimentConfig) -> str:
    out = cfg.run.out_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_build(args) -> int:
    cfg, _ = _load_config(args)
    train, validation, test = prepare_dataset(cfg.dataset)
    model, _ = build_variant_model(cfg.model, train, validation, cfg.run.base_seed)
    out = _out_dir(cfg)
    path = os.path.join(out, "model.npz")
    save_model(model, path)
    print(f"built {cfg.model.variant}: {model.n_blocks} blocks, {model.total_size} nodes")
    print(f"validation NRMSE: {static_eval(model, validation):.6f}")
    print(f"saved to {path}")
    return 0


def _cmd_stream(args) -> int:
    cfg, _ = _load_config(args)
    if cfg.model.variant in ("esn", "rscn"):
        raise ConfigError(f"variant {cfg.model.variant!r} has no stream mode")
    train, validation, test = prepare_dataset(cfg.dataset)
    rng = None
    if args.model:
        model = load_model(args.model)
    else:
        model, rng = build_variant_model(cfg.model, train, validation, cfg.run.base_seed)
    model, verdicts, interval, score = stream_and_score(
        cfg.model, model, train, test, cfg.run.base_seed, rng
    )
    out = _out_dir(cfg)
    with open(os.path.join(out, "stream_timeline.jsonl"), "w") as fh:
        for v in verdicts:
            fh.write(json.dumps(v.to_record(), sort_keys=True) + "\n")
    save_model(model, os.path.join(out, "model_streamed.npz"))
    print(f"interval: [{interval.e_min:.6f}, {interval.e_max:.6f}]")
    actions = [v.action for v in verdicts]
    print(
        f"{len(verdicts)} windows: {actions.count('none')} none, "
        f"{actions.count('online_update')} online, {actions.count('restructure')} restructure"
    )
    print(f"final structure: {model.n_blocks} blocks, {model.total_size} nodes")
    print(f"stream NRMSE: {score:.6f}")
    print(f"artifacts in {out}")
    return 0


def _cmd_eval(args) -> int:
    cfg, _ = _load_config(args)
    train, validation, test = prepare_dataset(cfg.dataset)
    if args.model:
        model = load_model(args.model)
    else:
        model, _ = build_variant_model(cfg.model, train, validation, cfg.run.base_seed)
    segment = {"train": train, "validation": validation, "test": test}[args.split]
    print(f"{args.split} NRMSE: {static_eval(model, segment):.6f}")
    return 0


def _cmd_compare(args) -> int:
    cfg, _ = _load_config(args)
    reports = compare_variants(cfg)
    print(f"{'variant':<10} {'val NRMSE':>20} {'test NRMSE':>20} {'nodes':>8}")
    for name, report in reports.items():
        agg = report.aggregates
        val, test, nodes = agg["validation_nrmse"], agg["testing_nrmse"], agg["n_nodes"]
        print(
            f"{name:<10} {val['mean']:>11.6f}+/-{val['std']:.6f}"
            f" {test['mean']:>11.6f}+/-{test['std']:.6f} {nodes['mean']:>8.1f}"
        )
    if cfg.run.out_dir:
        print(f"reports in {cfg.run.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    cfg, sweep = _load_config(args)
    if not sweep:
        raise ConfigError("sweep needs a 'sweep' section mapping model fields to value lists")
    best, surface = grid_search(cfg, sweep, trials=cfg.run.trials)
    out = _out_dir(cfg)
    write_surface_csv(surface, os.path.join(out, "sweep.csv"))
    print(f"swept {len(surface)} points x {cfg.run.trials} trials")
    print(f"best point: {best['point']}")
    print(
        f"validation NRMSE {best['validation_nrmse_mean']:.6f}"
        f"+/-{best['validation_nrmse_std']:.6f}"
    )
    print(f"surface written to {os.path.join(out, 'sweep.csv')}")
    return 0


def _cmd_gen(args) -> int:
    cfg, _ = _load_config(args)
    if cfg.dataset.synthetic is None:
        raise ConfigError("gen needs dataset.synthetic in the config")
    from .datastream import SyntheticStreamSpec, generate_synthetic

    ds = generate_synthetic(SyntheticStreamSpec(**cfg.dataset.synthetic))
    out = _out_dir(cfg)
    csv_path = os.path.join(out, "synthetic.csv")
    names = ds.feature_names + ds.target_names
    rows = np.vstack([ds.inputs, ds.targets]).T
    with open(csv_path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
    meta_path = os.path.join(out, "synthetic_meta.json")
    with open(meta_path, "w") as fh:
        json.dump(ds.metadata, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"{ds.n_samples} samples, drift points at {ds.metadata['drift_points']}")
    print(f"wrote {csv_path} and {meta_path}")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "stream": _cmd_stream,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except AllTrialsFailed as exc:
        print(f"all trials failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
