"""Experiment orchestration: variants, trials, metrics, grids, reports.

A resolved config fully determines every random draw: trial i runs on seed
``base_seed + i``, and all artifacts (JSON report, text table, verdict
timeline) are written without timestamps so identical configs produce
byte-identical output.

Variants:

* ``esn``     — one fixed random reservoir (sparse internal weights), batch
                least-squares readout, no adaptation;
* ``rscn``    — gated incremental construction from a small ungated seed
                reservoir, static afterwards;
* ``sorscn1`` — gated construction plus the stream driver with base MSA
                pruning;
* ``sorscn2`` — same with the correlation-augmented (improved) MSA.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .construct import ConstructionConfig, build_initial, refit_readout
from .datastream import (
    Segment,
    SyntheticStreamSpec,
    fit_normalization,
    generate_synthetic,
    load_csv,
    split_and_washout,
)
from .errors import AllTrialsFailed, ConfigError, DimensionMismatch, SorscnError, ZeroVariance
from .reservoir import EnsembleModel, harvest_states, new_random_block, replace_readout
from .self_organize import ErrorInterval, StreamConfig, calibrate_interval, run_stream

VARIANTS = ("esn", "rscn", "sorscn1", "sorscn2")


def nrmse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Root mean squared error normalized by target variance.

    sqrt( sum_n ||y(n) - t(n)||^2 / (n * var(t)) ) with population variance;
    multiple outputs sum their squared errors and their per-output variances
    before the ratio, reducing to the scalar formula at L = 1.
    """
    p = np.atleast_2d(np.asarray(predictions, dtype=float))
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    if p.shape != t.shape:
        raise DimensionMismatch(f"predictions {p.shape} vs targets {t.shape}")
    n = t.shape[1]
    if n == 0:
        raise DimensionMismatch("no samples to evaluate")
    total_var = float(t.var(axis=1).sum())
    if total_var <= 0.0:
        raise ZeroVariance("targets are constant; NRMSE undefined")
    return float(np.sqrt(np.square(p - t).sum() / (n * total_var)))


@dataclass
class DatasetConfig:
    """Where the series comes from and how it is cut."""

    source: Optional[str] = None  # CSV path
    synthetic: Optional[dict] = None  # SyntheticStreamSpec fields
    schema: Optional[dict] = None  # feature name -> role (CSV only)
    train_end: int = 0  # raw row index for CSV sources, sample index for synthetic
    washout: int = 0
    normalization: str = "minmax"
    val_mode: str = "noisy_test"
    val_noise_std: Optional[float] = None
    val_seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self):
        if (self.source is None) == (self.synthetic is None):
            raise ConfigError("exactly one of dataset.source / dataset.synthetic is required")
        if self.source is not None and not self.schema:
            raise ConfigError("CSV sources need a schema (feature name -> role)")
        if self.train_end < 1:
            raise ConfigError("dataset.train_end must be >= 1")


@dataclass
class ModelConfig:
    """Variant choice plus every knob the variants share.

    Construction and stream knobs default to their sub-config's values, and
    every knob's rule runs when the config is made, whatever the variant.
    """

    variant: str = "sorscn2"
    max_blocks: int = 30
    block_size: int = ConstructionConfig.block_size
    error_tolerance: float = ConstructionConfig.error_tolerance
    lambda_grid: tuple = ConstructionConfig.lambda_grid
    r_grid: tuple = ConstructionConfig.r_grid
    candidates_per_setting: int = ConstructionConfig.candidates_per_setting
    theta: float = ConstructionConfig.theta
    j_step: int = ConstructionConfig.j_step
    ridge: float = ConstructionConfig.ridge
    rscn_seed_size: int = 5
    esn_size: int = 100
    esn_scale: float = 1.0
    esn_sparsity: float = 0.02
    window_size: int = 40
    kappa_lo: float = 0.5
    kappa_hi: float = 1.5
    alpha: float = StreamConfig.alpha
    gamma: float = StreamConfig.gamma
    guard_epsilon: float = StreamConfig.guard_epsilon
    refit_scope: str = "window"  # window | window_plus_history

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.refit_scope not in ("window", "window_plus_history"):
            raise ConfigError(f"unknown refit_scope {self.refit_scope!r}")
        if self.esn_size < 1:
            raise ConfigError(f"esn_size must be >= 1, got {self.esn_size}")
        if self.esn_scale <= 0:
            raise ConfigError(f"esn_scale must be positive, got {self.esn_scale}")
        if not 0.0 < self.esn_sparsity <= 1.0:
            raise ConfigError(f"esn_sparsity must be in (0, 1], got {self.esn_sparsity}")
        # The kappas' rule lives in calibrate_interval; a one-sample residual runs it.
        calibrate_interval(np.ones((1, 1)), self.window_size, self.kappa_lo, self.kappa_hi)
        self.lambda_grid = tuple(self.lambda_grid)
        self.r_grid = tuple(self.r_grid)
        dataclasses.replace(self.construction_config(0), seed_reservoir_size=self.rscn_seed_size)
        self.stream_config()

    def construction_config(self, seed: int) -> ConstructionConfig:
        return ConstructionConfig(
            max_blocks=self.max_blocks,
            block_size=self.block_size,
            error_tolerance=self.error_tolerance,
            lambda_grid=self.lambda_grid,
            r_grid=self.r_grid,
            candidates_per_setting=self.candidates_per_setting,
            theta=self.theta,
            j_step=self.j_step,
            ridge=self.ridge,
            rng_seed=seed,
            seed_reservoir_size=self.rscn_seed_size if self.variant == "rscn" else None,
        )

    def stream_config(self) -> StreamConfig:
        return StreamConfig(
            window_size=self.window_size,
            variant="improved" if self.variant == "sorscn2" else "base",
            alpha=self.alpha,
            gamma=self.gamma,
            guard_epsilon=self.guard_epsilon,
        )


@dataclass
class RunConfig:
    trials: int = 50
    base_seed: int = 0
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("run.trials must be >= 1")


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig
    model: ModelConfig = field(default_factory=ModelConfig)
    run: RunConfig = field(default_factory=RunConfig)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build a config from nested plain dicts (YAML layout), strictly."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
        unknown = set(raw) - {"dataset", "model", "run"}
        if unknown:
            raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
        if "dataset" not in raw:
            raise ConfigError("config needs a 'dataset' section")
        sections = {}
        for name, klass in (("dataset", DatasetConfig), ("model", ModelConfig), ("run", RunConfig)):
            data = raw.get(name, {})
            if not isinstance(data, dict):
                raise ConfigError(f"config section {name!r} must be a mapping")
            known = {f.name for f in dataclasses.fields(klass)}
            bad = set(data) - known
            if bad:
                raise ConfigError(f"unknown key(s) in {name!r} section: {sorted(bad)}")
            try:
                sections[name] = klass(**data)
            except TypeError as exc:
                raise ConfigError(f"bad {name!r} section: {exc}") from exc
        return cls(**sections)

    def to_dict(self) -> dict:
        return json.loads(json.dumps(asdict(self), default=list))

    def fingerprint(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    def with_overrides(self, **model_fields) -> "ExperimentConfig":
        try:
            model = dataclasses.replace(self.model, **model_fields)
        except TypeError as exc:
            raise ConfigError(f"bad model override: {exc}") from exc
        return ExperimentConfig(dataset=self.dataset, model=model, run=self.run)


@dataclass
class TrialRecord:
    trial: int
    seed: int
    validation_nrmse: Optional[float] = None
    testing_nrmse: Optional[float] = None
    n_blocks: Optional[int] = None
    n_nodes: Optional[int] = None
    n_restructures: int = 0
    failed: bool = False
    error: str = ""
    timeline: list = field(default_factory=list)


@dataclass
class ExperimentReport:
    config: dict
    fingerprint: str
    trials: list
    aggregates: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "fingerprint": self.fingerprint,
            "trials": [asdict(t) for t in self.trials],
            "aggregates": self.aggregates,
        }


def aggregate_trials(trials: list) -> dict:
    """Mean/std summaries over successful trials; exactly recomputable."""
    ok = [t for t in trials if not t.failed]
    agg = {
        "n_trials": len(trials),
        "n_failed": len(trials) - len(ok),
        "degenerate_std": len(ok) <= 1,
    }
    for name in ("validation_nrmse", "testing_nrmse", "n_blocks", "n_nodes"):
        if not ok:
            agg[name] = None
            continue
        vals = np.asarray([getattr(t, name) for t in ok], dtype=float)
        agg[name] = {"mean": float(vals.mean()), "std": float(vals.std())}
    if ok:
        counts = {}
        for t in ok:
            counts[t.n_nodes] = counts.get(t.n_nodes, 0) + 1
        top = max(counts.values())
        agg["n_nodes"]["mode"] = int(min(k for k, v in counts.items() if v == top))
    return agg


def prepare_dataset(dcfg: DatasetConfig) -> tuple[Segment, Segment, Segment]:
    """Load or generate the series, normalize it, and cut it into three segments.

    A file source is read once by ``load_csv``; its ``train_end`` counts raw
    rows, so it shifts left by the rows consumed for lag features. Either
    source is then normalized with scalers fit on the training samples only.
    """
    if dcfg.synthetic is not None:
        ds = generate_synthetic(SyntheticStreamSpec(**dcfg.synthetic))
        train_end = dcfg.train_end
    else:
        ds = load_csv(dcfg.source, dcfg.schema)
        train_end = dcfg.train_end - ds.metadata["lag_offset"]
    if dcfg.normalization != "none":
        norm = fit_normalization(ds.inputs, ds.targets, train_end, dcfg.normalization)
        ds.inputs, ds.targets = norm.apply(ds.inputs, ds.targets)
        ds.normalization = norm
    return split_and_washout(
        ds,
        train_end,
        dcfg.washout,
        val_mode=dcfg.val_mode,
        val_noise_std=dcfg.val_noise_std,
        val_seed=dcfg.val_seed,
        val_fraction=dcfg.val_fraction,
    )


def static_eval(model: EnsembleModel, segment: Segment) -> float:
    """NRMSE of a fixed model on a segment, harvesting from the zero state."""
    states = harvest_states(model, segment.inputs, segment.washout)
    return nrmse(model.predict(states), segment.targets[:, segment.washout :])


def build_variant_model(
    mcfg: ModelConfig, train: Segment, validation: Segment, seed: int
) -> tuple[EnsembleModel, np.random.Generator]:
    """Construct the per-variant initial model; returns the live RNG stream."""
    rng = np.random.default_rng(seed)
    if mcfg.variant == "esn":
        block = new_random_block(
            rng,
            size=mcfg.esn_size,
            input_dim=train.inputs.shape[0],
            scale=mcfg.esn_scale,
            theta=mcfg.theta,
            block_id=0,
            sparsity=mcfg.esn_sparsity,
        )
        model = EnsembleModel(
            blocks=[block],
            readout=np.zeros((train.targets.shape[0], block.size)),
            input_dim=train.inputs.shape[0],
            output_dim=train.targets.shape[0],
        )
        states = harvest_states(model, train.inputs, train.washout)
        replace_readout(
            model, refit_readout(states, train.targets[:, train.washout :], mcfg.ridge)
        )
        return model, rng
    ccfg = mcfg.construction_config(seed)
    model = build_initial(
        ccfg,
        train.pair(),
        validation.pair(),
        washout=train.washout,
        val_washout=validation.washout,
        rng=rng,
    )
    return model, rng


def stream_and_score(
    mcfg: ModelConfig,
    model: EnsembleModel,
    train: Segment,
    test: Segment,
    seed: int,
    rng: Optional[np.random.Generator],
) -> tuple[EnsembleModel, list, ErrorInterval, float]:
    """Stream the test split through an adaptive model and score it.

    The error interval is calibrated on the model's training residual, and
    the stream starts from the reservoir state at the end of training.
    ``seed`` and ``rng`` drive regrowth (``rng=None`` draws from ``seed``).
    Returns the streamed model, the window verdicts, the interval and the
    testing NRMSE past the washout.
    """
    train_states = harvest_states(model, train.inputs, train.washout)
    residual = train.targets[:, train.washout :] - model.predict(train_states)
    interval = calibrate_interval(residual, mcfg.window_size, mcfg.kappa_lo, mcfg.kappa_hi)
    history = (
        (train.inputs, train.targets, train.washout)
        if mcfg.refit_scope == "window_plus_history"
        else None
    )
    sink: list = []
    model, verdicts = run_stream(
        model,
        test.pair(),
        mcfg.construction_config(seed),
        interval,
        mcfg.stream_config(),
        initial_state=train_states.final_state,
        rng=rng,
        history=history,
        start_index=train.n_samples,
        prediction_sink=sink,
    )
    w = test.washout
    score = nrmse(np.hstack(sink)[:, w:], test.targets[:, w:])
    return model, verdicts, interval, score


def run_trial(
    cfg: ExperimentConfig,
    train: Segment,
    validation: Segment,
    test: Segment,
    trial: int,
) -> TrialRecord:
    """One seeded end-to-end run of the configured variant."""
    seed = cfg.run.base_seed + trial
    mcfg = cfg.model
    record = TrialRecord(trial=trial, seed=seed)
    model, rng = build_variant_model(mcfg, train, validation, seed)
    record.validation_nrmse = static_eval(model, validation)

    if mcfg.variant in ("esn", "rscn"):
        record.testing_nrmse = static_eval(model, test)
    else:
        model, verdicts, _, record.testing_nrmse = stream_and_score(
            mcfg, model, train, test, seed, rng
        )
        record.timeline = [v.to_record() for v in verdicts]
        record.n_restructures = sum(1 for v in verdicts if v.action == "restructure")

    record.n_blocks = model.n_blocks
    record.n_nodes = model.total_size
    return record


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run all trials of one variant; persist the report when out_dir is set.

    Individual trial failures are recorded and the run continues; the run
    itself fails only when every trial failed.
    """
    train, validation, test = prepare_dataset(cfg.dataset)
    trials = []
    for i in range(cfg.run.trials):
        try:
            trials.append(run_trial(cfg, train, validation, test, i))
        except (SorscnError, np.linalg.LinAlgError, FloatingPointError) as exc:
            trials.append(
                TrialRecord(
                    trial=i,
                    seed=cfg.run.base_seed + i,
                    failed=True,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    if all(t.failed for t in trials):
        raise AllTrialsFailed(
            f"all {len(trials)} trials failed; first error: {trials[0].error}"
        )
    report = ExperimentReport(
        config=cfg.to_dict(),
        fingerprint=cfg.fingerprint(),
        trials=trials,
        aggregates=aggregate_trials(trials),
    )
    if cfg.run.out_dir:
        write_report(report, cfg.run.out_dir)
    return report


def write_report(report: ExperimentReport, out_dir, name: str = "report") -> None:
    """Emit report.json, a text table, and the verdict timeline (JSONL)."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, f"{name}.txt"), "w") as fh:
        fh.write(format_report(report))
    with open(os.path.join(out_dir, f"{name}_timeline.jsonl"), "w") as fh:
        for t in report.trials:
            for rec in t.timeline:
                fh.write(json.dumps({"trial": t.trial, **rec}, sort_keys=True))
                fh.write("\n")


def format_report(report: ExperimentReport) -> str:
    agg = report.aggregates
    variant = report.config["model"]["variant"]
    lines = [
        f"variant: {variant}",
        f"fingerprint: {report.fingerprint[:16]}",
        f"trials: {agg['n_trials']} ({agg['n_failed']} failed)"
        + ("  [std degenerate]" if agg["degenerate_std"] else ""),
    ]
    for name, label in (
        ("validation_nrmse", "validation NRMSE"),
        ("testing_nrmse", "testing NRMSE"),
        ("n_blocks", "final blocks"),
        ("n_nodes", "final nodes"),
    ):
        stats = agg.get(name)
        if stats:
            lines.append(f"{label:>18}: {stats['mean']:.6f} +/- {stats['std']:.6f}")
    return "\n".join(lines) + "\n"


def compare_variants(
    cfg: ExperimentConfig, variants: tuple = VARIANTS
) -> dict:
    """Run several variants on identical data and seeds; returns name -> report."""
    run = dataclasses.replace(cfg.run, out_dir=None)
    reports = {}
    for variant in variants:
        model = dataclasses.replace(cfg.model, variant=variant)
        reports[variant] = run_experiment(ExperimentConfig(cfg.dataset, model, run))
        if cfg.run.out_dir:
            write_report(reports[variant], cfg.run.out_dir, name=f"report_{variant}")
    return reports


def grid_search(
    cfg: ExperimentConfig, grid: dict, trials: int = 5
) -> tuple[dict, list]:
    """Exhaustive search over model-config fields; returns (best point, surface).

    ``grid`` maps model field names to value lists; points are visited in the
    given key order (outer to inner) with each value list in its given order.
    The point with the lowest mean validation NRMSE wins; exact ties keep the
    earliest point visited, so order grids size-first ascending to prefer
    smaller models. Points whose trials all fail are excluded and flagged.
    """
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ConfigError("grid must be non-empty with non-empty value lists")
    keys = list(grid)
    points = [dict(zip(keys, values)) for values in itertools.product(*(grid[k] for k in keys))]
    # Making every point's config checks all of them before the first trial.
    models = [cfg.with_overrides(**point).model for point in points]
    run = dataclasses.replace(cfg.run, trials=trials, out_dir=None)
    surface = []
    best = None
    for point, model in zip(points, models):
        sub = ExperimentConfig(dataset=cfg.dataset, model=model, run=run)
        entry = {"point": point}
        try:
            report = run_experiment(sub)
        except AllTrialsFailed as exc:
            entry.update({"failed": True, "error": str(exc)})
            surface.append(entry)
            continue
        entry.update(
            {
                "failed": False,
                "validation_nrmse_mean": report.aggregates["validation_nrmse"]["mean"],
                "validation_nrmse_std": report.aggregates["validation_nrmse"]["std"],
                "testing_nrmse_mean": report.aggregates["testing_nrmse"]["mean"],
                "testing_nrmse_std": report.aggregates["testing_nrmse"]["std"],
            }
        )
        surface.append(entry)
        if best is None or entry["validation_nrmse_mean"] < best["validation_nrmse_mean"]:
            best = entry
    if best is None:
        raise AllTrialsFailed("every grid point failed")
    return best, surface


def write_surface_csv(surface: list, path) -> None:
    """Plot data for sweep surfaces: one row per grid point."""
    if not surface:
        return
    keys = list(surface[0]["point"])
    with open(path, "w") as fh:
        fh.write(
            ",".join(keys + ["validation_nrmse_mean", "validation_nrmse_std", "testing_nrmse_mean", "failed"])
            + "\n"
        )
        for entry in surface:
            row = [repr(entry["point"][k]) for k in keys]
            if entry.get("failed"):
                row += ["", "", "", "true"]
            else:
                row += [
                    f"{entry['validation_nrmse_mean']:.8f}",
                    f"{entry['validation_nrmse_std']:.8f}",
                    f"{entry['testing_nrmse_mean']:.8f}",
                    "false",
                ]
            fh.write(",".join(row) + "\n")
