"""The benchmark's workloads: inputs made from a seed, one op set per repetition.

Each workload is a single caller running a closed loop: the next op starts
when the previous one has returned. ``setup`` makes the inputs (and, for
``stream``, the deployed models); ``run_rep`` runs the whole op set once and
returns its timings and an output digest. Every repetition runs the same ops
on the same inputs, so its digest must not change.

Why each workload exists (see README.md for the layer table):

* ``build``   -- offline growth only: long training series, so candidate
                 harvesting and spectral scaling do the work.
* ``stream``  -- deployment: saved-and-loaded models consume a recorded
                 drifting feed window by window, so stream harvesting,
                 projection updates and prune-and-regrow on short windows do
                 the work.
* ``compare`` -- the researcher's path through ``sorscn compare`` on the
                 acceptance config (all four variants). Not listed in
                 BENCHMARK.json: its cross-seed spread is too wide at
                 affordable sizes (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
import yaml

from sorscn import cli, experiment, model_io, reservoir, self_organize
from sorscn.errors import SorscnError

clock = time.perf_counter

# The acceptance criterion-2 model: 5-node blocks, cap 8, 25 candidates, 3x3 grids.
COMPARE_MODEL = {
    "max_blocks": 8,
    "block_size": 5,
    "candidates_per_setting": 25,
    "lambda_grid": [0.5, 1.0, 5.0],
    "r_grid": [0.9, 0.99, 0.999],
    "window_size": 40,
    "esn_size": 60,
}

# Per-window action letters in the output digest.
_ACTION = {"none": "n", "online_update": "o", "restructure": "r"}


class SetupError(RuntimeError):
    """The program could not produce the workload's inputs."""


@dataclass
class Rep:
    """One repetition of a workload's op set."""

    op_s: list = field(default_factory=list)  # service time of each op
    busy_s: list = field(default_factory=list)  # time of each timed call into the program
    op_digests: list = field(default_factory=list)
    nrmse: list = field(default_factory=list)  # the workload's quality figure per unit
    attempted: int = 0
    failed: int = 0
    windows: dict = field(default_factory=dict)  # stream verdict action counts
    extra: dict = field(default_factory=dict)
    wall_s: float = 0.0
    tracer: object = None  # set on traced repetitions

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.op_digests).encode()).hexdigest()


def _hex(x: float) -> str:
    return float(x).hex()


def _count_windows(actions, notes) -> dict:
    counts = {a: actions.count(a) for a in ("none", "online_update", "restructure")}
    counts["restructure_failed"] = sum(n.startswith("restructure failed") for n in notes)
    return counts


def _run_cli(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SetupError(f"sorscn {' '.join(argv)} exited with {code}")


def smoke_pass(workdir: str) -> None:
    """Run the whole program once on a tiny noisy feed before timing.

    ``sorscn build`` (saved, then loaded) and ``sorscn compare`` with all four
    variants touch every layer: construction, the esn and rscn baselines,
    online and restructure windows, report writing and persistence. Every
    workload's set-up ends with it, so first-call costs land in ``setup_s``
    alike and every layer has a measured time in every traced run.
    """
    out = os.path.join(workdir, "smoke")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "config.yaml")
    raw = {
        "dataset": {
            "synthetic": {
                "generator": "drifting_sine",
                "segment_lengths": [200, 320],
                "noise_std": 0.05,
                "seed": 0,
            },
            "train_end": 200,
            "washout": 20,
            "normalization": "none",
        },
        "model": {
            **COMPARE_MODEL,
            "variant": "sorscn2",
            "max_blocks": 3,
            "lambda_grid": [0.5, 1.0],
            "r_grid": [0.9, 0.99],
            "esn_size": 20,
        },
        "run": {"trials": 1, "base_seed": 0},
    }
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh)
    _run_cli(["build", "--config", path, "--out", out])
    model_io.load_model(os.path.join(out, "model.npz"))
    _run_cli(["compare", "--config", path, "--out", out])


class BuildWorkload:
    """Gated construction of ``sorscn2`` models on long single-regime series.

    ``regime_switch_narma`` as one 1500-sample regime, 1200 for fitting with a
    clean 20% holdout, 10-node blocks, 50 candidates per setting, the default
    7x5 grids and a cap of 4 blocks. Op: one ``build_variant_model`` call.
    Build time varies from seed to seed, and the slowest of a few builds
    varies most, so a repetition runs twelve builds, each on its own dataset
    and model seed.
    """

    name = "build"
    ops = 12

    def __init__(self, seed: int, workdir: str):
        self.seeds = [seed * self.ops + i for i in range(self.ops)]
        self.workdir = workdir
        self.cases = []

    def setup(self) -> None:
        for s in self.seeds:
            cfg = experiment.ExperimentConfig.from_dict(
                {
                    "dataset": {
                        "synthetic": {
                            "generator": "regime_switch_narma",
                            "segment_lengths": [1500],
                            "seed": s,
                        },
                        "train_end": 1200,
                        "washout": 50,
                        "normalization": "none",
                        "val_mode": "train_holdout",
                    },
                    "model": {"max_blocks": 4, "block_size": 10, "candidates_per_setting": 50},
                    "run": {"trials": 1, "base_seed": s},
                }
            )
            train, validation, _ = experiment.prepare_dataset(cfg.dataset)
            self.cases.append((cfg.model, train, validation, s))

    def warm_up(self) -> None:
        smoke_pass(self.workdir)
        # One single-block build on the real data: the first gated block
        # always passes, so this cannot stall.
        mcfg, train, validation, s = self.cases[0]
        tiny = experiment.ModelConfig(
            max_blocks=1, block_size=3, candidates_per_setting=4, lambda_grid=(1.0,), r_grid=(0.9,)
        )
        experiment.build_variant_model(tiny, train, validation, s)

    def run_rep(self, tracer=None) -> Rep:
        rep = Rep()
        for i, (mcfg, train, validation, s) in enumerate(self.cases):
            if tracer is not None:
                tracer.begin_op(f"build{i}")
            rep.attempted += 1
            t0 = clock()
            error = ""
            try:
                model, _ = experiment.build_variant_model(mcfg, train, validation, s)
            except (SorscnError, np.linalg.LinAlgError) as exc:
                error = type(exc).__name__
            dt = clock() - t0
            rep.op_s.append(dt)
            rep.busy_s.append(dt)
            if error:
                rep.failed += 1
                rep.op_digests.append(f"failed:{error}")
                continue
            holdout = experiment.static_eval(model, validation)
            rep.nrmse.append(holdout)
            rep.op_digests.append(f"{_hex(holdout)}|{model.n_blocks}|{model.stalled}")
        return rep


class _StampedSink(list):
    """Prediction sink that stamps the arrival of each window's forecast."""

    def __init__(self):
        super().__init__()
        self.stamps = []

    def append(self, item):
        self.stamps.append(clock())
        super().append(item)


class StreamWorkload:
    """A deployed fleet of models replaying recorded feeds, window by window.

    Set-up builds each fleet model with ``sorscn build`` on ``drifting_sine``
    [500, 1500, 1500, 1500] with 0.05 measurement noise (compare model
    settings, ``sorscn2``, but ``kappa_lo`` 1.0), loads the saved file and
    calibrates the interval as ``run_trial`` does. The fleet is fixed; the
    seed draws the noise of the 4500-sample feed each model consumes and the
    seed of its stream-time search. Models differ far more from one another than feeds do, so a fleet
    drawn per seed would make the figures measure the fleet, not the code.
    The noise keeps the restructure count steady from seed to seed; the
    raised lower bound keeps all three routes in use.
    Op: one window; its service time runs from its forecast to the next one.
    """

    name = "stream"
    models = 4
    noise_std = 0.05  # on the fleet's training data and on the feeds alike
    # Windows no worse than the typical training window are left alone; at
    # the default 0.5 the noise floor keeps every window above the bound.
    kappa_lo = 1.0
    feed_seed_offset = 10_000  # keeps feed noise apart from the fleet's training noise

    def __init__(self, seed: int, workdir: str):
        self.stream_seeds = [seed * self.models + i for i in range(self.models)]
        self.workdir = workdir
        self.fleet = []
        self.feeds = []

    def _config(self, data_seed: int, model_seed: int) -> dict:
        return {
            "dataset": {
                "synthetic": {
                    "generator": "drifting_sine",
                    "segment_lengths": [500, 1500, 1500, 1500],
                    "noise_std": self.noise_std,
                    "seed": data_seed,
                },
                "train_end": 500,
                "washout": 50,
                "normalization": "none",
            },
            "model": {"variant": "sorscn2", **COMPARE_MODEL, "kappa_lo": self.kappa_lo},
            "run": {"trials": 1, "base_seed": model_seed},
        }

    def setup(self) -> None:
        for i in range(self.models):
            raw = self._config(i, i)
            out = os.path.join(self.workdir, f"model{i}")
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, "config.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(raw, fh)
            _run_cli(["build", "--config", path, "--out", out])
            model = model_io.load_model(os.path.join(out, "model.npz"))
            cfg = experiment.ExperimentConfig.from_dict(raw)
            train, _, _ = experiment.prepare_dataset(cfg.dataset)
            train_states = reservoir.harvest_states(model, train.inputs, train.washout)
            residual = train.targets[:, train.washout :] - model.predict(train_states)
            m = cfg.model
            interval = self_organize.calibrate_interval(
                residual, m.window_size, m.kappa_lo, m.kappa_hi
            )
            self.fleet.append((model, train_states.final_state, interval, m, train.n_samples))
        for s in self.stream_seeds:
            feed_cfg = experiment.ExperimentConfig.from_dict(
                self._config(self.feed_seed_offset + s, s)
            )
            self.feeds.append(experiment.prepare_dataset(feed_cfg.dataset)[2])

    def _stream(self, k: int, n: int = None):
        model, state, interval, m, start = self.fleet[k]
        feed, s = self.feeds[k], self.stream_seeds[k]
        inputs, targets = feed.pair()
        if n is not None:
            inputs, targets = inputs[:, :n], targets[:, :n]
        sink = _StampedSink()
        t0 = clock()
        final, verdicts = self_organize.run_stream(
            model.copy(),
            (inputs, targets),
            m.construction_config(s),
            interval,
            m.stream_config(),
            initial_state=state,
            rng=np.random.default_rng(s),
            start_index=start,
            prediction_sink=sink,
        )
        return final, verdicts, sink, t0, clock()

    def warm_up(self) -> None:
        smoke_pass(self.workdir)
        self._stream(0, n=3 * self.fleet[0][3].window_size)

    def run_rep(self, tracer=None) -> Rep:
        rep = Rep()
        actions, notes = [], []
        for k, feed in enumerate(self.feeds):
            if tracer is not None:
                tracer.begin_op(f"model{k}")
            final, verdicts, sink, t0, t1 = self._stream(k)
            rep.busy_s.append(t1 - t0)
            rep.op_s.extend(np.diff(np.asarray(sink.stamps + [t1])).tolist())
            w = feed.washout
            score = experiment.nrmse(np.hstack(sink)[:, w:], feed.targets[:, w:])
            rep.nrmse.append(score)
            acts = [v.action for v in verdicts]
            actions += acts
            notes += [v.note for v in verdicts]
            rep.attempted += len(verdicts)
            rep.op_digests.append(
                f"{_hex(score)}|{''.join(_ACTION[a] for a in acts)}|{final.n_blocks}"
            )
        rep.windows = _count_windows(actions, notes)
        rep.failed = rep.windows["restructure_failed"]
        return rep


class CompareWorkload:
    """``sorscn compare`` on the acceptance criterion-2 config, in process.

    ``regime_switch_narma`` [500, 150, 150], all four variants, ``trials``
    seeds each. Op: one trial; the reports are read back from disk.
    """

    name = "compare"
    trials = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def raw_config(self) -> dict:
        return {
            "dataset": {
                "synthetic": {
                    "generator": "regime_switch_narma",
                    "segment_lengths": [500, 150, 150],
                    "seed": self.seed,
                },
                "train_end": 500,
                "washout": 50,
                "normalization": "none",
            },
            "model": dict(COMPARE_MODEL),
            "run": {"trials": self.trials, "base_seed": self.seed * self.trials},
        }

    def setup(self) -> None:
        self.out = os.path.join(self.workdir, f"compare{self.seed}")
        os.makedirs(self.out, exist_ok=True)
        self.config_path = os.path.join(self.out, "config.yaml")
        with open(self.config_path, "w") as fh:
            yaml.safe_dump(self.raw_config(), fh)

    def warm_up(self) -> None:
        smoke_pass(self.workdir)

    def run_rep(self, tracer=None) -> Rep:
        rep = Rep()
        inner = experiment.run_trial

        def timed_trial(cfg, *args, **kwargs):
            if tracer is not None:
                tracer.begin_op(f"{cfg.model.variant}:trial{args[-1]}")
            t0 = clock()
            try:
                return inner(cfg, *args, **kwargs)
            finally:
                rep.op_s.append(clock() - t0)

        experiment.run_trial = timed_trial
        try:
            t0 = clock()
            _run_cli(["compare", "--config", self.config_path, "--out", self.out])
            rep.busy_s.append(clock() - t0)
        finally:
            experiment.run_trial = inner

        actions, notes = [], []
        for variant in experiment.VARIANTS:
            with open(os.path.join(self.out, f"report_{variant}.json")) as fh:
                trials = json.load(fh)["trials"]
            scores = []
            for t in trials:
                rep.attempted += 1
                if t["failed"]:
                    rep.failed += 1
                    rep.op_digests.append(f"{variant}|failed|{t['error']}")
                    continue
                scores.append(t["testing_nrmse"])
                acts = [r["action"] for r in t["timeline"]]
                actions += acts
                notes += [r["note"] for r in t["timeline"]]
                rep.op_digests.append(
                    f"{variant}|{_hex(t['testing_nrmse'])}|"
                    f"{''.join(_ACTION[a] for a in acts)}|{t['n_blocks']}"
                )
            rep.extra[f"nrmse_median.{variant}"] = float(np.median(scores)) if scores else math.nan
            if variant == "sorscn2":
                rep.nrmse = scores
        rep.windows = _count_windows(actions, notes)
        return rep


WORKLOADS = {w.name: w for w in (BuildWorkload, StreamWorkload, CompareWorkload)}
