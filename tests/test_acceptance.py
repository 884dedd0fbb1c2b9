"""Acceptance gate: one check per criterion, one verdict line each.

Criterion 1 reproduces the debutanizer soft-sensor benchmark with
``configs/debutanizer.yaml`` and needs the public dataset (2394 rows, 7
process variables + butane content). Point ``SORSCN_DEBUTANIZER_CSV`` at the
file, or drop it at ``data/debutanizer.csv`` (comma- or whitespace-separated,
with or without a header row: ``load_csv`` reads both); absent that, the
check is skipped. Everything else is self-contained and seeded.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from sorscn.construct import ConstructionConfig, build_initial, refit_readout
from sorscn.datastream import load_csv
from sorscn.experiment import (
    ExperimentConfig,
    build_variant_model,
    compare_variants,
    prepare_dataset,
    run_experiment,
)
from sorscn.model_io import load_model, save_model
from sorscn.online_update import project_step
from sorscn.reservoir import harvest_states, scale_spectral
from sorscn.self_organize import ErrorInterval, StreamConfig, run_stream, select_blocks

_REPO = Path(__file__).resolve().parent.parent

_SORSCN_WARNINGS = [
    "ignore::sorscn.errors.ConstructionStalledWarning",
    "ignore::sorscn.errors.ConstantStateWarning",
    "ignore::sorscn.errors.InvalidThresholdWarning",
]


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _wave_problem(n, seed, k=3):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-0.5, 0.5, (k, n))
    t = np.arange(n)
    targets = (
        np.sin(2 * np.pi * t / 40)
        + 0.5 * inputs[0] * inputs[1]
        + 0.3 * np.tanh(inputs[-1])
    )[None, :]
    return inputs, targets


# --------------------------------------------------------------------------
# 1. Debutanizer reproduction (data-gated)
# --------------------------------------------------------------------------


def _locate_debutanizer():
    candidates = []
    env = os.environ.get("SORSCN_DEBUTANIZER_CSV")
    if env:
        candidates.append(Path(env))
    candidates += [
        _REPO / "data" / "debutanizer.csv",
        _REPO / "data" / "Debutanizer_Data.txt",
        _REPO / "Debutanizer_Data.txt",
    ]
    for path in candidates:
        if path.is_file():
            return path
    return None


@pytest.mark.filterwarnings(*_SORSCN_WARNINGS)
def test_criterion_01_debutanizer_reproduction():
    raw = _locate_debutanizer()
    if raw is None:
        print(
            "[SKIP] criterion 1: debutanizer dataset not found "
            "(set SORSCN_DEBUTANIZER_CSV or add data/debutanizer.csv)"
        )
        pytest.skip("debutanizer dataset not available in this checkout")

    spec = yaml.safe_load((_REPO / "configs" / "debutanizer.yaml").read_text())
    spec["dataset"]["source"] = str(raw)
    cfg = ExperimentConfig.from_dict(spec)
    ds = load_csv(raw, cfg.dataset.schema)
    assert (ds.n_samples, ds.input_dim) == (2394, 7), (
        f"expected 2394 rows x 8 columns (u1..u7, y), "
        f"found {ds.n_samples} samples x {ds.input_dim} inputs"
    )
    reports = compare_variants(cfg, variants=("esn", "sorscn2"))
    sorscn2 = reports["sorscn2"].aggregates["testing_nrmse"]["mean"]
    esn = reports["esn"].aggregates["testing_nrmse"]["mean"]
    ok = sorscn2 <= 0.08 and sorscn2 < esn
    _verdict(
        1,
        ok,
        f"sorscn2 mean testing NRMSE {sorscn2:.4f} (bound 0.08), esn {esn:.4f}",
    )


# --------------------------------------------------------------------------
# 2. Variant ordering on the seeded regime-switch stream
# --------------------------------------------------------------------------


@pytest.mark.filterwarnings(*_SORSCN_WARNINGS)
def test_criterion_02_variant_ordering():
    cfg = ExperimentConfig.from_dict(
        {
            "dataset": {
                "synthetic": {
                    "generator": "regime_switch_narma",
                    "segment_lengths": [500, 150, 150],
                    "seed": 0,
                },
                "train_end": 500,
                "washout": 50,
                "normalization": "none",
            },
            "model": {
                "max_blocks": 8,
                "block_size": 5,
                "candidates_per_setting": 25,
                "lambda_grid": [0.5, 1.0, 5.0],
                "r_grid": [0.9, 0.99, 0.999],
                "window_size": 40,
                "esn_size": 60,
            },
            "run": {"trials": 20, "base_seed": 0},
        }
    )
    started = time.monotonic()
    reports = compare_variants(cfg)
    elapsed = time.monotonic() - started
    med = {
        name: float(np.median([t.testing_nrmse for t in rep.trials if not t.failed]))
        for name, rep in reports.items()
    }
    ordered = med["sorscn2"] <= med["sorscn1"] <= med["rscn"] <= med["esn"]
    ok = ordered and elapsed < 300.0
    _verdict(
        2,
        ok,
        "median testing NRMSE over 20 trials: "
        f"sorscn2 {med['sorscn2']:.4f} <= sorscn1 {med['sorscn1']:.4f} "
        f"<= rscn {med['rscn']:.4f} <= esn {med['esn']:.4f} "
        f"({elapsed:.0f}s)",
    )


# --------------------------------------------------------------------------
# 3. Projection exactness, rank-one corrections, closed-form minimality
# --------------------------------------------------------------------------


def test_criterion_03_projection_exactness():
    rng = np.random.default_rng(0xACCE)
    worst = 0.0
    for _ in range(1000):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        w = rng.standard_normal((rows, cols))
        before = w.copy()
        g = rng.standard_normal(cols)
        g[int(rng.integers(cols))] += 0.5  # keep the state clear of the guard
        y = rng.standard_normal(rows)
        project_step(w, g[:, None], y[:, None])  # a one-sample window
        gap = np.linalg.norm(w @ g - y) / (1.0 + np.linalg.norm(y))
        worst = max(worst, gap)
        assert gap <= 1e-10
        assert np.linalg.matrix_rank(w - before, tol=1e-12) == 1

    for _ in range(100):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(2, 9))
        w = rng.standard_normal((rows, cols))
        before = w.copy()
        g = rng.standard_normal(cols) + 0.1
        y = rng.standard_normal(rows)
        project_step(w, g[:, None], y[:, None])
        oracle = before + np.outer((y - before @ g) / (g @ g), g)
        assert np.allclose(w, oracle, atol=1e-12)
        assert np.linalg.norm(w - before) == pytest.approx(
            np.linalg.norm(y - before @ g) / np.linalg.norm(g), abs=1e-12
        )
    _verdict(
        3,
        True,
        f"1000 steps interpolate (worst relative gap {worst:.2e}), "
        "rank-one, 100 closed-form minimality fixtures agree",
    )


# --------------------------------------------------------------------------
# 4. Supervisory-mechanism soundness over seeded construction runs
# --------------------------------------------------------------------------


def test_criterion_04_supervisory_soundness():
    accepted = 0
    for seed in range(10):
        cfg = ConstructionConfig(
            max_blocks=6, block_size=4, candidates_per_setting=15, rng_seed=seed
        )
        inputs, targets = _wave_problem(200, seed=100 + seed)
        model = build_initial(cfg, (inputs, targets), washout=10)
        grows = [ev for ev in model.history if ev.kind == "grow"]
        assert len(grows) >= 2, f"seed {seed} accepted too few blocks to test"
        for ev in grows:
            assert ev.margins is not None
            assert all(m >= 0.0 for m in ev.margins), f"seed {seed}: negative margin"
        norms = [ev.residual_norm for ev in grows]
        for earlier, later in zip(norms, norms[1:]):
            assert later <= earlier + 1e-9, f"seed {seed}: residual increased"
        accepted += len(grows)
    _verdict(
        4,
        True,
        f"{accepted} accepted blocks across 10 runs: margins >= 0, residuals non-increasing",
    )


# --------------------------------------------------------------------------
# 5. Spectral scaling against a dense eigensolver
# --------------------------------------------------------------------------


def test_criterion_05_spectral_scaling():
    rng = np.random.default_rng(5)
    worst = 0.0
    for theta in (0.5, 0.8, 1.0):
        for _ in range(100):
            scaled = scale_spectral(rng.uniform(-1.0, 1.0, (10, 10)), theta)
            rho = float(np.abs(np.linalg.eigvals(scaled)).max())
            worst = max(worst, abs(rho - theta))
            assert abs(rho - theta) <= 1e-9
    _verdict(5, True, f"300 scaled 10x10 blocks hit theta within {worst:.2e} (tol 1e-9)")


# --------------------------------------------------------------------------
# 6. MSA curves against a brute-force evaluation
# --------------------------------------------------------------------------


def _brute_force_msa(s, c, alpha, gamma):
    j = len(s)
    ranking = sorted(range(j), key=lambda k: (-s[k], k))
    s_sorted = [s[k] for k in ranking]
    total = sum(s_sorted)
    if total <= 0.0:
        curve = [(i + 1) / j for i in range(j)]
    else:
        acc, curve = 0.0, []
        for v in s_sorted:
            acc += v
            curve.append(acc / total)
    if c is not None:
        c_sorted = [c[k] for k in ranking]
        c_total = sum(c_sorted)
        if c_total <= 0.0:
            curve = [m + alpha * (i + 1) / j for i, m in enumerate(curve)]
        else:
            acc, extra = 0.0, []
            for v in c_sorted:
                acc += v
                extra.append(acc / c_total)
            curve = [m + alpha * e for m, e in zip(curve, extra)]
    j_m = j
    for i, value in enumerate(curve):
        if value >= gamma:
            j_m = i + 1
            break
    return ranking, curve, j_m


def test_criterion_06_msa_brute_force_equivalence():
    rng = np.random.default_rng(6)
    for i in range(1000):
        j = int(rng.integers(1, 9))
        s = rng.uniform(0.0, 5.0, j)
        if i % 20 == 19:
            s = np.zeros(j)  # dead readout: uniform-share fallback
        improved = i % 2 == 1
        c = rng.uniform(0.0, 1.0, j) if improved else None
        alpha = float(rng.uniform(0.0, 1.0))
        endpoint = 1.0 + (alpha if improved else 0.0)
        gamma = float(rng.uniform(0.0, endpoint))

        report = select_blocks(s, c, gamma, alpha)
        ranking, curve, j_m = _brute_force_msa(
            list(s), None if c is None else list(c), alpha, gamma
        )
        assert list(report.ranking) == ranking
        assert np.allclose(report.msa_curve, curve, rtol=1e-10, atol=1e-12)
        assert report.j_m == j_m
        assert np.all(np.diff(report.msa_curve) >= -1e-15)
        assert report.msa_curve[-1] == endpoint  # exact, not approximate
    _verdict(6, True, "1000 fixtures: ranking, curve, j_m match; endpoints exact")


# --------------------------------------------------------------------------
# 7. Early stopping removes exactly the unhelpful tail
# --------------------------------------------------------------------------


def test_criterion_07_early_stopping():
    inputs, targets = _wave_problem(200, seed=100)
    val_in, val_tg = _wave_problem(120, seed=900)
    # Noisy validation targets make added blocks stop helping quickly.
    val_tg = val_tg + np.random.default_rng(0).normal(0.0, 0.25, val_tg.shape)
    cfg = ConstructionConfig(
        max_blocks=10, block_size=3, candidates_per_setting=10, j_step=2, rng_seed=0
    )
    model = build_initial(cfg, (inputs, targets), validation=(val_in, val_tg), washout=8)
    kinds = [ev.kind for ev in model.history]
    grows = kinds.count("grow")
    ok = kinds[-1] == "early_stop" and model.n_blocks == grows - cfg.j_step
    _verdict(
        7,
        ok,
        f"validation rose for {cfg.j_step} additions: {grows} grown, "
        f"{model.n_blocks} kept (= grown - j_step)",
    )


# --------------------------------------------------------------------------
# 8. Least-squares refit against an independent pseudoinverse oracle
# --------------------------------------------------------------------------


def test_criterion_08_least_squares_oracle():
    rng = np.random.default_rng(8)
    worst = 0.0
    for i in range(200):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m, m + 21))
        outputs = int(rng.integers(1, 4))
        states = rng.standard_normal((m, n))
        if i % 3 == 0 and m >= 3:
            states[-1] = states[0] + states[1]  # rank-deficient instance
        targets = rng.standard_normal((outputs, n))
        got = refit_readout(states, targets)
        oracle = targets @ np.linalg.pinv(states)
        rel = np.linalg.norm(got - oracle) / max(1.0, np.linalg.norm(oracle))
        worst = max(worst, rel)
        assert rel <= 1e-8
    _verdict(
        8,
        True,
        f"200 instances (1 in 3 rank-deficient) match pinv oracle; worst rel err {worst:.2e}",
    )


# --------------------------------------------------------------------------
# 9. Stream-driver routing table and structural invariance under E_max = inf
# --------------------------------------------------------------------------


def _routing_model():
    cfg = ConstructionConfig(
        max_blocks=6, block_size=3, candidates_per_setting=15, rng_seed=3
    )
    inputs, targets = _wave_problem(240, seed=0)
    model = build_initial(cfg, (inputs, targets), washout=10)
    assert model.n_blocks >= 2  # the improved variant needs multiple blocks
    return model, cfg


@pytest.mark.filterwarnings(*_SORSCN_WARNINGS)
def test_criterion_09_stream_routing():
    model, cfg = _routing_model()
    window = _wave_problem(40, seed=42)
    states = harvest_states(model, window[0], washout=0)
    err = float(np.linalg.norm(window[1] - model.predict(states)))

    bands = {
        "below": ErrorInterval(2.0 * err, 3.0 * err),
        "inside": ErrorInterval(0.5 * err, 2.0 * err),
        "above": ErrorInterval(0.01 * err, 0.5 * err),
    }
    expected = {"below": "none", "inside": "online_update", "above": "restructure"}
    table = {}
    for variant in ("base", "improved"):
        for band, interval in bands.items():
            _, verdicts = run_stream(
                model.copy(),
                window,
                cfg,
                interval,
                StreamConfig(window_size=40, variant=variant),
            )
            table[(variant, band)] = verdicts[0].action
    routing_ok = all(
        table[(variant, band)] == expected[band]
        for variant in ("base", "improved")
        for band in bands
    )

    # An unbounded upper limit can never trigger restructuring.
    frozen = model.copy()
    blocks_before = list(frozen.blocks)
    events_before = len(frozen.history)
    stream = _wave_problem(500, seed=7)
    out, verdicts = run_stream(
        frozen,
        stream,
        cfg,
        ErrorInterval(0.0, np.inf),
        StreamConfig(window_size=10),
    )
    invariant_ok = (
        len(verdicts) == 50
        and all(v.action in ("none", "online_update") for v in verdicts)
        and out.blocks == blocks_before
        and len(out.history) == events_before
    )
    _verdict(
        9,
        routing_ok and invariant_ok,
        "2x3 routing table exact; structure untouched across 50 windows at e_max=inf",
    )


# --------------------------------------------------------------------------
# 10. Determinism of reports; persistence round-trip
# --------------------------------------------------------------------------


@pytest.mark.filterwarnings(*_SORSCN_WARNINGS)
def test_criterion_10_determinism_and_persistence(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "dataset": {
                "synthetic": {
                    "generator": "regime_switch_narma",
                    "segment_lengths": [150, 80],
                    "seed": 1,
                },
                "train_end": 150,
                "washout": 10,
                "normalization": "none",
            },
            "model": {
                "variant": "sorscn2",
                "max_blocks": 4,
                "block_size": 3,
                "candidates_per_setting": 30,
                "lambda_grid": [0.5, 1.0],
                "r_grid": [0.9, 0.99],
                "window_size": 20,
            },
            "run": {"trials": 2, "base_seed": 0},
        }
    )
    first = json.dumps(run_experiment(cfg).to_dict(), sort_keys=True)
    second = json.dumps(run_experiment(cfg).to_dict(), sort_keys=True)
    deterministic = first.encode() == second.encode()

    train, validation, _ = prepare_dataset(cfg.dataset)
    model, _ = build_variant_model(cfg.model, train, validation, seed=0)
    path = tmp_path / "model.npz"
    save_model(model, path)
    loaded = load_model(path)
    probe = np.random.default_rng(2).uniform(-1, 1, (train.inputs.shape[0], 100))
    round_trip = np.array_equal(
        loaded.predict(harvest_states(loaded, probe, 0)),
        model.predict(harvest_states(model, probe, 0)),
    )
    _verdict(
        10,
        deterministic and round_trip,
        "reports byte-identical across runs; save/load predictions bitwise equal",
    )
