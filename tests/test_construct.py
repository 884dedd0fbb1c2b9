"""Gated candidate search, least-squares refit, and incremental building."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sorscn.construct import (
    ConstructionConfig,
    build_initial,
    default_mu,
    propose_block,
    _score_block,
    refit_readout,
)
from sorscn.errors import (
    ConfigError,
    ConstructionStalledWarning,
    DimensionMismatch,
    NoCandidateFound,
    ZeroStateNorm,
)
from sorscn.reservoir import harvest_block_states


def margins_oracle(residual, states, r, mu):
    """Plain-loop evaluation of the supervisory margins, one output at a time."""
    residual = np.atleast_2d(residual)
    gram = float(np.sum(states * states))
    out = []
    for q in range(residual.shape[0]):
        e_q = residual[q]
        proj_sq = 0.0
        for i in range(states.shape[0]):
            proj_sq += float(np.dot(states[i], e_q)) ** 2
        out.append(proj_sq / gram - (1.0 - r - mu) * float(np.dot(e_q, e_q)))
    return np.array(out)


def margins_of(residual, states, r, mu):
    """Margins (L,) of one candidate: a batch of one through ``_score_block``."""
    return _score_block(np.atleast_2d(residual), np.asarray(states)[None], r, mu)[0]


class TestScoreCandidate:
    def test_collinear_trajectory_scores_r_plus_mu_times_energy(self):
        e = np.array([[1.0, -2.0, 0.5, 3.0]])
        margins = margins_of(e, 2.5 * e, r=0.99, mu=0.004)
        energy = float(np.dot(e[0], e[0]))
        assert np.all(margins >= 0.0)
        assert np.allclose(margins, (0.99 + 0.004) * energy, atol=1e-12)

    def test_orthogonal_trajectory_is_rejected(self):
        e = np.array([[1.0, 0.0, -1.0, 2.0]])
        x = np.array([[0.0, 5.0, 0.0, 0.0]])  # orthogonal to e
        margins = margins_of(e, x, r=0.99, mu=0.004)
        energy = float(np.dot(e[0], e[0]))
        assert not np.all(margins >= 0.0)
        assert np.allclose(margins, -(1 - 0.99 - 0.004) * energy, atol=1e-12)

    def test_two_output_instance_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        e = rng.standard_normal((2, 4))
        x = rng.standard_normal((3, 4))
        margins = margins_of(e, x, r=0.95, mu=0.01)
        assert np.allclose(margins, margins_oracle(e, x, 0.95, 0.01), atol=1e-12)

    def test_zero_states_raise(self):
        with pytest.raises(ZeroStateNorm):
            margins_of(np.ones((1, 4)), np.zeros((2, 4)), r=0.9, mu=0.05)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_xi_total_equals_margin_sum(self, seed):
        # A batch scores each candidate as the oracle does alone, so the
        # ranking key (the margin sum) matches too.
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((3, 6))
        x = rng.standard_normal((4, 2, 6)) + 0.1
        margins = _score_block(e, x, r=0.9, mu=0.03)
        for g in range(4):
            oracle = margins_oracle(e, x[g], 0.9, 0.03)
            assert np.allclose(margins[g], oracle, atol=1e-12)
            assert abs(margins[g].sum() - oracle.sum()) <= 1e-12


class TestProposeBlock:
    def test_seeded_search_matches_independent_enumeration(self):
        """Re-derive all three candidates from the same seed stream by hand.

        Freezes the draw-order contract: per (lambda, r) setting, input
        weights (G, N, K), then internal weights (G, N, N), then biases
        (G, N), each uniform in [-lambda, lambda].
        """
        cfg = ConstructionConfig(
            max_blocks=5,
            block_size=3,
            lambda_grid=(1.0,),
            r_grid=(0.9,),
            candidates_per_setting=3,
            theta=0.8,
            rng_seed=0,
        )
        rng = np.random.default_rng(123)
        data_rng = np.random.default_rng(77)
        inputs = data_rng.uniform(-1, 1, (2, 30))
        residual = data_rng.standard_normal((1, 30))

        # Oracle pass with an identically seeded stream and a loop recurrence.
        oracle_rng = np.random.default_rng(123)
        win = oracle_rng.uniform(-1.0, 1.0, (3, 3, 2))
        wr = oracle_rng.uniform(-1.0, 1.0, (3, 3, 3))
        bias = oracle_rng.uniform(-1.0, 1.0, (3, 3))
        mu = default_mu(0, 0.9)
        xi = []
        scaled = []
        for g in range(3):
            rho = np.abs(np.linalg.eigvals(wr[g])).max()
            w = (0.8 / rho) * wr[g]
            scaled.append(w)
            state = np.zeros(3)
            cols = []
            for t in range(30):
                state = np.tanh(win[g] @ inputs[:, t] + w @ state + bias[g])
                cols.append(state.copy())
            states = np.array(cols).T
            m = margins_oracle(residual, states, 0.9, mu)
            xi.append(m.sum() if (m >= 0).all() else -np.inf)

        block, score = propose_block(cfg, residual, inputs, rng, washout=0, n_existing=0)
        assert score.candidate_index == int(np.argmax(xi))
        assert np.allclose(score.xi_total, max(xi), atol=1e-10)
        assert np.array_equal(block.input_weights, win[score.candidate_index])
        assert np.array_equal(block.bias, bias[score.candidate_index])
        assert np.allclose(block.internal_weights, scaled[score.candidate_index], atol=1e-12)
        assert score.lambda_used == 1.0 and score.r_used == 0.9

    def test_all_zero_state_draws_exhaust_the_grids(self):
        """Zero input weights + zero bias force all-zero trajectories."""

        class ZeroInputDraws:
            """Real internal-weight draws, zero input-weight/bias draws."""

            def __init__(self):
                self._rng = np.random.default_rng(5)

            def uniform(self, lo, hi, size):
                if len(size) == 3 and size[2] != size[1]:
                    return np.zeros(size)  # input weights (G, N, K), K != N
                if len(size) == 2:
                    return np.zeros(size)  # biases (G, N)
                return self._rng.uniform(lo, hi, size)

        cfg = ConstructionConfig(
            max_blocks=3,
            block_size=4,
            lambda_grid=(0.5, 1.0),
            r_grid=(0.9,),
            candidates_per_setting=5,
        )
        inputs = np.random.default_rng(1).standard_normal((2, 20))
        residual = np.ones((1, 20))
        with pytest.raises(NoCandidateFound):
            propose_block(cfg, residual, inputs, ZeroInputDraws(), washout=0)

    def test_washout_trims_scoring_columns(self):
        cfg = ConstructionConfig(
            max_blocks=3, block_size=2, lambda_grid=(1.0,), r_grid=(0.9,),
            candidates_per_setting=4,
        )
        rng = np.random.default_rng(3)
        inputs = rng.standard_normal((2, 25))
        residual = rng.standard_normal((1, 20))  # 25 - washout 5
        block, score = propose_block(cfg, residual, inputs, rng, washout=5)
        assert block.size == 2
        with pytest.raises(DimensionMismatch):
            propose_block(cfg, residual, inputs, rng, washout=3)

    def test_score_carries_the_winners_harvested_states(self):
        cfg = ConstructionConfig(max_blocks=3, block_size=4, candidates_per_setting=20)
        rng = np.random.default_rng(8)
        inputs = rng.uniform(-1, 1, (2, 60))
        residual = rng.standard_normal((1, 50))  # 60 - washout 10
        block, score = propose_block(cfg, residual, inputs, rng, washout=10)
        expected = harvest_block_states(block, inputs, washout=10)
        assert score.states.shape == expected.shape == (4, 50)
        assert np.allclose(score.states, expected, rtol=0, atol=1e-12)
        # Owns its memory rather than viewing (and pinning) the candidate batch.
        assert score.states.base is None


class TestConfig:
    def test_grids_normalized_ascending(self):
        cfg = ConstructionConfig(max_blocks=4, lambda_grid=(5.0, 0.5, 1.0), r_grid=(0.99, 0.9))
        assert cfg.lambda_grid == (0.5, 1.0, 5.0)
        assert cfg.r_grid == (0.9, 0.99)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_blocks=0),
            dict(max_blocks=4, block_size=0),
            dict(max_blocks=4, error_tolerance=0.0),
            dict(max_blocks=4, lambda_grid=()),
            dict(max_blocks=4, lambda_grid=(0.0, 1.0)),
            dict(max_blocks=4, r_grid=(0.5, 1.0)),
            dict(max_blocks=4, candidates_per_setting=0),
            dict(max_blocks=4, theta=0.0),
            dict(max_blocks=4, theta=1.2),
            dict(max_blocks=4, j_step=0),
            dict(max_blocks=4, j_step=4),
            dict(max_blocks=4, ridge=-1.0),
            dict(max_blocks=4, seed_reservoir_size=0),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ConstructionConfig(**kwargs)

    def test_single_block_cap_allows_default_j_step(self):
        ConstructionConfig(max_blocks=1)  # early stopping is moot at the cap

    def test_default_mu_keeps_contraction_strict_after_first_block(self):
        cfg = ConstructionConfig(max_blocks=4)
        for r in cfg.r_grid:
            assert cfg.mu_for(0, r) + r == pytest.approx(1.0)
            for j in range(1, 6):
                assert cfg.mu_for(j, r) >= 0
                assert r + cfg.mu_for(j, r) < 1.0

    def test_bad_mu_rule_rejected_at_use(self):
        cfg = ConstructionConfig(max_blocks=4, mu_rule=lambda j, r: 1.0)
        with pytest.raises(ConfigError):
            cfg.mu_for(1, 0.9)
        cfg = ConstructionConfig(max_blocks=4, mu_rule=lambda j, r: -0.1)
        with pytest.raises(ConfigError):
            cfg.mu_for(0, 0.9)


class TestRefitReadout:
    def test_recovers_exact_linear_map(self):
        rng = np.random.default_rng(0)
        stacked = rng.standard_normal((4, 30))  # full row rank
        a = rng.standard_normal((2, 4))
        w = refit_readout(stacked, a @ stacked)
        assert np.allclose(w, a, atol=1e-8)

    def test_zero_targets_give_zero_weights(self):
        stacked = np.random.default_rng(1).standard_normal((3, 10))
        assert np.allclose(refit_readout(stacked, np.zeros((2, 10))), 0.0, atol=1e-12)

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(9)
        stacked = rng.standard_normal((6, 20))
        targets = rng.standard_normal((2, 20))
        w = refit_readout(stacked, targets)
        oracle = targets @ np.linalg.pinv(stacked)
        assert np.allclose(w, oracle, atol=1e-8)

    def test_rank_deficient_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((3, 20))
        stacked = np.vstack([base, base[0] + base[1]])  # dependent row
        targets = rng.standard_normal((1, 20))
        w = refit_readout(stacked, targets)
        oracle = targets @ np.linalg.pinv(stacked)
        assert np.allclose(w, oracle, atol=1e-8)

    def test_residual_orthogonal_to_state_rows(self):
        rng = np.random.default_rng(11)
        stacked = rng.standard_normal((5, 40))
        targets = rng.standard_normal((2, 40))
        w = refit_readout(stacked, targets)
        residual = targets - w @ stacked
        cross = residual @ stacked.T
        assert np.abs(cross).max() <= 1e-8 * np.linalg.norm(targets)

    def test_ridge_matches_damped_normal_equations(self):
        rng = np.random.default_rng(12)
        stacked = rng.standard_normal((4, 25))
        targets = rng.standard_normal((2, 25))
        w = refit_readout(stacked, targets, ridge=0.3)
        oracle = targets @ stacked.T @ np.linalg.inv(stacked @ stacked.T + 0.3 * np.eye(4))
        assert np.allclose(w, oracle, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            refit_readout(np.zeros((3, 10)), np.zeros((1, 9)))


def _wave_problem(n=220, seed=0, k=3):
    """Smooth multi-input target a small reservoir can chip away at."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-0.5, 0.5, (k, n))
    t = np.arange(n)
    targets = (
        np.sin(2 * np.pi * t / 40)
        + 0.5 * inputs[0] * inputs[1]
        + 0.3 * np.tanh(inputs[-1])
    )[None, :]
    return inputs, targets


class TestBuildInitial:
    def test_zero_targets_yield_single_block_and_zero_error(self):
        cfg = ConstructionConfig(max_blocks=5, block_size=3, candidates_per_setting=5)
        inputs = np.random.default_rng(0).standard_normal((2, 40))
        model = build_initial(cfg, (inputs, np.zeros((1, 40))), washout=4)
        assert model.n_blocks == 1
        assert np.allclose(model.readout, 0.0, atol=1e-12)
        grows = [ev for ev in model.history if ev.kind == "grow"]
        assert grows[-1].residual_norm <= 1e-12

    def test_block_cap_of_one(self):
        cfg = ConstructionConfig(max_blocks=1, block_size=3, candidates_per_setting=5)
        inputs, targets = _wave_problem(80)
        model = build_initial(cfg, (inputs, targets), washout=5)
        assert model.n_blocks == 1
        assert model.history[-1].kind == "cap"

    def test_training_residual_non_increasing(self):
        cfg = ConstructionConfig(max_blocks=6, block_size=4, candidates_per_setting=15, rng_seed=3)
        inputs, targets = _wave_problem(180, seed=2)
        model = build_initial(cfg, (inputs, targets), washout=10)
        norms = [ev.residual_norm for ev in model.history if ev.kind == "grow"]
        assert len(norms) >= 2
        for earlier, later in zip(norms, norms[1:]):
            assert later <= earlier + 1e-9

    def test_accepted_blocks_have_nonnegative_margins(self):
        cfg = ConstructionConfig(max_blocks=5, block_size=4, candidates_per_setting=15, rng_seed=4)
        inputs, targets = _wave_problem(150, seed=5)
        model = build_initial(cfg, (inputs, targets), washout=8)
        grows = [ev for ev in model.history if ev.kind == "grow"]
        assert grows
        for ev in grows:
            assert all(m >= 0.0 for m in ev.margins)

    def test_determinism(self):
        cfg = ConstructionConfig(max_blocks=4, block_size=3, candidates_per_setting=10, rng_seed=7)
        inputs, targets = _wave_problem(120, seed=6)
        a = build_initial(cfg, (inputs, targets), washout=5)
        b = build_initial(cfg, (inputs, targets), washout=5)
        assert a.n_blocks == b.n_blocks
        assert np.array_equal(a.readout, b.readout)
        for x, y in zip(a.blocks, b.blocks):
            assert np.array_equal(x.input_weights, y.input_weights)
            assert np.array_equal(x.internal_weights, y.internal_weights)
            assert np.array_equal(x.bias, y.bias)

    def test_seed_reservoir_mode_prepends_ungated_block(self):
        cfg = ConstructionConfig(
            max_blocks=4, block_size=3, candidates_per_setting=10,
            seed_reservoir_size=5, rng_seed=1,
        )
        inputs, targets = _wave_problem(120, seed=8)
        model = build_initial(cfg, (inputs, targets), washout=5)
        assert model.blocks[0].size == 5
        first_grow = next(ev for ev in model.history if ev.kind == "grow")
        assert first_grow.detail == "ungated seed block"
        assert first_grow.margins is None
        assert all(b.size == 3 for b in model.blocks[1:])

    def test_early_stopping_removes_trailing_blocks(self):
        inputs, targets = _wave_problem(200, seed=100)
        val_in, val_tg = _wave_problem(120, seed=900)
        val_tg = val_tg + np.random.default_rng(0).normal(0.0, 0.25, val_tg.shape)
        cfg = ConstructionConfig(
            max_blocks=10, block_size=3, candidates_per_setting=10,
            j_step=2, rng_seed=0,
        )
        model = build_initial(cfg, (inputs, targets), validation=(val_in, val_tg), washout=8)
        kinds = [ev.kind for ev in model.history]
        assert kinds[-1] == "early_stop"
        grows = kinds.count("grow")
        assert model.n_blocks == grows - cfg.j_step
        assert model.readout.shape[1] == sum(b.size for b in model.blocks)
        # Trigger condition: last j_step additions never improved validation.
        val_norms = [ev.val_residual_norm for ev in model.history if ev.kind == "grow"]
        tail = val_norms[-(cfg.j_step + 1):]
        for earlier, later in zip(tail, tail[1:]):
            assert later >= earlier

    def test_stall_returns_partial_model_with_warning(self):
        class StallAfterFirst:
            """Real draws for the first proposal, all-zero states after."""

            def __init__(self):
                self._rng = np.random.default_rng(2)
                self._calls = 0

            def uniform(self, lo, hi, size):
                self._calls += 1
                if self._calls <= 3:
                    return self._rng.uniform(lo, hi, size)
                if len(size) == 3 and size[2] != size[1]:
                    return np.zeros(size)
                if len(size) == 2:
                    return np.zeros(size)
                return self._rng.uniform(lo, hi, size)

        cfg = ConstructionConfig(
            max_blocks=4, block_size=3, lambda_grid=(1.0,), r_grid=(0.9,),
            candidates_per_setting=4,
        )
        inputs, targets = _wave_problem(100, seed=9, k=2)
        with pytest.warns(ConstructionStalledWarning):
            model = build_initial(cfg, (inputs, targets), washout=5, rng=StallAfterFirst())
        assert model.stalled
        assert model.n_blocks == 1
        assert model.history[-1].kind == "stall"
