"""Error routing, sensitivity ranking, pruning, regrowth, and the stream driver."""

import warnings

import numpy as np
import pytest

from conftest import make_model
from sorscn.construct import ConstructionConfig, refit_readout
from sorscn.errors import (
    ConfigError,
    ConstantStateWarning,
    ConstructionStalledWarning,
    DimensionMismatch,
    EmptyWindow,
    InvalidThresholdWarning,
)
from sorscn.reservoir import (
    StateMatrix,
    harvest_block_states,
    harvest_states,
    new_random_block,
    replace_readout,
)
from sorscn.self_organize import (
    ErrorInterval,
    StreamConfig,
    WindowVerdict,
    calibrate_interval,
    compute_correlation_scores,
    compute_sensitivity,
    prune,
    regrow,
    run_stream,
    select_blocks,
)


def state_matrix(*block_rows):
    """Hand-built StateMatrix from per-block row arrays (same sample count)."""
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in block_rows]
    stacked = np.vstack(blocks)
    offs = np.cumsum([0] + [b.shape[0] for b in blocks])
    per_block = tuple(stacked[offs[i] : offs[i + 1]] for i in range(len(blocks)))
    n = stacked.shape[1]
    final = stacked[:, -1].copy() if n else np.zeros(stacked.shape[0])
    return StateMatrix(
        per_block=per_block,
        sample_range=(0, n),
        stacked=stacked,
        final_state=final,
    )


class TestErrorInterval:
    def test_routing_with_inclusive_bounds(self):
        iv = ErrorInterval(e_min=1.0, e_max=2.0)
        assert iv.route(0.5) == "none"
        assert iv.route(1.0) == "online_update"   # lower bound inclusive
        assert iv.route(1.7) == "online_update"
        assert iv.route(2.0) == "online_update"   # upper bound inclusive
        assert iv.route(2.0001) == "restructure"

    @pytest.mark.parametrize("lo,hi", [(-0.1, 1.0), (1.0, 1.0), (2.0, 1.0)])
    def test_malformed_interval_rejected(self, lo, hi):
        with pytest.raises(ConfigError):
            ErrorInterval(e_min=lo, e_max=hi)

    def test_hand_calibration(self):
        # Windows of the residual [[3,4],[0,0]]: norms 5 and 0,
        # rms = sqrt((25 + 0)/2) = 3.5355339059327378.
        iv = calibrate_interval(np.array([[3.0, 4.0, 0.0, 0.0]]), 2, kappa_lo=0.5, kappa_hi=1.5)
        assert iv.e_min == pytest.approx(0.5 * 3.5355339059327378, abs=1e-12)
        assert iv.e_max == pytest.approx(1.5 * 3.5355339059327378, abs=1e-12)
        assert iv.calibration["n_windows"] == 2
        assert iv.calibration["rms"] == pytest.approx(3.5355339059327378, abs=1e-12)

    def test_partial_trailing_window_included(self):
        # Norms 5 (full window) and 2 (single trailing sample).
        iv = calibrate_interval(np.array([[3.0, 4.0, 2.0]]), window_size=2, kappa_lo=1.0, kappa_hi=2.0)
        rms = np.sqrt((25.0 + 4.0) / 2.0)
        assert iv.e_min == pytest.approx(rms, abs=1e-12)
        assert iv.e_max == pytest.approx(2 * rms, abs=1e-12)

    def test_zero_residual_degenerates_to_tiny_upper_bound(self):
        iv = calibrate_interval(np.zeros((1, 10)), 5, kappa_lo=0.5, kappa_hi=1.5)
        assert iv.e_min == 0.0
        assert iv.e_max == 1e-12

    def test_calibration_input_validation(self):
        with pytest.raises(EmptyWindow):
            calibrate_interval(np.zeros((1, 0)), 2, kappa_lo=0.5, kappa_hi=1.5)
        with pytest.raises(ConfigError):
            calibrate_interval(np.ones((1, 4)), 0, kappa_lo=0.5, kappa_hi=1.5)
        with pytest.raises(ConfigError):
            calibrate_interval(np.ones((1, 4)), window_size=2, kappa_lo=2.0, kappa_hi=1.0)


class TestSensitivity:
    def test_hand_contributions(self):
        model = make_model(n_blocks=2, size=2, input_dim=1)
        replace_readout(model, np.array([[1.0, 0.0, 0.0, 0.0]]))
        states = state_matrix([[1.0, 2.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]])
        s = compute_sensitivity(model, states)
        # Block 0 contributes (1, 2) -> mean norm 1.5; block 1's readout is zero.
        assert np.allclose(s, [1.5, 0.0], atol=1e-15)

    def test_empty_window_rejected(self):
        model = make_model(n_blocks=1, size=2, input_dim=1)
        states = state_matrix(np.zeros((2, 0)))
        with pytest.raises(EmptyWindow):
            compute_sensitivity(model, states)

    def test_block_count_mismatch(self):
        model = make_model(n_blocks=2, size=2, input_dim=1)
        with pytest.raises(DimensionMismatch):
            compute_sensitivity(model, state_matrix(np.ones((2, 3))))


class TestCorrelationScores:
    def test_orthogonal_blocks_fall_back_to_uniform(self):
        # Both flattened series are zero-mean and mutually orthogonal.
        states = state_matrix([[1.0, -1.0, 1.0, -1.0]], [[1.0, 1.0, -1.0, -1.0]])
        assert np.allclose(compute_correlation_scores(states), [0.5, 0.5], atol=1e-15)

    def test_proportional_blocks_split_evenly(self):
        base = np.array([[0.3, -1.2, 0.7, 2.0]])
        states = state_matrix(base, 2.0 * base)
        assert np.allclose(compute_correlation_scores(states), [0.5, 0.5], atol=1e-12)

    def test_three_blocks_match_corrcoef_oracle(self):
        rng = np.random.default_rng(7)
        rows = [rng.standard_normal((2, 6)) for _ in range(3)]
        states = state_matrix(*rows)
        got = compute_correlation_scores(states)

        flats = np.stack([r.ravel() for r in rows])
        corr = np.abs(np.corrcoef(flats))
        np.fill_diagonal(corr, 0.0)
        c = corr.sum(axis=1)
        assert np.allclose(got, 1.0 - c / c.sum(), atol=1e-12)
        assert got.sum() == pytest.approx(len(rows) - 1, abs=1e-12)

    def test_constant_block_warns_and_scores_highest(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((1, 8))
        states = state_matrix(a, a * -1.5, np.full((1, 8), 5.0))
        with pytest.warns(ConstantStateWarning):
            got = compute_correlation_scores(states)
        assert got[2] == pytest.approx(1.0)  # correlates with nothing
        assert np.allclose(got[:2], 0.5, atol=1e-12)

    def test_shape_requirements(self):
        with pytest.raises(DimensionMismatch):
            compute_correlation_scores(state_matrix(np.ones((2, 4))))
        with pytest.raises(DimensionMismatch):
            compute_correlation_scores(state_matrix(np.ones((2, 4)), np.ones((3, 4))))


class TestSelectBlocks:
    def test_base_hand_curve(self):
        report = select_blocks(np.array([3.0, 2.0, 1.0]), None, gamma=0.8)
        assert list(report.ranking) == [0, 1, 2]
        assert np.allclose(report.msa_curve, [0.5, 5.0 / 6.0, 1.0], atol=1e-15)
        assert report.msa_curve[-1] == 1.0  # exact endpoint
        assert report.j_m == 2
        assert report.retained == (0, 1)
        assert report.variant == "base" and report.alpha is None

    def test_ranking_breaks_ties_by_position(self):
        report = select_blocks(np.array([2.0, 3.0, 3.0]), None, gamma=1.0)
        assert list(report.ranking) == [1, 2, 0]
        assert report.j_m == 3

    def test_improved_hand_curve(self):
        report = select_blocks(
            np.array([3.0, 2.0, 1.0]),
            np.array([0.2, 0.5, 0.3]),
            gamma=0.6,
            alpha=0.5,
        )
        assert np.allclose(report.msa_curve, [0.6, 5.0 / 6.0 + 0.35, 1.5], atol=1e-12)
        assert report.msa_curve[-1] == 1.5  # exact endpoint 1 + alpha
        assert report.j_m == 1
        assert report.retained == (0,)
        assert report.variant == "improved" and report.alpha == 0.5

    def test_unreachable_gamma_keeps_everything_and_warns(self):
        with pytest.warns(InvalidThresholdWarning):
            report = select_blocks(
                np.array([3.0, 1.0]), np.array([0.5, 0.5]), gamma=1.6, alpha=0.5
            )
        assert report.j_m == 2

    def test_base_gamma_above_one_keeps_all_and_warns(self):
        with pytest.warns(InvalidThresholdWarning):
            report = select_blocks(np.array([1.0, 2.0]), None, gamma=1.2)
        assert report.j_m == 2
        assert report.retained == (0, 1)

    def test_gamma_at_curve_endpoint_is_reachable(self):
        report = select_blocks(np.array([3.0, 1.0]), None, gamma=1.0)
        assert report.j_m == 2

    def test_all_zero_sensitivities_use_uniform_curve(self):
        report = select_blocks(np.zeros(3), None, gamma=0.5)
        assert np.allclose(report.msa_curve, [1 / 3, 2 / 3, 1.0], atol=1e-15)
        assert report.j_m == 2

    def test_zero_correlation_total_uses_uniform_term(self):
        report = select_blocks(
            np.array([2.0, 1.0]), np.zeros(2), gamma=0.5, alpha=0.4
        )
        base = np.array([2.0 / 3.0, 1.0])
        assert np.allclose(report.msa_curve, base + 0.4 * np.array([0.5, 1.0]), atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            select_blocks(np.array([1.0]), None, gamma=-0.1)
        with pytest.raises(ConfigError):
            select_blocks(np.array([1.0]), np.array([1.0]), gamma=0.5, alpha=-1.0)
        with pytest.raises(DimensionMismatch):
            select_blocks(np.array([]), None, gamma=0.5)
        with pytest.raises(DimensionMismatch):
            select_blocks(np.array([1.0, 2.0]), np.array([1.0]), gamma=0.5, alpha=0.1)


class TestPrune:
    def test_keeps_blocks_and_their_readout_columns(self):
        model = make_model(n_blocks=3, size=2, input_dim=1)
        replace_readout(model, np.arange(1.0, 7.0)[None, :])  # [[1..6]]
        report = select_blocks(np.array([5.0, 0.1, 4.0]), None, gamma=0.9)
        assert report.retained == (0, 2)
        pruned = prune(model, report, sample_index=123)
        assert pruned.n_blocks == 2
        assert pruned.blocks[0] is model.blocks[0]
        assert pruned.blocks[1] is model.blocks[2]
        assert np.array_equal(pruned.readout, np.array([[1.0, 2.0, 5.0, 6.0]]))
        event = pruned.history[-1]
        assert event.kind == "prune" and event.sample_index == 123
        assert event.blocks_after == 2

    def test_pruned_predictions_drop_only_removed_contributions(self):
        model = make_model(n_blocks=3, size=3, input_dim=2, seed=5)
        rng = np.random.default_rng(0)
        replace_readout(model, rng.standard_normal((1, 9)))
        inputs = rng.uniform(-1, 1, (2, 30))
        states = harvest_states(model, inputs, washout=0)
        report = select_blocks(np.array([3.0, 2.0, 1.0]), None, gamma=0.8)
        pruned = prune(model, report)
        pruned_states = harvest_states(pruned, inputs, washout=0)
        kept = model.readout_block(0) @ states.per_block[0] + model.readout_block(1) @ states.per_block[1]
        assert np.allclose(pruned.predict(pruned_states), kept, atol=1e-12)

    def test_original_model_untouched(self):
        model = make_model(n_blocks=2, size=2, input_dim=1)
        report = select_blocks(np.array([1.0, 3.0]), None, gamma=0.5)
        prune(model, report)
        assert model.n_blocks == 2


def _sine_problem(n, freq=40.0, seed=0, k=2):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-0.5, 0.5, (k, n))
    t = np.arange(n)
    targets = (np.sin(2 * np.pi * t / freq) + 0.4 * inputs[0] * inputs[1])[None, :]
    return inputs, targets


def _small_cfg(**overrides):
    base = dict(max_blocks=6, block_size=3, candidates_per_setting=10, rng_seed=0)
    base.update(overrides)
    return ConstructionConfig(**base)


class TestRegrow:
    def test_grows_until_error_reenters_interval(self):
        cfg = _small_cfg(max_blocks=10, candidates_per_setting=20)
        model = make_model(n_blocks=1, size=3, input_dim=2, seed=3)
        replace_readout(model, np.zeros((1, 3)))
        window = _sine_problem(60, seed=4)
        interval = ErrorInterval(e_min=0.5, e_max=2.0)
        grown, states = regrow(model, window, cfg, interval, rng=np.random.default_rng(0))
        residual = window[1] - grown.readout @ np.vstack(states)
        assert float(np.linalg.norm(residual)) <= interval.e_max
        assert grown.n_blocks > 1
        assert len(states) == grown.n_blocks
        grow_events = [ev for ev in grown.history if ev.kind == "grow"]
        assert grow_events
        assert grow_events[-1].residual_norm == pytest.approx(
            float(np.linalg.norm(residual)), abs=1e-9
        )

    def test_new_block_ids_continue_numbering(self):
        cfg = _small_cfg()
        model = make_model(n_blocks=2, size=3, input_dim=2, seed=3)
        replace_readout(model, np.zeros((1, 6)))
        window = _sine_problem(60, seed=4)
        grown, _ = regrow(model, window, cfg, ErrorInterval(0.5, 2.0), rng=np.random.default_rng(0))
        old_max = 1  # make_model numbers blocks 0..n-1
        new_ids = [b.block_id for b in grown.blocks[2:]]
        assert new_ids == list(range(old_max + 1, old_max + 1 + len(new_ids)))

    def test_block_cap_recorded(self):
        cfg = _small_cfg(max_blocks=2, j_step=1)
        model = make_model(n_blocks=2, size=3, input_dim=2, seed=3)
        replace_readout(model, np.zeros((1, 6)))
        window = _sine_problem(60, seed=4)
        grown, _ = regrow(model, window, cfg, ErrorInterval(0.001, 0.002), rng=np.random.default_rng(0))
        assert grown.n_blocks == 2
        assert grown.history[-1].kind == "cap"

    def test_window_refit_matches_least_squares_oracle(self):
        cfg = _small_cfg()
        model = make_model(n_blocks=1, size=3, input_dim=2, seed=3)
        replace_readout(model, np.zeros((1, 3)))
        window = _sine_problem(60, seed=4)
        grown, states = regrow(model, window, cfg, ErrorInterval(0.5, 2.0), rng=np.random.default_rng(0))
        oracle = refit_readout(np.vstack(states), window[1])
        assert np.allclose(grown.readout, oracle, atol=1e-10)

    def test_history_refit_uses_training_series_too(self):
        cfg = _small_cfg()
        model = make_model(n_blocks=1, size=3, input_dim=2, seed=3)
        replace_readout(model, np.zeros((1, 3)))
        hist_in, hist_tg = _sine_problem(80, seed=9)
        window = _sine_problem(60, seed=4)
        grown, states = regrow(
            model, window, cfg, ErrorInterval(0.5, 2.0),
            rng=np.random.default_rng(0), history=(hist_in, hist_tg, 10),
        )
        hist_states = np.vstack(
            [harvest_block_states(b, hist_in, washout=10) for b in grown.blocks]
        )
        fit_states = np.hstack([hist_states, np.vstack(states)])
        fit_targets = np.hstack([hist_tg[:, 10:], window[1]])
        oracle = refit_readout(fit_states, fit_targets)
        assert np.allclose(grown.readout, oracle, atol=1e-10)

    def test_stalled_search_flags_model_and_warns(self):
        class ZeroDraws:
            def uniform(self, lo, hi, size):
                return np.zeros(size)

        cfg = _small_cfg(lambda_grid=(1.0,), r_grid=(0.9,), candidates_per_setting=3)
        model = make_model(n_blocks=1, size=3, input_dim=2, seed=3)
        replace_readout(model, np.zeros((1, 3)))
        window = _sine_problem(40, seed=4)
        with pytest.warns(ConstructionStalledWarning):
            grown, _ = regrow(model, window, cfg, ErrorInterval(0.001, 0.002), rng=ZeroDraws())
        assert grown.stalled
        assert grown.n_blocks == 1
        assert grown.history[-1].kind == "stall"


class TestStreamConfig:
    def test_defaults_accepted(self):
        cfg = StreamConfig(window_size=20)
        assert cfg.variant == "base" and cfg.guard_epsilon > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(window_size=0),
            dict(window_size=10, variant="other"),
            dict(window_size=10, alpha=-0.1),
            dict(window_size=10, gamma=-0.1),
            dict(window_size=10, guard_epsilon=0.0),
            dict(window_size=10, guard_epsilon=-1e-9),
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            StreamConfig(**kwargs)

    def test_unreachable_gamma_warns_up_front(self):
        with pytest.warns(InvalidThresholdWarning):
            StreamConfig(window_size=10, variant="base", gamma=1.2)
        with pytest.warns(InvalidThresholdWarning):
            StreamConfig(window_size=10, variant="improved", alpha=0.5, gamma=1.6)

    def test_verdict_record_round_trip(self):
        v = WindowVerdict(3, 0.25, "online_update", 4, 4, note="x")
        assert v.to_record() == {
            "window_index": 3,
            "error_norm": 0.25,
            "action": "online_update",
            "blocks_before": 4,
            "blocks_after": 4,
            "note": "x",
        }


class TestRunStream:
    def _trained(self, seed=0, n=240):
        from sorscn.construct import build_initial

        cfg = _small_cfg(rng_seed=seed)
        inputs, targets = _sine_problem(n, seed=seed)
        model = build_initial(cfg, (inputs, targets), washout=10)
        return model, cfg

    def test_quiet_interval_leaves_model_untouched(self):
        model, cfg = self._trained()
        before = model.readout.copy()
        n_events = len(model.history)
        stream = _sine_problem(80, seed=1)
        out, verdicts = run_stream(
            model, stream, cfg, ErrorInterval(1e6, 2e6), StreamConfig(window_size=20)
        )
        assert [v.action for v in verdicts] == ["none"] * 4
        assert np.array_equal(out.readout, before)
        assert len(out.history) == n_events

    def test_windowed_predictions_match_joint_harvest(self):
        model, cfg = self._trained()
        stream = _sine_problem(70, seed=2)  # 20 + 20 + 20 + 10: partial tail
        sink = []
        run_stream(
            model, stream, cfg, ErrorInterval(1e6, 2e6), StreamConfig(window_size=20),
            prediction_sink=sink,
        )
        assert [p.shape[1] for p in sink] == [20, 20, 20, 10]
        joint = model.predict(harvest_states(model, stream[0], washout=0))
        assert np.allclose(np.hstack(sink), joint, atol=1e-13)

    def test_initial_state_feeds_first_window(self):
        model, cfg = self._trained()
        warm = np.full(model.total_size, 0.3)
        stream = _sine_problem(20, seed=3)
        sink = []
        run_stream(
            model, stream, cfg, ErrorInterval(1e6, 2e6), StreamConfig(window_size=20),
            initial_state=warm, prediction_sink=sink,
        )
        expected = model.predict(harvest_states(model, stream[0], washout=0, initial_state=warm))
        assert np.allclose(sink[0], expected, atol=1e-13)

    def test_online_updates_interpolate_last_sample(self):
        model, cfg = self._trained()
        stream = _sine_problem(60, seed=4)
        out, verdicts = run_stream(
            model, stream, cfg, ErrorInterval(0.0, 1e9), StreamConfig(window_size=20)
        )
        assert [v.action for v in verdicts] == ["online_update"] * 3
        assert out.n_blocks == model.n_blocks
        # Replay the final states: the last processed sample interpolates.
        states = harvest_states(out, stream[0], washout=0)
        assert np.allclose(
            out.readout @ states.stacked[:, -1], stream[1][:, -1], atol=1e-6
        )

    def test_restructure_prunes_and_regrows(self):
        model, cfg = self._trained()
        stream = _sine_problem(80, freq=11.0, seed=5)  # different regime
        out, verdicts = run_stream(
            model, stream, cfg, ErrorInterval(1e-13, 1e-12), StreamConfig(window_size=40),
        )
        assert all(v.action == "restructure" for v in verdicts)
        kinds = [ev.kind for ev in out.history]
        assert "prune" in kinds
        assert out.n_blocks <= cfg.max_blocks
        for v in verdicts:
            assert v.blocks_after <= cfg.max_blocks

    def test_restructure_failure_is_contained(self):
        # A mu rule with negative slack fails regrowth inside the window; the
        # verdict records the failure and later windows still run.
        model = make_model(n_blocks=2, size=3, input_dim=2, seed=0)
        cfg = _small_cfg(mu_rule=lambda n_existing, r: -1.0)
        stream = _sine_problem(40, seed=6)
        out, verdicts = run_stream(
            model, stream, cfg, ErrorInterval(1e-13, 1e-12),
            StreamConfig(window_size=20, variant="improved"),
        )
        assert len(verdicts) == 2
        for v in verdicts:
            assert v.action == "restructure"
            assert "restructure failed" in v.note
            assert v.blocks_after == v.blocks_before == 2
        assert out is model

    def test_improved_variant_rejects_mixed_block_sizes_up_front(self):
        # Correlation scores need equal-size blocks: a mixed model, or one
        # that regrowth would make mixed, is refused before the first window.
        from sorscn.reservoir import EnsembleModel

        rng = np.random.default_rng(0)
        blocks = [
            new_random_block(rng, size=3, input_dim=2, scale=1.0, theta=0.8, block_id=0),
            new_random_block(rng, size=4, input_dim=2, scale=1.0, theta=0.8, block_id=1),
        ]
        mixed = EnsembleModel(
            blocks=blocks, readout=np.zeros((1, 7)), input_dim=2, output_dim=1
        )
        stream = _sine_problem(40, seed=6)
        interval = ErrorInterval(1e-13, 1e-12)
        improved = StreamConfig(window_size=20, variant="improved")
        with pytest.raises(ConfigError, match=r"block sizes are \[3, 4\]"):
            run_stream(mixed, stream, _small_cfg(), interval, improved)
        uniform = make_model(n_blocks=2, size=3, input_dim=2, seed=0)
        with pytest.raises(ConfigError, match=r"block sizes are \[3, 5\]"):
            run_stream(uniform, stream, _small_cfg(block_size=5), interval, improved)
        # The base variant ranks by sensitivity alone and takes any sizes.
        _, verdicts = run_stream(
            mixed, stream, _small_cfg(), interval, StreamConfig(window_size=20)
        )
        assert len(verdicts) == 2

    def test_failed_regrow_after_prune_rolls_back_model_and_state(self):
        # The mu rule raises inside regrow, after prune has already run: each
        # window must keep the full pre-window model and its live state.
        def failing_mu(n_existing, r):
            raise ConfigError("mu rule refuses")

        model = make_model(n_blocks=6, size=5, input_dim=2, seed=4)
        model.stalled = True
        readout = model.readout.copy()
        n_events = len(model.history)
        cfg = _small_cfg(max_blocks=8, block_size=5, mu_rule=failing_mu)
        stream = _sine_problem(60, seed=6)
        sink = []
        out, verdicts = run_stream(
            model, stream, cfg, ErrorInterval(1e-13, 1e-12), StreamConfig(window_size=20),
            prediction_sink=sink,
        )
        assert [v.action for v in verdicts] == ["restructure"] * 3
        for v in verdicts:
            assert v.note == "restructure failed: mu rule refuses"
            assert v.blocks_before == v.blocks_after == 6
        assert out is model
        assert out.stalled
        assert np.array_equal(out.readout, readout)
        assert len(out.history) == n_events
        joint = model.predict(harvest_states(model, stream[0], washout=0))
        assert np.allclose(np.hstack(sink), joint, atol=1e-13)

    def test_single_nan_input_does_not_poison_later_windows(self):
        from sorscn.construct import build_initial
        from sorscn.datastream import SyntheticStreamSpec, generate_synthetic

        ds = generate_synthetic(SyntheticStreamSpec("drifting_sine", (300, 400), seed=0))
        cfg = ConstructionConfig(max_blocks=6, block_size=5, candidates_per_setting=10, rng_seed=0)
        train_in, train_tg = ds.inputs[:, :300], ds.targets[:, :300]
        model = build_initial(cfg, (train_in, train_tg), washout=20)
        train_states = harvest_states(model, train_in, washout=20)
        interval = calibrate_interval(
            train_tg[:, 20:] - model.predict(train_states), 40, kappa_lo=0.5, kappa_hi=1.5
        )
        stream_in = ds.inputs[:, 300:].copy()
        stream_in[0, 45] = np.nan  # inside window 1
        out, verdicts = run_stream(
            model, (stream_in, ds.targets[:, 300:]), cfg, interval,
            StreamConfig(window_size=40), initial_state=train_states.final_state,
        )
        assert len(verdicts) == 10
        assert verdicts[1].action == "none"
        assert verdicts[1].note.startswith("non-finite")
        assert verdicts[1].blocks_after == verdicts[1].blocks_before
        for v in verdicts[2:]:
            assert np.isfinite(v.error_norm), v
        assert np.isfinite(out.readout).all()

    def test_nan_target_skips_update_but_advances_state(self):
        model, cfg = self._trained()
        inputs, targets = _sine_problem(40, seed=7)
        targets = targets.copy()
        targets[0, 5] = np.nan
        readout = model.readout.copy()
        joint = model.predict(harvest_states(model, inputs, washout=0))
        sink = []
        out, verdicts = run_stream(
            model, (inputs, targets), cfg, ErrorInterval(0.0, 1e9),
            StreamConfig(window_size=20), prediction_sink=sink,
        )
        assert [v.action for v in verdicts] == ["none", "online_update"]
        assert verdicts[0].note.startswith("non-finite")
        # The first window's update was skipped and its state carried on.
        assert np.allclose(sink[1], joint[:, 20:], atol=1e-13)
        assert np.isfinite(out.readout).all()
        assert not np.array_equal(out.readout, readout)

    def test_base_gamma_above_one_keeps_every_block(self):
        model, cfg = self._trained()
        n_events = len(model.history)
        stream = _sine_problem(80, freq=13.0, seed=7)
        with pytest.warns(InvalidThresholdWarning):
            stream_cfg = StreamConfig(window_size=20, variant="base", gamma=1.2)
        with pytest.warns(InvalidThresholdWarning):
            out, verdicts = run_stream(
                model, stream, cfg, ErrorInterval(1e-13, 1e-12), stream_cfg
            )
        assert [v.action for v in verdicts] == ["restructure"] * 4
        assert not any(v.note.startswith("restructure failed") for v in verdicts)
        prunes = [e for e in out.history[n_events:] if e.kind == "prune"]
        assert [e.blocks_after for e in prunes] == [v.blocks_before for v in verdicts]

    def test_stream_length_mismatch(self):
        model, cfg = self._trained()
        with pytest.raises(DimensionMismatch):
            run_stream(
                model, (np.zeros((2, 10)), np.zeros((1, 9))), cfg,
                ErrorInterval(0.1, 1.0), StreamConfig(window_size=5),
            )

    def test_regime_switch_triggers_restructure_then_recovers(self):
        from sorscn.construct import build_initial

        cfg = _small_cfg(rng_seed=2)
        train_in, train_tg = _sine_problem(300, freq=40.0, seed=8)
        model = build_initial(cfg, (train_in, train_tg), washout=10)
        train_states = harvest_states(model, train_in, washout=10)
        residual = train_tg[:, 10:] - model.predict(train_states)
        interval = calibrate_interval(residual, 40, kappa_lo=0.5, kappa_hi=1.5)

        stream = _sine_problem(120, freq=13.0, seed=9)
        out, verdicts = run_stream(
            model, stream, cfg, interval, StreamConfig(window_size=40),
            initial_state=train_states.final_state,
        )
        actions = [v.action for v in verdicts]
        assert "restructure" in actions
        first = actions.index("restructure")
        assert any(a in ("none", "online_update") for a in actions[first + 1 :]) or len(
            actions
        ) == first + 1
        assert not out.stalled
