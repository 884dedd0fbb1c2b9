"""Block state recurrence, spectral scaling, and state harvesting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, zero_block
from sorscn.errors import DegenerateMatrix, DimensionMismatch, WashoutTooLarge
from sorscn.reservoir import (
    DEGENERATE_RADIUS,
    RECURRENCE_CHUNK,
    EnsembleModel,
    harvest_block_states,
    harvest_candidate_states,
    harvest_states,
    new_random_block,
    scale_spectral,
    spectral_radii,
    spectral_radius,
)


class TestScaleSpectral:
    def test_diagonal(self):
        out = scale_spectral(np.diag([2.0, 1.0]), theta=0.8)
        assert np.allclose(out, np.diag([0.8, 0.4]), atol=1e-12)

    def test_identity_unchanged_at_unit_target(self):
        out = scale_spectral(np.eye(3), theta=1.0)
        assert np.allclose(out, np.eye(3), atol=1e-12)

    def test_random_matrix_hits_target_against_dense_eigensolver(self):
        raw = np.random.default_rng(7).standard_normal((10, 10))
        out = scale_spectral(raw, theta=0.8)
        rho = np.abs(np.linalg.eigvals(out)).max()
        assert abs(rho - 0.8) <= 1e-9

    def test_zero_matrix_is_degenerate(self):
        with pytest.raises(DegenerateMatrix):
            scale_spectral(np.zeros((4, 4)), theta=0.5)

    def test_nilpotent_matrix_is_degenerate(self):
        # Strict upper shift: all eigenvalues zero, though the matrix is not.
        with pytest.raises(DegenerateMatrix):
            scale_spectral(np.diag(np.ones(3), k=1), theta=0.5)

    @pytest.mark.parametrize("theta", [0.0, -0.2, 1.5])
    def test_theta_out_of_range(self, theta):
        with pytest.raises(ValueError):
            scale_spectral(np.eye(2), theta=theta)


class TestSpectralRadius:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_eigensolver(self, seed):
        a = np.random.default_rng(seed).uniform(-1, 1, (10, 10))
        assert abs(spectral_radius(a) - np.abs(np.linalg.eigvals(a)).max()) <= 1e-9

    def test_complex_dominant_pair(self):
        c, s = np.cos(0.9), np.sin(0.9)
        rot = np.array([[c, -s], [s, c]]) * 1.7
        assert abs(spectral_radius(rot) - 1.7) <= 1e-9

    def test_batched_agrees_with_scalar(self):
        mats = np.random.default_rng(3).standard_normal((8, 6, 6))
        batched = spectral_radii(mats)
        singles = [spectral_radius(m) for m in mats]
        assert np.allclose(batched, singles, atol=1e-9)

    def test_batched_mixed_stack_matches_per_matrix_oracle(self):
        c, s = np.cos(0.9), np.sin(0.9)
        rotation = np.zeros((5, 5))
        rotation[:2, :2] = np.array([[c, -s], [s, c]]) * 1.7  # dominant complex pair
        rotation[2:, 2:] = np.diag([0.5, -0.3, 0.1])
        shift = np.diag(np.ones(4), k=1)  # nilpotent: all eigenvalues zero
        draws = np.random.default_rng(4).uniform(-1, 1, (6, 5, 5))
        mats = np.concatenate([rotation[None], np.zeros((1, 5, 5)), shift[None], draws])
        oracle = np.array([np.abs(np.linalg.eigvals(m)).max() for m in mats])
        radii = spectral_radii(mats)
        assert radii.shape == (9,)
        assert np.allclose(radii, oracle, rtol=0, atol=1e-12)
        assert abs(radii[0] - 1.7) <= 1e-12
        assert radii[1] <= DEGENERATE_RADIUS and radii[2] <= DEGENERATE_RADIUS

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            spectral_radius(np.ones((2, 3)))


def step_state(model, prev_state, u):
    """One step of the recurrence: a one-sample harvest from ``prev_state``."""
    return harvest_states(model, u[:, None], washout=0, initial_state=prev_state).final_state


class TestStepState:
    def test_zero_weights_give_zero_state(self):
        model = EnsembleModel(
            blocks=[zero_block(3, 2)], readout=np.zeros((1, 3)), input_dim=2, output_dim=1
        )
        out = step_state(model, np.zeros(3), np.array([5.0, -2.0]))
        assert np.array_equal(out, np.zeros(3))

    def test_bias_only_gives_tanh_bias(self):
        blk = zero_block(3, 2)
        blk = type(blk)(
            input_weights=blk.input_weights,
            internal_weights=blk.internal_weights,
            bias=np.array([0.3, -1.0, 2.0]),
            scale_lambda=blk.scale_lambda,
            spectral_target=blk.spectral_target,
            block_id=0,
        )
        model = EnsembleModel(blocks=[blk], readout=np.zeros((1, 3)), input_dim=2, output_dim=1)
        for state, u in [(np.zeros(3), np.zeros(2)), (np.ones(3), np.array([4.0, -4.0]))]:
            assert np.allclose(step_state(model, state, u), np.tanh(blk.bias), atol=1e-15)

    def test_blocks_are_independent(self):
        model = make_model(n_blocks=2, size=4, input_dim=3, seed=5)
        u = np.array([0.2, -0.1, 0.4])
        base = np.random.default_rng(0).standard_normal(8)
        perturbed = base.copy()
        perturbed[:4] += 1.0  # touch only block 1's slice
        out_a = step_state(model, base, u)
        out_b = step_state(model, perturbed, u)
        assert not np.allclose(out_a[:4], out_b[:4])
        assert np.array_equal(out_a[4:], out_b[4:])

    def test_dimension_checks(self):
        model = make_model(n_blocks=1, size=4, input_dim=3)
        with pytest.raises(DimensionMismatch):
            step_state(model, np.zeros(5), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            step_state(model, np.zeros(4), np.zeros(2))


class TestHarvestStates:
    def test_boundary_washout_leaves_one_column(self):
        model = make_model(n_blocks=1, size=3, input_dim=2)
        sm = harvest_states(model, np.zeros((2, 5)), washout=4)
        assert sm.stacked.shape == (3, 1)
        assert sm.sample_range == (4, 5)

    def test_zero_weight_model_gives_zero_states(self):
        model = EnsembleModel(
            blocks=[zero_block(3, 2, 0), zero_block(3, 2, 1)],
            readout=np.zeros((1, 6)),
            input_dim=2,
            output_dim=1,
        )
        sm = harvest_states(model, np.random.default_rng(0).standard_normal((2, 10)), washout=2)
        assert sm.stacked.shape == (6, 8)
        assert np.array_equal(sm.stacked, np.zeros((6, 8)))

    def test_washout_too_large(self):
        model = make_model(n_blocks=1, size=3, input_dim=2)
        with pytest.raises(WashoutTooLarge):
            harvest_states(model, np.zeros((2, 5)), washout=5)
        with pytest.raises(WashoutTooLarge):
            harvest_states(model, np.zeros((2, 5)), washout=-1)

    def test_echo_state_forgets_initial_conditions(self):
        model = make_model(n_blocks=2, size=5, input_dim=2, seed=11, theta=0.8, scale=0.5)
        inputs = np.random.default_rng(1).uniform(-0.5, 0.5, (2, 130))
        a = harvest_states(model, inputs, washout=100)
        b = harvest_states(
            model, inputs, washout=100, initial_state=np.full(model.total_size, 0.9)
        )
        dist = np.linalg.norm(a.stacked - b.stacked, axis=0)
        assert dist.max() < 1e-6

    def test_states_bounded_by_tanh_range(self):
        # Large scales saturate to +/-1.0 exactly in float64, so the closed
        # interval is the honest bound there; moderate scales stay strict.
        big = make_model(n_blocks=2, size=4, input_dim=3, seed=2, scale=10.0)
        sm = harvest_states(big, np.random.default_rng(4).standard_normal((3, 50)), washout=0)
        assert np.all(np.abs(sm.stacked) <= 1.0)
        mild = make_model(n_blocks=2, size=4, input_dim=3, seed=2, scale=0.8)
        sm = harvest_states(mild, np.random.default_rng(4).standard_normal((3, 50)), washout=0)
        assert np.all(np.abs(sm.stacked) < 1.0)

    def test_determinism(self):
        model = make_model(seed=9)
        inputs = np.random.default_rng(2).standard_normal((3, 40))
        a = harvest_states(model, inputs, washout=5)
        b = harvest_states(model, inputs, washout=5)
        assert np.array_equal(a.stacked, b.stacked)
        assert np.array_equal(a.final_state, b.final_state)

    def test_split_harvest_with_carried_state_matches_joint(self):
        model = make_model(n_blocks=2, size=4, input_dim=3, seed=6)
        inputs = np.random.default_rng(8).standard_normal((3, 60))
        joint = harvest_states(model, inputs, washout=0)
        first = harvest_states(model, inputs[:, :25], washout=0)
        second = harvest_states(model, inputs[:, 25:], washout=0, initial_state=first.final_state)
        rejoined = np.hstack([first.stacked, second.stacked])
        assert np.allclose(rejoined, joint.stacked, atol=1e-15)

    def test_per_block_views_match_stacked(self):
        model = make_model(n_blocks=3, size=4, input_dim=3, seed=13)
        sm = harvest_states(model, np.random.default_rng(5).standard_normal((3, 20)), washout=3)
        offs = model.block_offsets()
        for k in range(3):
            assert np.array_equal(sm.per_block[k], sm.stacked[offs[k] : offs[k + 1]])


def _reference_states(model, inputs, washout, initial_state=None):
    """Post-washout states from a per-block, per-sample loop (the reference)."""
    offs = model.block_offsets()
    state = np.zeros(model.total_size) if initial_state is None else initial_state.copy()
    cols = []
    for t in range(inputs.shape[1]):
        state = np.concatenate([
            np.tanh(
                blk.input_weights @ inputs[:, t]
                + blk.internal_weights @ state[offs[k] : offs[k + 1]]
                + blk.bias
            )
            for k, blk in enumerate(model.blocks)
        ])
        cols.append(state)
    return np.array(cols[washout:]).T


def _mixed_model(seed=0, input_dim=2):
    """An rscn-style seed block of 7 nodes followed by three gated 5-node blocks."""
    rng = np.random.default_rng(seed)
    sizes = [7, 5, 5, 5]
    blocks = [
        new_random_block(rng, size=s, input_dim=input_dim, scale=1.0, theta=0.9, block_id=k)
        for k, s in enumerate(sizes)
    ]
    return EnsembleModel(
        blocks=blocks, readout=np.zeros((1, sum(sizes))), input_dim=input_dim, output_dim=1
    )


def _esn_model(seed=0, input_dim=2):
    rng = np.random.default_rng(seed)
    blk = new_random_block(
        rng, size=40, input_dim=input_dim, scale=1.0, theta=0.9, block_id=0, sparsity=0.1
    )
    return EnsembleModel(blocks=[blk], readout=np.zeros((1, 40)), input_dim=input_dim, output_dim=1)


class TestRecurrenceKernel:
    """The one batched kernel against a loop written out here."""

    @pytest.mark.parametrize("make", [_mixed_model, _esn_model])
    @pytest.mark.parametrize("washout", [0, 150])
    def test_model_harvest_matches_per_block_reference(self, make, washout):
        model = make(seed=3)
        inputs = np.random.default_rng(4).uniform(-1, 1, (2, 300))
        init = np.random.default_rng(5).uniform(-0.5, 0.5, model.total_size)
        for initial_state in (None, init):
            sm = harvest_states(model, inputs, washout, initial_state=initial_state)
            ref = _reference_states(model, inputs, washout, initial_state)
            assert sm.stacked.shape == ref.shape
            assert np.abs(sm.stacked - ref).max() <= 1e-12
            assert np.abs(sm.final_state - ref[:, -1]).max() <= 1e-12

    def test_split_across_chunk_boundary_matches_one_call(self):
        assert 130 > RECURRENCE_CHUNK
        model = _mixed_model(seed=6)
        inputs = np.random.default_rng(7).uniform(-1, 1, (2, 300))
        joint = harvest_states(model, inputs, washout=0)
        first = harvest_states(model, inputs[:, :130], washout=0)
        second = harvest_states(model, inputs[:, 130:], washout=0, initial_state=first.final_state)
        rejoined = np.hstack([first.stacked, second.stacked])
        assert np.abs(rejoined - joint.stacked).max() <= 1e-15
        assert np.abs(second.final_state - joint.final_state).max() <= 1e-15

    def test_step_state_is_a_one_sample_harvest(self):
        model = _mixed_model(seed=8)
        prev = np.random.default_rng(9).uniform(-0.5, 0.5, model.total_size)
        u = np.array([0.3, -0.7])
        one = harvest_states(model, u[:, None], washout=0, initial_state=prev)
        assert np.array_equal(one.final_state, one.stacked[:, 0])
        ref = _reference_states(model, u[:, None], 0, prev)[:, 0]
        assert np.abs(one.stacked[:, 0] - ref).max() <= 1e-12

    def test_candidate_kernel_continues_from_initial_state(self):
        model = _mixed_model(seed=10)
        gated = model.blocks[1:]
        win = np.stack([b.input_weights for b in gated])
        wr = np.stack([b.internal_weights for b in gated])
        bias = np.stack([b.bias for b in gated])
        inputs = np.random.default_rng(11).uniform(-1, 1, (2, 200))
        first = harvest_candidate_states(win, wr, bias, inputs[:, :90], washout=0)
        second = harvest_candidate_states(
            win, wr, bias, inputs[:, 90:], washout=20, initial_state=first[:, :, -1]
        )
        for g, blk in enumerate(gated):
            single = EnsembleModel(
                blocks=[blk], readout=np.zeros((1, blk.size)), input_dim=2, output_dim=1
            )
            ref = _reference_states(single, inputs, washout=110)
            assert np.abs(second[g] - ref).max() <= 1e-12
            cont = harvest_block_states(blk, inputs[:, 90:], 20, initial_state=first[g, :, -1])
            assert np.array_equal(second[g], cont)

    def test_input_and_state_shapes_are_checked(self):
        blk = _mixed_model(seed=12).blocks[1]
        with pytest.raises(DimensionMismatch):
            harvest_block_states(blk, np.zeros((3, 10)), washout=0)
        with pytest.raises(DimensionMismatch):
            harvest_block_states(blk, np.zeros(10), washout=0)
        with pytest.raises(DimensionMismatch):
            harvest_block_states(blk, np.zeros((2, 10)), washout=0, initial_state=np.zeros(4))
        with pytest.raises(WashoutTooLarge):
            harvest_block_states(blk, np.zeros((2, 10)), washout=10)


class TestNewRandomBlock:
    @pytest.mark.parametrize("theta", [0.5, 0.8, 1.0])
    def test_spectral_invariant(self, theta, rng):
        blk = new_random_block(rng, size=10, input_dim=4, scale=2.0, theta=theta, block_id=0)
        rho = np.abs(np.linalg.eigvals(blk.internal_weights)).max()
        assert abs(rho - theta) <= 1e-9

    def test_entry_ranges(self, rng):
        blk = new_random_block(rng, size=8, input_dim=3, scale=0.7, theta=0.9, block_id=1)
        assert np.all(np.abs(blk.input_weights) <= 0.7)
        assert np.all(np.abs(blk.bias) <= 0.7)

    def test_sparsity_zeroes_internal_entries(self, rng):
        blk = new_random_block(
            rng, size=20, input_dim=2, scale=1.0, theta=0.9, block_id=0, sparsity=0.1
        )
        density = np.count_nonzero(blk.internal_weights) / 400
        assert density < 0.35  # ~0.1 expected; generous bound, seeded anyway

    def test_model_predict_partitions_by_block(self, rng):
        model = make_model(n_blocks=2, size=3, input_dim=2, output_dim=2, seed=21)
        sm = harvest_states(model, rng.standard_normal((2, 15)), washout=0)
        manual = sum(
            model.readout_block(k) @ sm.per_block[k] for k in range(model.n_blocks)
        )
        assert np.allclose(model.predict(sm), manual, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_spectral_radius_property_nonnegative_and_scales_linearly(seed):
    a = np.random.default_rng(seed).uniform(-1, 1, (6, 6))
    r = spectral_radius(a)
    assert r >= 0
    assert abs(spectral_radius(2.5 * a) - 2.5 * r) <= 1e-8 * max(1.0, r)
