"""Projection steps on the readout: interpolation, minimality, the guard.

Single steps are one-column windows; multi-sample windows are checked against
a per-sample loop of the textbook recursion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sorscn.errors import ConfigError, DimensionMismatch
from sorscn.online_update import project_step


def step(w, g, y, guard_epsilon=1e-12):
    """One projection step: a one-column window."""
    return project_step(w, np.asarray(g)[:, None], np.asarray(y)[:, None], guard_epsilon)


def reference_steps(w, states, targets, guard_epsilon=1e-12):
    """The per-sample recursion in arrival order; returns (applied, skipped)."""
    applied = skipped = 0
    for i in range(states.shape[1]):
        g, y = states[:, i], targets[:, i]
        denom = float(g @ g)
        if denom < guard_epsilon:
            skipped += 1
            continue
        w += np.outer((y - w @ g) / denom, g)
        applied += 1
    return applied, skipped


def test_hand_worked_step():
    # W = [[0, 0]], g = (1, 0), y = 2:  innovation 2, denom 1 -> W = [[2, 0]].
    w = np.zeros((1, 2))
    counts = step(w, np.array([1.0, 0.0]), np.array([2.0]))
    assert np.array_equal(w, np.array([[2.0, 0.0]]))
    assert counts == (1, 0)


def test_updates_mutate_readout_in_place():
    w = np.zeros((2, 3))
    assert step(w, np.array([0.0, 1.0, 0.0]), np.array([1.0, -1.0])) == (1, 0)
    assert not np.allclose(w, 0.0)


def test_exact_interpolation_after_step():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 5))
    g = rng.standard_normal(5)
    y = rng.standard_normal(3)
    step(w, g, y)
    assert np.allclose(w @ g, y, atol=1e-12)


def test_correction_is_rank_one():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((3, 6))
    before = w.copy()
    step(w, rng.standard_normal(6), rng.standard_normal(3))
    delta = w - before
    assert np.linalg.matrix_rank(delta, tol=1e-10) == 1


def test_matches_closed_form_update():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((2, 4))
    g = rng.standard_normal(4)
    y = rng.standard_normal(2)
    expected = w + np.outer((y - w @ g) / (g @ g), g)
    step(w, g, y)
    assert np.allclose(w, expected, atol=1e-14)


def test_correction_norm_is_minimal_among_feasible_ones():
    """Any other correction that interpolates (g, y) costs at least as much.

    A feasible correction V satisfies (W + V) g = y; the projection step's
    norm is |innovation| / |g|, and alternatives built by adding components
    orthogonal to the step can only grow in Frobenius norm.
    """
    rng = np.random.default_rng(3)
    w0 = rng.standard_normal((2, 5))
    g = rng.standard_normal(5)
    y = rng.standard_normal(2)

    w = w0.copy()
    step(w, g, y)
    step_norm = np.linalg.norm(w - w0)
    assert step_norm == pytest.approx(
        np.linalg.norm(y - w0 @ g) / np.linalg.norm(g), abs=1e-12
    )

    for trial in range(20):
        # Perturb in the nullspace of g so feasibility is preserved exactly.
        z = rng.standard_normal((2, 5))
        z -= np.outer(z @ g / (g @ g), g)
        alt = (w - w0) + z
        assert np.allclose((w0 + alt) @ g, y, atol=1e-10)
        assert np.linalg.norm(alt) >= step_norm - 1e-12


def test_second_step_on_same_sample_is_identity():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((2, 4))
    g = rng.standard_normal(4)
    y = rng.standard_normal(2)
    step(w, g, y)
    snapshot = w.copy()
    step(w, g, y)
    assert np.allclose(w, snapshot, atol=1e-12)


def test_predictions_orthogonal_to_state_unchanged():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((2, 4))
    before = w.copy()
    g = rng.standard_normal(4)
    h = rng.standard_normal(4)
    h -= (h @ g) / (g @ g) * g  # orthogonal probe direction
    step(w, g, rng.standard_normal(2))
    assert np.allclose(w @ h, before @ h, atol=1e-12)


def test_near_zero_state_is_skipped_and_counted():
    w = np.ones((1, 3))
    assert step(w, np.zeros(3), np.array([5.0])) == (0, 1)
    assert np.array_equal(w, np.ones((1, 3)))

    # Just under the guard skips; at/above the guard fires.
    tiny = np.full(3, np.sqrt(1e-13 / 3))
    assert step(w, tiny, np.array([5.0])) == (0, 1)
    assert step(w, np.full(3, 1e-3), np.array([5.0])) == (1, 0)


def test_guard_epsilon_must_be_positive():
    with pytest.raises(ConfigError):
        step(np.zeros((1, 2)), np.ones(2), np.ones(1), guard_epsilon=0.0)
    with pytest.raises(ConfigError):
        step(np.zeros((1, 2)), np.ones(2), np.ones(1), guard_epsilon=-1e-9)


def test_dimension_checks():
    w = np.zeros((2, 3))
    with pytest.raises(DimensionMismatch):
        step(w, np.zeros(4), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        step(w, np.zeros(3), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        project_step(w, np.zeros((3, 4)), np.zeros((2, 5)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_interpolation_and_minimality_properties(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    w = rng.standard_normal((rows, cols))
    before = w.copy()
    g = rng.standard_normal(cols) + 0.01
    y = rng.standard_normal(rows)
    step(w, g, y)
    assert np.allclose(w @ g, y, atol=1e-9)
    assert np.linalg.norm(w - before) <= np.linalg.norm(y - before @ g) / np.linalg.norm(g) + 1e-9


def _window(rng, n_nodes, m, l_out):
    states = rng.standard_normal((n_nodes, m))
    targets = rng.standard_normal((l_out, m))
    return states, targets


def _assert_matches_reference(w0, states, targets):
    ref = w0.copy()
    expected = reference_steps(ref, states, targets)
    w = w0.copy()
    assert project_step(w, states, targets) == expected  # updates w in place
    assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)
    return w


@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_window_matches_per_sample_loop(m):
    rng = np.random.default_rng(100 + m)
    states, targets = _window(rng, 12, m, 2)
    w = _assert_matches_reference(rng.standard_normal((2, 12)), states, targets)
    # The last sample of the window is interpolated exactly.
    assert np.allclose(w @ states[:, -1], targets[:, -1], atol=1e-12)


def test_window_skips_zero_state_columns():
    rng = np.random.default_rng(7)
    states, targets = _window(rng, 8, 10, 2)
    states[:, 3] = 0.0
    states[:, 9] = 0.0  # the last sample: nothing to interpolate along
    w0 = rng.standard_normal((2, 8))
    w = _assert_matches_reference(w0, states, targets)
    assert project_step(w0.copy(), states, targets) == (8, 2)
    assert np.allclose(w @ states[:, 8], targets[:, 8], atol=1e-12)


def test_window_of_near_collinear_states():
    rng = np.random.default_rng(8)
    base = rng.standard_normal(10)
    # Consecutive states differ by 1e-6 relative: their Gram matrix is nearly
    # singular, its upper triangle is not.
    states = base[:, None] + 1e-6 * rng.standard_normal((10, 20))
    states *= rng.uniform(0.5, 2.0, 20)
    targets = rng.standard_normal((2, 20))
    w = _assert_matches_reference(rng.standard_normal((2, 10)), states, targets)
    assert np.allclose(w @ states[:, -1], targets[:, -1], atol=1e-9)


def test_all_zero_window_leaves_readout_unchanged():
    w = np.ones((2, 3))
    assert project_step(w, np.zeros((3, 4)), np.ones((2, 4))) == (0, 4)
    assert np.array_equal(w, np.ones((2, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_window_matches_per_sample_loop_property(seed):
    rng = np.random.default_rng(seed)
    n_nodes, m, l_out = int(rng.integers(2, 15)), int(rng.integers(1, 45)), int(rng.integers(1, 4))
    states, targets = _window(rng, n_nodes, m, l_out)
    states[:, rng.random(m) < 0.1] = 0.0
    _assert_matches_reference(rng.standard_normal((l_out, n_nodes)), states, targets)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_single_node_window_rounding_scales_with_the_corrections(seed):
    """With one node all states are collinear and each step overwrites the last.

    The loop then ends at y_M / g_M, while the closed form sums M corrections
    that cancel down to it, so its rounding scales with their summed size (up
    to 3e-11 of the readout in 2000 random 40-sample windows) rather than with
    the readout. Bound: M * eps of the summed correction norms.
    """
    rng = np.random.default_rng(seed)
    m, l_out = int(rng.integers(1, 45)), int(rng.integers(1, 4))
    states, targets = _window(rng, 1, m, l_out)
    w0 = rng.standard_normal((l_out, 1))
    ref, path = w0.copy(), np.linalg.norm(w0)
    for i in range(m):
        before = ref.copy()
        reference_steps(ref, states[:, i : i + 1], targets[:, i : i + 1])
        path += np.linalg.norm(ref - before)
    w = w0.copy()
    project_step(w, states, targets)
    assert np.linalg.norm(w - ref) <= 45 * np.finfo(float).eps * path
