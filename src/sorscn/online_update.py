"""Projection-algorithm readout updates for in-interval streaming samples.

Each arriving sample (state vector g, target y) moves the readout by the
smallest Frobenius-norm correction that makes the prediction at g exact:

    W(n) = W(n-1) + (y - W(n-1) g) g^T / (g^T g)

The correction is rank-one and leaves predictions unchanged along directions
orthogonal to g. A denominator floor guards the degenerate all-zero state:
below it no update direction exists and the step is skipped outright, which
keeps the exact-interpolation property unconditional whenever a step fires.

A window's steps are applied in arrival order by one closed-form solve rather
than one step per sample. Let S = [g_1 ... g_M] hold the window's states and
R = Y - W_0 S its residuals under the pre-window readout W_0. Unrolling the
recursion gives W_M = W_0 + C S^T, where column c_j of C is step j's
coefficient (y_j - W_{j-1} g_j) / (g_j^T g_j). Since W_{j-1} = W_0 +
sum_{k<j} c_k g_k^T, each step reads

    c_j (g_j^T g_j) + sum_{k<j} c_k (g_k^T g_j) = r_j,

which is column j of C U = R with U = triu(S^T S), the upper triangle of the
window's Gram matrix. Solving that triangular system is therefore the same
sequence of steps, equal up to rounding. A sample under the guard drops out
of S and R: its coefficient is zero, exactly as if its step were skipped.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionMismatch


def project_step(
    readout: np.ndarray,
    states: np.ndarray,
    targets: np.ndarray,
    guard_epsilon: float = 1e-12,
) -> tuple[int, int]:
    """Apply one window's projection steps to ``readout`` in place.

    ``states`` (N, M) and ``targets`` (L, M) hold the window's samples in
    arrival order; ``readout`` (L, N) ends where M sequential projection
    steps would leave it. Samples with ``g . g`` below ``guard_epsilon`` have
    no direction to correct along and are skipped. Returns the number of
    steps ``(applied, skipped)``.
    """
    if guard_epsilon <= 0:
        raise ConfigError(f"guard_epsilon must be positive, got {guard_epsilon}")
    states = np.asarray(states, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if states.ndim != 2 or states.shape[0] != readout.shape[1]:
        raise DimensionMismatch(f"states shape {states.shape}, readout has {readout.shape[1]} columns")
    if targets.shape != (readout.shape[0], states.shape[1]):
        raise DimensionMismatch(
            f"targets shape {targets.shape}, expected ({readout.shape[0]}, {states.shape[1]})"
        )

    gram = states.T @ states
    sq_norms = np.diagonal(gram)
    keep = sq_norms >= guard_epsilon
    skipped = int(keep.size - np.count_nonzero(keep))
    if skipped:
        states, targets = states[:, keep], targets[:, keep]
        gram, sq_norms = gram[np.ix_(keep, keep)], sq_norms[keep]
    applied = states.shape[1]
    if applied:
        # Scaled by D = diag(|g_j|): (C D) (D^-1 U D^-1) = R D^-1. The scaled
        # U holds cosines: a unit diagonal and no entry larger in magnitude,
        # so partial pivoting keeps the diagonal and the solve is forward
        # substitution, the recursion itself, one sample after another.
        # Unscaled, samples of very different norms make it pivot and lose
        # accuracy against the recursion.
        norms = np.sqrt(sq_norms)
        cosines = np.triu(gram) / np.outer(norms, norms)
        np.fill_diagonal(cosines, 1.0)
        residual = (targets - readout @ states) / norms
        coeffs = np.linalg.solve(cosines.T, residual.T)  # (C D)^T
        readout += ((states / norms) @ coeffs).T
    return applied, skipped
