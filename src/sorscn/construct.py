"""Incremental construction of a block reservoir under a supervisory inequality.

Blocks are drawn at random from a widening sequence of weight scales and must
pass a per-output inequality before joining the model: the block's state
trajectory has to carry enough of the current residual, with the demanded
fraction controlled by a contraction factor r and a slack term mu. After each
accepted block the full readout is refit by least squares, so the training
residual never increases. Construction stops at the error tolerance, a block
cap, or when a validation series says further growth no longer helps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ConstructionStalledWarning,
    DimensionMismatch,
    NoCandidateFound,
    ZeroStateNorm,
)
from .reservoir import (
    DEGENERATE_RADIUS,
    EnsembleModel,
    StateMatrix,
    StructureEvent,
    SubReservoir,
    append_block,
    harvest_block_states,
    harvest_candidate_states,
    new_random_block,
    replace_readout,
    spectral_radii,
)

#: Gram norms at or below this are treated as an all-zero candidate trajectory.
ZERO_GRAM = 1e-15

#: Relative singular-value cutoff for the least-squares readout fit.
LSTSQ_RCOND = 1e-10


def default_mu(n_existing: int, r: float) -> float:
    """Slack term for the next block when ``n_existing`` blocks are in place.

    ``(1 - r) / (j + 1)``: equals ``1 - r`` for the very first block (which
    makes the inequality a plain non-negativity check) and shrinks toward zero
    afterwards, keeping ``r + mu < 1`` strictly from the second block on.
    """
    return (1.0 - r) / (n_existing + 1)


@dataclass
class ConstructionConfig:
    """Settings for incremental reservoir construction.

    ``lambda_grid`` and ``r_grid`` are normalized to ascending order: the
    search widens the weight scale only when no candidate at the current scale
    passes the inequality.
    """

    max_blocks: int
    block_size: int = 10
    error_tolerance: float = 1e-5
    lambda_grid: tuple = (0.5, 1.0, 5.0, 10.0, 30.0, 50.0, 100.0)
    r_grid: tuple = (0.9, 0.99, 0.999, 0.9999, 0.99999)
    candidates_per_setting: int = 100
    theta: float = 0.9
    j_step: int = 2
    ridge: float = 0.0
    mu_rule: Optional[Callable[[int, float], float]] = None
    rng_seed: int = 0
    # Comparison mode: start from one random, ungated block of this size
    # before gated growth begins.
    seed_reservoir_size: Optional[int] = None

    def __post_init__(self):
        if self.max_blocks < 1:
            raise ConfigError(f"max_blocks must be >= 1, got {self.max_blocks}")
        if self.block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {self.block_size}")
        if self.error_tolerance <= 0:
            raise ConfigError("error_tolerance must be positive")
        if not self.lambda_grid or any(l <= 0 for l in self.lambda_grid):
            raise ConfigError(f"lambda_grid must be non-empty positive reals, got {self.lambda_grid}")
        if not self.r_grid or any(not 0.0 < r < 1.0 for r in self.r_grid):
            raise ConfigError(f"r_grid entries must lie in (0, 1), got {self.r_grid}")
        if self.candidates_per_setting < 1:
            raise ConfigError("candidates_per_setting must be >= 1")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta must be in (0, 1], got {self.theta}")
        if self.j_step < 1:
            raise ConfigError(f"j_step must be >= 1, got {self.j_step}")
        if self.max_blocks > 1 and self.j_step >= self.max_blocks:
            raise ConfigError(
                f"j_step must be < max_blocks, got {self.j_step} vs {self.max_blocks}"
            )
        if self.ridge < 0:
            raise ConfigError("ridge must be >= 0")
        if self.seed_reservoir_size is not None and self.seed_reservoir_size < 1:
            raise ConfigError("seed_reservoir_size must be >= 1 when set")
        self.lambda_grid = tuple(sorted(float(l) for l in self.lambda_grid))
        self.r_grid = tuple(sorted(float(r) for r in self.r_grid))

    def mu_for(self, n_existing: int, r: float) -> float:
        mu = (self.mu_rule or default_mu)(n_existing, r)
        if mu < 0:
            raise ConfigError(f"mu rule returned negative slack {mu}")
        if n_existing >= 1 and r + mu >= 1.0:
            raise ConfigError(
                f"mu rule violates r + mu < 1 at block count {n_existing}: r={r}, mu={mu}"
            )
        return mu


@dataclass(frozen=True)
class CandidateScore:
    """Inequality margins of one scored candidate block.

    ``per_output`` holds, per output channel, how far the candidate clears the
    supervisory inequality; the candidate is acceptable when every entry is
    nonnegative. ``xi_total`` is their sum, the ranking key within a setting.
    ``states`` holds the winner's post-washout states (N, n - washout), so
    callers need not harvest the accepted block again.
    """

    xi_total: float
    per_output: np.ndarray
    candidate_index: int
    lambda_used: float
    r_used: float
    states: Optional[np.ndarray] = None

    @property
    def acceptable(self) -> bool:
        return bool(np.all(self.per_output >= 0.0))


def _score_block(
    residual: np.ndarray, states: np.ndarray, r: float, mu: float
) -> np.ndarray:
    """Supervisory margins (G, L) of a batch of candidate trajectories (G, N, n).

    Per candidate with states X (N x n) and per output q with residual row
    e_q:

        score_q = ||X e_q^T||^2 / <X, X>  -  (1 - r - mu) * ||e_q||^2

    where <X, X> is the squared Frobenius norm. The first term is the squared
    projection of the residual onto the candidate's trajectory directions; a
    trajectory collinear with the residual scores (r + mu) * ||e_q||^2, an
    orthogonal one scores -(1 - r - mu) * ||e_q||^2. A candidate is
    acceptable when every margin is nonnegative.
    """
    gram = np.einsum("gnt,gnt->g", states, states)
    if (gram <= ZERO_GRAM).any():
        raise ZeroStateNorm("candidate state trajectory has (numerically) zero norm")
    proj = np.einsum("gnt,lt->gnl", states, residual)
    num = np.einsum("gnl,gnl->gl", proj, proj)
    e_sq = np.einsum("lt,lt->l", residual, residual)
    return num / gram[:, None] - (1.0 - r - mu) * e_sq[None, :]


def propose_block(
    cfg: ConstructionConfig,
    residual: np.ndarray,
    inputs: np.ndarray,
    rng: np.random.Generator,
    washout: int = 0,
    n_existing: int = 0,
    block_id: int = 0,
) -> tuple[SubReservoir, CandidateScore]:
    """Search the scale/contraction grids for an acceptable candidate block.

    For each (lambda, r) setting — lambda outer, both grids ascending — draws
    ``candidates_per_setting`` blocks at once (input weights, then internal
    weights, then biases, each uniform in [-lambda, lambda]), rescales the
    internal weights to the spectral target, harvests candidate states over
    ``inputs`` from the zero state, and scores them against ``residual`` using
    post-washout columns only. The first setting yielding any acceptable
    candidate wins; within it, the candidate with the largest total margin is
    returned (lowest draw index on ties), its score carrying its harvested
    post-washout states. Degenerate draws — zero spectral radius or an
    all-zero state trajectory — are skipped.

    Raises :class:`NoCandidateFound` when every setting is exhausted.
    """
    residual = np.atleast_2d(np.asarray(residual, dtype=float))
    inputs = np.asarray(inputs, dtype=float)
    k_in = inputs.shape[0]
    n_cols = inputs.shape[1] - washout
    if residual.shape[1] != n_cols:
        raise DimensionMismatch(
            f"residual has {residual.shape[1]} samples, expected {n_cols} post-washout"
        )
    g = cfg.candidates_per_setting
    size = cfg.block_size

    for lam in cfg.lambda_grid:
        for r in cfg.r_grid:
            mu = cfg.mu_for(n_existing, r)
            win_all = rng.uniform(-lam, lam, (g, size, k_in))
            wr_all = rng.uniform(-lam, lam, (g, size, size))
            b_all = rng.uniform(-lam, lam, (g, size))

            radii = spectral_radii(wr_all)
            viable = radii > DEGENERATE_RADIUS
            if not viable.any():
                continue
            safe_radii = np.where(viable, radii, 1.0)
            wr_scaled = wr_all * (cfg.theta / safe_radii)[:, None, None]
            wr_scaled[~viable] = 0.0

            states = harvest_candidate_states(win_all, wr_scaled, b_all, inputs, washout)
            gram = np.einsum("gnt,gnt->g", states, states)
            viable &= gram > ZERO_GRAM
            if not viable.any():
                continue

            # Mask in place: viable rows (the only ones that can win) keep
            # their states, and no second (G, N, n) batch is made.
            states[~viable] = 1.0
            margins = _score_block(residual, states, r, mu)
            acceptable = viable & np.all(margins >= 0.0, axis=1)
            if not acceptable.any():
                continue

            xi = margins.sum(axis=1)
            best = int(np.argmax(np.where(acceptable, xi, -np.inf)))
            block = SubReservoir(
                input_weights=win_all[best],
                internal_weights=wr_scaled[best],
                bias=b_all[best],
                scale_lambda=lam,
                spectral_target=cfg.theta,
                block_id=block_id,
            )
            score = CandidateScore(
                xi_total=float(xi[best]),
                per_output=margins[best].copy(),
                candidate_index=best,
                lambda_used=lam,
                r_used=r,
                # A copy: a view would keep the whole (G, N, n) batch alive.
                states=states[best].copy(),
            )
            return block, score

    raise NoCandidateFound(
        f"no acceptable candidate in {len(cfg.lambda_grid) * len(cfg.r_grid)} settings "
        f"x {g} draws"
    )


def refit_readout(states, targets: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Global least-squares readout over the stacked states.

    Returns the minimum-norm solution of min ||targets - W @ stacked||_F
    (rank-revealing, relative cutoff 1e-10). With ``ridge`` > 0, solves the
    Tikhonov-damped normal equations instead.
    """
    stacked = states.stacked if isinstance(states, StateMatrix) else np.asarray(states, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if stacked.ndim != 2 or stacked.shape[1] != targets.shape[1]:
        raise DimensionMismatch(
            f"states have {stacked.shape} columns vs targets {targets.shape}"
        )
    if ridge > 0.0:
        m = stacked.shape[0]
        gram = stacked @ stacked.T + ridge * np.eye(m)
        return np.linalg.solve(gram, stacked @ targets.T).T
    sol, *_ = np.linalg.lstsq(stacked.T, targets.T, rcond=LSTSQ_RCOND)
    return sol.T


def _stack(block_states: Sequence[np.ndarray]) -> np.ndarray:
    return np.vstack(block_states)


def build_initial(
    cfg: ConstructionConfig,
    train: tuple[np.ndarray, np.ndarray],
    validation: Optional[tuple[np.ndarray, np.ndarray]] = None,
    washout: int = 0,
    val_washout: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> EnsembleModel:
    """Construct a model from historical data by gated incremental growth.

    Starting from zero blocks (or an ungated random seed block when
    ``cfg.seed_reservoir_size`` is set), repeatedly proposes a gated block,
    appends it, refits the readout over all blocks, and records training and
    validation residual norms. Stops when the training residual reaches the
    tolerance, the block cap is hit, or — with a validation series — the
    validation residual has not decreased for ``j_step`` consecutive
    additions, in which case those last ``j_step`` blocks are removed and the
    readout refit. At least one block is always returned.

    A stalled candidate search (no acceptable block anywhere on the grids)
    flags the model and returns the best one so far with a warning.
    """
    train_inputs = np.asarray(train[0], dtype=float)
    train_targets = np.atleast_2d(np.asarray(train[1], dtype=float))
    if train_inputs.shape[1] != train_targets.shape[1]:
        raise DimensionMismatch(
            f"train inputs n={train_inputs.shape[1]} vs targets n={train_targets.shape[1]}"
        )
    if val_washout is None:
        val_washout = washout
    rng = rng if rng is not None else np.random.default_rng(cfg.rng_seed)

    k_in = train_inputs.shape[0]
    l_out = train_targets.shape[0]
    n_fit = train_inputs.shape[1] - washout
    fit_targets = train_targets[:, washout:]

    model = EnsembleModel(
        blocks=[],
        readout=np.zeros((l_out, 0)),
        input_dim=k_in,
        output_dim=l_out,
    )
    block_states: list[np.ndarray] = []
    val_block_states: list[np.ndarray] = []
    train_norms: list[float] = []
    val_norms: list[float] = []
    residual = fit_targets.copy()
    next_id = 0

    if validation is not None:
        val_inputs = np.asarray(validation[0], dtype=float)
        val_targets = np.atleast_2d(np.asarray(validation[1], dtype=float))[:, val_washout:]

    def refit() -> tuple[float, Optional[float]]:
        nonlocal residual
        stacked = _stack(block_states)
        replace_readout(model, refit_readout(stacked, fit_targets, cfg.ridge))
        residual = fit_targets - model.readout @ stacked
        train_norm = float(np.linalg.norm(residual))
        val_norm = None
        if validation is not None:
            val_res = val_targets - model.readout @ _stack(val_block_states)
            val_norm = float(np.linalg.norm(val_res))
        return train_norm, val_norm

    def refit_and_record() -> None:
        train_norm, val_norm = refit()
        train_norms.append(train_norm)
        if val_norm is not None:
            val_norms.append(val_norm)

    if cfg.seed_reservoir_size is not None:
        seed_block = new_random_block(
            rng,
            size=cfg.seed_reservoir_size,
            input_dim=k_in,
            scale=cfg.lambda_grid[0],
            theta=cfg.theta,
            block_id=next_id,
        )
        next_id += 1
        append_block(model, seed_block)
        block_states.append(harvest_block_states(seed_block, train_inputs, washout))
        if validation is not None:
            val_block_states.append(harvest_block_states(seed_block, val_inputs, val_washout))
        refit_and_record()
        model.history.append(
            StructureEvent(
                kind="grow",
                sample_index=train_inputs.shape[1],
                blocks_after=model.n_blocks,
                block_id=seed_block.block_id,
                residual_norm=train_norms[-1],
                val_residual_norm=val_norms[-1] if val_norms else None,
                detail="ungated seed block",
            )
        )

    while True:
        if model.n_blocks >= 1 and train_norms and train_norms[-1] <= cfg.error_tolerance:
            break
        if model.n_blocks >= cfg.max_blocks:
            model.history.append(
                StructureEvent(
                    kind="cap",
                    sample_index=train_inputs.shape[1],
                    blocks_after=model.n_blocks,
                    detail=f"block cap {cfg.max_blocks} reached",
                )
            )
            break
        try:
            block, score = propose_block(
                cfg,
                residual,
                train_inputs,
                rng,
                washout=washout,
                n_existing=model.n_blocks,
                block_id=next_id,
            )
        except NoCandidateFound as exc:
            model.stalled = True
            model.history.append(
                StructureEvent(
                    kind="stall",
                    sample_index=train_inputs.shape[1],
                    blocks_after=model.n_blocks,
                    detail=str(exc),
                )
            )
            warnings.warn(
                f"construction stalled at {model.n_blocks} blocks: {exc}",
                ConstructionStalledWarning,
            )
            break
        next_id += 1
        append_block(model, block)
        block_states.append(score.states)
        if validation is not None:
            val_block_states.append(harvest_block_states(block, val_inputs, val_washout))
        refit_and_record()
        model.history.append(
            StructureEvent(
                kind="grow",
                sample_index=train_inputs.shape[1],
                blocks_after=model.n_blocks,
                block_id=block.block_id,
                residual_norm=train_norms[-1],
                val_residual_norm=val_norms[-1] if val_norms else None,
                margins=tuple(float(m) for m in score.per_output),
                detail=f"lambda={score.lambda_used}, r={score.r_used}, "
                f"candidate={score.candidate_index}",
            )
        )

        # Validation residual non-decreasing across the last j_step additions:
        # growth stopped helping, so undo those blocks.
        s = cfg.j_step
        if (
            validation is not None
            and len(val_norms) >= s + 1
            and model.n_blocks > s
            and all(val_norms[-s - 1 + i] <= val_norms[-s + i] for i in range(s))
        ):
            del model.blocks[-s:]
            del block_states[-s:]
            del val_block_states[-s:]
            del train_norms[-s:]
            del val_norms[-s:]
            refit()
            model.history.append(
                StructureEvent(
                    kind="early_stop",
                    sample_index=train_inputs.shape[1],
                    blocks_after=model.n_blocks,
                    val_residual_norm=val_norms[-1] if val_norms else None,
                    detail=f"validation residual non-decreasing over {s} additions",
                )
            )
            break

    if model.n_blocks == 0:
        raise NoCandidateFound("construction produced no blocks")
    return model
