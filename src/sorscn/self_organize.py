"""Stream-time self-organization: error routing, pruning, and regrowth.

The driver walks the arriving series one window at a time and compares the
window's prediction error against a calibrated interval. Small errors need no
action; moderate errors trigger projection updates of the readout, one per
sample in arrival order, applied as one closed-form solve per window;
large errors trigger restructuring — rank blocks by how much they contribute
to the output over the window, keep the smallest prefix whose cumulative
share clears a threshold, then grow new gated blocks against the window
residual until the error re-enters the interval.

Block ranking uses the model scale adaptability (MSA) curve: normalized
cumulative sensitivity, optionally augmented by a correlation-redundancy term
weighted by alpha (the "improved" variant), which favours blocks that are
both influential and dissimilar from the rest.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .construct import ConstructionConfig, propose_block, refit_readout
from .errors import (
    ConfigError,
    ConstantStateWarning,
    ConstructionStalledWarning,
    DimensionMismatch,
    EmptyWindow,
    InvalidThresholdWarning,
    NoCandidateFound,
    SorscnError,
)
from .online_update import project_step
from .reservoir import (
    EnsembleModel,
    StateMatrix,
    StructureEvent,
    append_block,
    harvest_block_states,
    harvest_states,
    replace_readout,
)

#: Flattened window states with variance at or below this count as constant.
_CONST_VAR = 1e-24


@dataclass(frozen=True)
class ErrorInterval:
    """Calibrated [e_min, e_max] band routing each window's action.

    ``calibration`` records how the bounds were derived (multipliers applied
    to a training-error statistic) so reports stay self-describing.
    """

    e_min: float
    e_max: float
    calibration: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.e_min < self.e_max:
            raise ConfigError(
                f"interval requires 0 <= e_min < e_max, got [{self.e_min}, {self.e_max}]"
            )

    def route(self, error_norm: float) -> str:
        if error_norm < self.e_min:
            return "none"
        if error_norm <= self.e_max:
            return "online_update"
        return "restructure"


def calibrate_interval(
    training_residual: np.ndarray, window_size: int, kappa_lo: float, kappa_hi: float
) -> ErrorInterval:
    """Derive the error interval from the achieved training residual.

    The residual matrix (L x n) is cut into consecutive windows of
    ``window_size`` samples; the interval bounds are the low/high multipliers
    applied to the root-mean-square of the per-window Frobenius norms. A
    perfectly fit training set (zero residual) degenerates to a tiny positive
    upper bound so the interval stays well-formed.
    """
    if window_size < 1:
        raise ConfigError(f"window_size must be >= 1, got {window_size}")
    if not 0.0 <= kappa_lo < kappa_hi:
        raise ConfigError(f"need 0 <= kappa_lo < kappa_hi, got {kappa_lo}, {kappa_hi}")
    residual = np.atleast_2d(np.asarray(training_residual, dtype=float))
    n = residual.shape[1]
    if n == 0:
        raise EmptyWindow("cannot calibrate on an empty residual")
    norms = [
        float(np.linalg.norm(residual[:, s : s + window_size]))
        for s in range(0, n, window_size)
    ]
    rms = float(np.sqrt(np.mean(np.square(norms))))
    e_max = kappa_hi * rms
    if e_max <= 0.0:
        e_max = 1e-12
    return ErrorInterval(
        e_min=kappa_lo * rms,
        e_max=e_max,
        calibration={
            "statistic": "rms of per-window residual Frobenius norms",
            "rms": rms,
            "kappa_lo": kappa_lo,
            "kappa_hi": kappa_hi,
            "window_size": window_size,
            "n_windows": len(norms),
        },
    )


@dataclass(frozen=True)
class SensitivityReport:
    """Block ranking and retention decision for one restructuring event.

    ``ranking`` holds block positions (indices into the model's block list at
    decision time), most sensitive first, ties broken by lower position.
    ``msa_curve[J_K - 1]`` is the cumulative adaptability of the top J_K
    blocks; ``j_m`` is the smallest prefix length whose curve value reaches
    ``gamma``.
    """

    per_block_sensitivity: np.ndarray
    ranking: np.ndarray
    msa_curve: np.ndarray
    j_m: int
    variant: str
    gamma: float
    alpha: Optional[float] = None
    correlation_scores: Optional[np.ndarray] = None

    @property
    def retained(self) -> tuple:
        """Positions of retained blocks in original model order."""
        return tuple(sorted(int(p) for p in self.ranking[: self.j_m]))


def compute_sensitivity(model: EnsembleModel, window_states: StateMatrix) -> np.ndarray:
    """Average output-contribution magnitude of each block over the window.

    S_k = mean over window samples of the Euclidean norm of the block's
    readout contribution W_out^(k) x^(k)(n).
    """
    if window_states.n_samples == 0:
        raise EmptyWindow("sensitivity needs at least one window sample")
    if len(window_states.per_block) != model.n_blocks:
        raise DimensionMismatch(
            f"states cover {len(window_states.per_block)} blocks, model has {model.n_blocks}"
        )
    out = np.empty(model.n_blocks)
    for k in range(model.n_blocks):
        contrib = model.readout_block(k) @ window_states.per_block[k]  # (L, n_w)
        out[k] = float(np.mean(np.linalg.norm(contrib, axis=0)))
    return out


def compute_correlation_scores(window_states: StateMatrix) -> np.ndarray:
    """Redundancy-discounted correlation score C_k of each block.

    Each block's window state matrix is flattened row-major; c_k sums the
    absolute Pearson correlations of block k's flattened states against every
    other block's. C_k = 1 - c_k / sum(c): blocks that track the others
    closely score low. Blocks with constant (zero-variance) states correlate
    with nothing by convention and trigger a warning; an entirely
    uncorrelated population (sum(c) = 0) falls back to the uniform score
    1 - 1/J.
    """
    j = len(window_states.per_block)
    if j < 2:
        raise DimensionMismatch(f"correlation scores need >= 2 blocks, got {j}")
    sizes = {pb.size for pb in window_states.per_block}
    if len(sizes) != 1:
        raise DimensionMismatch(
            "correlation scores require equal flattened lengths across blocks; "
            f"got sizes {sorted(sizes)}"
        )
    flats = np.stack([np.asarray(pb, dtype=float).ravel(order="C") for pb in window_states.per_block])
    centered = flats - flats.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    constant = norms * norms <= _CONST_VAR
    if constant.any():
        warnings.warn(
            f"{int(constant.sum())} block(s) have constant window states; "
            "their correlations are taken as zero",
            ConstantStateWarning,
        )
    safe = np.where(constant, 1.0, norms)
    unit = centered / safe[:, None]
    corr = np.abs(unit @ unit.T)
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 0.0)
    c = corr.sum(axis=1)
    total = c.sum()
    if total <= 0.0:
        return np.full(j, 1.0 - 1.0 / j)
    return 1.0 - c / total


def select_blocks(
    sensitivities: np.ndarray,
    correlation_scores: Optional[np.ndarray],
    gamma: float,
    alpha: float = 0.0,
) -> SensitivityReport:
    """Rank blocks and pick how many to retain via the MSA curve.

    Base variant: M_{J_K} = (sum of the top-J_K sensitivities) / (total), a
    non-decreasing curve ending at exactly 1. Improved variant adds
    alpha * (cumulative correlation scores, in sensitivity-rank order) /
    (their total), ending at exactly 1 + alpha. j_m is the smallest prefix
    reaching ``gamma``; on either variant, a threshold above the curve's end
    keeps every block and raises :class:`InvalidThresholdWarning`.
    """
    s = np.asarray(sensitivities, dtype=float)
    j = s.size
    if j < 1:
        raise DimensionMismatch("need at least one block to select from")
    if gamma < 0:
        raise ConfigError(f"gamma must be >= 0, got {gamma}")
    variant = "base" if correlation_scores is None else "improved"
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")

    ranking = np.argsort(-s, kind="stable")  # stable: ties keep lower position first
    s_ranked = s[ranking]
    cum_s = np.cumsum(s_ranked)
    if cum_s[-1] <= 0.0:
        # All-zero sensitivities (e.g. zero readout): fall back to a uniform
        # share so the curve still ends at 1 and every prefix is comparable.
        curve = np.arange(1, j + 1) / j
    else:
        curve = cum_s / cum_s[-1]

    c_ranked = None
    if variant == "improved":
        c = np.asarray(correlation_scores, dtype=float)
        if c.shape != s.shape:
            raise DimensionMismatch(f"C shape {c.shape} != S shape {s.shape}")
        c_ranked = c[ranking]
        cum_c = np.cumsum(c_ranked)
        if cum_c[-1] <= 0.0:
            curve = curve + alpha * (np.arange(1, j + 1) / j)
        else:
            curve = curve + alpha * (cum_c / cum_c[-1])

    meets = curve >= gamma
    if meets.any():
        j_m = int(np.argmax(meets)) + 1
    else:
        warnings.warn(
            f"gamma={gamma} exceeds the curve maximum {curve[-1]:.6f}; keeping all blocks",
            InvalidThresholdWarning,
        )
        j_m = j
    return SensitivityReport(
        per_block_sensitivity=s,
        ranking=ranking,
        msa_curve=curve,
        j_m=j_m,
        variant=variant,
        gamma=gamma,
        alpha=alpha if variant == "improved" else None,
        correlation_scores=None if correlation_scores is None else np.asarray(correlation_scores, dtype=float),
    )


def prune(model: EnsembleModel, report: SensitivityReport, sample_index: int = 0) -> EnsembleModel:
    """Keep only the retained blocks; drop their readout columns with them.

    Returns a new model sharing the retained (immutable) blocks, with
    original relative block order preserved and a prune event appended.
    """
    if report.j_m > model.n_blocks:
        raise DimensionMismatch(
            f"report retains {report.j_m} blocks, model has {model.n_blocks}"
        )
    kept = report.retained
    offs = model.block_offsets()
    cols = np.concatenate([np.arange(offs[p], offs[p + 1]) for p in kept])
    pruned = EnsembleModel(
        blocks=[model.blocks[p] for p in kept],
        readout=model.readout[:, cols].copy(),
        input_dim=model.input_dim,
        output_dim=model.output_dim,
        activation=model.activation,
        history=list(model.history),
        stalled=model.stalled,
    )
    pruned.history.append(
        StructureEvent(
            kind="prune",
            sample_index=sample_index,
            blocks_after=pruned.n_blocks,
            detail=f"retained positions {kept} of {model.n_blocks} "
            f"({report.variant} MSA, gamma={report.gamma})",
        )
    )
    return pruned


def regrow(
    model: EnsembleModel,
    window: tuple[np.ndarray, np.ndarray],
    cfg: ConstructionConfig,
    interval: ErrorInterval,
    rng: Optional[np.random.Generator] = None,
    block_states: Optional[list[np.ndarray]] = None,
    history: Optional[tuple[np.ndarray, np.ndarray, int]] = None,
    sample_index: int = 0,
) -> tuple[EnsembleModel, list[np.ndarray]]:
    """Grow gated blocks against the window residual until the error recovers.

    Proposes blocks exactly as in initial construction but scored on the
    window residual; after each accepted block the full readout is refit on
    the window targets (or on history-plus-window when ``history`` supplies
    the original training series). Stops when the window residual drops to
    the tolerance or the interval's upper bound, or at the block cap. A
    stalled search flags the model and returns it as-is; the stream continues
    with online updates only.

    ``block_states`` may carry the current blocks' already-harvested window
    states (stream continuity); omitted, each block is run from the zero
    state over the window. Returns the model and the per-block window states
    including any new blocks.
    """
    win_inputs = np.asarray(window[0], dtype=float)
    win_targets = np.atleast_2d(np.asarray(window[1], dtype=float))
    rng = rng if rng is not None else np.random.default_rng(cfg.rng_seed)
    if block_states is None:
        block_states = [harvest_block_states(b, win_inputs, washout=0) for b in model.blocks]
    else:
        block_states = list(block_states)

    hist_states: Optional[list[np.ndarray]] = None
    if history is not None:
        hist_inputs, hist_targets, hist_washout = history
        hist_targets = np.atleast_2d(np.asarray(hist_targets, dtype=float))[:, hist_washout:]
        hist_states = [
            harvest_block_states(b, hist_inputs, washout=hist_washout) for b in model.blocks
        ]

    def refit_and_residual() -> np.ndarray:
        win_stacked = np.vstack(block_states)
        if hist_states is None:
            fit_states, fit_targets = win_stacked, win_targets
        else:
            fit_states = np.hstack([np.vstack(hist_states), win_stacked])
            fit_targets = np.hstack([hist_targets, win_targets])
        replace_readout(model, refit_readout(fit_states, fit_targets, cfg.ridge))
        return win_targets - model.readout @ win_stacked

    residual = win_targets - model.readout @ np.vstack(block_states)
    next_id = max((b.block_id for b in model.blocks), default=-1) + 1

    while True:
        err = float(np.linalg.norm(residual))
        if err <= cfg.error_tolerance or err <= interval.e_max:
            break
        if model.n_blocks >= cfg.max_blocks:
            model.history.append(
                StructureEvent(
                    kind="cap",
                    sample_index=sample_index,
                    blocks_after=model.n_blocks,
                    residual_norm=err,
                    detail=f"block cap {cfg.max_blocks} reached during regrowth",
                )
            )
            break
        try:
            block, score = propose_block(
                cfg,
                residual,
                win_inputs,
                rng,
                washout=0,
                n_existing=model.n_blocks,
                block_id=next_id,
            )
        except NoCandidateFound as exc:
            model.stalled = True
            model.history.append(
                StructureEvent(
                    kind="stall",
                    sample_index=sample_index,
                    blocks_after=model.n_blocks,
                    residual_norm=err,
                    detail=f"regrowth stalled: {exc}",
                )
            )
            warnings.warn(f"regrowth stalled at {model.n_blocks} blocks", ConstructionStalledWarning)
            break
        next_id += 1
        append_block(model, block)
        block_states.append(score.states)
        if hist_states is not None:
            hist_states.append(harvest_block_states(block, hist_inputs, washout=hist_washout))
        residual = refit_and_residual()
        model.history.append(
            StructureEvent(
                kind="grow",
                sample_index=sample_index,
                blocks_after=model.n_blocks,
                block_id=block.block_id,
                residual_norm=float(np.linalg.norm(residual)),
                margins=tuple(float(m) for m in score.per_output),
                detail=f"regrow: lambda={score.lambda_used}, r={score.r_used}",
            )
        )
    return model, block_states


@dataclass
class StreamConfig:
    """Stream settings: window length, MSA variant, alpha, gamma, projection guard.

    The error interval and the refit's ``history`` are :func:`run_stream` arguments.
    """

    window_size: int
    variant: str = "base"  # base | improved
    alpha: float = 0.5
    gamma: float = 0.006
    guard_epsilon: float = 1e-12

    def __post_init__(self):
        if self.window_size < 1:
            raise ConfigError(f"window_size must be >= 1, got {self.window_size}")
        if self.variant not in ("base", "improved"):
            raise ConfigError(f"variant must be 'base' or 'improved', got {self.variant!r}")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")
        if self.guard_epsilon <= 0:
            raise ConfigError(f"guard_epsilon must be positive, got {self.guard_epsilon}")
        cap = 1.0 + (self.alpha if self.variant == "improved" else 0.0)
        if self.gamma > cap:
            warnings.warn(
                f"gamma={self.gamma} exceeds the MSA curve maximum {cap}; "
                "restructuring will always retain all blocks",
                InvalidThresholdWarning,
            )


@dataclass(frozen=True)
class WindowVerdict:
    """Action taken for one arriving window."""

    window_index: int
    error_norm: float
    action: str  # none | online_update | restructure
    blocks_before: int
    blocks_after: int
    note: str = ""

    def to_record(self) -> dict:
        return {
            "window_index": self.window_index,
            "error_norm": self.error_norm,
            "action": self.action,
            "blocks_before": self.blocks_before,
            "blocks_after": self.blocks_after,
            "note": self.note,
        }


def run_stream(
    model: EnsembleModel,
    stream: tuple[np.ndarray, np.ndarray],
    cfg: ConstructionConfig,
    interval: ErrorInterval,
    stream_cfg: StreamConfig,
    initial_state: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    history: Optional[tuple[np.ndarray, np.ndarray, int]] = None,
    start_index: int = 0,
    prediction_sink: Optional[list] = None,
) -> tuple[EnsembleModel, list[WindowVerdict]]:
    """Drive the model over an arriving series, window by window.

    Per window: harvest states continuing from the live reservoir state,
    compare the window error norm against the interval, and act — nothing,
    the window's projection updates (one :func:`project_step` call that
    applies them in arrival order; zero-state samples are skipped and
    counted in the note), or prune-and-regrow. The reservoir state carries
    across windows; after restructuring, retained blocks keep their state
    and new blocks start from zero. Failures inside a window are recorded on
    its verdict and the stream moves on; a failed restructure leaves the
    model and the reservoir state as they were before the window. A window
    with a non-finite input or target gets action ``none`` and a note
    beginning ``non-finite``: no projection update and no restructure, and
    after non-finite inputs the reservoir state stays as it was before the
    window.

    The improved variant scores blocks by correlating their flattened window
    states, so it needs every block, including the ones regrowth adds at
    ``cfg.block_size``, to have one size; a model with mixed sizes raises
    :class:`ConfigError` before the first window.

    A restructure refits the readout on the window, plus the training series
    exactly when ``history`` (its inputs, targets and washout) is passed.

    ``prediction_sink``, when given, receives each window's prediction matrix
    as made *before* that window's action — the honest streaming forecast.

    Returns the (possibly restructured) model and the verdict timeline.
    """
    inputs = np.asarray(stream[0], dtype=float)
    targets = np.atleast_2d(np.asarray(stream[1], dtype=float))
    if inputs.shape[1] != targets.shape[1]:
        raise DimensionMismatch(
            f"stream inputs n={inputs.shape[1]} vs targets n={targets.shape[1]}"
        )
    rng = rng if rng is not None else np.random.default_rng(cfg.rng_seed)
    if stream_cfg.variant == "improved":
        sizes = {b.size for b in model.blocks} | {cfg.block_size}
        if len(sizes) > 1:
            raise ConfigError(
                "the improved variant correlates equal-size blocks; model and "
                f"regrowth block sizes are {sorted(sizes)}"
            )

    n = inputs.shape[1]
    n_w = stream_cfg.window_size
    state = np.zeros(model.total_size) if initial_state is None else np.asarray(initial_state, dtype=float)
    verdicts: list[WindowVerdict] = []

    for w_idx, lo in enumerate(range(0, n, n_w)):
        hi = min(lo + n_w, n)
        win_in = inputs[:, lo:hi]
        win_tg = targets[:, lo:hi]
        states = harvest_states(model, win_in, washout=0, initial_state=state)
        predictions = model.predict(states)
        if prediction_sink is not None:
            prediction_sink.append(predictions)
        error = win_tg - predictions
        err_norm = float(np.linalg.norm(error))
        action = interval.route(err_norm)
        blocks_before = model.n_blocks
        note = ""

        # A non-finite sample reaches neither the readout nor the structure;
        # in the inputs it would also poison the carried reservoir state.
        if not np.isfinite(win_in).all():
            action = "none"
            note = "non-finite inputs: no update, pre-window state kept"
        elif not np.isfinite(win_tg).all():
            action = "none"
            note = "non-finite targets: no update"
            state = states.final_state
        elif action == "none":
            state = states.final_state

        elif action == "online_update":
            _, skipped = project_step(
                model.readout, states.stacked, win_tg, stream_cfg.guard_epsilon
            )
            if skipped:
                note = f"{skipped} zero-state sample(s) skipped"
            state = states.final_state

        else:  # restructure
            # Prune and regrow a new model; the live model and state change
            # together, and only once both steps have succeeded.
            try:
                sample_index = start_index + hi
                sens = compute_sensitivity(model, states)
                if stream_cfg.variant == "improved":
                    if model.n_blocks >= 2:
                        corr = compute_correlation_scores(states)
                    else:
                        corr = np.zeros(1)
                else:
                    corr = None
                report = select_blocks(sens, corr, stream_cfg.gamma, stream_cfg.alpha)
                restructured = prune(model, report, sample_index=sample_index)
                restructured.stalled = False
                kept_states = [states.per_block[p].copy() for p in report.retained]
                restructured, kept_states = regrow(
                    restructured,
                    (win_in, win_tg),
                    cfg,
                    interval,
                    rng=rng,
                    block_states=kept_states,
                    history=history,
                    sample_index=sample_index,
                )
            except (SorscnError, np.linalg.LinAlgError) as exc:
                note = f"restructure failed: {exc}"
                state = states.final_state
            else:
                model = restructured
                state = np.concatenate([bs[:, -1] for bs in kept_states])
                if model.stalled:
                    note = "regrowth stalled; continuing with online updates"

        verdicts.append(
            WindowVerdict(
                window_index=w_idx,
                error_norm=err_norm,
                action=action,
                blocks_before=blocks_before,
                blocks_after=model.n_blocks,
                note=note,
            )
        )
    return model, verdicts
