"""Subreservoir blocks, the block-diagonal state recurrence, and echo-state scaling.

A model is an ordered collection of independently generated blocks. Each block
has its own input weights, internal (recurrent) weights, and bias; the full
state update is block-diagonal, so blocks never interact except through the
shared linear readout. Internal weights are rescaled so their dominant
eigenvalue magnitude hits a target in (0, 1], which gives the fading-memory
behaviour the readout relies on.

There is one tanh recurrence, :func:`harvest_candidate_states`: a batched
kernel over G equal-size blocks, run time-major in chunks. Model harvests
(:func:`harvest_states`, one call per distinct block size), single-block
harvests (:func:`harvest_block_states`, G = 1) and the candidate search all
go through it; a single step is a one-sample harvest.

Shape conventions: inputs are K x n (features by samples), targets L x n,
states N x n per block. Vectors are 1-D.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DegenerateMatrix, DimensionMismatch, WashoutTooLarge

DEGENERATE_RADIUS = 1e-12

# Time steps per chunk of the recurrence kernel: bounds its scratch and drive
# buffers at (chunk, G, N) while amortising the drive projection over many
# steps. A fixed constant, not a setting.
RECURRENCE_CHUNK = 128


@dataclass(frozen=True)
class SubReservoir:
    """One immutable reservoir block.

    Invariants: the dominant eigenvalue magnitude of ``internal_weights``
    equals ``spectral_target`` (the weights are stored post-scaling), and all
    entries of ``input_weights`` and ``bias`` lie in
    ``[-scale_lambda, scale_lambda]``.
    """

    input_weights: np.ndarray  # (N, K)
    internal_weights: np.ndarray  # (N, N), post-scaling
    bias: np.ndarray  # (N,)
    scale_lambda: float
    spectral_target: float
    block_id: int

    @property
    def size(self) -> int:
        return self.internal_weights.shape[0]

    @property
    def input_dim(self) -> int:
        return self.input_weights.shape[1]


@dataclass
class StructureEvent:
    """One entry in a model's construction/adaptation history."""

    kind: str  # grow | prune | early_stop | stall | cap
    sample_index: int
    blocks_after: int
    block_id: Optional[int] = None
    residual_norm: Optional[float] = None
    val_residual_norm: Optional[float] = None
    # Per-output supervisory margins of the accepted candidate, recorded at
    # addition time (grow events only).
    margins: Optional[tuple] = None
    detail: str = ""


@dataclass
class EnsembleModel:
    """Ordered blocks plus a block-partitioned linear readout.

    The readout has one column per reservoir node, grouped by block in
    insertion order. Mutation (grow/prune/online updates) is single-writer;
    blocks themselves are immutable and may be shared between model versions.
    """

    blocks: list[SubReservoir]
    readout: np.ndarray  # (L, sum of block sizes)
    input_dim: int
    output_dim: int
    activation: str = "tanh"
    history: list[StructureEvent] = field(default_factory=list)
    stalled: bool = False

    def __post_init__(self):
        if self.readout.shape != (self.output_dim, self.total_size):
            raise DimensionMismatch(
                f"readout shape {self.readout.shape} != "
                f"({self.output_dim}, {self.total_size})"
            )

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_size(self) -> int:
        return sum(b.size for b in self.blocks)

    def block_offsets(self) -> list[int]:
        """Start row of each block in the stacked state vector."""
        offs = [0]
        for b in self.blocks:
            offs.append(offs[-1] + b.size)
        return offs

    def readout_block(self, k: int) -> np.ndarray:
        """Readout columns belonging to block k (view)."""
        offs = self.block_offsets()
        return self.readout[:, offs[k] : offs[k + 1]]

    def predict(self, states) -> np.ndarray:
        """Linear readout applied to stacked states ((J*N,) or (J*N, n))."""
        stacked = states.stacked if isinstance(states, StateMatrix) else states
        return self.readout @ stacked

    def copy(self) -> "EnsembleModel":
        """Independent copy sharing the immutable blocks."""
        return EnsembleModel(
            blocks=list(self.blocks),
            readout=self.readout.copy(),
            input_dim=self.input_dim,
            output_dim=self.output_dim,
            activation=self.activation,
            history=list(self.history),
            stalled=self.stalled,
        )


@dataclass(frozen=True)
class StateMatrix:
    """Harvested reservoir states over a contiguous sample range.

    ``stacked`` holds all blocks' states ((sum N) x n); ``per_block`` are row
    views into it, in model block order. ``sample_range`` is the half-open
    [start, end) index range into the source series that the columns cover.
    ``final_state`` is the stacked state after the last processed sample
    (including any washed-out prefix), for continuing a stream.
    """

    per_block: tuple
    sample_range: tuple
    stacked: np.ndarray
    final_state: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.stacked.shape[1]


def spectral_radius(matrix: np.ndarray) -> float:
    """Dominant eigenvalue magnitude of a square matrix, by a dense eigensolve."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return float(spectral_radii(a[None, :, :])[0])


def spectral_radii(matrices: np.ndarray) -> np.ndarray:
    """Dominant eigenvalue magnitudes of a stack of square matrices (G, N, N).

    One batched dense eigensolve over the whole stack, so a dominant
    complex-conjugate pair needs no special handling; zero and strictly
    triangular matrices come out at radius 0.
    """
    mats = np.asarray(matrices, dtype=float)
    return np.abs(np.linalg.eigvals(mats)).max(axis=-1)


def scale_spectral(raw: np.ndarray, theta: float) -> np.ndarray:
    """Rescale a square matrix so its dominant eigenvalue magnitude equals theta.

    Returns ``(theta / rho) * raw`` where rho is the current dominant
    magnitude. Raises :class:`DegenerateMatrix` when rho is numerically zero;
    the caller is expected to resample the candidate.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    rho = spectral_radius(raw)
    if rho <= DEGENERATE_RADIUS:
        raise DegenerateMatrix(f"dominant eigenvalue magnitude {rho} is numerically zero")
    return (theta / rho) * np.asarray(raw, dtype=float)


def harvest_states(
    model: EnsembleModel,
    inputs: np.ndarray,
    washout: int,
    initial_state: Optional[np.ndarray] = None,
) -> StateMatrix:
    """Run the recurrence over an input series and keep the post-washout states.

    The state starts at zero unless ``initial_state`` is given (stream
    continuation). States for the first ``washout`` samples are computed but
    excluded from the returned matrix. Blocks of equal size run as one batch
    through :func:`harvest_candidate_states`, so a gated model is one call;
    a mixed-size model (an rscn seed block, the ESN) makes one call per size.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] != model.input_dim:
        raise DimensionMismatch(
            f"inputs shape {inputs.shape}, expected ({model.input_dim}, n)"
        )
    n = inputs.shape[1]
    if washout < 0 or washout >= n:
        raise WashoutTooLarge(f"washout {washout} leaves no samples out of {n}")

    total = model.total_size
    if initial_state is not None:
        initial_state = np.asarray(initial_state, dtype=float)
        if initial_state.shape != (total,):
            raise DimensionMismatch(
                f"initial_state shape {initial_state.shape}, expected ({total},)"
            )

    offs = model.block_offsets()
    by_size: dict[int, list[int]] = {}
    for k, blk in enumerate(model.blocks):
        by_size.setdefault(blk.size, []).append(k)
    stacked = np.empty((total, n - washout))
    for ks in by_size.values():
        blocks = [model.blocks[k] for k in ks]
        init = None
        if initial_state is not None:
            init = np.stack([initial_state[offs[k] : offs[k + 1]] for k in ks])
        group = harvest_candidate_states(
            np.stack([b.input_weights for b in blocks]),
            np.stack([b.internal_weights for b in blocks]),
            np.stack([b.bias for b in blocks]),
            inputs,
            washout,
            initial_state=init,
        )
        for j, k in enumerate(ks):
            stacked[offs[k] : offs[k + 1]] = group[j]

    per_block = tuple(stacked[offs[k] : offs[k + 1], :] for k in range(model.n_blocks))
    return StateMatrix(
        per_block=per_block,
        sample_range=(washout, n),
        stacked=stacked,
        final_state=stacked[:, -1].copy(),
    )


def harvest_block_states(
    block: SubReservoir,
    inputs: np.ndarray,
    washout: int,
    initial_state: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Post-washout states (N, n - washout) of a single block run in isolation.

    Blocks evolve independently, so a freshly added block's states can be
    harvested without recomputing the rest of the model. This is
    :func:`harvest_candidate_states` with one candidate.
    """
    init = None if initial_state is None else np.asarray(initial_state, dtype=float)[None]
    return harvest_candidate_states(
        block.input_weights[None],
        block.internal_weights[None],
        block.bias[None],
        inputs,
        washout,
        initial_state=init,
    )[0]


def harvest_candidate_states(
    input_weights: np.ndarray,
    internal_weights: np.ndarray,
    biases: np.ndarray,
    inputs: np.ndarray,
    washout: int,
    initial_state: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Post-washout states (G, N, n - washout) for G equal-size blocks at once.

    The package's one tanh recurrence: candidate search, block harvests and
    model harvests all run here. All G blocks see the same input series and
    start from the zero state unless ``initial_state`` (G, N) is given. The
    final state is the last returned column.

    The loop is time-major in chunks of ``RECURRENCE_CHUNK`` steps: the drive
    ``W_in u + b`` is computed once per chunk, each step is one batched
    ``W_r x`` written into a row of a (chunk, G, N, 1) scratch buffer, then
    an in-place add and ``tanh``, and each chunk reaches the output in one
    transposed copy. No (G, N, n) buffer other than the output is made.
    """
    g, size, k_in = input_weights.shape
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] != k_in:
        raise DimensionMismatch(f"inputs shape {inputs.shape}, expected ({k_in}, n)")
    n = inputs.shape[1]
    if washout < 0 or washout >= n:
        raise WashoutTooLarge(f"washout {washout} leaves no samples out of {n}")
    if initial_state is None:
        state = np.zeros((g, size))
    else:
        state = np.asarray(initial_state, dtype=float)
        if state.shape != (g, size):
            raise DimensionMismatch(
                f"initial_state shape {state.shape}, expected ({g}, {size})"
            )

    # States live as (G, N, 1) columns so each step is one batched matmul
    # writing straight into its scratch row.
    state = state[..., None]
    out = np.empty((g, size, n - washout))
    scratch = np.empty((min(RECURRENCE_CHUNK, n), g, size, 1))
    for lo in range(0, n, RECURRENCE_CHUNK):
        hi = min(lo + RECURRENCE_CHUNK, n)
        drive = np.einsum("gnk,kt->tgn", input_weights, inputs[:, lo:hi])
        drive += biases
        drive = drive[..., None]
        for t in range(hi - lo):
            row = scratch[t]
            np.matmul(internal_weights, state, out=row)
            row += drive[t]
            np.tanh(row, out=row)
            state = row
        first = max(lo, washout)
        if first < hi:
            chunk = scratch[first - lo : hi - lo, :, :, 0]
            out[:, :, first - washout : hi - washout] = chunk.transpose(1, 2, 0)
    return out


def new_random_block(
    rng: np.random.Generator,
    size: int,
    input_dim: int,
    scale: float,
    theta: float,
    block_id: int,
    sparsity: Optional[float] = None,
    max_resample: int = 100,
) -> SubReservoir:
    """Draw one block uniformly from [-scale, scale] and apply spectral scaling.

    Dense internal weights by default; ``sparsity`` keeps each internal entry
    with the given probability (monolithic baseline reservoirs only).
    Degenerate draws (zero spectral radius) are resampled.
    """
    for _ in range(max_resample):
        win = rng.uniform(-scale, scale, (size, input_dim))
        wr = rng.uniform(-scale, scale, (size, size))
        if sparsity is not None:
            wr = np.where(rng.random((size, size)) < sparsity, wr, 0.0)
        bias = rng.uniform(-scale, scale, size)
        try:
            wr = scale_spectral(wr, theta)
        except DegenerateMatrix:
            continue
        return SubReservoir(
            input_weights=win,
            internal_weights=wr,
            bias=bias,
            scale_lambda=scale,
            spectral_target=theta,
            block_id=block_id,
        )
    raise DegenerateMatrix(f"could not draw a non-degenerate block in {max_resample} tries")


def append_block(model: EnsembleModel, block: SubReservoir) -> None:
    """Grow the model by one block, padding the readout with zero columns."""
    if block.input_dim != model.input_dim:
        raise DimensionMismatch(
            f"block input dim {block.input_dim} != model input dim {model.input_dim}"
        )
    model.blocks.append(block)
    model.readout = np.hstack([model.readout, np.zeros((model.output_dim, block.size))])


def replace_readout(model: EnsembleModel, readout: np.ndarray) -> None:
    if readout.shape != (model.output_dim, model.total_size):
        raise DimensionMismatch(
            f"readout shape {readout.shape} != ({model.output_dim}, {model.total_size})"
        )
    model.readout = readout
