"""Series ingestion and preparation.

Covers delimited-file loading with lagged-feature construction,
train/validation/test splitting with washout bookkeeping, per-feature
normalization fit on training rows only, noise-derived validation copies, and
seeded synthetic nonstationary generators for driver and ordering tests.

Arrays follow the library convention: inputs K x n, targets L x n.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    WashoutTooLarge,
)

_LAG_ROLE = re.compile(r"^lag\(\s*([^,()]+?)\s*,\s*(\d+)\s*\)$")

#: Feature ranges below this are treated as constant when fitting scalers.
_TINY_RANGE = 1e-12


@dataclass(frozen=True)
class Normalization:
    """Per-feature affine transform (x - offset) / scale, fit on train rows."""

    kind: str  # minmax | zscore | none
    input_offset: np.ndarray
    input_scale: np.ndarray
    target_offset: np.ndarray
    target_scale: np.ndarray

    def apply(self, inputs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            (inputs - self.input_offset[:, None]) / self.input_scale[:, None],
            (targets - self.target_offset[:, None]) / self.target_scale[:, None],
        )

    def invert_inputs(self, inputs: np.ndarray) -> np.ndarray:
        return inputs * self.input_scale[:, None] + self.input_offset[:, None]

    def invert_targets(self, targets: np.ndarray) -> np.ndarray:
        return targets * self.target_scale[:, None] + self.target_offset[:, None]


def _fit_affine(rows: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    if kind == "minmax":
        lo = rows.min(axis=1)
        span = rows.max(axis=1) - lo
        return lo, np.where(span <= _TINY_RANGE, 1.0, span)
    if kind == "zscore":
        mean = rows.mean(axis=1)
        std = rows.std(axis=1)
        return mean, np.where(std <= _TINY_RANGE, 1.0, std)
    if kind == "none":
        return np.zeros(rows.shape[0]), np.ones(rows.shape[0])
    raise ConfigError(f"unknown normalization kind {kind!r}")


def fit_normalization(
    inputs: np.ndarray, targets: np.ndarray, train_end: int, kind: str = "minmax"
) -> Normalization:
    """Fit per-feature scalers on the first ``train_end`` samples only."""
    if not 0 < train_end <= inputs.shape[1]:
        raise ConfigError(f"train_end {train_end} out of range for n={inputs.shape[1]}")
    in_off, in_scale = _fit_affine(inputs[:, :train_end], kind)
    tg_off, tg_scale = _fit_affine(targets[:, :train_end], kind)
    return Normalization(
        kind=kind,
        input_offset=in_off,
        input_scale=in_scale,
        target_offset=tg_off,
        target_scale=tg_scale,
    )


@dataclass
class SeriesDataset:
    """A prepared series: aligned input and target rows plus bookkeeping.

    ``metadata`` carries provenance details such as how many leading raw rows
    were consumed by lag features (``lag_offset``) or ground-truth drift
    points of a synthetic series.
    """

    inputs: np.ndarray  # (K, n)
    targets: np.ndarray  # (L, n)
    feature_names: list
    target_names: list
    split: Optional[tuple] = None  # (train_end, (test_start, test_end))
    washout: int = 0
    normalization: Optional[Normalization] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if self.inputs.shape[1] != self.targets.shape[1]:
            raise DimensionMismatch(
                f"inputs n={self.inputs.shape[1]} vs targets n={self.targets.shape[1]}"
            )

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[1]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[0]

    @property
    def output_dim(self) -> int:
        return self.targets.shape[0]


@dataclass(frozen=True)
class Segment:
    """A contiguous view of a dataset with its own washout count."""

    inputs: np.ndarray
    targets: np.ndarray
    washout: int
    name: str = ""

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[1]

    @property
    def effective_length(self) -> int:
        return self.n_samples - self.washout

    def pair(self) -> tuple[np.ndarray, np.ndarray]:
        return self.inputs, self.targets


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_csv(path, schema: dict) -> SeriesDataset:
    """Load a delimited series and build features per the schema.

    ``schema`` maps feature names to roles, in feature order:

    * ``"input"`` — the file column of that name, used as-is;
    * ``"target"`` — the file column of that name, predicted output;
    * ``"lag(col,k)"`` — the file column ``col`` delayed by ``k`` samples,
      used as an input (e.g. the previous target as a feature).

    The layout is read from the first line. Cells are comma-separated if it
    contains a comma, otherwise separated by any run of whitespace. If its
    first cell parses as a number the file has no header, and its columns
    take, in order, the names of the schema's ``input`` and ``target``
    features; their count must match the file's (``MissingColumn``
    otherwise).

    The first ``max(k)`` rows are consumed by lag alignment and dropped from
    the front; ``metadata["lag_offset"]`` records the count so raw row
    indices can be mapped to built sample indices. Blank lines are skipped.
    Cells that fail to parse as numbers (including empty cells) are reported
    with 1-based data-row and column coordinates. Values are returned as
    read; normalization is the caller's (``fit_normalization``).
    """
    roles: list[tuple[str, str, str, int]] = []  # (feature, kind, column, lag)
    target_names = []
    for feature, role in schema.items():
        m = _LAG_ROLE.match(role.strip()) if isinstance(role, str) else None
        if m:
            roles.append((feature, "lag", m.group(1), int(m.group(2))))
        elif role == "input":
            roles.append((feature, "input", feature, 0))
        elif role == "target":
            roles.append((feature, "target", feature, 0))
            target_names.append(feature)
        else:
            raise ConfigError(f"unknown role {role!r} for feature {feature!r}")
    if not target_names:
        raise ConfigError("schema declares no target column")

    with open(path, newline="") as fh:
        comma = "," in fh.readline()
        fh.seek(0)
        reader = csv.reader(fh) if comma else (line.split() for line in fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        header = [h.strip() for h in header]
        if header and _parses_as_float(header[0]):
            names = [feature for feature, kind, _, _ in roles if kind != "lag"]
            if len(header) != len(names):
                raise MissingColumn(
                    f"headerless file has {len(header)} column(s), "
                    f"schema names {len(names)}: {names}"
                )
            reader = itertools.chain([header], reader)
            header = names
        col_index = {name: i for i, name in enumerate(header)}
        needed = {column for _, _, column, _ in roles}
        missing = sorted(needed - col_index.keys())
        if missing:
            raise MissingColumn(f"column(s) {missing} not in header {header}")

        columns: dict[str, list[float]] = {c: [] for c in needed}
        row_num = 0
        for raw in reader:
            if not raw or all(not cell.strip() for cell in raw):
                continue  # blank line
            row_num += 1
            for col in needed:
                cell = raw[col_index[col]].strip() if col_index[col] < len(raw) else ""
                try:
                    value = float(cell)
                except ValueError:
                    raise NonNumericCell(row=row_num, column=col, value=cell) from None
                if not np.isfinite(value):
                    raise NonNumericCell(row=row_num, column=col, value=cell)
                columns[col].append(value)
    if row_num == 0:
        raise EmptyFile(f"{path} has a header but no data rows")

    max_lag = max((lag for _, kind, _, lag in roles if kind == "lag"), default=0)
    n = row_num - max_lag
    if n < 1:
        raise EmptyFile(f"{path}: lag depth {max_lag} consumes all {row_num} rows")

    input_rows, input_names = [], []
    target_rows = []
    for feature, kind, column, lag in roles:
        series = np.asarray(columns[column])
        values = series[max_lag - lag : row_num - lag]
        if kind == "target":
            target_rows.append(values)
        else:
            input_rows.append(values)
            input_names.append(feature)

    return SeriesDataset(
        inputs=np.vstack(input_rows),
        targets=np.vstack(target_rows),
        feature_names=input_names,
        target_names=target_names,
        metadata={"lag_offset": max_lag, "source": str(path)},
    )


def make_validation(
    segment: Segment, noise_std: Union[float, tuple], seed: int
) -> Segment:
    """Copy a segment with independent zero-mean Gaussian noise added.

    ``noise_std`` is either one std for everything or a pair of per-feature
    vectors ``(input_stds, target_stds)``. Seeded and reproducible.
    """
    rng = np.random.default_rng(seed)
    if isinstance(noise_std, tuple):
        in_std, tg_std = (np.asarray(s, dtype=float) for s in noise_std)
        if (in_std < 0).any() or (tg_std < 0).any():
            raise ConfigError("noise stds must be >= 0")
        in_noise = rng.standard_normal(segment.inputs.shape) * in_std[:, None]
        tg_noise = rng.standard_normal(segment.targets.shape) * tg_std[:, None]
    else:
        if noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {noise_std}")
        in_noise = rng.normal(0.0, 1.0, segment.inputs.shape) * noise_std
        tg_noise = rng.normal(0.0, 1.0, segment.targets.shape) * noise_std
    return Segment(
        inputs=segment.inputs + in_noise,
        targets=segment.targets + tg_noise,
        washout=segment.washout,
        name=segment.name + "+noise" if segment.name else "validation",
    )


def split_and_washout(
    ds: SeriesDataset,
    train_end: int,
    washout: int,
    val_mode: str = "noisy_test",
    val_noise_std: Optional[Union[float, tuple]] = None,
    val_seed: int = 0,
    val_fraction: float = 0.2,
) -> tuple[Segment, Segment, Segment]:
    """Cut the series into aligned train/validation/test segments.

    Training covers built samples [0, train_end), testing the remainder; each
    segment records the washout honored by all downstream harvesting (states
    for its first ``washout`` samples are computed but excluded from fitting
    and scoring). The validation segment is, by default, a noise-corrupted
    copy of the test segment (std defaulting to 5% of each feature's training
    std); ``val_mode="train_holdout"`` instead reserves the tail
    ``val_fraction`` of the training segment as a clean holdout.
    """
    n = ds.n_samples
    if not 0 < train_end < n:
        raise ConfigError(f"train_end {train_end} must split n={n} samples")
    test_len = n - train_end
    if washout >= train_end or washout >= test_len:
        raise WashoutTooLarge(
            f"washout {washout} vs segment lengths {train_end}/{test_len}"
        )

    test = Segment(
        inputs=ds.inputs[:, train_end:],
        targets=ds.targets[:, train_end:],
        washout=washout,
        name="test",
    )

    if val_mode == "noisy_test":
        train = Segment(
            inputs=ds.inputs[:, :train_end],
            targets=ds.targets[:, :train_end],
            washout=washout,
            name="train",
        )
        if val_noise_std is None:
            val_noise_std = (
                0.05 * train.inputs.std(axis=1),
                0.05 * train.targets.std(axis=1),
            )
        validation = make_validation(test, val_noise_std, val_seed)
    elif val_mode == "train_holdout":
        held = max(int(round(val_fraction * train_end)), washout + 1)
        cut = train_end - held
        if cut <= washout:
            raise WashoutTooLarge(
                f"holdout of {held} leaves training too short for washout {washout}"
            )
        train = Segment(
            inputs=ds.inputs[:, :cut],
            targets=ds.targets[:, :cut],
            washout=washout,
            name="train",
        )
        validation = Segment(
            inputs=ds.inputs[:, cut:train_end],
            targets=ds.targets[:, cut:train_end],
            washout=washout,
            name="validation",
        )
    else:
        raise ConfigError(f"unknown val_mode {val_mode!r}")

    ds.split = (train_end, (train_end, n))
    ds.washout = washout
    return train, validation, test


@dataclass(frozen=True)
class SyntheticStreamSpec:
    """Recipe for a seeded nonstationary series with known drift points."""

    generator: str  # regime_switch_narma | drifting_sine | variance_burst
    segment_lengths: tuple
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.generator not in ("regime_switch_narma", "drifting_sine", "variance_burst"):
            raise ConfigError(f"unknown generator {self.generator!r}")
        if not self.segment_lengths or any(s < 1 for s in self.segment_lengths):
            raise ConfigError(f"segment_lengths must all be >= 1, got {self.segment_lengths}")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        object.__setattr__(self, "segment_lengths", tuple(int(s) for s in self.segment_lengths))


# Two parameter regimes for the squashed nonlinear AR generator; segments
# alternate between them, which is what the drift detector has to notice.
_NARMA_REGIMES = (
    (0.4, 0.4, 0.6, 0.1),
    (-0.5, 1.2, 1.8, -0.3),
)


def generate_synthetic(spec: SyntheticStreamSpec) -> SeriesDataset:
    """Emit a seeded nonstationary series with recorded drift points.

    All generators produce targets y(n) with inputs containing y(n-1) (plus
    the exogenous drive where one exists), so a one-step-ahead predictor sees
    the same interface as the CSV datasets. Segment boundaries are stored in
    ``metadata["drift_points"]``.

    * ``regime_switch_narma`` — tanh-squashed nonlinear AR(2) driven by
      uniform noise; the AR coefficients switch between two regimes at each
      boundary. Inputs: [u(n), y(n-1)].
    * ``drifting_sine`` — sinusoid whose frequency ramps within each segment
      (alternating up/down). Inputs: [y(n-1)].
    * ``variance_burst`` — AR(1) with innovation std multiplied by 5 in every
      other segment. Inputs: [y(n-1)].
    """
    rng = np.random.default_rng(spec.seed)
    lengths = spec.segment_lengths
    total = int(sum(lengths))
    drift_points = [int(p) for p in np.cumsum(lengths)[:-1]]  # plain ints: metadata is JSON-bound
    pad = total + 2  # raw run, then one row consumed by the y(n-1) feature

    if spec.generator == "regime_switch_narma":
        u = rng.uniform(0.0, 0.5, pad)
        y = np.zeros(pad)
        bounds = np.cumsum((0,) + lengths)
        for t in range(2, pad):
            seg = min(int(np.searchsorted(bounds, t - 2, side="right")) - 1, len(lengths) - 1)
            a, b, c, d = _NARMA_REGIMES[seg % len(_NARMA_REGIMES)]
            y[t] = np.tanh(a * y[t - 1] + b * y[t - 1] * y[t - 2] + c * u[t - 1] ** 3 + d)
        inputs = np.vstack([u[1:-1], y[1:-1]])
        targets = y[2:][None, :]

    elif spec.generator == "drifting_sine":
        lo_f, hi_f = 0.01, 0.05
        ramps = []
        for i, seg_len in enumerate(lengths):
            f0, f1 = (lo_f, hi_f) if i % 2 == 0 else (hi_f, lo_f)
            ramps.append(f0 + (f1 - f0) * np.linspace(0.0, 1.0, seg_len))
        freq_built = np.concatenate(ramps)  # frequency per built sample index
        freq = np.concatenate([freq_built[:1], freq_built[:1], freq_built])
        phase = 2.0 * np.pi * np.cumsum(freq)
        y = np.sin(phase)
        inputs = y[1:-1][None, :]
        targets = y[2:][None, :]

    else:  # variance_burst
        y = np.zeros(pad)
        bounds = np.cumsum((0,) + lengths)
        innovations = rng.standard_normal(pad)
        for t in range(1, pad):
            seg = min(int(np.searchsorted(bounds, t - 2, side="right")) - 1, len(lengths) - 1)
            seg = max(seg, 0)
            std = 0.1 * (5.0 if seg % 2 == 1 else 1.0)
            y[t] = 0.8 * y[t - 1] + std * innovations[t]
        inputs = y[1:-1][None, :]
        targets = y[2:][None, :]

    if spec.noise_std > 0:
        targets = targets + rng.normal(0.0, spec.noise_std, targets.shape)

    names = {"regime_switch_narma": ["u", "y_prev"], "drifting_sine": ["y_prev"], "variance_burst": ["y_prev"]}
    return SeriesDataset(
        inputs=inputs[:, :total],
        targets=targets[:, :total],
        feature_names=names[spec.generator],
        target_names=["y"],
        metadata={
            "generator": spec.generator,
            "drift_points": drift_points,
            "segment_lengths": list(lengths),
            "seed": spec.seed,
            "noise_std": spec.noise_std,
        },
    )
