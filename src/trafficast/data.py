"""Series ingestion, periodic sample assembly, and synthetic data.

A training sample pairs a recent window R with daily/weekly context blocks
D and W cut from the same series at day and week offsets, plus the target
Y. A sample is only its forecast start t0 into one read-only copy of the
series that every sample of a `build_samples` call shares (`SampleWindows`),
so the samples keep O(T*N) bytes, not a copy of their windows each; a batch
is one gather per window (`training.stack_batch`). Block indexing is
documented on TrainingSample; everything here is plain numpy (the autodiff
wrapper enters only at the model boundary).

File container: magic `STGT`, version byte, rank byte, rank little-endian
uint64 dims, then float64 little-endian payload in row-major order.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from trafficast.graph import GraphSpec

MAGIC = b"STGT"
VERSION = 1


class DataError(ValueError):
    """Malformed file, inconsistent spec, or series too short."""


# ---------------------------------------------------------------------------
# binary tensor container
# ---------------------------------------------------------------------------

def tensor_blob(array) -> bytes:
    """Serialize one array: header, dims, then the row-major payload."""
    arr = np.ascontiguousarray(array, dtype=np.float64)
    return (
        MAGIC
        + struct.pack("<BB", VERSION, arr.ndim)
        + struct.pack(f"<{arr.ndim}Q", *arr.shape)
        + arr.tobytes(order="C")
    )


def parse_tensor_blob(raw: bytes, offset: int, origin: str) -> Tuple[np.ndarray, int]:
    """Decode one tensor blob starting at `offset`; returns (array, end).

    Error messages report absolute byte offsets into `raw` so a corrupt
    file can be inspected directly.
    """
    if len(raw) - offset < 6:
        raise DataError(
            f"{origin}: truncated header at byte offset {offset}, "
            f"expected at least 6 bytes, got {len(raw) - offset}"
        )
    if raw[offset : offset + 4] != MAGIC:
        raise DataError(
            f"{origin}: bad magic at byte offset {offset}, "
            f"expected {MAGIC!r}, got {raw[offset:offset + 4]!r}"
        )
    version, rank = raw[offset + 4], raw[offset + 5]
    if version != VERSION:
        raise DataError(
            f"{origin}: unsupported version {version} at byte offset {offset + 4}, "
            f"expected {VERSION}"
        )
    if rank == 0:
        raise DataError(f"{origin}: zero rank at byte offset {offset + 5}")
    dims_start = offset + 6
    dims_end = dims_start + 8 * rank
    if len(raw) < dims_end:
        raise DataError(
            f"{origin}: truncated dims at byte offset {dims_start}, "
            f"expected {8 * rank} bytes, got {len(raw) - dims_start}"
        )
    dims = struct.unpack(f"<{rank}Q", raw[dims_start:dims_end])
    for k, dim in enumerate(dims):
        if dim == 0:
            raise DataError(
                f"{origin}: nonpositive dimension {dim} "
                f"at byte offset {dims_start + 8 * k}"
            )
    count = math.prod(dims)  # Python ints: no wraparound past 2**64
    expected = 8 * count
    if len(raw) - dims_end < expected:
        raise DataError(
            f"{origin}: payload at byte offset {dims_end} "
            f"expected {expected} bytes ({count} values), got {len(raw) - dims_end}"
        )
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=dims_end)
    return values.reshape(dims).astype(np.float64), dims_end + expected


def write_tensor_file(path, array) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_blob(array))


def read_tensor_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    arr, end = parse_tensor_blob(raw, 0, origin=str(path))
    if end != len(raw):
        raise DataError(f"{path}: {len(raw) - end} trailing bytes at byte offset {end}")
    return arr


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class SignalSeries:
    """A [T, N, C] observation array with its daily cadence; a week is 7 days."""

    data: np.ndarray
    samples_per_day: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise DataError(f"series must be [T, N, C], got rank {self.data.ndim}")
        if self.samples_per_day <= 0:
            raise DataError("samples_per_day must be positive")

    @property
    def samples_per_week(self) -> int:
        return 7 * self.samples_per_day

    @property
    def n_steps(self) -> int:
        return self.data.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.data.shape[1]

    @property
    def n_channels(self) -> int:
        return self.data.shape[2]


def load_series(path, l_d: int) -> SignalSeries:
    """Read a [T, N, C] tensor file with l_d samples per day (7*l_d per week).

    A NaN or infinite value raises DataError naming its [t, node, channel].
    """
    series = SignalSeries(read_tensor_file(path), l_d)
    bad = np.argwhere(~np.isfinite(series.data))
    if bad.size:
        t, node, channel = (int(i) for i in bad[0])
        raise DataError(
            f"{path}: non-finite value {series.data[t, node, channel]} at "
            f"[t, node, channel] = [{t}, {node}, {channel}] "
            f"({len(bad)} non-finite in total)"
        )
    return series


def window_error(windows) -> Optional[str]:
    """The first window rule that `windows` (any object with P, Q, S,
    d_count and w_count) breaks, as a message naming the field and its
    bound; None when every rule holds."""
    for name, low in (("P", 1), ("Q", 1), ("S", 0), ("d_count", 1), ("w_count", 1)):
        value = getattr(windows, name)
        if value < low:
            return f"{name} must be >= {low}, got {value}"
    if windows.P < windows.S:
        return (f"P ({windows.P}) must be >= S ({windows.S}): the attention window at "
                "step 0 reaches S positions before the aligned bank index P")
    return None


@dataclass
class DatasetSpec:
    """Windowing and split configuration.

    P recent steps in, Q steps out; D and W blocks are P+L steps long with
    L = Q + S so a half-width-S attention window around any forecast step
    stays inside the block.
    """

    P: int = 12
    Q: int = 12
    S: int = 3
    d_count: int = 1
    w_count: int = 1
    split: Tuple[float, float, float] = (0.6, 0.2, 0.2)

    def __post_init__(self):
        error = window_error(self)
        if error:
            raise DataError(error)
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise DataError(f"split must sum to 1, got {self.split}")
        if any(s < 0 for s in self.split):
            raise DataError(f"split ratios must be nonnegative, got {self.split}")

    @property
    def L(self) -> int:
        return self.Q + self.S

    @property
    def block_len(self) -> int:
        return self.P + self.L


class SampleWindows:
    """A series' data, kept as given and made read-only (so nothing else may
    write it), and the rows each window of a sample reads, as offsets from
    its t0 (layouts on TrainingSample)."""

    def __init__(self, series: SignalSeries, spec: DatasetSpec):
        self.data = series.data
        self.data.flags.writeable = False
        block = np.arange(-spec.P, spec.L)
        l_d, l_w = series.samples_per_day, series.samples_per_week
        self.offsets = {
            "r": np.arange(-spec.P, 0),
            "d": block - l_d * np.arange(spec.d_count, 0, -1)[:, None],
            "w": block - l_w * np.arange(spec.w_count, 0, -1)[:, None],
            "y": np.arange(spec.Q),
        }

    def gather(self, window: str, t0s) -> np.ndarray:
        """Window "r", "d", "w" or "y" of the samples at t0s (an int or an
        array of them), as one fancy index: [*t0s.shape, *window, N, C]."""
        t0s = np.asarray(t0s)
        offsets = self.offsets[window]
        return self.data[t0s.reshape(t0s.shape + (1,) * offsets.ndim) + offsets]


@dataclass(slots=True)
class TrainingSample:
    """One (R, D, W, Y) sample: its forecast start t0 into the read-only
    series of `windows`, which every sample of one build_samples call shares.

    Each window is cut on demand as a read-only float64 array:
    r: [P, N, C] rows data[t0-P .. t0-1]
    d: [d_count, P+L, N, C], block axis most-distant-first: position p holds
       offset i = d_count - p days back, rows data[t0-P-i*l_d .. t0+L-1-i*l_d]
    w: same layout with week offsets i*l_w
    y: [Q, N, C] rows data[t0 .. t0+Q-1]
    """

    t0: int
    windows: SampleWindows = field(repr=False)

    def _cut(self, window: str) -> np.ndarray:
        out = self.windows.gather(window, self.t0)
        out.flags.writeable = False
        return out

    r = property(lambda self: self._cut("r"))
    d = property(lambda self: self._cut("d"))
    w = property(lambda self: self._cut("w"))
    y = property(lambda self: self._cut("y"))


def _history_len(series: SignalSeries, spec: DatasetSpec) -> int:
    """Rows a sample reads before t0: P plus the farther of its oldest D
    block (d_count days back) and its oldest W block (w_count weeks back)."""
    return max(spec.d_count * series.samples_per_day,
               spec.w_count * series.samples_per_week) + spec.P


def admissible_t0_range(series: SignalSeries, spec: DatasetSpec) -> range:
    """All t0 with full history (back d_count days and w_count weeks) and
    full target ahead."""
    first = _history_len(series, spec)
    last = series.n_steps - spec.Q  # inclusive
    return range(first, last + 1)


def _split_t0s(series: SignalSeries, spec: DatasetSpec) -> Tuple[range, range, range]:
    """The admissible t0 range cut chronologically into train, val and
    test; DataError if it is empty or leaks.

    The daily offset must exceed L, otherwise the most recent D block would
    reach into the forecast period itself.
    """
    if series.samples_per_day <= spec.L:
        raise DataError(
            f"samples_per_day ({series.samples_per_day}) must exceed "
            f"L = Q + S ({spec.L}); the most recent daily block would overlap "
            "the forecast window"
        )
    t0s = admissible_t0_range(series, spec)
    if len(t0s) == 0:
        min_t = _history_len(series, spec) + spec.Q
        raise DataError(
            f"series too short: T={series.n_steps}, need at least {min_t} steps "
            f"for one sample (max(d_count*l_d, w_count*l_w) + P + Q)"
        )
    n_train = int(len(t0s) * spec.split[0])
    n_val = int(len(t0s) * spec.split[1])
    return t0s[:n_train], t0s[n_train : n_train + n_val], t0s[n_train + n_val :]


Splits = Tuple[List[TrainingSample], List[TrainingSample], List[TrainingSample]]


def _samples_over(series: SignalSeries, spec: DatasetSpec) -> Splits:
    """build_samples over series.data itself, which the samples then keep."""
    windows = SampleWindows(series, spec)
    return tuple([TrainingSample(t0, windows) for t0 in t0s] for t0s in _split_t0s(series, spec))


def build_samples(series: SignalSeries, spec: DatasetSpec) -> Splits:
    """Every admissible sample at stride 1, split chronologically; all of
    them share one read-only copy of the series."""
    return _samples_over(SignalSeries(series.data.copy(), series.samples_per_day), spec)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

@dataclass
class Normalizer:
    """Per-channel z-score statistics."""

    mean: np.ndarray  # [C]
    std: np.ndarray   # [C], floored at 1e-8

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = x - self.mean  # the one new array; the division runs in place
        out /= self.std
        return out

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


def fit_apply_zscore(series: SignalSeries, train_range) -> Tuple[Normalizer, SignalSeries]:
    """Fit per-channel statistics on train_range rows, normalize the series."""
    if len(train_range) == 0:
        raise DataError("train_range is empty")
    # a view of the rows, [Ttrain, N, C]
    train = series.data[train_range.start : train_range.stop : train_range.step]
    if len(train) != len(train_range):
        raise DataError(f"train_range {train_range} leaves the series' {series.n_steps} rows")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.mean(axis=(0, 1))
        std = train.std(axis=(0, 1))
    overflow = ~(np.isfinite(mean) & np.isfinite(std))
    if np.any(overflow):
        raise DataError(
            f"channel(s) {np.nonzero(overflow)[0].tolist()}: values too large to "
            f"normalize (largest magnitude {np.abs(train).max():.6g}; the "
            "training rows' mean or standard deviation overflows float64)"
        )
    floored = std < 1e-8
    if np.any(floored):
        warnings.warn(
            f"zero-variance channel(s) {np.nonzero(floored)[0].tolist()}: "
            "std floored at 1e-8"
        )
        std = np.where(floored, 1e-8, std)
    norm = Normalizer(mean=mean, std=std)
    out = SignalSeries(norm.apply(series.data), series.samples_per_day)
    return norm, out


@dataclass
class DatasetSplits:
    train: List[TrainingSample]
    val: List[TrainingSample]
    test: List[TrainingSample]
    normalizer: Normalizer
    spec: DatasetSpec


def prepare_dataset(series: SignalSeries, spec: DatasetSpec) -> DatasetSplits:
    """Split, normalize, and window a raw series.

    Statistics come from the rows strictly before the first validation
    forecast start, so nothing the validation or test targets cover leaks
    into the scaler.
    """
    train_t0s, val_t0s, test_t0s = _split_t0s(series, spec)
    fit_end = train_t0s.stop if val_t0s or test_t0s else series.n_steps
    normalizer, normed = fit_apply_zscore(series, range(0, fit_end))
    # the normalized series is new and held nowhere else: the samples keep it
    train, val, test = _samples_over(normed, spec)
    return DatasetSplits(train=train, val=val, test=test, normalizer=normalizer, spec=spec)


# ---------------------------------------------------------------------------
# synthetic series
# ---------------------------------------------------------------------------

def synth_generate(
    n_nodes: int,
    days: int,
    l_d: int,
    shift_max: int,
    noise: float,
    seed: int,
    amp_weekly: float = 0.0,
) -> Tuple[SignalSeries, GraphSpec]:
    """Periodic per-node signals with integer per-day phase jitter.

    Node i on day k produces
        base_i + amp_i * sin(2*pi*(t + delta_i(k)) / l_d)
          + amp_weekly * sin(2*pi*t / l_w) + noise * eps(t)
    with delta_i(k) drawn uniformly from the integers in
    [-shift_max, +shift_max]. Integer shifts keep cross-day correlation
    peaks on exact lags. amp_weekly defaults to 0 so the default signal is
    exactly l_d-periodic when noise and shift_max are both 0.

    The companion graph is a ring with unit distances; sigma is set to 1
    explicitly because equal distances have zero spread.
    """
    if shift_max < 0:
        raise DataError(f"shift_max must be >= 0, got {shift_max}")
    if noise < 0:
        raise DataError(f"noise must be >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    l_w = 7 * l_d
    t_total = days * l_d

    base = rng.uniform(30.0, 70.0, size=n_nodes)
    amp = rng.uniform(5.0, 15.0, size=n_nodes)
    shifts = rng.integers(-shift_max, shift_max + 1, size=(n_nodes, days))

    t = np.arange(t_total)
    day_of_t = t // l_d
    # [T, N]: per-node shifts expanded along time by each step's day index
    delta = shifts[:, day_of_t].T
    phase = 2.0 * np.pi * (t[:, None] + delta) / l_d
    x = base[None, :] + amp[None, :] * np.sin(phase)
    if amp_weekly != 0.0:
        x = x + amp_weekly * np.sin(2.0 * np.pi * t[:, None] / l_w)
    if noise > 0:
        x = x + noise * rng.standard_normal(size=(t_total, n_nodes))

    series = SignalSeries(x[:, :, None], samples_per_day=l_d)
    edges = [(i, (i + 1) % n_nodes, 1.0) for i in range(n_nodes)] if n_nodes > 1 else []
    graph = GraphSpec(n_nodes=n_nodes, edges=edges, kappa=1.0, sigma=1.0)
    return series, graph
