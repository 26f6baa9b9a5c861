"""Sensor data model: CSV ingestion, 6 Hz synchronization, channel-group
selection, sliding-window segmentation, normalization, and session splits.

Channel layout (791 columns, fixed order):

    0..8    IMU (accel x/y/z, gyro x/y/z, magnetometer x/y/z)
    9       barometer
    10      distance (time-of-flight)
    11..12  gas (CO2, TVOC)
    13..22  optical (10 spectral channels)
    23..790 thermal IR array (768 pixels, 24 x 32)

CSV files carry 793 columns: timestamp_ms, the 791 channels, label.

The pipeline works on whole arrays. ``ingest_csv`` is the one CSV parser:
it reads a whole file with one ``np.loadtxt`` call, validates every cell
in one vectorised pass, names the line of the first error from those
arrays, and then takes the channel group a command uses. Every read
hashes the file and keeps the parsed rows in one sidecar ``.npy`` beside
the CSV, named by that SHA-256, and a later read of the same bytes maps
that file with ``np.load`` and copies the columns it returns out of the
map instead of parsing.
``make_windows`` returns :class:`Windows`: every window is a read-only
row view over one array of channel-selected frames, and indexing keeps
the old list semantics. ``normalize`` z-scores each frame row that some
window covers once, and ``fit_stats`` sums window rows block by block in
the order of the stacked windows, so every value is bit-identical to
stacking the windows first.
"""
from __future__ import annotations

import contextlib
import csv
import glob
import hashlib
import io
import os
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

NUM_CHANNELS = 791
NUM_CLASSES = 15
NULL_CLASS = 0
SYNC_RATE_HZ = 6.0
GRID_STEP_MS = 1000.0 / SYNC_RATE_HZ

ACCEL = slice(0, 3)
GYRO = slice(3, 6)
MAG = slice(6, 9)
BAROMETER = 9
DISTANCE = 10
GAS = slice(11, 13)
OPTICAL = slice(13, 23)
THERMAL = slice(23, 791)

_IMU_NAMES = ["accel_x", "accel_y", "accel_z", "gyro_x", "gyro_y", "gyro_z",
              "mag_x", "mag_y", "mag_z"]
CSV_HEADER = (["timestamp_ms"] + _IMU_NAMES + ["barometer", "distance",
              "gas_co2", "gas_tvoc"] + [f"optical_{i}" for i in range(10)]
              + [f"thermal_{i}" for i in range(768)] + ["label"])


class DatapipeError(ValueError):
    pass


class HeaderMismatchError(DatapipeError):
    pass


class NonMonotonicTimestampError(DatapipeError):
    pass


class RowParseError(DatapipeError):
    pass


class EmptyStreamError(DatapipeError):
    pass


class ChannelGroup(Enum):
    """The four input channel subsets swept in the experiments."""

    G791 = 791  # everything
    G768 = 768  # thermal array only
    G23 = 23    # everything except thermal
    G17 = 17    # G23 minus accelerometer and gyroscope

    @property
    def channels(self) -> slice:
        """The group's channels: one contiguous run of the 791, ending
        with the thermal array or, for a low-rate group, with the optical
        channels."""
        stop = NUM_CHANNELS if self.width > THERMAL.start else THERMAL.start
        return slice(stop - self.width, stop)

    @property
    def width(self) -> int:
        return self.value

    @classmethod
    def from_width(cls, width: int) -> "ChannelGroup":
        for group in cls:
            if group.value == width:
                return group
        raise DatapipeError(f"no channel group has width {width}")


@dataclass(frozen=True)
class SessionRecording:
    """A contiguous labeled 6 Hz recording from one subject/session."""

    subject: int
    session: int
    timestamps: np.ndarray  # (N,) ms
    frames: np.ndarray      # (N, 791), or (N, width) of one channel group
    labels: np.ndarray      # (N,) int in 0..14


@dataclass(frozen=True)
class WindowedSample:
    window: np.ndarray  # (window_len, selected channels)
    label: int
    subject: int
    session: int


@dataclass(frozen=True)
class DatasetStats:
    mean: np.ndarray  # (channels,)
    std: np.ndarray   # (channels,)


@dataclass(frozen=True)
class SensorStream:
    """One sensor's native-rate output occupying a block of channel columns."""

    name: str
    channel_start: int
    timestamps: np.ndarray  # (n,) ms, strictly increasing
    values: np.ndarray      # (n, width)


def _lines(raw: bytes) -> list[str]:
    """The lines of the CSV bytes ``raw``, without their line ends. A line
    ends where universal newlines end one: at "\\n", "\\r\\n" or a lone
    "\\r"."""
    # splits so, and translates nothing
    with io.TextIOWrapper(io.BytesIO(raw), newline="") as fh:
        return [line.rstrip("\r\n") for line in fh]


def _rows(lines: list):
    """``lines``, rows of the 793 CSV cells, as one array from a single
    ``np.loadtxt`` call; None when some line is not such a row."""
    width = len(CSV_HEADER)
    if not lines:
        return np.empty((0, width))
    # loadtxt skips blank lines, and warns if none is left
    if "" in lines:
        return None
    try:
        # labels go through int(), so "3.0" fails
        data = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"',
                          ndmin=2, converters={width - 1: int})
    except ValueError:
        return None
    return data if data.shape == (len(lines), width) else None


def _failed_checks(timestamps, frames, labels) -> np.ndarray:
    """(3, rows) flags of the rows that hold a non-finite value, a
    timestamp that does not increase, and a label outside 0..14."""
    return np.stack([~(np.isfinite(frames).all(axis=1)
                       & np.isfinite(timestamps) & np.isfinite(labels)),
                     np.diff(timestamps, prepend=-np.inf) <= 0,
                     (labels < 0) | (labels >= NUM_CLASSES)])


def sidecar_path(path, digest: str) -> Path:
    """Where :func:`ingest_csv` keeps the parsed rows of the CSV ``path``
    whose bytes have the hex SHA-256 ``digest``: a hidden file beside it."""
    path = Path(path)
    return path.with_name(f".{path.name}.{digest}.rows.npy")


def _sidecars(path) -> set[Path]:
    """The sidecars of the CSV ``path`` that are there, whatever bytes they
    were kept for, older ``.npz`` ones too."""
    path = Path(path)
    return set(path.parent.glob(f".{glob.escape(path.name)}.*rows.np[yz]"))


def _streamed_digest(fh) -> str:
    """The hex SHA-256 of the rest of the binary file ``fh``, read a chunk
    at a time, so that none of its bytes are held."""
    digest = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 18), b""):
        digest.update(chunk)
    return digest.hexdigest()


def _write_sidecar(path, digest: str, data: np.ndarray) -> None:
    """Keep ``data``, every row of ``path`` parsed, beside it as the
    Fortran-order ``.npy`` named by ``digest``, through a temporary file,
    and remove the CSV's other sidecars; a failed write leaves no file."""
    target = sidecar_path(path, digest)
    temporary = None
    try:
        with tempfile.NamedTemporaryFile(dir=target.parent, delete=False,
                                         prefix=target.name,
                                         suffix=".tmp") as fh:
            temporary = fh.name
            # the CSV's permissions, not the temporary file's owner-only
            os.chmod(temporary, os.stat(path).st_mode & 0o777)
            np.lib.format.write_array_header_1_0(fh, {
                **np.lib.format.header_data_from_array_1_0(data),
                "fortran_order": True})
            # column by column, so that no transposed copy is held
            fh.writelines(column.tobytes() for column in data.T)
        os.replace(temporary, target)
        for stale in _sidecars(path) - {target}:  # other bytes', older .npz
            stale.unlink()
    except OSError:  # a read-only directory, a full disk: parse next time
        if temporary is not None:
            with contextlib.suppress(OSError):
                os.remove(temporary)


def _read_sidecar(path, digest: str, group: ChannelGroup):
    """``_columns(rows, group)`` of the rows stored for the CSV bytes
    ``digest``, ``rows`` being that file mapped read-only, a map no caller
    sees; None when there is no such file, when it is not the ``.npy`` of
    a (rows, 793) little-endian float64 array in Fortran order, of just
    that size, or when the rows fail a check."""
    target = sidecar_path(path, digest)
    try:  # numpy's reader raises many types on bad bytes
        rows = np.load(target, mmap_mode="r", allow_pickle=False)
        size = os.stat(target).st_size
    except Exception:
        return None
    if (isinstance(rows, np.memmap) and rows.ndim == 2
            and rows.shape[1] == len(CSV_HEADER)
            and rows.dtype == np.dtype("<f8") and rows.flags.f_contiguous
            and size == rows.offset + rows.nbytes):
        return _columns(rows, group)
    return None


def _columns(rows, group: ChannelGroup):
    """The timestamps, ``group``'s channels and the labels of ``rows``, a
    (rows, 793) array of parsed cells, each a C-order copy that owns its
    data; None when one of those rows fails a check, as no row a parse
    returns does."""
    timestamps, labels = np.array(rows[:, 0]), np.array(rows[:, -1])
    frames = np.array(rows[:, 1:-1][:, group.channels], order="C")
    # a label is checked before its cast, which makes a NaN an integer
    if _failed_checks(timestamps, frames, labels).any():
        return None
    return timestamps, frames, labels.astype(np.int64)


def ingest_csv(path, group: ChannelGroup = ChannelGroup.G791):
    """Parse one recording CSV into (timestamps, frames, labels), with
    ``group``'s channels.

    The grammar is ``np.loadtxt``'s: 793 comma-separated cells per line,
    any of them quoted with ``"``; the timestamp and the 791 channels are
    ASCII decimal, ``nan`` or ``inf`` numbers (no ``_`` digit separator),
    and the label is an integer as ``int()`` reads it. Validates the
    header and every cell of every row, whatever the group: finite values,
    strictly increasing timestamps and labels in 0..14. Each error names
    its line, the header being line 1: the first row that fails a check
    (within a row: non-finite, then timestamp, then label), or else the
    first line that is not a full row.

    A read of an ASCII file keeps the parsed rows in the sidecar
    :func:`sidecar_path` names by the SHA-256 of the bytes it parsed
    (removing the CSV's others), and a later read of the same bytes maps
    it with ``np.load`` and takes its columns as a parse does, through
    :func:`_columns`, which checks them: the same arrays, bit for bit. No
    map outlives the read. Other bytes, or a missing, malformed or failing
    sidecar, parse as if there were none. The CSV is opened once. While it
    has a sidecar, a read first hashes the file streamed, so a hit holds
    none of its bytes; without one, a read is a miss and hashes the bytes
    it parses, once.
    """
    with open(path, "rb") as fh:
        if _sidecars(path):
            hit = _read_sidecar(path, _streamed_digest(fh), group)
            if hit is not None:
                return hit
            fh.seek(0)
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    store = raw.isascii()
    lines = _lines(raw)
    del raw  # the file's text is held once, and only while parsed
    data = _parse(path, lines)
    del lines
    if store:
        _write_sidecar(path, digest, data)
    return _columns(data, group)


def _parse(path, lines: list[str]) -> np.ndarray:
    """The rows of the CSV ``path`` whose lines, header first, are
    ``lines``, every cell parsed and checked."""
    header = lines[0] if lines else ""
    if next(csv.reader([header]), None) != CSV_HEADER:
        raise HeaderMismatchError(
            f"{path}: header does not match the documented "
            f"{len(CSV_HEADER)}-column layout")
    rows = lines[1:]
    data = _rows(rows)
    readable = len(rows)
    if data is None:  # check the rows before the first unreadable line
        # a quote left open on one line runs on into the next
        readable = next(i for i, line in enumerate(rows)
                        if _rows([line]) is None or line.count('"') % 2)
        data = _rows(rows[:readable])
    timestamps, labels = data[:, 0], data[:, -1]
    failed = _failed_checks(timestamps, data[:, 1:-1], labels)
    if failed.any():
        row = int(failed.any(axis=0).argmax())
        where = f"{path}:{row + 2}:"
        if failed[0, row]:
            raise RowParseError(f"{where} non-finite value")
        if failed[1, row]:
            raise NonMonotonicTimestampError(
                f"{where} timestamp {timestamps[row]} does not increase "
                f"past {timestamps[row - 1]}")
        raise RowParseError(f"{where} label {int(labels[row])} outside "
                            f"0..{NUM_CLASSES - 1}")
    if readable < len(rows):
        raise RowParseError(f"{path}:{readable + 2}: not a row of "
                            f"{len(CSV_HEADER)} numeric cells")
    return data


# one CSV row: timestamp, the 791 channels, label
_ROW_FORMAT = "%.3f," + ",".join(["%.6g"] * NUM_CHANNELS) + ",%d\r\n"


def write_csv(path, timestamps, frames, labels) -> None:
    """Inverse of :func:`ingest_csv`; fixed column order, repr-stable floats,
    the bytes ``csv.writer`` would write."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for ts, frame, label in zip(timestamps, frames, labels):
            fh.write(_ROW_FORMAT % (ts, *frame.tolist(), label))


def synchronize(streams: list[SensorStream]) -> tuple[np.ndarray, np.ndarray]:
    """Resample native-rate streams onto a uniform 6 Hz grid.

    Sample-and-hold: each channel takes the latest sample at or before the
    grid tick. Ticks before every stream has produced a sample are dropped.
    Returns (grid timestamps, frames (N, 791)).
    """
    if not streams:
        raise EmptyStreamError("no streams to synchronize")
    for stream in streams:
        if len(stream.timestamps) == 0:
            raise EmptyStreamError(f"stream {stream.name!r} is empty")
        if np.any(np.diff(stream.timestamps) <= 0):
            raise NonMonotonicTimestampError(
                f"stream {stream.name!r} is not time-monotonic")
    start = max(float(s.timestamps[0]) for s in streams)
    end = min(float(s.timestamps[-1]) for s in streams)
    first_tick = int(np.ceil(start / GRID_STEP_MS))
    last_tick = int(np.floor(end / GRID_STEP_MS))
    if last_tick < first_tick:
        raise EmptyStreamError("streams have no common time span on the grid")
    ticks = np.arange(first_tick, last_tick + 1) * GRID_STEP_MS
    frames = np.zeros((len(ticks), NUM_CHANNELS))
    for stream in streams:
        idx = np.searchsorted(stream.timestamps, ticks, side="right") - 1
        width = stream.values.shape[1]
        frames[:, stream.channel_start:stream.channel_start + width] = \
            stream.values[idx]
    return ticks, frames


def select_channels(frames: np.ndarray, group: ChannelGroup) -> np.ndarray:
    """Project full-width frames (..., 791) onto a channel group, as a
    view of its slice of channels; frames already the group's width are
    its channels."""
    if frames.shape[-1] == group.width:
        return frames
    if frames.shape[-1] != NUM_CHANNELS:
        raise DatapipeError(
            f"expected {NUM_CHANNELS}-wide frames, got {frames.shape[-1]}")
    return frames[..., group.channels]


# size of the buffer fit_stats gathers window rows into. Kept small enough
# to stay in cache: on a 2-core Xeon, 3,554 windows of 791 channels took
# 0.28 s with 512 KiB and 0.78 s with 19 MiB.
FIT_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True, eq=False)
class Windows:
    """Sliding windows as row views over one array of selected frames.

    Window ``i`` is rows ``start[i]:start[i] + window_len`` of ``frames``,
    labelled ``y[i]`` and taken from ``subject[i]``/``session[i]``; a window
    never spans two sessions. It is a sequence: ``len``, iteration and an
    integer index give :class:`WindowedSample` items whose ``window`` is a
    read-only view; a slice, boolean mask or integer array gives the
    selected windows as ``Windows``. ``x`` and ``np.asarray`` stack them
    as (N, T, C), so a slice stacks only its own windows."""

    frames: np.ndarray  # (rows, C), read-only
    start: np.ndarray   # (N,) first frame row of each window
    y: np.ndarray       # (N,) majority labels
    subject: np.ndarray
    session: np.ndarray
    window_len: int

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            first = self.start[i]
            return WindowedSample(
                window=self.frames[first:first + self.window_len],
                label=int(self.y[i]), subject=int(self.subject[i]),
                session=int(self.session[i]))
        return Windows(self.frames, self.start[key], self.y[key],
                       self.subject[key], self.session[key], self.window_len)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def rows(self) -> np.ndarray:
        """(N, T) frame row of every window step."""
        return self.start[:, None] + np.arange(self.window_len)

    @property
    def x(self) -> np.ndarray:
        return self.frames[self.rows()]

    def __array__(self, dtype=None, copy=None):
        return self.x if dtype is None else self.x.astype(dtype, copy=False)


def make_windows(sessions: list[SessionRecording], window_len: int,
                 stride: int, group: ChannelGroup = ChannelGroup.G791) -> Windows:
    """Sliding-window segmentation; windows never span session boundaries.

    A window's label is its majority frame label; ties resolve to the null
    class.
    """
    if window_len < 1 or stride < 1:
        raise DatapipeError("window_len and stride must be >= 1")
    frames = np.empty((sum(len(rec.labels) for rec in sessions), group.width))
    starts, labels, subjects, session_ids = [], [], [], []
    offset = 0
    for rec in sessions:
        n = len(rec.labels)
        frames[offset:offset + n] = select_channels(rec.frames[:n], group)
        first = np.arange(0, n - window_len + 1, stride)
        # class counts of every window from cumulative one-hot counts
        cumulative = np.zeros((n + 1, NUM_CLASSES), dtype=np.int64)
        np.cumsum(np.eye(NUM_CLASSES, dtype=np.int64)[rec.labels], axis=0,
                  out=cumulative[1:])
        counts = cumulative[first + window_len] - cumulative[first]
        winners = counts == counts.max(axis=1, keepdims=True)
        labels.append(np.where(winners.sum(axis=1) == 1,
                               counts.argmax(axis=1), NULL_CLASS))
        starts.append(first + offset)
        subjects.append(np.full(len(first), rec.subject))
        session_ids.append(np.full(len(first), rec.session))
        offset += n
    frames.flags.writeable = False
    empty = np.empty(0, dtype=np.int64)
    return Windows(frames, *(np.concatenate([empty, *parts]) for parts in
                             (starts, labels, subjects, session_ids)),
                   window_len)


def stack_windows(windows: Windows) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) arrays for batch training/evaluation."""
    return windows.x, windows.y


def _window_row_sum(windows: Windows, centre=None) -> np.ndarray:
    """Per-channel sum over every row of every window, or of the rows'
    squared deviations from ``centre``, added in the order of the stacked
    (N*T, C) array: row 0 of the buffer carries the running sum into each
    block's ``np.add.reduce``, which adds rows one after another."""
    row_bytes = windows.frames.shape[1] * windows.frames.itemsize
    block = max(1, FIT_BLOCK_BYTES // (windows.window_len * row_bytes))
    buf = np.empty((1 + block * windows.window_len, windows.frames.shape[1]))
    first = 0  # buffer rows ahead of the gathered block
    for i in range(0, len(windows), block):
        rows = windows[i:i + block].rows().ravel()
        part = buf[first:first + len(rows)]
        np.take(windows.frames, rows, axis=0, out=part)
        if centre is not None:
            np.subtract(part, centre, out=part)
            np.square(part, out=part)
        buf[0] = np.add.reduce(buf[:first + len(rows)], axis=0)
        first = 1
    return buf[0].copy()


def fit_stats(train: Windows) -> DatasetStats:
    """Per-channel mean/std over the training split only.

    Bit-identical to ``flat.mean(axis=0)`` and ``flat.std(axis=0)`` of the
    stacked (N*T, C) windows, overlapping rows counted once per window,
    without building that array.
    """
    if len(train) == 0:
        raise DatapipeError("no training windows to fit statistics on")
    count = len(train) * train.window_len
    mean = _window_row_sum(train) / count
    return DatasetStats(mean=mean,
                        std=np.sqrt(_window_row_sum(train, mean) / count))


def normalize(windows: Windows, stats: DatasetStats) -> Windows:
    """Z-score per channel; zero-std channels pass through unscaled.

    Each frame row some window covers is scored once; the rows no window
    covers are dropped, so the result holds only this split's frames.
    """
    safe_std = np.where(stats.std > 0, stats.std, 1.0)
    rows = np.unique(windows.rows())
    # one copy of the covered rows, scored in place in the dtype that
    # (frames - mean) / safe_std takes
    frames = windows.frames[rows].astype(
        np.result_type(windows.frames, stats.mean, safe_std), copy=False)
    frames -= stats.mean
    frames /= safe_std
    frames.flags.writeable = False
    # a window's rows are consecutive in ``rows`` too
    return Windows(frames, np.searchsorted(rows, windows.start), windows.y,
                   windows.subject, windows.session, windows.window_len)


def split_by_session(windows: Windows, held_out_session: int):
    """Leave-one-session-out split: (train, test), disjoint and exhaustive."""
    held_out = windows.session == held_out_session
    return windows[~held_out], windows[held_out]
