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
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

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

    def indices(self) -> np.ndarray:
        if self is ChannelGroup.G791:
            return np.arange(NUM_CHANNELS)
        if self is ChannelGroup.G768:
            return np.arange(THERMAL.start, THERMAL.stop)
        if self is ChannelGroup.G23:
            return np.arange(0, THERMAL.start)
        return np.arange(GYRO.stop, THERMAL.start)  # G17

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
    frames: np.ndarray      # (N, 791)
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


def ingest_csv(path):
    """Parse one recording CSV into (timestamps, frames, labels).

    Validates the 793-column header, the channel count of every row, and
    timestamp monotonicity; parse failures name the offending line.
    """
    timestamps, frames, labels = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise HeaderMismatchError(
                f"{path}: header does not match the documented "
                f"{len(CSV_HEADER)}-column layout")
        prev_ts = None
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise RowParseError(
                    f"{path}:{line_no}: expected {len(CSV_HEADER)} columns, "
                    f"got {len(row)}")
            try:
                ts = float(row[0])
                values = np.array(row[1:-1], dtype=np.float64)
                label = int(row[-1])
            except ValueError as exc:
                raise RowParseError(f"{path}:{line_no}: {exc}") from None
            if prev_ts is not None and ts <= prev_ts:
                raise NonMonotonicTimestampError(
                    f"{path}:{line_no}: timestamp {ts} does not increase "
                    f"past {prev_ts}")
            if not 0 <= label < NUM_CLASSES:
                raise RowParseError(
                    f"{path}:{line_no}: label {label} outside 0..{NUM_CLASSES - 1}")
            prev_ts = ts
            timestamps.append(ts)
            frames.append(values)
            labels.append(label)
    return (np.array(timestamps), np.array(frames).reshape(-1, NUM_CHANNELS),
            np.array(labels, dtype=np.int64))


def write_csv(path, timestamps, frames, labels) -> None:
    """Inverse of :func:`ingest_csv`; fixed column order, repr-stable floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for ts, frame, label in zip(timestamps, frames, labels):
            writer.writerow([f"{ts:.3f}"] + [f"{v:.6g}" for v in frame]
                            + [int(label)])


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
    """Project full-width frames (..., 791) onto a channel group."""
    if frames.shape[-1] != NUM_CHANNELS:
        raise DatapipeError(
            f"expected {NUM_CHANNELS}-wide frames, got {frames.shape[-1]}")
    return frames[..., group.indices()]


def window_label(labels: np.ndarray) -> int:
    """Majority label of a window; ties resolve to the null class."""
    counts = np.bincount(labels, minlength=NUM_CLASSES)
    top = counts.max()
    winners = np.flatnonzero(counts == top)
    return int(winners[0]) if len(winners) == 1 else NULL_CLASS


def make_windows(sessions: list[SessionRecording], window_len: int,
                 stride: int,
                 group: ChannelGroup = ChannelGroup.G791) -> list[WindowedSample]:
    """Sliding-window segmentation; windows never span session boundaries."""
    if window_len < 1 or stride < 1:
        raise DatapipeError("window_len and stride must be >= 1")
    samples = []
    for rec in sessions:
        frames = select_channels(rec.frames, group)
        n = len(rec.labels)
        for start in range(0, n - window_len + 1, stride):
            window = frames[start:start + window_len]
            label = window_label(rec.labels[start:start + window_len])
            samples.append(WindowedSample(window=window, label=label,
                                          subject=rec.subject,
                                          session=rec.session))
    return samples


def stack_windows(samples: list[WindowedSample]) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) arrays for batch training/evaluation."""
    x = np.stack([s.window for s in samples])
    y = np.array([s.label for s in samples], dtype=np.int64)
    return x, y


def fit_stats(train_samples: list[WindowedSample]) -> DatasetStats:
    """Per-channel mean/std over the training split only."""
    x, _ = stack_windows(train_samples)
    flat = x.reshape(-1, x.shape[-1])
    return DatasetStats(mean=flat.mean(axis=0), std=flat.std(axis=0))


def normalize(samples: list[WindowedSample],
              stats: DatasetStats) -> list[WindowedSample]:
    """Z-score per channel; zero-std channels pass through unscaled."""
    safe_std = np.where(stats.std > 0, stats.std, 1.0)
    return [WindowedSample(window=(s.window - stats.mean) / safe_std,
                           label=s.label, subject=s.subject,
                           session=s.session) for s in samples]


def split_by_session(samples: list[WindowedSample],
                     held_out_session: int):
    """Leave-one-session-out split: (train, test), disjoint and exhaustive."""
    train = [s for s in samples if s.session != held_out_session]
    test = [s for s in samples if s.session == held_out_session]
    return train, test
