import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyhar import datapipe as dp


class TestChannelGroups:
    def test_cardinalities(self):
        widths = {g: g.width for g in dp.ChannelGroup}
        assert set(widths.values()) == {791, 768, 23, 17}

    def test_thermal_plus_lowrate_cover_everything(self):
        g768 = set(dp.ChannelGroup.G768.indices().tolist())
        g23 = set(dp.ChannelGroup.G23.indices().tolist())
        assert g768 & g23 == set()
        assert g768 | g23 == set(range(791))

    def test_g17_drops_accel_and_gyro(self):
        g17 = set(dp.ChannelGroup.G17.indices().tolist())
        g23 = set(dp.ChannelGroup.G23.indices().tolist())
        assert g23 - g17 == set(range(6))

    def test_indices_sorted_unique(self):
        for g in dp.ChannelGroup:
            idx = g.indices()
            assert np.all(np.diff(idx) > 0)

    def test_from_width_round_trips(self):
        for g in dp.ChannelGroup:
            assert dp.ChannelGroup.from_width(g.width) is g
        with pytest.raises(dp.DatapipeError):
            dp.ChannelGroup.from_width(100)


def _ingest_rows(path):
    """Row-at-a-time CSV parser: the reference ``ingest_csv`` must agree
    with, naming the same line. A float cell holding ``_`` or a non-ASCII
    character is a parse error, as in ``np.loadtxt``, though ``float()``
    reads it."""
    timestamps, frames, labels = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != dp.CSV_HEADER:
            raise dp.HeaderMismatchError(
                f"{path}: header does not match the documented "
                f"{len(dp.CSV_HEADER)}-column layout")
        prev_ts = None
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(dp.CSV_HEADER):
                raise dp.RowParseError(
                    f"{path}:{line_no}: expected {len(dp.CSV_HEADER)} "
                    f"columns, got {len(row)}")
            try:
                if any("_" in cell or not cell.isascii() for cell in row[:-1]):
                    raise ValueError("not an ASCII number without '_'")
                ts = float(row[0])
                values = np.array(row[1:-1], dtype=np.float64)
                label = int(row[-1])
            except ValueError as exc:
                raise dp.RowParseError(f"{path}:{line_no}: {exc}") from None
            if not (np.isfinite(ts) and np.isfinite(values).all()):
                raise dp.RowParseError(f"{path}:{line_no}: non-finite value")
            if prev_ts is not None and ts <= prev_ts:
                raise dp.NonMonotonicTimestampError(
                    f"{path}:{line_no}: timestamp {ts} does not increase "
                    f"past {prev_ts}")
            if not 0 <= label < dp.NUM_CLASSES:
                raise dp.RowParseError(
                    f"{path}:{line_no}: label {label} outside "
                    f"0..{dp.NUM_CLASSES - 1}")
            prev_ts = ts
            timestamps.append(ts)
            frames.append(values)
            labels.append(label)
    return (np.array(timestamps), np.array(frames).reshape(-1, dp.NUM_CHANNELS),
            np.array(labels, dtype=np.int64))


class TestCsvRoundTrip:
    def _sample(self, n=5):
        rng = np.random.default_rng(0)
        ts = np.arange(n) * dp.GRID_STEP_MS
        frames = rng.normal(size=(n, dp.NUM_CHANNELS))
        labels = rng.integers(0, dp.NUM_CLASSES, size=n)
        return ts, frames, labels

    def test_round_trip(self, tmp_path):
        ts, frames, labels = self._sample()
        path = tmp_path / "rec.csv"
        dp.write_csv(path, ts, frames, labels)
        ts2, frames2, labels2 = dp.ingest_csv(path)
        assert np.allclose(ts, ts2, atol=1e-3)
        assert np.allclose(frames, frames2, rtol=1e-5)
        assert np.array_equal(labels, labels2)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,y\n1,2,3\n")
        with pytest.raises(dp.HeaderMismatchError):
            dp.ingest_csv(path)

    def test_short_row_names_line(self, tmp_path):
        ts, frames, labels = self._sample(3)
        path = tmp_path / "rec.csv"
        dp.write_csv(path, ts, frames, labels)
        lines = path.read_text().splitlines()
        lines[2] = "1.0,2.0,3.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(dp.RowParseError, match=":3:"):
            dp.ingest_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        ts, frames, labels = self._sample(2)
        path = tmp_path / "rec.csv"
        dp.write_csv(path, ts, frames, labels)
        text = path.read_text().splitlines()
        cells = text[1].split(",")
        cells[5] = "oops"
        text[1] = ",".join(cells)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(dp.RowParseError, match=":2:"):
            dp.ingest_csv(path)

    def test_backwards_timestamp(self, tmp_path):
        ts, frames, labels = self._sample(3)
        ts = np.array([0.0, 500.0, 400.0])
        path = tmp_path / "rec.csv"
        dp.write_csv(path, ts, frames, labels)
        with pytest.raises(dp.NonMonotonicTimestampError, match=":4:"):
            dp.ingest_csv(path)

    def test_label_out_of_range(self, tmp_path):
        ts, frames, labels = self._sample(2)
        labels = np.array([0, 99])
        path = tmp_path / "rec.csv"
        dp.write_csv(path, ts, frames, labels)
        with pytest.raises(dp.RowParseError, match="label 99"):
            dp.ingest_csv(path)

    @pytest.mark.parametrize("column", [0, 5, 791])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_names_line(self, tmp_path, column, bad):
        ts, frames, labels = self._sample(3)
        path = tmp_path / "rec.csv"
        dp.write_csv(path, ts, frames, labels)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = bad
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        for parse in (dp.ingest_csv, _ingest_rows):
            with pytest.raises(dp.RowParseError, match=":3: non-finite"):
                parse(path)

    def test_first_failing_check_is_reported(self, tmp_path):
        """Within a row, non-finite comes before the label check; a failing
        row comes before a later line that is not a full row."""
        ts, frames, labels = self._sample(3)
        frames[0, 4] = np.nan
        labels[0] = 99
        path = tmp_path / "rec.csv"
        dp.write_csv(path, ts, frames, labels)
        lines = path.read_text().splitlines()
        lines[3] = "1.0,2.0,3.0"
        path.write_text("\n".join(lines) + "\n")
        for parse in (dp.ingest_csv, _ingest_rows):
            with pytest.raises(dp.RowParseError, match=":2: non-finite"):
                parse(path)

    @pytest.mark.parametrize("column, edit", [
        *((c, '"{}') for c in (0, 5, 792)),  # a quote left open
        # cells float() reads as 10.0 and 1.0
        *((c, bad) for c in (0, 5) for bad in ("1_0", "\u0661"))])
    def test_unreadable_cell_names_line(self, tmp_path, column, edit):
        ts, frames, labels = self._sample(3)
        path = tmp_path / "rec.csv"
        dp.write_csv(path, ts, frames, labels)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = edit.format(cells[column])
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        for parse in (dp.ingest_csv, _ingest_rows):
            with pytest.raises(dp.RowParseError, match=":3:"):
                parse(path)

    def test_write_csv_bytes_match_csv_writer(self, tmp_path):
        ts, frames, labels = self._sample(6)
        frames[0, :6] = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 123456789.0]
        frames[1] *= 1e6
        ts[2] = 1e9 / 3
        dp.write_csv(tmp_path / "fast.csv", ts, frames, labels)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(dp.CSV_HEADER)
            for t, frame, label in zip(ts, frames, labels):
                writer.writerow([f"{t:.3f}"] + [f"{v:.6g}" for v in frame]
                                + [int(label)])
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())


def _line_of(exc: Exception) -> int | None:
    found = re.search(r"\.csv:(\d+):", str(exc))
    return int(found.group(1)) if found else None


def _parse(parse, path):
    try:
        return parse(path)
    except dp.DatapipeError as exc:
        return type(exc), _line_of(exc)


_CELL_EDITS = {"empty cell": lambda v: "", "value 1_0": lambda v: "1_0",
               "nan": lambda v: "nan", "quoted cell": lambda v: f'"{v}"'}
_LABEL_EDITS = {"label 3.0": "3.0", "label 1_0": "1_0"}
_CORRUPTIONS = sorted([*_CELL_EDITS, *_LABEL_EDITS, "blank line",
                       "short line", "swapped timestamps", "none"])


def _corrupt(rows, kind, i, c):
    """One corruption of data row ``i`` (cell ``c``), where the row has
    the cells it needs."""
    cells = rows[i]
    if kind == "blank line":
        rows.insert(i, [])
    elif kind == "short line":
        rows[i] = cells[:c]
    elif kind == "swapped timestamps":
        if i and cells and rows[i - 1]:
            cells[0], rows[i - 1][0] = rows[i - 1][0], cells[0]
    elif kind in _LABEL_EDITS:
        if cells:
            cells[-1] = _LABEL_EDITS[kind]
    elif kind in _CELL_EDITS and c < len(cells):
        cells[c] = _CELL_EDITS[kind](cells[c])


def _assert_paths_agree(kinds, row, column, seed):
    """Corrupt a 4-row CSV; ``ingest_csv`` and the row parser must return
    bit-identical arrays, or raise the same error type naming the same
    line."""
    rng = np.random.default_rng(seed)
    ts = np.arange(4) * dp.GRID_STEP_MS
    frames = rng.normal(size=(4, dp.NUM_CHANNELS)) * 10.0 ** rng.integers(
        -4, 6, size=dp.NUM_CHANNELS)
    labels = rng.integers(0, dp.NUM_CLASSES, size=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.csv"
        dp.write_csv(path, ts, frames, labels)
        header, *lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        for kind in kinds:
            _corrupt(rows, kind, row, column)
        path.write_text("\n".join([header] + [",".join(r) for r in rows])
                        + "\n")
        fast = _parse(dp.ingest_csv, path)
        reference = _parse(_ingest_rows, path)
    assert len(fast) == len(reference)
    if len(reference) == 2:  # (error type, line)
        assert fast == reference
        return
    for got, want in zip(fast, reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestIngestOracle:
    """``ingest_csv`` against the row-at-a-time oracle ``_ingest_rows``."""

    @pytest.mark.parametrize("kind", _CORRUPTIONS)
    def test_each_corruption(self, kind):
        _assert_paths_agree([kind], row=1, column=5, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from(_CORRUPTIONS), min_size=1,
                          max_size=2),
           row=st.integers(0, 3), column=st.integers(0, 792),
           seed=st.integers(0, 2**16))
    def test_fast_path_agrees_with_row_parser(self, kinds, row, column, seed):
        _assert_paths_agree(kinds, row, column, seed)

    def test_round_trip_is_bit_identical_to_row_parser(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 50
        frames = rng.normal(size=(n, dp.NUM_CHANNELS)) * 1e3
        path = tmp_path / "rec.csv"
        dp.write_csv(path, np.arange(n) * dp.GRID_STEP_MS, frames,
                     rng.integers(0, dp.NUM_CLASSES, size=n))
        for got, want in zip(dp.ingest_csv(path), _ingest_rows(path)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "rec.csv"
        dp.write_csv(path, [], np.zeros((0, dp.NUM_CHANNELS)), [])
        ts, frames, labels = dp.ingest_csv(path)
        assert ts.shape == (0,) and frames.shape == (0, dp.NUM_CHANNELS)
        assert labels.shape == (0,)


def _clean_rows(path, n, seed):
    """Write an ``n``-row CSV of random values; return its rows' cells."""
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(n, dp.NUM_CHANNELS)) * 10.0 ** rng.integers(
        -4, 6, size=dp.NUM_CHANNELS)
    dp.write_csv(path, np.arange(n) * dp.GRID_STEP_MS, frames,
                 rng.integers(0, dp.NUM_CLASSES, size=n))
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _write_rows(path, rows):
    path.write_text("\n".join([",".join(dp.CSV_HEADER)]
                              + [",".join(r) for r in rows]) + "\n")


def _reads_cell(group, max_rows, row, column):
    """Whether ``ingest_csv(path, group, max_rows)`` reads the cell of data
    row ``row`` in CSV column ``column`` (1..791: the channels)."""
    in_rows = max_rows is None or row < max_rows
    return in_rows and (group.width > dp.THERMAL.start
                        or column - 1 in group.indices())


# cell edits; a quote left open breaks its line wherever it is
_BAD_CELLS = ["nan", "x", "", '"1,5"', "1_0", '"""5"""', '"0']


class TestNarrowIngest:
    """``ingest_csv(path, group, max_rows)`` reads the timestamp, the label
    and the group's channels of the first ``max_rows`` rows: the full
    read's bits and errors, and no check of a cell it does not read."""

    @settings(max_examples=80, deadline=None)
    @given(group=st.sampled_from(list(dp.ChannelGroup)),
           max_rows=st.none() | st.integers(0, 7),
           bad=st.sampled_from(_BAD_CELLS),
           row=st.integers(0, 4), column=st.integers(1, dp.NUM_CHANNELS),
           seed=st.integers(0, 2**16))
    def test_equals_the_full_reads_rows_and_columns(
            self, group, max_rows, bad, row, column, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rec.csv"
            rows = _clean_rows(path, 5, seed)
            ts, frames, labels = dp.ingest_csv(path)
            want = (ts[:max_rows], frames[:max_rows, group.indices()],
                    labels[:max_rows])
            rows[row][column] = bad
            _write_rows(path, rows)
            got = _parse(lambda p: dp.ingest_csv(p, group, max_rows), path)
            if _reads_cell(group if bad != '"0' else dp.ChannelGroup.G791,
                           max_rows, row, column):
                want = _parse(dp.ingest_csv, path)
        assert len(got) == len(want)
        if len(want) == 2:  # (error type, line)
            assert got == want
            return
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.flags.c_contiguous
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("group", list(dp.ChannelGroup))
    @pytest.mark.parametrize("bad", _BAD_CELLS)
    def test_a_bad_cell_it_reads_names_its_line(self, tmp_path, group, bad):
        path = tmp_path / "rec.csv"
        rows = _clean_rows(path, 5, 0)
        column = int(group.indices()[-1]) + 1
        rows[3][column] = bad
        _write_rows(path, rows)
        with pytest.raises(dp.RowParseError, match=r"\.csv:5: "):
            dp.ingest_csv(path, group, 4)
        dp.ingest_csv(path, group, 3)

    @pytest.mark.parametrize("group", list(dp.ChannelGroup))
    @pytest.mark.parametrize("cells", [792, 794])
    def test_wrong_cell_count_names_its_line(self, tmp_path, group, cells):
        path = tmp_path / "rec.csv"
        rows = _clean_rows(path, 5, 1)
        if cells == 792:
            del rows[2][500]  # a thermal pixel
        else:  # a valid label where the label belongs, and one after it
            rows[2].insert(-1, "3")
        _write_rows(path, rows)
        with pytest.raises(dp.RowParseError,
                           match=r"\.csv:4: not a row of 793 numeric cells"):
            dp.ingest_csv(path, group, 4)
        assert len(dp.ingest_csv(path, group, 2)[2]) == 2  # not read

    @pytest.mark.parametrize("group", list(dp.ChannelGroup))
    def test_a_quote_left_open_on_a_label_names_its_line(self, tmp_path,
                                                         group):
        path = tmp_path / "rec.csv"
        rows = _clean_rows(path, 5, 6)
        rows[2][-1] = '"' + rows[2][-1]
        _write_rows(path, rows)
        with pytest.raises(dp.RowParseError, match=r"\.csv:4: not a row"):
            dp.ingest_csv(path, group)

    @pytest.mark.parametrize("group", list(dp.ChannelGroup))
    def test_quoted_cells_load(self, tmp_path, group):
        path = tmp_path / "rec.csv"
        rows = _clean_rows(path, 3, 2)
        want = dp.ingest_csv(path)
        for cells in rows:
            cells[0] = f'"{cells[0]}"'
            column = int(group.indices()[0]) + 1
            cells[column] = f'"{cells[column]}"'
        if group.width <= dp.THERMAL.start:  # a comma inside an unread cell
            rows[1][100] = '"1,5"'
        _write_rows(path, rows)
        got = dp.ingest_csv(path, group)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1][:, group.indices()].tobytes()
        assert got[2].tobytes() == want[2].tobytes()


class TestNewlines:
    """Rows end where universal newlines end lines: at "\\r\\n", "\\n" and a
    lone "\\r", whatever mix a file holds."""

    ENDS = {"crlf": [b"\r\n"], "lf": [b"\n"], "cr": [b"\r"],
            "mixed": [b"\n", b"\r\n", b"\r"]}

    @pytest.mark.parametrize("ends", sorted(ENDS))
    @pytest.mark.parametrize("group, max_rows", [
        (dp.ChannelGroup.G791, None), (dp.ChannelGroup.G23, None),
        (dp.ChannelGroup.G17, 3), (dp.ChannelGroup.G768, 0)])
    def test_any_newline_ends_a_row(self, tmp_path, ends, group, max_rows):
        path = tmp_path / "rec.csv"
        _clean_rows(path, 5, 3)
        want = dp.ingest_csv(path, group, max_rows)
        lines = path.read_bytes().split(b"\r\n")[:-1]
        path.write_bytes(b"".join(
            line + self.ENDS[ends][i % len(self.ENDS[ends])]
            for i, line in enumerate(lines)))
        for got, w in zip(dp.ingest_csv(path, group, max_rows), want):
            assert got.tobytes() == w.tobytes()

    @pytest.mark.parametrize("group", [dp.ChannelGroup.G791,
                                       dp.ChannelGroup.G17])
    def test_a_lone_cr_before_crlf_is_a_blank_line(self, tmp_path, group):
        path = tmp_path / "rec.csv"
        _clean_rows(path, 5, 4)
        lines = path.read_bytes().split(b"\r\n")
        lines[2] += b"\r"  # row 2 (line 3), then a blank line 4
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(dp.RowParseError, match=r"\.csv:4: not a row"):
            dp.ingest_csv(path, group)
        assert len(dp.ingest_csv(path, group, 2)[2]) == 2

    def test_a_non_ascii_cell_it_does_not_read_passes(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = _clean_rows(path, 3, 5)
        want = dp.ingest_csv(path, dp.ChannelGroup.G23)
        rows[1][500] = "\u00e9"  # a thermal pixel
        _write_rows(path, rows)
        got = dp.ingest_csv(path, dp.ChannelGroup.G23)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        with pytest.raises(dp.RowParseError, match=r"\.csv:3: "):
            dp.ingest_csv(path)


def _stream(name, start_col, rate_hz, duration_s, fn):
    """Helper: stream whose value at time t (s) is fn(t), one column."""
    n = int(duration_s * rate_hz) + 1
    ts = np.arange(n) * (1000.0 / rate_hz)
    vals = fn(ts / 1000.0).reshape(-1, 1)
    return dp.SensorStream(name=name, channel_start=start_col,
                           timestamps=ts, values=vals)


class TestSynchronize:
    def test_hold_from_slower_stream(self):
        # 3 Hz stream: samples at 0, 333.3, 666.7, 1000 ms with values 0..3.
        # Grid ticks at 0, 166.7, 333.3, ... Sample-and-hold means tick k
        # takes the latest 3 Hz sample at or before it.
        slow = dp.SensorStream(
            name="slow", channel_start=9,
            timestamps=np.array([0.0, 1000 / 3, 2000 / 3, 1000.0]),
            values=np.arange(4.0).reshape(-1, 1))
        fast = _stream("fast", 10, 12.0, 1.0, lambda t: t)
        ticks, frames = dp.synchronize([slow, fast])
        assert ticks[0] == 0.0
        expected_hold = [0, 0, 1, 1, 2, 2, 3]
        assert list(frames[:7, 9].astype(int)) == expected_hold

    def test_grid_at_native_rate_is_identity(self):
        ts = np.arange(7) * dp.GRID_STEP_MS
        vals = np.arange(7.0).reshape(-1, 1)
        s = dp.SensorStream(name="s", channel_start=0, timestamps=ts,
                            values=vals)
        ticks, frames = dp.synchronize([s])
        assert np.allclose(ticks, ts)
        assert np.allclose(frames[:, 0], vals[:, 0])

    def test_starts_after_all_streams_begin(self):
        late = dp.SensorStream(name="late", channel_start=0,
                               timestamps=np.array([500.0, 1500.0]),
                               values=np.ones((2, 1)))
        early = _stream("early", 1, 6.0, 2.0, lambda t: t)
        ticks, _ = dp.synchronize([late, early])
        assert ticks[0] >= 500.0

    def test_empty_stream_rejected(self):
        s = dp.SensorStream(name="e", channel_start=0,
                            timestamps=np.array([]),
                            values=np.zeros((0, 1)))
        with pytest.raises(dp.EmptyStreamError):
            dp.synchronize([s])

    def test_no_overlap_rejected(self):
        a = dp.SensorStream(name="a", channel_start=0,
                            timestamps=np.array([0.0, 10.0]),
                            values=np.zeros((2, 1)))
        b = dp.SensorStream(name="b", channel_start=1,
                            timestamps=np.array([5000.0, 6000.0]),
                            values=np.zeros((2, 1)))
        with pytest.raises(dp.EmptyStreamError):
            dp.synchronize([a, b])


def _session(labels, subject=0, session=0, seed=0):
    n = len(labels)
    rng = np.random.default_rng(seed)
    return dp.SessionRecording(
        subject=subject, session=session,
        timestamps=np.arange(n) * dp.GRID_STEP_MS,
        frames=rng.normal(size=(n, dp.NUM_CHANNELS)),
        labels=np.asarray(labels, dtype=np.int64))


class TestWindows:
    def test_count_matches_closed_form(self):
        rec = _session([0] * 10)
        wins = dp.make_windows([rec], window_len=4, stride=2)
        assert len(wins) == (10 - 4) // 2 + 1  # == 4

    def test_majority_label(self):
        rec = _session([2, 2, 2, 5])
        wins = dp.make_windows([rec], window_len=4, stride=4)
        assert wins[0].label == 2

    def test_tie_resolves_to_null(self):
        rec = _session([3, 3, 7, 7])
        wins = dp.make_windows([rec], window_len=4, stride=4)
        assert wins[0].label == dp.NULL_CLASS

    def test_windows_do_not_cross_sessions(self):
        recs = [_session([1] * 5, session=0), _session([2] * 5, session=1)]
        wins = dp.make_windows(recs, window_len=4, stride=1)
        assert len(wins) == 4  # 2 per session, never a mixed 1/2 window
        assert {w.label for w in wins} == {1, 2}

    def test_channel_selection_width(self):
        rec = _session([0] * 6)
        wins = dp.make_windows([rec], 3, 3, group=dp.ChannelGroup.G23)
        assert wins[0].window.shape == (3, 23)

    def test_frames_of_the_groups_width_are_its_channels(self):
        full = _session(np.arange(30) % 4)
        narrow = dp.SessionRecording(
            subject=0, session=0, timestamps=full.timestamps,
            frames=full.frames[:, dp.ChannelGroup.G23.indices()],
            labels=full.labels)
        want = dp.make_windows([full], 8, 4, dp.ChannelGroup.G23)
        got = dp.make_windows([narrow], 8, 4, dp.ChannelGroup.G23)
        assert got.x.tobytes() == want.x.tobytes()
        assert np.array_equal(got.y, want.y)
        with pytest.raises(dp.DatapipeError):
            dp.make_windows([narrow], 8, 4, dp.ChannelGroup.G17)

    def test_invalid_geometry(self):
        with pytest.raises(dp.DatapipeError):
            dp.make_windows([_session([0] * 4)], window_len=0, stride=1)

    @given(st.lists(st.integers(0, 14), min_size=1, max_size=40),
           st.integers(1, 8), st.integers(1, 5))
    def test_window_label_matches_bincount_oracle(self, labels, window_len,
                                                  stride):
        arr = np.array(labels)
        wins = dp.make_windows([_session(arr)], window_len, stride)
        starts = range(0, len(arr) - window_len + 1, stride)
        assert len(wins) == len(starts)
        for win, start in zip(wins, starts):
            counts = np.bincount(arr[start:start + window_len], minlength=15)
            winners = np.flatnonzero(counts == counts.max())
            expected = int(winners[0]) if len(winners) == 1 else 0
            assert win.label == expected


def _reference_windows(sessions, window_len, stride, group):
    """The windows as the old list of per-window samples."""
    out = []
    for rec in sessions:
        frames = rec.frames[:, group.indices()]
        for start in range(0, len(rec.labels) - window_len + 1, stride):
            counts = np.bincount(rec.labels[start:start + window_len],
                                 minlength=dp.NUM_CLASSES)
            winners = np.flatnonzero(counts == counts.max())
            out.append(dp.WindowedSample(
                window=frames[start:start + window_len],
                label=int(winners[0]) if len(winners) == 1 else dp.NULL_CLASS,
                subject=rec.subject, session=rec.session))
    return out


def _assert_same_items(wins, reference):
    assert len(wins) == len(reference)
    for got, want in zip(wins, reference):
        assert np.array_equal(got.window, want.window)
        assert (got.label, got.subject, got.session) == \
            (want.label, want.subject, want.session)


class TestWindowsSequence:
    @pytest.fixture
    def sessions(self):
        rng = np.random.default_rng(7)
        return [_session(rng.integers(0, 4, size=n), subject=s % 2,
                         session=s, seed=s) for s, n in ((0, 30), (1, 5),
                                                         (2, 41))]

    def test_items_match_list_semantics(self, sessions):
        group = dp.ChannelGroup.G17
        wins = dp.make_windows(sessions, 6, 4, group)
        ref = _reference_windows(sessions, 6, 4, group)
        _assert_same_items(wins, ref)
        _assert_same_items(wins[2:9], ref[2:9])
        _assert_same_items(wins[::3][:4], ref[::3][:4])
        _assert_same_items(wins[-3:], ref[-3:])
        mask = np.array([w.label == 1 for w in ref])
        _assert_same_items(wins[mask], [w for w, m in zip(ref, mask) if m])
        _assert_same_items(wins[np.array([5, 0, 5])],
                           [ref[5], ref[0], ref[5]])
        _assert_same_items([wins[-1], wins[np.int64(3)]], [ref[-1], ref[3]])
        with pytest.raises(IndexError):
            wins[len(ref)]
        x, y = dp.stack_windows(wins[1:7])
        assert np.array_equal(x, np.stack([w.window for w in ref[1:7]]))
        assert np.array_equal(y, [w.label for w in ref[1:7]])

    def test_split_matches_list_filter(self, sessions):
        wins = dp.make_windows(sessions, 6, 2)
        ref = _reference_windows(sessions, 6, 2, dp.ChannelGroup.G791)
        train, test = dp.split_by_session(wins, held_out_session=2)
        _assert_same_items(train, [w for w in ref if w.session != 2])
        _assert_same_items(test, [w for w in ref if w.session == 2])

    def test_windows_are_read_only(self, sessions):
        wins = dp.make_windows(sessions, 6, 4)
        stats = dp.fit_stats(wins)
        for w in (wins, dp.normalize(wins, stats)):
            with pytest.raises(ValueError):
                w[0].window[0, 0] = 1.0

    def test_normalize_matches_per_window_formula(self, sessions):
        group = dp.ChannelGroup.G23
        wins = dp.make_windows(sessions, 6, 9, group)
        stats = dp.fit_stats(wins)
        safe_std = np.where(stats.std > 0, stats.std, 1.0)
        held_out = dp.split_by_session(wins, 0)[1][::2]
        out = dp.normalize(held_out, stats)
        _assert_same_items(out, [
            dp.WindowedSample(window=(w.window - stats.mean) / safe_std,
                              label=w.label, subject=w.subject,
                              session=w.session) for w in held_out])
        # only the rows its windows cover are kept
        assert len(out.frames) == len(np.unique(held_out.rows()))


class TestFitStatsOracle:
    """Blockwise fit_stats against the stacked mean/std, bit for bit."""

    @pytest.mark.parametrize("group", [dp.ChannelGroup.G17,
                                       dp.ChannelGroup.G791])
    @pytest.mark.parametrize("stride", [1, 5, 12, 24])
    @pytest.mark.parametrize("block_bytes", [1, 50_000, dp.FIT_BLOCK_BYTES])
    def test_bit_identical_to_stacked_formula(self, monkeypatch, group,
                                              stride, block_bytes):
        monkeypatch.setattr(dp, "FIT_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(stride)
        recs = []
        for s, n in enumerate((90, 61)):
            rec = _session(rng.integers(0, 15, size=n), session=s, seed=s)
            # channels of mixed magnitude
            recs.append(dp.SessionRecording(
                subject=0, session=s, timestamps=rec.timestamps,
                frames=rec.frames * 10.0 ** rng.integers(
                    -4, 7, size=dp.NUM_CHANNELS) + rng.normal(
                        size=dp.NUM_CHANNELS) * 1e3,
                labels=rec.labels))
        wins = dp.make_windows(recs, 12, stride, group)
        flat = np.stack([w.window for w in wins]).reshape(-1, group.width)
        stats = dp.fit_stats(wins)
        assert stats.mean.tobytes() == flat.mean(axis=0).tobytes()
        assert stats.std.tobytes() == flat.std(axis=0).tobytes()

    def test_no_windows_rejected(self):
        wins = dp.make_windows([_session([0] * 3)], window_len=4, stride=1)
        with pytest.raises(dp.DatapipeError):
            dp.fit_stats(wins)


class TestNormalization:
    def test_train_split_becomes_zero_mean_unit_std(self):
        rec = _session([0] * 40, seed=3)
        wins = dp.make_windows([rec], 4, 4, group=dp.ChannelGroup.G23)
        stats = dp.fit_stats(wins)
        x, _ = dp.stack_windows(dp.normalize(wins, stats))
        flat = x.reshape(-1, 23)
        assert np.abs(flat.mean(axis=0)).max() < 1e-6
        assert np.abs(flat.std(axis=0) - 1.0).max() < 1e-6

    def test_zero_variance_channel_passes_through(self):
        rec = _session([0] * 4)
        rec.frames[:, 0] = 1.0
        rec.frames[:, 1] = [1.0, 2.0, 3.0, 4.0]
        wins = dp.make_windows([rec], 4, 4)
        stats = dp.fit_stats(wins)
        out = dp.normalize(wins, stats)[0].window
        assert np.allclose(out[:, 0], 0.0)  # centered, not scaled

    def test_stats_come_from_train_only(self):
        recs = [_session([0] * 2, session=0), _session([0] * 2, session=1)]
        recs[0].frames[:] = 0.0
        recs[1].frames[:] = 100.0
        train, test = dp.split_by_session(dp.make_windows(recs, 2, 2), 1)
        stats = dp.fit_stats(train)
        out = dp.normalize(test, stats)[0].window
        assert np.all(out == 100.0)  # test split shifted by train stats only


class TestSplit:
    def test_disjoint_and_exhaustive(self):
        recs = [_session([0] * 8, session=s) for s in range(3)]
        wins = dp.make_windows(recs, 4, 4)
        train, test = dp.split_by_session(wins, held_out_session=1)
        assert len(train) + len(test) == len(wins)
        assert all(w.session != 1 for w in train)
        assert all(w.session == 1 for w in test)
