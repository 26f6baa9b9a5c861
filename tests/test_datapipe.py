import csv
import hashlib
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

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
        g768 = set(range(dp.NUM_CHANNELS)[dp.ChannelGroup.G768.channels])
        g23 = set(range(dp.NUM_CHANNELS)[dp.ChannelGroup.G23.channels])
        assert g768 & g23 == set()
        assert g768 | g23 == set(range(791))

    def test_g17_drops_accel_and_gyro(self):
        g17 = set(range(dp.NUM_CHANNELS)[dp.ChannelGroup.G17.channels])
        g23 = set(range(dp.NUM_CHANNELS)[dp.ChannelGroup.G23.channels])
        assert g23 - g17 == set(range(6))

    def test_indices_sorted_unique(self):
        for g in dp.ChannelGroup:
            idx = np.arange(dp.NUM_CHANNELS)[g.channels]
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


# cell edits; a quote left open breaks its line wherever it is
_BAD_CELLS = ["nan", "x", "", '"1,5"', "1_0", '"""5"""', '"0']


class TestNarrowIngest:
    """``ingest_csv(path, group)`` returns the full read's rows with the
    group's channels, or the full read's error wherever the bad cell
    lies: a read parses every cell, whatever the group."""

    @settings(max_examples=80, deadline=None)
    @given(group=st.sampled_from(list(dp.ChannelGroup)),
           bad=st.sampled_from(_BAD_CELLS),
           row=st.integers(0, 4), column=st.integers(1, dp.NUM_CHANNELS),
           seed=st.integers(0, 2**16))
    def test_equals_the_full_reads_rows_and_columns(
            self, group, bad, row, column, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rec.csv"
            rows = _clean_rows(path, 5, seed)
            rows[row][column] = bad
            _write_rows(path, rows)
            got = _parse(lambda p: dp.ingest_csv(p, group), path)
            want = _parse(dp.ingest_csv, path)
        assert len(want) == 2  # (error type, line)
        assert got == want

    @pytest.mark.parametrize("group", list(dp.ChannelGroup))
    @pytest.mark.parametrize("bad", _BAD_CELLS)
    def test_a_bad_cell_it_reads_names_its_line(self, tmp_path, group, bad):
        path = tmp_path / "rec.csv"
        rows = _clean_rows(path, 5, 0)
        column = group.channels.stop
        rows[3][column] = bad
        _write_rows(path, rows)
        with pytest.raises(dp.RowParseError, match=r"\.csv:5: "):
            dp.ingest_csv(path, group)

    @pytest.mark.parametrize("group", [dp.ChannelGroup.G768,
                                       dp.ChannelGroup.G23,
                                       dp.ChannelGroup.G17])
    @pytest.mark.parametrize("bad", _BAD_CELLS)
    def test_a_bad_cell_outside_the_group_names_its_line(self, tmp_path,
                                                         group, bad):
        path = tmp_path / "rec.csv"
        rows = _clean_rows(path, 5, 4)
        # the channel just before the group's run, or else just after it
        start, stop = group.channels.start, group.channels.stop
        rows[4][(start - 1 if start else stop) + 1] = bad
        _write_rows(path, rows)
        with pytest.raises(dp.RowParseError, match=r"\.csv:6: "):
            dp.ingest_csv(path, group)
        assert not _sidecars(path)

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
            dp.ingest_csv(path, group)

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
            column = group.channels.start + 1
            cells[column] = f'"{cells[column]}"'
        _write_rows(path, rows)
        got = dp.ingest_csv(path, group)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1][:, group.channels].tobytes()
        assert got[2].tobytes() == want[2].tobytes()


class TestNewlines:
    """Rows end where universal newlines end lines: at "\\r\\n", "\\n" and a
    lone "\\r", whatever mix a file holds."""

    ENDS = {"crlf": [b"\r\n"], "lf": [b"\n"], "cr": [b"\r"],
            "mixed": [b"\n", b"\r\n", b"\r"]}

    @pytest.mark.parametrize("ends", sorted(ENDS))
    @pytest.mark.parametrize("group", list(dp.ChannelGroup))
    def test_any_newline_ends_a_row(self, tmp_path, ends, group):
        path = tmp_path / "rec.csv"
        _clean_rows(path, 5, 3)
        want = dp.ingest_csv(path, group)
        lines = path.read_bytes().split(b"\r\n")[:-1]
        path.write_bytes(b"".join(
            line + self.ENDS[ends][i % len(self.ENDS[ends])]
            for i, line in enumerate(lines)))
        for got, w in zip(dp.ingest_csv(path, group), want):
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

    def test_a_non_ascii_cell_names_its_line(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = _clean_rows(path, 3, 5)
        rows[1][500] = "\u00e9"  # a thermal pixel
        _write_rows(path, rows)
        for group in (dp.ChannelGroup.G23, dp.ChannelGroup.G791):
            with pytest.raises(dp.RowParseError, match=r"\.csv:3: "):
                dp.ingest_csv(path, group)



def _no_parse(*args, **kwargs):
    raise AssertionError("np.loadtxt called")


def _assert_same(got, want):
    """``got`` is ``want``: the same arrays bit for bit, or the same error
    type naming the same line."""
    assert len(got) == len(want)
    if len(want) == 2:  # (error type, line)
        assert got == want
        return
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.flags.c_contiguous and g.flags.writeable
        assert g.tobytes() == w.tobytes()


def _parsed(path, group=dp.ChannelGroup.G791):
    """What ``ingest_csv`` parses from a copy of ``path`` with no sidecar
    beside it."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / path.name
        copy.write_bytes(path.read_bytes())
        return _parse(lambda p: dp.ingest_csv(p, group), copy)


def _sidecar(path):
    """The sidecar :func:`dp.ingest_csv` keeps for the bytes ``path``
    holds now."""
    return dp.sidecar_path(path, hashlib.sha256(path.read_bytes()).hexdigest())


def _sidecars(path):
    return sorted(path.parent.glob(f".{path.name}.*.rows.npy"))


class TestSidecar:
    """A read of an ASCII CSV keeps the parsed rows beside it, named by the
    SHA-256 of its bytes; a later read of the same bytes returns them
    without parsing, and anything else is parsed as if there were no
    sidecar."""

    @pytest.fixture
    def stored(self, tmp_path):
        """A 7-row CSV and its sidecar."""
        path = tmp_path / "rec.csv"
        _clean_rows(path, 7, 9)
        dp.ingest_csv(path)
        assert _sidecars(path) == [_sidecar(path)]
        return path

    @pytest.fixture
    def parses(self, monkeypatch):
        """The ``np.loadtxt`` calls made since the test began."""
        loadtxt, calls = np.loadtxt, []
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1)
                            or loadtxt(*a, **k))
        return calls

    @settings(max_examples=60, deadline=None)
    @given(group=st.sampled_from(list(dp.ChannelGroup)),
           rows=st.integers(0, 9), seed=st.integers(0, 2**16))
    def test_a_hit_is_the_parse_without_parsing(self, group, rows, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rec.csv"
            _clean_rows(path, rows, seed)
            want = dp.ingest_csv(path, group)
            with mock.patch.object(np, "loadtxt", _no_parse):
                got = dp.ingest_csv(path, group)
        _assert_same(got, want)

    @pytest.mark.parametrize("group", list(dp.ChannelGroup))
    @pytest.mark.parametrize("edit", ["other value", "nan", "last row",
                                      "lone CR", "appended row",
                                      "cut mid-row", "cut after a row"])
    def test_a_changed_csv_is_parsed(self, stored, parses, group, edit):
        lines = stored.read_bytes().split(b"\r\n")
        if edit in ("other value", "nan", "last row"):  # a cell of row 1 or 6
            row = 7 if edit == "last row" else 2
            cells = lines[row].split(b",")
            cells[10] = b"nan" if edit == "nan" else b"12.5"
            lines[row] = b",".join(cells)
        elif edit == "appended row":
            lines.insert(-1, lines[-2].replace(lines[-2].split(b",")[0],
                                               b"999999", 1))
        data = b"\r\n".join(lines)
        if edit == "cut mid-row":
            data = data[:len(data) - len(lines[-2]) // 2]
        elif edit == "cut after a row":
            data = data[:len(data) - len(lines[-2]) - 2]
        elif edit == "lone CR":  # the same rows from other bytes
            data = data[:-1]
        stored.write_bytes(data)
        want = _parsed(stored, group)
        parses.clear()
        _assert_same(_parse(lambda p: dp.ingest_csv(p, group), stored), want)
        assert parses

    def test_a_low_rate_read_reads_no_thermal_column(self, stored,
                                                      monkeypatch):
        sidecar = _sidecar(stored)
        good = sidecar.read_bytes()
        rows = np.load(sidecar)
        rows[1, 500] = np.nan  # a thermal pixel
        with open(sidecar, "wb") as fh:
            np.save(fh, rows)
        want = _parsed(stored, dp.ChannelGroup.G17)
        with monkeypatch.context() as patch:
            patch.setattr(np, "loadtxt", _no_parse)
            _assert_same(dp.ingest_csv(stored, dp.ChannelGroup.G17), want)
            with pytest.raises(AssertionError, match="loadtxt called"):
                dp.ingest_csv(stored, dp.ChannelGroup.G768)
        dp.ingest_csv(stored, dp.ChannelGroup.G768)
        assert sidecar.read_bytes() == good

    # same-size edits of the header that leave the rows readable as stored
    HEADER_EDITS = {"C order": (b"True, 'shape'", b"False,'shape'"),
                    "int64": (b"'<f8'", b"'<i8'"),
                    "version 2": (b"NUMPY\x01", b"NUMPY\x02"),
                    "shape": (b"(7, 793)", b"(7, 792)")}

    @pytest.mark.parametrize("damage", [
        "garbage", "empty", "cut in the header", "truncated",
        "an extra byte", *HEADER_EDITS, "wide rows", "one dimension",
        "float32", "big-endian", "nan pixel", "nan label",
        "falling timestamps", "label 15"])
    def test_a_bad_sidecar_is_parsed_and_replaced(self, stored, parses,
                                                  monkeypatch, damage):
        sidecar = _sidecar(stored)
        good = sidecar.read_bytes()
        rows = np.load(sidecar)
        assert rows.flags.f_contiguous and not rows.flags.c_contiguous
        if damage in self.HEADER_EDITS:
            old, new = self.HEADER_EDITS[damage]
            assert good[:128].count(old) == 1
            sidecar.write_bytes(good.replace(old, new, 1))
        elif damage in ("garbage", "empty", "cut in the header",
                        "truncated", "an extra byte"):
            sidecar.write_bytes({
                "garbage": bytes(range(256)) * 8, "empty": b"",
                "cut in the header": good[:40],
                "truncated": good[:len(good) - 8],
                "an extra byte": good + b"\0"}[damage])
        else:
            if damage == "wide rows":
                rows = np.asfortranarray(np.hstack([rows, rows[:, :1]]))
            elif damage == "one dimension":
                rows = rows.T.ravel()
            elif damage in ("float32", "big-endian"):
                rows = rows.astype({"float32": "<f4", "big-endian": ">f8"}[
                    damage])
            else:
                cell = {"nan pixel": (1, 500), "nan label": (1, -1),
                        "falling timestamps": (1, 0), "label 15": (1, -1)}
                rows[cell[damage]] = {"falling timestamps": -1.0,
                                      "label 15": 15.0}.get(damage, np.nan)
            with open(sidecar, "wb") as fh:
                np.save(fh, rows)
        want = _parsed(stored)
        parses.clear()
        _assert_same(dp.ingest_csv(stored), want)
        assert parses and sidecar.read_bytes() == good  # written again
        monkeypatch.setattr(np, "loadtxt", _no_parse)
        _assert_same(dp.ingest_csv(stored), want)

    @pytest.mark.parametrize("cut", [8, 5])
    def test_a_sidecar_cut_after_its_size_is_read_is_a_miss(
            self, stored, parses, monkeypatch, cut):
        sidecar = _sidecar(stored)
        good = sidecar.read_bytes()
        sidecar.write_bytes(good[:-cut])
        want = _parsed(stored)
        parses.clear()
        with monkeypatch.context() as patch:  # the size it had when checked
            patch.setattr(dp.os, "fstat",
                          lambda fd: mock.Mock(st_size=len(good)))
            _assert_same(dp.ingest_csv(stored), want)
        assert parses and sidecar.read_bytes() == good

    def test_a_failed_write_is_ignored(self, tmp_path, monkeypatch):
        path = tmp_path / "rec.csv"
        _clean_rows(path, 7, 10)
        want = _parsed(path)

        def refuse(src, dst):
            raise PermissionError(13, "read-only directory", dst)

        monkeypatch.setattr(dp.os, "replace", refuse)
        _assert_same(dp.ingest_csv(path), want)
        assert [p.name for p in tmp_path.iterdir()] == ["rec.csv"]

    def test_a_write_removes_the_csvs_other_sidecars(self, stored, parses):
        first, old = _sidecar(stored), stored.read_bytes()
        legacy = stored.with_name(".rec.csv.rows.npz")  # an older layout
        legacy.write_bytes(b"PK")
        other = stored.with_name("other.csv")
        other.write_bytes(old)
        dp.ingest_csv(other)
        lines = old.split(b"\r\n")
        cells = lines[4].split(b",")
        cells[10] = b"12.5"
        lines[4] = b",".join(cells)
        stored.write_bytes(b"\r\n".join(lines))
        dp.ingest_csv(stored)
        assert _sidecars(stored) == [_sidecar(stored)] != [first]
        assert not legacy.exists() and _sidecars(other) == [_sidecar(other)]
        stored.write_bytes(old)  # reverted: parsed, and kept again
        parses.clear()
        dp.ingest_csv(stored)
        assert parses and _sidecars(stored) == [first]

    def test_the_csv_is_opened_once_per_read(self, stored, monkeypatch):
        opened = []
        real = open

        def counting(file, *args, **kwargs):
            opened.append(Path(file) == stored)
            return real(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting)
        for group, delete in [(dp.ChannelGroup.G791, False),
                              (dp.ChannelGroup.G17, False),
                              (dp.ChannelGroup.G768, True),
                              (dp.ChannelGroup.G23, True)]:
            if delete:
                _sidecar(stored).unlink(missing_ok=True)
            opened.clear()
            dp.ingest_csv(stored, group)
            assert sum(opened) == 1

    def test_a_hit_holds_none_of_the_csv_bytes(self, tmp_path):
        path = tmp_path / "rec.csv"
        _clean_rows(path, 400, 12)
        dp.ingest_csv(path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            dp.ingest_csv(path, dp.ChannelGroup.G17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size / 4  # the hash streams the file in chunks

    def test_a_miss_names_its_sidecar_by_the_bytes_it_parses(self, stored,
                                                             parses):
        streamed = hashlib.sha256(b"bytes read before the file changed")
        with mock.patch.object(dp, "_streamed_digest",
                               return_value=streamed.hexdigest()):
            dp.ingest_csv(stored)
        assert parses and _sidecars(stored) == [_sidecar(stored)]

    def test_a_read_without_a_sidecar_hashes_the_file_once(self, stored,
                                                           monkeypatch):
        _sidecar(stored).unlink()
        hashed, sha256 = [], hashlib.sha256
        monkeypatch.setattr(dp.hashlib, "sha256",
                            lambda *a: hashed.append(1) or sha256(*a))
        dp.ingest_csv(stored)
        assert len(hashed) == 1 and _sidecars(stored) == [_sidecar(stored)]
        hashed.clear()
        dp.ingest_csv(stored)  # a hit: the streamed hash only
        assert len(hashed) == 1

    @pytest.mark.parametrize("group", [dp.ChannelGroup.G791,
                                       dp.ChannelGroup.G768])
    def test_only_a_read_of_every_cell_of_every_row_writes(self, tmp_path,
                                                           group):
        path = tmp_path / "rec.csv"
        rows = _clean_rows(path, 7, 11)
        dp.ingest_csv(path, group)
        assert _sidecars(path) == [_sidecar(path)]
        _sidecar(path).unlink()
        rows[4][3] = "nan"
        _write_rows(path, rows)
        with pytest.raises(dp.RowParseError, match=r"\.csv:6: "):
            dp.ingest_csv(path, group)
        assert [p.name for p in tmp_path.iterdir()] == ["rec.csv"]
        rows[4][3] = "0.5"
        _write_rows(path, rows)
        path.chmod(0o640)
        dp.ingest_csv(path, group)
        # it holds what the CSV holds, readable by whom the CSV is
        assert _sidecar(path).stat().st_mode & 0o777 == 0o640

    @pytest.mark.parametrize("group", [dp.ChannelGroup.G17,
                                       dp.ChannelGroup.G23])
    def test_a_low_rate_read_of_every_row_writes(self, tmp_path,
                                                 monkeypatch, group):
        path = tmp_path / "rec.csv"
        _clean_rows(path, 7, 13)
        want = {g: _parsed(path, g) for g in dp.ChannelGroup}
        _assert_same(dp.ingest_csv(path, group), want[group])
        assert _sidecars(path) == [_sidecar(path)]
        monkeypatch.setattr(np, "loadtxt", _no_parse)
        for g in dp.ChannelGroup:
            _assert_same(dp.ingest_csv(path, g), want[g])

    def test_a_non_ascii_file_keeps_no_sidecar(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = _clean_rows(path, 3, 12)
        rows[1][-1] = "\u0663"  # int() reads the Arabic-Indic digit 3
        _write_rows(path, rows)
        assert dp.ingest_csv(path)[2][1] == 3
        assert not _sidecars(path)

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
            frames=full.frames[:, dp.ChannelGroup.G23.channels],
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
        frames = rec.frames[:, group.channels]
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


    def test_scores_one_copy_of_the_covered_rows_in_place(self):
        rng = np.random.default_rng(4)
        frames = rng.normal(size=(2_000, 791)) * 3.0 + 1.0
        frames.flags.writeable = False
        start = np.arange(0, 1_900, 3)
        zeros = np.zeros(len(start), dtype=np.int64)
        wins = dp.Windows(frames, start, zeros, zeros, zeros, 24)
        std = rng.uniform(0.5, 2.0, size=791)
        std[::7] = 0.0
        stats = dp.DatasetStats(mean=rng.normal(size=791), std=std)
        rows = np.unique(wins.rows())
        want = (frames[rows] - stats.mean) / np.where(std > 0, std, 1.0)
        tracemalloc.start()
        try:
            out = dp.normalize(wins, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.frames.tobytes() == want.tobytes()
        # two more full-size temporaries would take it past 2 * nbytes
        assert peak < 1.5 * want.nbytes


class TestSplit:
    def test_disjoint_and_exhaustive(self):
        recs = [_session([0] * 8, session=s) for s in range(3)]
        wins = dp.make_windows(recs, 4, 4)
        train, test = dp.split_by_session(wins, held_out_session=1)
        assert len(train) + len(test) == len(wins)
        assert all(w.session != 1 for w in train)
        assert all(w.session == 1 for w in test)
