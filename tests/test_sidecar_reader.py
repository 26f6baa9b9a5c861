"""The sidecar read: ``datapipe.ingest_csv`` maps the ``.npy`` it keeps
beside a CSV with ``np.load``, copies the columns it returns out of the
map, and holds no map past the read."""
import hashlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from tinyhar import datapipe as dp

MAPS = Path("/proc/self/maps")


@pytest.fixture
def csv_path(tmp_path):
    """A 9-row CSV of random values, read once, so its sidecar is there."""
    rng = np.random.default_rng(4)
    path = tmp_path / "rec.csv"
    dp.write_csv(path, np.arange(9) * dp.GRID_STEP_MS,
                 rng.normal(size=(9, dp.NUM_CHANNELS)),
                 rng.integers(0, dp.NUM_CLASSES, size=9))
    dp.ingest_csv(path)
    return path


def sidecar(path):
    return dp.sidecar_path(path, hashlib.sha256(path.read_bytes()).hexdigest())


def hit(path, group=dp.ChannelGroup.G791):
    """``ingest_csv`` of ``path`` where a parse fails the test."""
    with mock.patch.object(np, "loadtxt",
                           side_effect=AssertionError("np.loadtxt called")):
        return dp.ingest_csv(path, group)


def parsed(path, group):
    """``ingest_csv`` of ``path`` with its sidecar moved aside."""
    kept = sidecar(path)
    aside = kept.with_name("aside")
    kept.rename(aside)
    try:
        return dp.ingest_csv(path, group)
    finally:
        aside.replace(kept)


def mapped(path) -> bool:
    """Whether this process maps the file ``path``."""
    return str(path) in MAPS.read_text()


@pytest.mark.parametrize("group", list(dp.ChannelGroup))
def test_a_hit_returns_arrays_that_own_their_data(csv_path, group):
    got, want = hit(csv_path, group), parsed(csv_path, group)
    for g, w in zip(got, want):
        assert type(g) is np.ndarray and g.base is None
        assert g.flags.owndata and g.flags.c_contiguous and g.flags.writeable
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_a_version_2_header_is_a_hit(csv_path):
    target = sidecar(csv_path)
    rows = np.load(target)
    with open(target, "wb") as fh:
        np.lib.format.write_array_header_2_0(fh, {
            **np.lib.format.header_data_from_array_1_0(rows),
            "fortran_order": True})
        fh.write(rows.T.tobytes())
    stored = target.read_bytes()
    assert stored[6:8] == b"\x02\x00"
    for group in dp.ChannelGroup:
        got, want = hit(csv_path, group), parsed(csv_path, group)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert target.read_bytes() == stored  # read, not written again


@pytest.mark.skipif(not MAPS.exists(), reason="needs /proc/self/maps")
def test_no_map_is_held_past_a_read(csv_path, monkeypatch):
    target = sidecar(csv_path)
    hit(csv_path)
    assert not mapped(target)
    # a sidecar that maps but fails a check: the miss rewrites the same
    # path, with the old file's map already dropped
    rows = np.load(target)
    rows[2, -1] = np.nan
    with open(target, "wb") as fh:
        np.save(fh, np.asfortranarray(rows))
    replaced, replace = [], dp.os.replace

    def checked(src, dst):
        replaced.append(mapped(dst))
        return replace(src, dst)

    monkeypatch.setattr(dp.os, "replace", checked)
    dp.ingest_csv(csv_path)
    assert replaced == [False] and not mapped(target)
    monkeypatch.undo()
    hit(csv_path)
