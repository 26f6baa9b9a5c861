"""Every float conv keeps a ``model_ir.FrameBlock``: a later conv multiplies
each distinct row once, by ``float_engine.conv_product`` in GEMMs of one
window's rows, so a row keeps the bits of its windows' own products."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tinyhar import float_engine, model_ir, training
from tinyhar.datapipe import Windows
from tinyhar.model_ir import CONV_KERNEL, build_mc_cnn

# (K * C, F) of later convs: mc_cnn's second conv at N1, N2 and N3 and
# deep_conv_lstm's at N3, whose rows OpenBLAS gives the same bits at every
# place in a GEMM; and the second conv of the tests' small mc_cnn, whose
# rows it need not (at most 3 columns, 6 in float32)
SHAPES = [(384, 32), (768, 64), (1200, 100), (300, 100)]
NARROW = (24, 2)


def per_window(rows, w, starts, steps):
    """Each window's own (steps, K) @ (K, F) product, stacked (N, steps, F):
    the GEMM each window ran on its own."""
    return np.stack([rows[s:s + steps] for s in starts]) @ w


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(SHAPES + [NARROW]),
       dtype=st.sampled_from([np.float64, np.float32]),
       steps=st.integers(1, 24), count=st.integers(1, 48),
       stride=st.integers(1, 24), seed=st.integers(0, 2**16))
@example(shape=(768, 64), dtype=np.float64, steps=20, count=64, stride=20,
         seed=0)  # stacked windows: the groups divide the rows
@example(shape=(768, 64), dtype=np.float64, steps=20, count=64, stride=1,
         seed=0)  # sliding windows: the last group overlaps
@example(shape=NARROW, dtype=np.float64, steps=5, count=9, stride=5,
         seed=1)  # stacked, at a row count where a row's place matters
def test_grouped_product_equals_each_windows_own(shape, dtype, steps, count,
                                                 stride, seed):
    """The grouped product equals every window's own product bit for bit:
    always for windows that share no row, as in a batch, and for windows
    that overlap at the shapes whose rows keep their bits at every place
    in a GEMM. At a narrow shape a row's bits can follow its place, so the
    windows' own products disagree on a shared row and no product that
    makes each row once can match them all."""
    stride = min(stride, steps)  # every row is read by some window
    if shape == NARROW:
        stride = steps
    rng = np.random.default_rng(seed)
    starts = np.arange(count) * stride
    rows = rng.normal(size=(starts[-1] + steps, shape[0])).astype(dtype)
    w = rng.normal(size=shape).astype(dtype)
    got = float_engine.conv_product(rows, w, steps)
    want = per_window(rows, w, starts, steps)
    assert got.dtype == want.dtype and got.shape == (len(rows), shape[1])
    assert got[starts[:, None] + np.arange(steps)].tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_no_rows(dtype):
    w = np.ones((24, 2), dtype)
    got = float_engine.conv_product(np.empty((0, 24), dtype), w, 8)
    assert got.shape == (0, 2) and got.dtype == dtype


STEPS, CHANNELS = 24, 5  # the sweep's window length; few channels
OUT = STEPS - CONV_KERNEL + 1  # first-conv rows a window reads
LATER = OUT - CONV_KERNEL + 1  # second-conv rows a window reads


def sliding(count, channels=CHANNELS, seed=0):
    frames = np.random.default_rng(seed).normal(
        size=(count - 1 + STEPS, channels))
    frames.flags.writeable = False
    zeros = np.zeros(count, dtype=np.int64)
    return Windows(frames, np.arange(count), zeros, zeros, zeros, STEPS)


class _Counted(np.ndarray):
    """A conv matrix that records the rows of each product it takes part
    in, and computes it as a plain array would."""

    rows: list

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.rows.append(int(np.prod(inputs[0].shape[:-1])))
        inputs = [np.asarray(a) for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_each_conv_reads_each_distinct_row_once():
    """Stride 1, 300 windows: blocks of 256 and 44 windows. Each block
    calls ``window_rows`` once per conv, and the second conv's GEMMs take
    at most R + T' - 1 rows for its R distinct rows, not N * T'."""
    graph = build_mc_cnn(CHANNELS, STEPS, 8, dense_width=6, seed=1)
    second = graph.params[2]["w"].shape
    calls, gemm_rows = [], []
    window_rows = float_engine.window_rows
    conv_matrix = float_engine.conv_matrix

    def spy(block, kernel):
        cols, index = window_rows(block, kernel)
        calls.append((index.shape, int(np.prod(cols.shape[:-1]))))
        return cols, index

    def counted(w):
        matrix = conv_matrix(w)
        if w.shape != second:
            return matrix
        matrix = matrix.view(_Counted)
        matrix.rows = gemm_rows
        return matrix

    with mock.patch.object(float_engine, "window_rows", spy), \
            mock.patch.object(float_engine, "conv_matrix", counted):
        training.predict_proba(graph, sliding(300))
    blocks = [model_ir.BLOCK_WINDOWS, 300 - model_ir.BLOCK_WINDOWS]
    # per block: (first conv's index, rows), then the second conv's
    assert calls == [call for n in blocks for call in
                     (((n, OUT), n + OUT - 1), ((n, LATER), n + LATER - 1))]
    # each block's second conv: whole groups, then one overlapping group
    per_block = [(n + LATER - 1) // LATER * LATER + LATER for n in blocks]
    assert gemm_rows == [r for rows in per_block for r in (rows - LATER,
                                                          LATER)]
    for n, rows in zip(blocks, per_block):
        assert rows <= (n + LATER - 1) + LATER - 1 < n * LATER


def test_stride_1_windows_equal_their_stacked_array_at_deploy_shape():
    """Deploy's float model: 23 channels, 128 first filters, 24 steps."""
    graph = build_mc_cnn(23, STEPS, 128, seed=5)
    windows = sliding(80, channels=23, seed=3)
    shared = training.predict_proba(graph, windows)
    assert shared.tobytes() == training.predict_proba(graph,
                                                      windows.x).tobytes()
