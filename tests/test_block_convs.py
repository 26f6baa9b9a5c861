"""Every int8 conv and ReLU runs on a ``model_ir.FrameBlock``: each conv
multiplies only the distinct rows its block's windows read, and every
window's output and saturation counts equal those of its own N = 1 call."""
from functools import lru_cache
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyhar import int8_engine, model_ir
from tinyhar.datapipe import Windows
from tinyhar.model_ir import CONV_KERNEL, build_deep_conv_lstm, build_mc_cnn
from tinyhar.quantizer import quantize_model

STEPS, CHANNELS = 12, 4


def session_windows(lengths, stride, seed=0):
    """Windows of STEPS frames at ``stride`` over back-to-back sessions of
    the given lengths; none spans two sessions."""
    frames = np.random.default_rng(seed).normal(size=(sum(lengths),
                                                      CHANNELS))
    frames.flags.writeable = False
    starts, offset = [], 0
    for length in lengths:
        starts.append(np.arange(0, length - STEPS + 1, stride) + offset)
        offset += length
    start = np.concatenate(starts)
    zeros = np.zeros(len(start), dtype=np.int64)
    return Windows(frames, start, zeros, zeros, zeros, STEPS)


@lru_cache
def quantized(arch: str):
    graph = (build_mc_cnn(CHANNELS, STEPS, 8, dense_width=6, seed=3)
             if arch == "mc_cnn" else
             build_deep_conv_lstm(CHANNELS, STEPS, 4, hidden=5, seed=4))
    return quantize_model(graph, session_windows([40], 5, seed=9).x)


def conv_rows(qmodel, x) -> list[int]:
    """Rows each conv of ``qmodel`` accumulates over ``run_quantized`` of
    ``x``, in layer order."""
    convs = [ql.packed for ql in qmodel.layers
             if ql.spec.kind == model_ir.LayerKind.CONV1D]
    seen, accumulate = [0] * len(convs), int8_engine._accumulate

    def counted(cols, packed):
        for i, conv in enumerate(convs):
            if packed is conv:
                seen[i] += int(np.prod(cols.shape[:-1]))
        return accumulate(cols, packed)

    with mock.patch.object(int8_engine, "_accumulate", counted):
        int8_engine.run_quantized(qmodel, x)
    return seen


def distinct_rows(windows, convs) -> list[int]:
    """Oracle: per conv, the distinct frame positions at which some window
    of a block starts a row of that conv, summed over the blocks."""
    counts = [0] * convs
    for first in range(0, len(windows), model_ir.BLOCK_WINDOWS):
        start = windows.start[first:first + model_ir.BLOCK_WINDOWS]
        for j in range(convs):
            steps = STEPS - (j + 1) * (CONV_KERNEL - 1)
            counts[j] += len({int(s) + t for s in start
                              for t in range(steps)})
    return counts


class TestEveryConvMultipliesDistinctRows:
    def test_stride_one(self):
        # three blocks of 256 sliding windows and one of 232, in one session
        windows = session_windows([1011], 1)
        for arch, convs in (("mc_cnn", 2), ("deep_conv_lstm", 4)):
            got = conv_rows(quantized(arch), windows)
            want = distinct_rows(windows, convs)
            assert got == want
            # each block of n windows: n + T - 1 - (j + 1) * (K - 1) rows
            assert want[-1] == len(windows) + 4 * (
                STEPS - 1 - convs * (CONV_KERNEL - 1))

    def test_sessions_and_strides(self):
        for stride in (2, 3, STEPS - 1, STEPS, STEPS + 5):
            windows = session_windows([70, 33, 51], stride)
            for arch, convs in (("mc_cnn", 2), ("deep_conv_lstm", 4)):
                assert conv_rows(quantized(arch), windows) == \
                    distinct_rows(windows, convs)

    def test_an_array_multiplies_every_window_row(self):
        x = session_windows([60], 1).x
        for arch, convs in (("mc_cnn", 2), ("deep_conv_lstm", 4)):
            assert conv_rows(quantized(arch), x) == [
                len(x) * (STEPS - (j + 1) * (CONV_KERNEL - 1))
                for j in range(convs)]


@settings(max_examples=30, deadline=None)
@given(arch=st.sampled_from(["mc_cnn", "deep_conv_lstm"]),
       stride=st.integers(1, 30),
       lengths=st.lists(st.integers(STEPS, 70), min_size=1, max_size=3),
       block=st.sampled_from([3, 16, model_ir.BLOCK_WINDOWS]),
       shuffle=st.booleans(), seed=st.integers(0, 2**16))
def test_windows_equal_their_one_window_calls(arch, stride, lengths, block,
                                              shuffle, seed):
    qmodel = quantized(arch)
    windows = session_windows(lengths, stride, seed)
    if shuffle:
        windows = windows[np.random.default_rng(seed).permutation(
            len(windows))]
    audit = int8_engine.SaturationAudit()
    with mock.patch.object(model_ir, "BLOCK_WINDOWS", block):
        probs, classes = int8_engine.run_quantized(qmodel, windows, audit)
    summed = int8_engine.SaturationAudit()
    for i, sample in enumerate(windows):
        one = int8_engine.SaturationAudit()
        want_probs, want_class = int8_engine.run_quantized(
            qmodel, np.asarray(sample.window), one)
        assert probs[i].tobytes() == want_probs.tobytes()
        assert classes[i] == want_class
        summed.clamped += one.clamped
        summed.total += one.total
    assert audit == summed
