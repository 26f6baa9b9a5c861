"""The first conv multiplies exactly the rows some window reads: N * (T -
K + 1) for windows that share no row, one per distinct start for sliding
windows, in the float layer loop and in the int8 engine alike; and an
array block runs without ``np.unique``."""
from unittest import mock

import numpy as np
import pytest

from tinyhar import float_engine, int8_engine, training
from tinyhar.datapipe import Windows
from tinyhar.model_ir import CONV_KERNEL, build_mc_cnn
from tinyhar.quantizer import calibrate, quantize_model

STEPS, CHANNELS = 24, 5  # the sweep's window length; few channels
READ = STEPS - CONV_KERNEL + 1  # conv rows each window reads


def windows(count, stride, seed=0):
    """``count`` windows at ``stride`` over one session."""
    frames = np.random.default_rng(seed).normal(
        size=((count - 1) * stride + STEPS, CHANNELS))
    frames.flags.writeable = False
    zeros = np.zeros(count, dtype=np.int64)
    return Windows(frames, np.arange(count) * stride, zeros, zeros, zeros,
                   STEPS)


@pytest.fixture(scope="module")
def models():
    graph = build_mc_cnn(CHANNELS, STEPS, 8, dense_width=6, seed=1)
    return graph, quantize_model(graph, windows(20, 7).x)


class _Counted(np.ndarray):
    """A conv matrix that records the rows of each product it takes part
    in, and computes the product as a plain array would."""

    rows: list

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.rows.append(int(np.prod(inputs[0].shape[:-1])))
        return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)


def float_rows(graph, run) -> int:
    """Rows the first conv of ``graph`` multiplies over all of ``run()``'s
    ``float_engine.layer_outputs`` calls."""
    seen, conv_matrix = [], float_engine.conv_matrix
    first = graph.params[0]["w"].shape

    def counted(w):
        matrix = conv_matrix(w)
        if w.shape != first:
            return matrix
        matrix = matrix.view(_Counted)
        matrix.rows = seen
        return matrix

    with mock.patch.object(float_engine, "conv_matrix", counted):
        run()
    return sum(seen)


def int8_rows(qmodel, x) -> int:
    """Rows the first conv of ``qmodel`` accumulates over ``run_quantized``
    of ``x``."""
    seen, accumulate = [], int8_engine._accumulate
    first = qmodel.layers[0].packed

    def counted(cols, packed):
        if packed is first:
            seen.append(int(np.prod(cols.shape[:-1])))
        return accumulate(cols, packed)

    with mock.patch.object(int8_engine, "_accumulate", counted):
        int8_engine.run_quantized(qmodel, x)
    return sum(seen)


# (windows, stride, first-conv rows): at a stride of at least T no row is
# shared, so 38 * 22 for the sweep's 38-window eval at stride 48 and
# 32 * 22 for its calibration; at stride 1, each block of 256 windows
# reads 256 + 21 rows, and deploy's 1,777-window eval reads 6 * 277 + 262
CASES = [(38, 48, 836), (32, 48, 704), (38, STEPS, 836), (1777, 1, 1924)]


class TestFirstConvRows:
    @pytest.mark.parametrize("count, stride, rows", CASES)
    def test_windows_multiply_the_rows_they_read(self, models, count,
                                                 stride, rows):
        graph, qmodel = models
        shared = windows(count, stride)
        assert float_rows(
            graph, lambda: training.predict_proba(graph, shared)) == rows
        assert float_rows(graph, lambda: calibrate(graph, shared)) == rows
        assert int8_rows(qmodel, shared) == rows

    @pytest.mark.parametrize("count", [1, 38, 300])
    def test_an_array_multiplies_n_times_t_minus_k_plus_1(self, models,
                                                          count):
        graph, qmodel = models
        x = windows(count, STEPS + 3).x
        assert float_rows(
            graph, lambda: training.predict_proba(graph, x)) == count * READ
        assert float_rows(
            graph, lambda: float_engine.forward(graph, x)) == count * READ
        assert int8_rows(qmodel, x) == count * READ


def test_an_array_block_never_calls_unique(models):
    graph, qmodel = models
    x = windows(40, 3).x
    want = (training.predict_proba(graph, x), calibrate(graph, x),
            int8_engine.run_quantized(qmodel, x)[0])
    with mock.patch.object(np, "unique",
                           side_effect=AssertionError("np.unique called")):
        got = (training.predict_proba(graph, x), calibrate(graph, x),
               int8_engine.run_quantized(qmodel, x)[0])
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]
    assert got[2].tobytes() == want[2].tobytes()
