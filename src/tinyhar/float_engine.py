"""Float executor: the one float layer loop, and the float reference.

:func:`layer_outputs` runs a ``ModelGraph`` over a batch of windows, for
the float reference (:func:`forward`, :func:`forward_collect`: the int8
engine's oracle and calibration) and for :mod:`tinyhar.training`, with its
own parameters, dropout and backward caches. Each kernel takes leading
batch axes and trusts the shapes the graph checked when it was built.
The loop computes in the dtype of its operands: the reference feeds
float64 frames and ``float64_params``, so it runs in float64, and the
trainer feeds float32 windows and parameters, so it runs in float32.
The input is a ``model_ir.FrameBlock``, or a batch: its windows stacked.
A conv multiplies the :func:`window_rows` of its input, the rows some
window reads, each once, by :func:`conv_matrix`: one contiguous copy of
the read-only row view :func:`rows`, which the int8 engine copies to
float32.
Conv and dense products are GEMMs, whose summation order can depend on
their shape, so a window's bits can depend on its batch; only the LSTM
runs one GEMV per row, so that the int8 engine's hybrid LSTM gives a
window the same bits in any batch.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .model_ir import LayerKind, ModelGraph, window_batch


def rows(x: np.ndarray, kernel: int) -> np.ndarray:
    """The (..., T - kernel + 1, kernel * C) rows of a valid conv over a
    (..., T, C) input, row t holding steps t..t + kernel - 1 in (kernel,
    channel) order: a contiguous run of the input, so the rows are a
    read-only view in the input's dtype, and no row matrix is built."""
    x = np.ascontiguousarray(x)
    steps, channels = x.shape[-2:]
    shape = x.shape[:-2] + (max(steps - kernel + 1, 0), kernel * channels)
    return np.lib.stride_tricks.as_strided(x, shape, x.strides,
                                           writeable=False)


def im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    """:func:`rows` copied once to a C-contiguous float64 array."""
    return rows(x, kernel).astype(np.float64, order="C")


def window_rows(x, kernel: int = 1):
    """The :func:`rows` of a valid conv of ``kernel`` steps (1: the frames)
    that some window of ``x``, a ``model_ir.FrameBlock`` or a (..., T, C)
    batch, reads, each once, and the function that places results row by
    row as each window's rows: a gather, unless each read row belongs to
    one window, in window order (as in a batch), and so comes in place."""
    if isinstance(x, np.ndarray):
        return rows(x, kernel), lambda y: y
    reads = x.index[..., :x.index.shape[-1] - kernel + 1]
    flat = reads.ravel()
    if not (flat[1:] > flat[:-1]).all():  # rows shared, or out of order
        starts, where = np.unique(flat, return_inverse=True)
        every = rows(x.frames, kernel)
        return (every if len(starts) == len(every) else every[starts],
                lambda out: out[where.reshape(reads.shape)])
    if x.index.size == len(x.frames):  # the windows, stacked
        return window_rows(x.frames.reshape(x.shape), kernel)
    return (rows(x.frames, kernel)[flat].reshape(reads.shape + (-1,)),
            lambda y: y)


def windows(x) -> np.ndarray:
    """The (..., T, C) windows of a :func:`window_rows` input, stacked."""
    frames, place = window_rows(x)
    return place(frames)


def col2im(cols: np.ndarray, steps: int) -> np.ndarray:
    """The adjoint of :func:`im2col`: sums each row entry back onto the
    (..., steps, C) input step it was read from."""
    out_steps = cols.shape[-2]
    taps = cols.reshape(cols.shape[:-1] + (steps - out_steps + 1, -1))
    x = np.zeros(cols.shape[:-2] + (steps, taps.shape[-1]), cols.dtype)
    for k in range(taps.shape[-2]):
        x[..., k:k + out_steps, :] += taps[..., k, :]
    return x


def conv_matrix(w: np.ndarray) -> np.ndarray:
    """(C, K, F) conv weights as a (K * C, F) matrix in im2col row order."""
    return w.transpose(1, 0, 2).reshape(-1, w.shape[2])


def conv_weights(matrix: np.ndarray, channels: int) -> np.ndarray:
    """The inverse of :func:`conv_matrix`: (K * C, F) back to (C, K, F)."""
    return matrix.reshape(-1, channels, matrix.shape[1]).transpose(1, 0, 2)


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid (unpadded) 1D convolution, one float64 GEMM per window, as
    :func:`layer_outputs` runs every conv but the first.
    x: (..., time_steps, in_channels); w: (in_channels, kernel, out_filters);
    b: (out_filters,). Output: (..., time_steps - kernel + 1, out_filters).
    """
    return im2col(x, w.shape[1]) @ conv_matrix(w) + b


def relu(x: np.ndarray) -> np.ndarray:
    """x where x > 0, else a zero (-0.0 where x < 0)."""
    return x * (x > 0)


def pool_groups(x: np.ndarray, pool: int) -> np.ndarray:
    """The (..., T // pool, pool, C) groups that non-overlapping pooling
    of a (..., T, C) input reduces along time; trailing remainder dropped."""
    steps, channels = x.shape[-2:]
    out_steps = steps // pool
    return x[..., :out_steps * pool, :].reshape(
        x.shape[:-2] + (out_steps, pool, channels))


def avg_pool1d(x: np.ndarray, pool: int) -> np.ndarray:
    return pool_groups(x, pool).mean(axis=-2)


def dense_forward(v: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return v @ w + b


def sigmoid(x: np.ndarray) -> np.ndarray:
    # branchless form of the piecewise 1 / (1 + exp(-x)) for x >= 0 and
    # exp(x) / (1 + exp(x)) below: exp(-|x|) is the same exp in both, so
    # each element gets the same expression, and exp never overflows
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def lstm_forward(seq: np.ndarray, w_x: np.ndarray, w_h: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """Standard peephole-free LSTM over the time axis (-2) of a (..., T, D)
    input; returns the full (..., T, H) hidden sequence.

    Gates are packed along the last axis in (input, forget, candidate,
    output) order. h_0 = c_0 = 0. Each product is one GEMV per row, so a
    window's bits do not depend on its batch, and the stacked GEMV of all
    T steps' input projection and one ``sigmoid`` call per step on the
    whole gate vector equal per-step, per-gate calls, bit for bit.
    """
    hidden = w_h.shape[0]
    x_proj = (seq[..., None, :] @ w_x)[..., 0, :]
    h = np.zeros(seq.shape[:-2] + (hidden,))
    c = np.zeros(seq.shape[:-2] + (hidden,))
    out = np.empty(seq.shape[:-1] + (hidden,))
    for t in range(seq.shape[-2]):
        gates = x_proj[..., t, :] + (h[..., None, :] @ w_h)[..., 0, :] + b
        act = sigmoid(gates)
        g = np.tanh(gates[..., 2 * hidden:3 * hidden])
        c = act[..., hidden:2 * hidden] * c + act[..., :hidden] * g
        h = act[..., 3 * hidden:] * np.tanh(c)
        out[..., t, :] = h
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Normalizes each row (last axis) of ``logits``."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def layer_outputs(graph: ModelGraph, params, x, *,
                  rng: np.random.Generator | None = None,
                  keep=None) -> Iterator[np.ndarray]:
    """Yields each layer's output in turn, for ``x`` a ``model_ir.FrameBlock``
    or a float (N, T, C) batch and ``params`` in the place of
    ``graph.params``. Each conv multiplies its input's :func:`window_rows`,
    the first in one GEMM; a graph that does not open with a conv stacks
    its windows. Dropout runs only given ``rng``. ``keep``, given, is
    called with each layer's cache for the trainer's backward pass, before
    the layer's output is yielded."""
    keep = keep or (lambda _: None)
    value = x if graph.layers[0].kind == LayerKind.CONV1D else windows(x)
    for idx, (spec, layer_params) in enumerate(zip(graph.layers, params)):
        kind = spec.kind
        if kind == LayerKind.CONV1D:
            w2 = conv_matrix(layer_params["w"])
            cols, place = window_rows(value, spec.kernel)
            cols = np.ascontiguousarray(cols)
            keep(("conv", cols, w2, value.shape))
            # One GEMM for all rows where its bits match one per window:
            # not so for N2's conv 1, (20, 768) @ (768, 64), from N = 2.
            lhs = cols.reshape(-1, cols.shape[-1]) if idx == 0 else cols
            value = place((lhs @ w2).reshape(cols.shape[:-1] + w2.shape[1:])
                          + layer_params["b"])
        elif kind == LayerKind.RELU:
            value = relu(value)
            keep(("relu", value))
        elif kind == LayerKind.DROPOUT:
            if rng is not None and spec.rate > 0.0:
                mask = rng.random(value.shape) >= spec.rate
                scale = 1.0 / (1.0 - spec.rate)
                keep(("dropout", mask, scale))
                value = value * mask * scale
            else:
                keep(("identity",))
        elif kind == LayerKind.AVGPOOL1D:
            keep(("pool", value.shape, spec.pool))
            value = avg_pool1d(value, spec.pool)
        elif kind == LayerKind.FLATTEN:
            keep(("flatten", value.shape))
            value = value.reshape(len(value), np.prod(value.shape[1:]))
        elif kind == LayerKind.DENSE:
            in_shape = value.shape
            if value.ndim == 3:  # fed a sequence: read the last time step
                value = value[:, -1]
            keep(("dense", value, in_shape))
            value = dense_forward(value, layer_params["w"], layer_params["b"])
        elif kind == LayerKind.LSTM:
            value = lstm_forward(value, layer_params["w_x"],
                                 layer_params["w_h"], layer_params["b"])
        else:  # LayerKind.SOFTMAX
            value = softmax(value)
        yield value


def forward(graph: ModelGraph, x: np.ndarray) -> np.ndarray:
    """Class probabilities of one (T, C) window, or (N, K) of an (N, T, C)
    batch. Bad input raises the errors of ``model_ir.window_batch``."""
    batch, single = window_batch(x, graph.input_shape)
    for probs in layer_outputs(graph, graph.float64_params, batch):
        pass  # each activation is freed once the next one is made
    return probs[0] if single else probs


def forward_collect(graph: ModelGraph, x) -> list[np.ndarray]:
    """Like :func:`forward`, but returns [input, out_0, out_1, ...] for
    activation-range calibration. ``x`` may also be a ``model_ir.FrameBlock``
    that ``map_blocks`` checked; its input is its :func:`windows`."""
    x, single = (window_batch(x, graph.input_shape)
                 if isinstance(x, np.ndarray) else (x, False))
    acts = [windows(x), *layer_outputs(graph, graph.float64_params, x)]
    return [a[0] for a in acts] if single else acts
