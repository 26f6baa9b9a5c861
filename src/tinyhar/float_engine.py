"""Float executor: the one float layer loop, and the float reference.

:func:`layer_outputs` runs a ``ModelGraph`` over a batch of windows, for
the float reference (:func:`forward`, :func:`forward_collect`: the int8
engine's oracle and calibration) and for :mod:`tinyhar.training`, with its
own parameters, dropout and backward caches. Each kernel takes leading
batch axes and trusts the shapes the graph checked when it was built.
The loop computes in the dtype of its operands: the reference feeds
float64 frames and ``float64_params``, so it runs in float64, and the
trainer feeds float32 windows and parameters, so it runs in float32.
The input is a ``model_ir.FrameBlock``, or a batch, made its
``model_ir.batch_block`` at a conv. As in the int8 engine, every conv
and ReLU keeps the block: a conv multiplies its :func:`window_rows`, the
rows some window reads, each once, by :func:`conv_matrix`, and yields a
block of its output rows; the loop places the windows (:func:`windows`)
once, at the first layer that reads a window whole. The rows are one
contiguous copy of the read-only row view :func:`rows`, in the loop's
dtype; the int8 engine copies them to float32.
Conv and dense products are GEMMs, whose summation order can depend on
their shape, so a window's bits can depend on its batch. The first conv
multiplies all its rows in one GEMM; a later conv multiplies them by
:func:`conv_product` in GEMMs of one window's rows each, the shape of
that window's own product, so a row that windows share keeps the bits
their own GEMMs give it. The one LSTM kernel, :func:`lstm_forward`, runs
both engines' LSTMs, in the dtype of its :func:`pack_lstm_gates` weights:
float64 in the reference (``float64_params``), float32 in the int8
engine's hybrid LSTM. Its input projection is one GEMM per window and its
recurrent product one GEMV per row per step, so a window gets the same
bits in any batch.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model_ir import (FrameBlock, LayerKind, ModelGraph, batch_block,
                       window_batch)

# the layers that map each row of a window on its own, and so keep a block
ROW_WISE = (LayerKind.CONV1D, LayerKind.RELU, LayerKind.DROPOUT)


def rows(x: np.ndarray, kernel: int) -> np.ndarray:
    """The (..., T - kernel + 1, kernel * C) rows of a valid conv over a
    (..., T, C) input, row t holding steps t..t + kernel - 1 in (kernel,
    channel) order: a contiguous run of the input, so the rows are a
    read-only view in the input's dtype, and no row matrix is built."""
    x = np.ascontiguousarray(x)
    steps, channels = x.shape[-2:]
    shape = x.shape[:-2] + (max(steps - kernel + 1, 0), kernel * channels)
    # the ndarray constructor, not as_strided, which costs about 5 us more
    # a call on a 2-core Xeon: as much as a small conv's GEMM
    view = np.ndarray(shape, x.dtype, x, 0, x.strides)
    view.flags.writeable = False
    return view


def window_rows(x: FrameBlock, kernel: int) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`rows` of a valid conv of ``kernel`` steps over the block
    ``x`` that some window reads, each once, and the (N, T - kernel + 1)
    index of the row each window step reads among them: the conv's output
    rows and that index are again a block, whose windows' rows stay
    consecutive. A stacked block's rows are each window's own, (N, T -
    kernel + 1, kernel * C), a view; others are in frame order, a view if
    every row is read, else a copy of the read ones."""
    if x.stacked:
        cols = rows(x.frames.reshape(x.shape), kernel)
        return cols, np.arange(cols.shape[0] * cols.shape[1]).reshape(
            cols.shape[:2])
    reads = x.index[:, :x.index.shape[1] - kernel + 1]
    every = rows(x.frames, kernel)
    read = np.zeros(len(every), bool)
    read[reads] = True
    if read.all():
        return every, reads
    return every[read], (np.cumsum(read) - 1)[reads]


def windows(x) -> np.ndarray:
    """The (N, T, C) windows of a ``model_ir.FrameBlock``, stacked: a view
    of a stacked block's frames, else gathered by its index. A batch is its
    own windows."""
    if isinstance(x, np.ndarray):
        return x
    return x.frames.reshape(x.shape) if x.stacked else x.frames[x.index]


def col2im(cols: np.ndarray, steps: int) -> np.ndarray:
    """The adjoint of :func:`rows`: sums each row entry back onto the
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


def conv_product(cols: np.ndarray, w2: np.ndarray, steps: int) -> np.ndarray:
    """The (R, F) product of (R, K * C) conv rows and a (K * C, F)
    :func:`conv_matrix` in GEMMs of ``steps`` rows each (0 < steps <= R,
    or R = 0): the rows in groups of ``steps``, the last group the last
    ``steps`` rows, so it may overlap the one before it. A GEMM's
    summation order can follow its row count, so given one window's count
    of rows, each GEMM has the shape of that window's own product, and a
    row gets the bits the windows' own products give it wherever they
    agree. (Of the shapes probed with OpenBLAS 0.3.31 on a Xeon, only
    those of at most 3 columns, 6 in float32, give a row bits that follow
    its place in the GEMM, mostly at row counts not a multiple of 4.) A
    batch's or stacked block's rows, window by window, are its groups, a
    view, so it makes the windows' own GEMMs."""
    count, depth = cols.shape
    whole = count - count % steps
    out = np.empty((count, w2.shape[1]), np.result_type(cols, w2))
    np.matmul(cols[:whole].reshape(-1, steps, depth), w2,
              out=out[:whole].reshape(-1, steps, w2.shape[1]))
    if whole < count:
        np.matmul(cols[count - steps:], w2, out=out[count - steps:])
    return out


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


@dataclass(frozen=True)
class PackedLSTM:
    """An LSTM layer's weights and bias in the gate layout
    :func:`lstm_forward` multiplies, built by :func:`pack_lstm_gates`."""

    w_x: np.ndarray  # (D, 4H)
    w_h: np.ndarray  # (H, 4H)
    b: np.ndarray    # (4H,)


def pack_lstm_gates(w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray,
                    dtype=np.float64) -> PackedLSTM:
    """Packs float LSTM weights and bias, gates in (input, forget,
    candidate, output) order, for :func:`lstm_forward` in ``dtype``: the
    gates reordered to (input, forget, output | candidate), and the three
    sigmoid gates' columns halved in float64, which is exact, so that
    sigmoid(x) = 0.5 + 0.5 * tanh(x / 2) takes the same ``tanh`` as the
    candidate; then cast to ``dtype``."""
    hidden = w_h.shape[0]
    gate = np.arange(4 * hidden).reshape(4, hidden)
    order = gate[[0, 1, 3, 2]].ravel()
    half = np.repeat([0.5, 0.5, 0.5, 1.0], hidden)

    def pack(a):
        return np.ascontiguousarray(
            (np.asarray(a, np.float64)[..., order] * half).astype(dtype))

    return PackedLSTM(pack(w_x), pack(w_h), pack(b))


def lstm_forward(seq: np.ndarray, packed: PackedLSTM) -> np.ndarray:
    """Standard peephole-free LSTM over the time axis (-2) of a (..., T, D)
    input, in the dtype of ``packed``'s weights; returns the full (..., T,
    H) hidden sequence. h_0 = c_0 = 0.

    The input projection plus bias is one GEMM per window
    (:func:`conv_product`), and the recurrent product one GEMV per row per
    step, so a window's bits do not depend on its batch. One ``tanh`` over
    the 4H packed gates z gives each sigmoid gate as 0.5 + 0.5 * z and the
    candidate as z.
    """
    w_h = packed.w_h
    dtype, hidden = w_h.dtype, w_h.shape[0]
    steps = seq.shape[-2]
    flat = np.ascontiguousarray(seq, dtype).reshape(-1, seq.shape[-1])
    x_proj = conv_product(flat, packed.w_x, steps)
    x_proj += packed.b
    x_proj = x_proj.reshape(-1, steps, 4 * hidden)
    out = np.empty(x_proj.shape[:-1] + (hidden,), dtype)
    h = np.zeros((len(out), 1, hidden), dtype)  # (rows, 1, H): a GEMV each
    c = np.zeros((len(out), hidden), dtype)
    z = np.empty((len(out), 1, 4 * hidden), dtype)
    tmp = np.empty_like(c)
    gates = z[:, 0]
    sig, cand = gates[:, :3 * hidden], gates[:, 3 * hidden:]
    i, f, o = (sig[:, k * hidden:(k + 1) * hidden] for k in range(3))
    for t in range(steps):
        np.matmul(h, w_h, out=z)
        gates += x_proj[:, t]
        np.tanh(gates, out=gates)
        sig *= 0.5
        sig += 0.5
        c *= f
        np.multiply(i, cand, out=tmp)
        c += tmp
        np.tanh(c, out=tmp)
        np.multiply(o, tmp, out=out[:, t])
        h = out[:, t:t + 1]
    return out.reshape(seq.shape[:-1] + (hidden,))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Normalizes each row (last axis) of ``logits``."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def layer_outputs(graph: ModelGraph, params, x, *,
                  rng: np.random.Generator | None = None,
                  keep=None) -> Iterator:
    """Yields each layer's output in turn, for ``x`` a ``model_ir.FrameBlock``
    or a float (N, T, C) batch and ``params`` in the place of
    ``graph.params``. Every conv multiplies its :func:`window_rows`, the
    first in one GEMM, a later one by :func:`conv_product` in GEMMs of one
    window's rows, and yields a block of its output rows, as does a ReLU
    of a block, once per row; the loop places the windows
    (:func:`windows`) at the first layer that reads a window whole, or at
    a dropout that masks. Dropout runs only given ``rng``. ``keep``,
    given, is called with each layer's cache for the trainer's backward
    pass, before the layer's output is yielded."""
    keep = keep or (lambda _: None)
    value = x
    for idx, (spec, layer_params) in enumerate(zip(graph.layers, params)):
        kind = spec.kind
        if kind not in ROW_WISE:
            value = windows(value)  # reads a window whole
        if kind == LayerKind.CONV1D:
            if isinstance(value, np.ndarray):
                value = batch_block(value)
            w2 = conv_matrix(layer_params["w"])
            cols, index = window_rows(value, spec.kernel)
            cols = np.ascontiguousarray(cols)
            keep(("conv", cols, w2, value.shape))
            # the first conv's one GEMM over all rows gives each row the
            # bits one per window gives it; a later conv's would not
            # (N2's conv 1, (768, 64) weights, from N = 2)
            cols = cols.reshape(-1, cols.shape[-1])
            steps = (len(cols) or 1) if idx == 0 else index.shape[1]
            value = FrameBlock(conv_product(cols, w2, steps)
                               + layer_params["b"], index)
        elif kind == LayerKind.RELU:
            value = (FrameBlock(relu(value.frames), value.index)
                     if isinstance(value, FrameBlock) else relu(value))
            keep(("relu", value))
        elif kind == LayerKind.DROPOUT:
            if rng is not None and spec.rate > 0.0:
                value = windows(value)  # so that no shared row is masked
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
            value = lstm_forward(value, layer_params)
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
    that ``map_blocks`` checked; its input, and each block a layer yields,
    is returned as its :func:`windows`."""
    x, single = (window_batch(x, graph.input_shape)
                 if isinstance(x, np.ndarray) else (x, False))
    acts = [windows(x)] + [windows(a) for a in
                           layer_outputs(graph, graph.float64_params, x)]
    return [a[0] for a in acts] if single else acts
