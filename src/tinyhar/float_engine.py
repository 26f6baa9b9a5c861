"""Float reference executor.

Layer-by-layer evaluation of a ``ModelGraph``, the numeric oracle for the
int8 engine. Like the int8 kernels, each kernel takes leading batch axes
and trusts the shapes the graph checked when it was built.
Every matrix product runs one GEMV per row: a GEMM sums in another order
and differs in the last bits, so only GEMV rows give each window the same
result, bit for bit, in any batch. The trainer in :mod:`tinyhar.training`
keeps its own GEMM kernels.
"""
from __future__ import annotations

import numpy as np

from .model_ir import LayerKind, ModelGraph, window_batch


def _rowwise_matmul(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``v @ w`` for (..., D) rows, one GEMV per row."""
    return (v[..., None, :] @ w)[..., 0, :]


def im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    """The (..., T - kernel + 1, kernel * C) float64 rows of a valid conv
    over a (..., T, C) input, row t holding steps t..t + kernel - 1 in
    (kernel, channel) order: a contiguous run, so one view copied once."""
    x = np.ascontiguousarray(x)
    steps, channels = x.shape[-2:]
    shape = x.shape[:-2] + (steps - kernel + 1, kernel * channels)
    rows = np.ndarray(shape, x.dtype, buffer=x, strides=x.strides)
    return rows.astype(np.float64, order="C")


def col2im(cols: np.ndarray, steps: int) -> np.ndarray:
    """The adjoint of :func:`im2col`: sums each row entry back onto the
    (..., steps, C) input step it was read from."""
    out_steps = cols.shape[-2]
    taps = cols.reshape(cols.shape[:-1] + (steps - out_steps + 1, -1))
    x = np.zeros(cols.shape[:-2] + (steps, taps.shape[-1]))
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
    """Valid (unpadded) 1D convolution.

    x: (..., time_steps, in_channels); w: (in_channels, kernel, out_filters);
    b: (out_filters,). Output: (..., time_steps - kernel + 1, out_filters).
    """
    kernel = w.shape[1]
    lead = x.shape[:-2]
    out_steps = x.shape[-2] - kernel + 1
    w2 = conv_matrix(w)
    out = np.empty(lead + (out_steps, w.shape[2]), dtype=np.result_type(x, w))
    # The one conv loop left: one product over im2col(x, kernel) runs about
    # as fast as the int8 engine on one window, and acceptance criterion 4
    # needs int8 faster on the host (ROADMAP item 4).
    for t in range(out_steps):
        out[..., t, :] = _rowwise_matmul(
            x[..., t:t + kernel, :].reshape(lead + (-1,)), w2)
    return out + b


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


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
    return _rowwise_matmul(v, w) + b


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
    output) order. h_0 = c_0 = 0. The input projection of all T steps is
    one stacked GEMV call, and each step makes one ``sigmoid`` call on the
    whole gate vector; both are bit-identical to per-step, per-gate calls,
    since a GEMV row and an elementwise function do not depend on their
    neighbours.
    """
    hidden = w_h.shape[0]
    x_proj = _rowwise_matmul(seq, w_x)
    h = np.zeros(seq.shape[:-2] + (hidden,))
    c = np.zeros(seq.shape[:-2] + (hidden,))
    out = np.empty(seq.shape[:-1] + (hidden,))
    for t in range(seq.shape[-2]):
        gates = x_proj[..., t, :] + _rowwise_matmul(h, w_h) + b
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


def _apply_layer(spec, layer_params, value):
    kind = spec.kind
    if kind == LayerKind.CONV1D:
        return conv1d_forward(value, layer_params["w"], layer_params["b"])
    if kind == LayerKind.RELU:
        return relu(value)
    if kind == LayerKind.DROPOUT:
        return value  # identity at inference
    if kind == LayerKind.AVGPOOL1D:
        return avg_pool1d(value, spec.pool)
    if kind == LayerKind.FLATTEN:
        return value.reshape(len(value), -1)
    if kind == LayerKind.DENSE:
        v = value[:, -1] if value.ndim == 3 else value
        return dense_forward(v, layer_params["w"], layer_params["b"])
    if kind == LayerKind.LSTM:
        return lstm_forward(value, layer_params["w_x"], layer_params["w_h"],
                            layer_params["b"])
    return softmax(value)  # LayerKind.SOFTMAX


def _activations(graph: ModelGraph, x: np.ndarray) -> list[np.ndarray]:
    batch, single = window_batch(x, graph.input_shape)
    acts = [batch]
    for spec, layer_params in zip(graph.layers, graph.params):
        acts.append(_apply_layer(spec, layer_params, acts[-1]))
    return [a[0] for a in acts] if single else acts


def forward(graph: ModelGraph, x: np.ndarray) -> np.ndarray:
    """Class probabilities of one (T, C) window, or (N, K) of an (N, T, C)
    batch. Bad input raises the errors of ``model_ir.window_batch``."""
    return _activations(graph, x)[-1]


def forward_collect(graph: ModelGraph, x: np.ndarray) -> list[np.ndarray]:
    """Like :func:`forward`, but returns [input, out_0, out_1, ...] for
    activation-range calibration."""
    return _activations(graph, x)
