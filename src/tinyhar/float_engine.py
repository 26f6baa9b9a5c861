"""Float reference executor.

Single-window, layer-by-layer evaluation of a ``ModelGraph``. This is the
numeric oracle against which the integer engine is checked; it favors a
direct transcription of each layer's definition over batching tricks
(the trainer in :mod:`tinyhar.training` has its own batched kernels).
"""
from __future__ import annotations

import numpy as np

from .model_ir import LayerKind, ModelGraph, ShapeMismatchError, check_finite


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid (unpadded) 1D convolution.

    x: (time_steps, in_channels); w: (in_channels, kernel, out_filters);
    b: (out_filters,). Output: (time_steps - kernel + 1, out_filters).
    """
    steps, channels = x.shape
    in_channels, kernel, _ = w.shape
    if channels != in_channels:
        raise ShapeMismatchError(
            f"input has {channels} channels, weights expect {in_channels}")
    if steps < kernel:
        raise ShapeMismatchError(
            f"input has {steps} steps, kernel needs {kernel}")
    out_steps = steps - kernel + 1
    # weights flattened in (kernel, channel) order to match the window rows
    w2 = np.ascontiguousarray(w.transpose(1, 0, 2)).reshape(
        kernel * in_channels, -1)
    out = np.empty((out_steps, w.shape[2]), dtype=np.result_type(x, w))
    for t in range(out_steps):
        out[t] = x[t:t + kernel].reshape(-1) @ w2
    return out + b


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def avg_pool1d(x: np.ndarray, pool: int) -> np.ndarray:
    """Non-overlapping mean pooling along time; trailing remainder dropped."""
    if x.ndim != 2:
        raise ShapeMismatchError(f"avg_pool1d needs a 2D input, got {x.shape}")
    out_steps = x.shape[0] // pool
    if out_steps < 1:
        raise ShapeMismatchError(
            f"pool {pool} exhausts {x.shape[0]} time steps")
    return x[:out_steps * pool].reshape(out_steps, pool, x.shape[1]).mean(axis=1)


def dense_forward(v: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if v.shape[0] != w.shape[0]:
        raise ShapeMismatchError(
            f"dense input width {v.shape[0]} != weight rows {w.shape[0]}")
    return v @ w + b


def sigmoid(x: np.ndarray) -> np.ndarray:
    # piecewise form avoids exp overflow for large negative inputs
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_forward(seq: np.ndarray, w_x: np.ndarray, w_h: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """Standard peephole-free LSTM; returns the full hidden sequence.

    Gates are packed along the last axis in (input, forget, candidate,
    output) order. h_0 = c_0 = 0.
    """
    hidden = w_h.shape[0]
    if seq.shape[1] != w_x.shape[0]:
        raise ShapeMismatchError(
            f"lstm input width {seq.shape[1]} != weight rows {w_x.shape[0]}")
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    out = np.empty((seq.shape[0], hidden))
    for t in range(seq.shape[0]):
        gates = seq[t] @ w_x + h @ w_h + b
        i = sigmoid(gates[:hidden])
        f = sigmoid(gates[hidden:2 * hidden])
        g = np.tanh(gates[2 * hidden:3 * hidden])
        o = sigmoid(gates[3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
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
        return value.reshape(-1)
    if kind == LayerKind.DENSE:
        v = value[-1] if value.ndim == 2 else value
        return dense_forward(v, layer_params["w"], layer_params["b"])
    if kind == LayerKind.LSTM:
        return lstm_forward(value, layer_params["w_x"], layer_params["w_h"],
                            layer_params["b"])
    if kind == LayerKind.SOFTMAX:
        return softmax(value)
    raise ShapeMismatchError(f"unknown layer kind {kind}")


def forward(graph: ModelGraph, window: np.ndarray) -> np.ndarray:
    """Full inference on one window; returns the class probability vector.
    NaN or infinite input raises ``NonFiniteInputError``."""
    if tuple(window.shape) != graph.input_shape:
        raise ShapeMismatchError(
            f"window shape {window.shape} != model input {graph.input_shape}")
    check_finite(window)
    value = window
    for spec, layer_params in zip(graph.layers, graph.params):
        value = _apply_layer(spec, layer_params, value)
    return value


def forward_collect(graph: ModelGraph, window: np.ndarray) -> list[np.ndarray]:
    """Like :func:`forward`, but returns [input, out_0, out_1, ...] for
    activation-range calibration."""
    if tuple(window.shape) != graph.input_shape:
        raise ShapeMismatchError(
            f"window shape {window.shape} != model input {graph.input_shape}")
    check_finite(window)
    acts = [window]
    value = window
    for spec, layer_params in zip(graph.layers, graph.params):
        value = _apply_layer(spec, layer_params, value)
        acts.append(value)
    return acts
