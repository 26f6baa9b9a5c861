"""Full-integer 8-bit post-training quantization.

Activation ranges are calibrated by running the float executor over a
representative dataset, one ``model_ir.map_blocks`` block per call, and
recording exact per-tensor (min, max), widened to include zero so that
real 0 is always exactly representable. Weights are quantized
symmetrically per tensor (zero point 0), activations asymmetrically. Biases
become int32 at scale s_in * s_w (``w``, or an LSTM's ``w_x``) and must
fit, and so must every conv or dense accumulator: its static bound
sum|w| * 255 + |b| per output channel stays below 2**31. Each requantizing
layer carries a fixed-point multiplier decomposition of its rescale factor.

Each ``QLayer`` also has a packed form for the int8 engine, built on first
use and never serialized (see :attr:`QLayer.packed`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import frexp, isfinite

import numpy as np

from . import float_engine
from .float_engine import PackedLSTM
from .datapipe import DatasetStats
from .model_ir import (GraphError, LayerKind, ModelGraph, check_layers,
                       check_stats, map_blocks, param_shapes)

# fixed output coding for the final softmax: probabilities in [0, 1)
SOFTMAX_SCALE = 1.0 / 256.0
SOFTMAX_ZERO_POINT = -128

DEGENERATE_SCALE = 1e-8  # substitute for zero-width calibration ranges

# float32 holds every integer of magnitude below 2**24 exactly
FLOAT32_EXACT = 2**24


class EmptyDatasetError(ValueError):
    """Representative dataset was empty."""


class NonPositiveMultiplierError(ValueError):
    """Requantization multiplier must be > 0, and finite."""


class RangeOverflowError(ValueError):
    """A calibrated activation range is wider than float64 can hold."""


class BiasOverflowError(ValueError):
    """A quantized bias does not fit in int32."""


class AccumulatorOverflowError(ValueError):
    """A layer's int32 accumulator can overflow on some int8 input."""


@dataclass(frozen=True)
class QuantParams:
    scale: float
    zero_point: int

    def __post_init__(self):
        if not (self.scale > 0 and isfinite(self.scale)):
            raise ValueError(
                f"scale must be finite and positive, got {self.scale}")
        if not -128 <= self.zero_point <= 127:
            raise ValueError(f"zero_point out of int8 range: {self.zero_point}")


@dataclass(frozen=True)
class FixedPointMultiplier:
    """Real multiplier m encoded as mantissa * 2**(exponent - 31),
    mantissa in [2**30, 2**31)."""

    mantissa: int
    exponent: int

    @property
    def value(self) -> float:
        return self.mantissa * 2.0 ** (self.exponent - 31)


def affine_params(lo: float, hi: float) -> QuantParams:
    """Asymmetric int8 parameters for an activation range (widened to 0)."""
    lo = min(lo, 0.0)
    hi = max(hi, 0.0)
    scale = (hi - lo) / 255.0
    if scale <= 0.0:  # empty range, or so narrow the division underflows
        return QuantParams(DEGENERATE_SCALE, -128)
    zero_point = int(round(-128 - lo / scale))
    zero_point = max(-128, min(127, zero_point))
    return QuantParams(scale, zero_point)


def symmetric_params(lo: float, hi: float) -> QuantParams:
    """Symmetric int8 parameters (zero point 0), used for weights."""
    bound = max(abs(lo), abs(hi))
    scale = bound / 127.0
    if scale <= 0.0:  # all-zero tensor, or subnormal underflow
        return QuantParams(DEGENERATE_SCALE, 0)
    return QuantParams(scale, 0)


def quantize_tensor(x: np.ndarray, qp: QuantParams) -> np.ndarray:
    """round(x / scale) + zero_point, saturated to int8; ties round to
    even. The float64 cast comes before the divide, and every later step
    works in place on the one float64 temporary."""
    x = np.asarray(x, dtype=np.float64)
    q = np.divide(x, qp.scale, out=np.empty(x.shape))  # an array, also 0-d
    np.rint(q, out=q)
    q += qp.zero_point
    return np.clip(q, -128, 127, out=q).astype(np.int8)


def dequantize(q: np.ndarray, qp: QuantParams) -> np.ndarray:
    return (np.asarray(q, dtype=np.float64) - qp.zero_point) * qp.scale


def decompose_multiplier(m: float) -> FixedPointMultiplier:
    if not (m > 0 and isfinite(m)):
        raise NonPositiveMultiplierError(
            f"multiplier must be finite and > 0, got {m}")
    frac, exp = frexp(m)  # m = frac * 2**exp, frac in [0.5, 1)
    mantissa = int(round(frac * (1 << 31)))
    if mantissa == 1 << 31:  # rounding carried over; renormalize
        mantissa >>= 1
        exp += 1
    return FixedPointMultiplier(mantissa, exp)


def calibrate(graph: ModelGraph, representative_set) -> list[tuple[float, float]]:
    """Per-activation (min, max) over the representative set: an (N, T, C)
    array, a sequence of (T, C) windows or a ``datapipe.Windows``.

    Index 0 is the model input; index i+1 is layer i's output. Every range
    is widened to include 0. The ranges equal a fold, window by window in
    order, of each window's min and max in the ``forward_collect`` call
    of its ``model_ir.map_blocks`` block, down to the sign of zero.
    A range whose width is not a finite float raises ``RangeOverflowError``.
    """
    if len(representative_set) == 0:
        raise EmptyDatasetError("representative dataset is empty")
    def bounds(block):  # (windows, 2, activations): each min and max
        acts = [a.reshape(len(a), -1)
                for a in float_engine.forward_collect(graph, block)]
        return np.array([(a.min(axis=1), a.max(axis=1)) for a in acts]).T

    # Python's min and max scan the windows in order and keep the first of
    # equal values, so even the sign of a zero bound is the per-window one
    ranges = [(min(min(lo), 0.0), max(max(hi), 0.0)) for lo, hi in map_blocks(
        bounds, representative_set, graph.input_shape).T.tolist()]
    for index, (lo, hi) in enumerate(ranges):
        # an overflowed activation, or a width that overflows, has no scale
        if not isfinite(hi - lo):
            where = f"layer {index - 1} output" if index else "the input"
            raise RangeOverflowError(
                f"{where} ranges over [{lo:.3g}, {hi:.3g}], which float64 "
                f"cannot code in int8")
    return ranges


@dataclass(frozen=True)
class PackedLinear:
    """A conv or dense layer's weights in the form the int8 kernels use.

    The (K * C, F) weight matrix, a conv's ``float_engine.conv_matrix`` or
    a dense layer's (D, O) weights with K = 1, is one float32 matrix split
    into ``chunks``: the fewest equal runs of consecutive rows (lengths
    differing by at most one) whose columns keep 128 * sum|w| below
    ``FLOAT32_EXACT``, each a (rows, row view) pair, so that a float32
    product of int8 inputs and a chunk is exact. ``bias`` is the int64
    bias with the input zero-point term folded in, b - zp_in * sum(w) per
    column, so sum((q - zp_in) * w) + b == q @ w + bias.
    """

    chunks: tuple[tuple[slice, np.ndarray], ...]
    bias: np.ndarray
    kernel: int


def pack_linear(q_w: np.ndarray, bias: np.ndarray,
                in_zero_point: int) -> PackedLinear:
    """Packs int8 conv (C, K, F) or dense (D, O) weights and their int32
    bias for an input coded with ``in_zero_point``. A column sum of float32
    |w| below 2**24 is exact, so each run count's test is exact."""
    kernel = 1
    if q_w.ndim == 3:  # conv
        kernel = q_w.shape[1]
        q_w = float_engine.conv_matrix(q_w)
    w = q_w.astype(np.float32)
    magnitude = np.abs(w)
    for count in range(1, len(w) + 1):  # a row's bound is at most 128 * 128
        edges = (np.arange(count + 1) * len(w) // count).tolist()
        if np.add.reduceat(magnitude, edges[:-1]).max() * 128 < FLOAT32_EXACT:
            break
    return PackedLinear(
        tuple((slice(a, b), w[a:b]) for a, b in zip(edges, edges[1:])),
        bias.astype(np.int64)
        - in_zero_point * q_w.sum(axis=0, dtype=np.int64),
        kernel)


def pack_lstm(weights: dict, weight_qps: dict, bias: np.ndarray,
              bias_scale: float) -> PackedLSTM:
    """Dequantizes an LSTM's int8 weights, and its int32 bias at
    ``bias_scale``, in float64, and packs them for the int8 engine's
    float32 cell math: ``float_engine.pack_lstm_gates`` in float32."""
    return float_engine.pack_lstm_gates(
        dequantize(weights["w_x"], weight_qps["w_x"]),
        dequantize(weights["w_h"], weight_qps["w_h"]),
        bias.astype(np.float64) * bias_scale, np.float32)


@dataclass
class QLayer:
    """One quantized layer: the structural spec plus integer parameters."""

    spec: object  # LayerSpec
    in_qp: QuantParams
    out_qp: QuantParams
    weights: dict | None = None       # name -> int8 ndarray
    weight_qps: dict | None = None    # name -> QuantParams
    bias: np.ndarray | None = None    # int32
    multiplier: FixedPointMultiplier | None = None

    @cached_property
    def packed(self) -> PackedLinear | PackedLSTM | None:
        """The weights as the int8 kernels use them: built once, on first
        use after the integer parameters are set, and never serialized."""
        kind = self.spec.kind
        if kind in (LayerKind.CONV1D, LayerKind.DENSE):
            return pack_linear(self.weights["w"], self.bias,
                               self.in_qp.zero_point)
        if kind == LayerKind.LSTM:
            return pack_lstm(self.weights, self.weight_qps, self.bias,
                             self.in_qp.scale * self.weight_qps["w_x"].scale)
        return None


@dataclass
class QuantizedModel:
    """Quantized layers, checked when built, from a graph or a file: their
    weights and bias ``b`` by ``model_ir.check_layers``, a multiplier on
    each requantizing layer, and the bound of every accumulator. ``stats``
    are the float graph's, checked by ``model_ir.check_stats``."""

    layers: list[QLayer]
    input_shape: tuple[int, int]
    num_classes: int
    input_qp: QuantParams
    stats: DatasetStats | None = None

    def __post_init__(self):
        check_layers(tuple(ql.spec for ql in self.layers),
                     [{**(ql.weights or {}),
                       **({} if ql.bias is None else {"b": ql.bias})}
                      for ql in self.layers],
                     self.input_shape, self.num_classes)
        check_stats(self.stats, self.input_shape[1])
        for index, ql in enumerate(self.layers):
            kind = ql.spec.kind
            linear = kind in (LayerKind.CONV1D, LayerKind.DENSE)
            if ql.multiplier is None and (linear or kind == LayerKind.RELU):
                raise GraphError(f"layer {index} ({kind.name}) has no "
                                 f"multiplier")
            if linear:
                _check_accumulator(index, ql)


def _activation_qps(graph: ModelGraph,
                    ranges: list[tuple[float, float]]) -> list[QuantParams]:
    """Quantization params for [input, out_0, ..., out_last].

    Pool / dropout / flatten reuse their input coding; the final softmax
    output is pinned to (1/256, -128).
    """
    qps = [affine_params(*ranges[0])]
    for i, spec in enumerate(graph.layers):
        if spec.kind in (LayerKind.AVGPOOL1D, LayerKind.DROPOUT,
                         LayerKind.FLATTEN):
            qps.append(qps[-1])
        elif spec.kind == LayerKind.SOFTMAX:
            qps.append(QuantParams(SOFTMAX_SCALE, SOFTMAX_ZERO_POINT))
        else:
            qps.append(affine_params(*ranges[i + 1]))
    return qps


def _check_accumulator(index: int, ql: QLayer) -> None:
    """Raises unless every int32 accumulator of the conv or dense layer
    ``ql`` fits on any input: |q_in - zp_in| <= 255 bounds an output
    channel's sum by sum|w| * 255 + |b|."""
    q_w = ql.weights["w"].astype(np.int64)
    bound = (np.abs(q_w).sum(axis=tuple(range(q_w.ndim - 1))) * 255
             + np.abs(ql.bias.astype(np.int64)))
    if not np.all(bound < 2**31):
        raise AccumulatorOverflowError(
            f"layer {index} ({ql.spec.kind.name}): accumulator bound up to "
            f"{bound.max():.3g} does not fit in int32")


def quantize_model(graph: ModelGraph, representative_set) -> QuantizedModel:
    """Convert a trained float graph to a fully int8 model, calibrated on
    ``representative_set`` (any input :func:`calibrate` takes). The model
    keeps the graph's normalization statistics."""
    ranges = calibrate(graph, representative_set)
    act_qps = _activation_qps(graph, ranges)
    qlayers: list[QLayer] = []
    for i, (spec, layer_params) in enumerate(zip(graph.layers, graph.params)):
        in_qp, out_qp = act_qps[i], act_qps[i + 1]
        ql = QLayer(spec=spec, in_qp=in_qp, out_qp=out_qp)
        if spec.kind in (LayerKind.CONV1D, LayerKind.DENSE, LayerKind.LSTM):
            # an LSTM runs hybrid: int8 storage, float32 cell math
            names = [name for name in param_shapes(spec) if name != "b"]
            ql.weights, ql.weight_qps = {}, {}
            for name in names:
                w = layer_params[name]
                ql.weight_qps[name] = symmetric_params(float(w.min()),
                                                       float(w.max()))
                ql.weights[name] = quantize_tensor(w, ql.weight_qps[name])
            # the input-side weights (w, or w_x) set the bias scale
            bias_scale = in_qp.scale * ql.weight_qps[names[0]].scale
            bias = np.round(layer_params["b"].astype(np.float64) / bias_scale)
            if not np.all((bias >= -2**31) & (bias < 2**31)):
                raise BiasOverflowError(
                    f"layer {i} ({spec.kind.name}): bias up to "
                    f"{np.abs(bias).max():.3g} does not fit in int32 at "
                    f"scale {bias_scale:.3g}")
            ql.bias = bias.astype(np.int32)
            ql.multiplier = decompose_multiplier(bias_scale / out_qp.scale)
        elif spec.kind == LayerKind.RELU:
            ql.multiplier = decompose_multiplier(in_qp.scale / out_qp.scale)
        qlayers.append(ql)
    return QuantizedModel(layers=qlayers, input_shape=graph.input_shape,
                          num_classes=graph.num_classes, input_qp=act_qps[0],
                          stats=graph.stats)
