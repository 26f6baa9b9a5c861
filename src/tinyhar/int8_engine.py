"""Integer-only inference executor for quantized models.

Conv/dense layers accumulate int8 x int8 products into 32-bit integers,
add int32 biases, and requantize through a fixed-point multiplier with
round-half-away-from-zero rounding. The LSTM executes hybrid: int8
storage, float32 cell math, requantized output.

The kernels take each layer's packed form (``QLayer.packed``), built once
per model: one float32 weight matrix, a conv's as
``float_engine.conv_matrix``, and an int64 bias with the input zero point
folded in, b - zp_in * sum(w) (Jacob et al. 2018, eqs. 7-8). A conv's
rows, ``float_engine.window_rows`` of the int8 input itself, are copied
to float32, and ``q @ w + bias`` equals sum((q - zp_in) * w) + b. The
product runs in float32 BLAS, one GEMM per chunk, and is exact: a raw
input has |q| <= 128, so every product and partial sum within a chunk is
an integer of magnitude at most 128 * sum|w| over the chunk's rows of its
column, and packing splits the weight rows into the fewest equal runs
that keep this below 2**24. Float32 holds every such integer, so no
summation order, with or without FMA, rounds. The chunks are added in
int64 to the bias, and the result is the integer the int32 accumulator
holds (``QuantizedModel`` checks sum|w| * 255 + |b| < 2**31 when built).
An LSTM's packed form is its dequantized weights and bias in
``float_engine.pack_lstm_gates``'s gate layout, in float32, the dtype
``float_engine.lstm_forward`` then computes in.

On int8 data a ReLU is a fixed map of the 256 int8 values, set by its
zero points and multiplier, so ``relu_int8`` looks each value up in a
table that runs the clip-requantize-saturate arithmetic once per
parameter set (Jacob et al. 2018, arXiv 1712.05877).

One ``run_quantized`` call classifies a whole batch of windows, bit for
bit as one call per window would. The input is a ``model_ir.FrameBlock``
or a batch, made a block. Convs and ReLUs take a block and return one,
so each runs once per distinct row: a conv's output rows are the rows
its windows read, and its index maps each window step to one of them,
in which each window's rows stay consecutive, as the next conv's
``float_engine.rows`` need. ``run_layers`` places the windows once, at
the first layer that reads a window whole; those kernels take leading
batch axes, as TFLite's int8 kernels do. The accumulators are exact, so
a window's bits do not depend on the windows it shares rows with, and
``SaturationAudit`` counts a row once per window step that reads it. As
in TFLite Micro, the kernels trust the shapes the model checked once,
when it was built.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import float_engine
from .model_ir import (FrameBlock, LayerKind, batch_block, map_blocks,
                       window_batch)
from .quantizer import (FixedPointMultiplier, PackedLinear, PackedLSTM,
                        QuantParams, QuantizedModel, dequantize,
                        quantize_tensor)

WARMUP_CALLS = 3  # untimed calls before timed_inference's timed ones


@dataclass
class SaturationAudit:
    """Counts values clamped at the int8 rails during requantization."""

    clamped: int = 0
    total: int = 0


def _round_half_away_div(num: np.ndarray, den: int) -> np.ndarray:
    """Integer division rounding half away from zero (num int64, den > 0)."""
    sign = np.sign(num)
    return sign * ((np.abs(num) + den // 2) // den)


def requantize(acc: np.ndarray, mult: FixedPointMultiplier) -> np.ndarray:
    """Scale an int32/int64 accumulator by mantissa * 2**(exponent - 31).

    Right shifts round half away from zero. For multipliers >= 2**30 (a
    left shift) the result is exact while it is within +-2**31; beyond
    that it keeps its sign and is at least 2**31 in magnitude, so it
    saturates to the correct int8 rail.
    """
    prod = np.asarray(acc, dtype=np.int64) * mult.mantissa
    shift = 31 - mult.exponent
    if shift <= 0:
        # mantissa >= 2**30, so any nonzero product is far outside int8:
        # clamp it before the left shift so int64 cannot wrap
        limit = 1 << 31
        return np.clip(prod, -limit, limit) << min(-shift, 31)
    # |prod| < 2**62 for an int32 accumulator, so any shift past 62
    # gives 0; capping it keeps ``half`` and the sum below inside int64
    shift = min(shift, 63)
    # round half away from zero: (prod + half - 1) >> shift floors a
    # negative product to the same integer as -((|prod| + half) >> shift);
    # prod >> 63 is -1 for a negative product and 0 otherwise
    offset = prod >> 63
    offset += 1 << (shift - 1)
    prod += offset
    prod >>= shift
    return prod


# the int8 rails as NumPy scalars: np.clip checks Python int bounds against
# the array's dtype range (np.iinfo) first, about 3 us a call on a 2-core
# Xeon, more than the clip of a small layer output
_INT8_MIN, _INT8_MAX = np.int64(-128), np.int64(127)


def _tally(audit: SaturationAudit, clamped: np.ndarray, index) -> None:
    """Adds a mask of clamped values to ``audit`` per window element: row
    ``r`` of a block's (R, F) output counts once per step of ``index``
    that reads it; an array's (None) counts once."""
    if index is None:
        audit.total += clamped.size
        audit.clamped += int(np.count_nonzero(clamped))
        return
    reads = np.bincount(index.ravel(), minlength=len(clamped))
    audit.total += index.size * clamped.shape[-1]
    audit.clamped += int(reads @ np.count_nonzero(clamped, axis=-1))


def _saturate(values: np.ndarray, audit: SaturationAudit | None,
              index=None) -> np.ndarray:
    if audit is not None:
        _tally(audit, (values < _INT8_MIN) | (values > _INT8_MAX), index)
    return np.clip(values, _INT8_MIN, _INT8_MAX).astype(np.int8)


def _accumulate(cols: np.ndarray, packed: PackedLinear) -> np.ndarray:
    """The int64 accumulator of float32 (..., K * C) input rows: one exact
    float32 GEMM per chunk (see the module docstring), summed in int64."""
    flat = cols.reshape(-1, cols.shape[-1])
    acc = sum(((flat[:, part] @ w).astype(np.int64)
               for part, w in packed.chunks), packed.bias)
    return acc.reshape(cols.shape[:-1] + acc.shape[-1:])


def conv1d_int8(q_in: FrameBlock, packed: PackedLinear,
                mult: FixedPointMultiplier, out_qp: QuantParams,
                audit: SaturationAudit | None = None) -> FrameBlock:
    """Runs the ``float_engine.window_rows`` of a ``model_ir.FrameBlock`` of
    int8 frames, each once, and returns the block of their int8 outputs,
    indexed as the windows read them; ``packed`` is (K * C, F)."""
    cols, index = float_engine.window_rows(q_in, packed.kernel)
    acc = requantize(_accumulate(cols.astype(np.float32, order="C"), packed),
                     mult) + out_qp.zero_point
    return FrameBlock(_saturate(acc.reshape(-1, acc.shape[-1]), audit,
                                index), index)


def dense_int8(q_in: np.ndarray, packed: PackedLinear,
               mult: FixedPointMultiplier, out_qp: QuantParams,
               audit: SaturationAudit | None = None) -> np.ndarray:
    """q_in: (..., D) int8; ``packed`` holds (D, O) weights."""
    return _saturate(requantize(_accumulate(q_in.astype(np.float32), packed),
                                mult) + out_qp.zero_point, audit)


@functools.lru_cache
def _relu_table(in_zp: int, mantissa: int, exponent: int,
                out_zp: int) -> tuple[np.ndarray, np.ndarray]:
    """The int8 ReLU output of each of the 256 int8 values, indexed by bit
    pattern, and whether each one saturated."""
    values = np.arange(256, dtype=np.uint8).view(np.int8).astype(np.int64)
    rescaled = requantize(np.maximum(values, in_zp) - in_zp,
                          FixedPointMultiplier(mantissa, exponent)) + out_zp
    table = _saturate(rescaled, None)
    clamped = rescaled != table
    table.flags.writeable = clamped.flags.writeable = False
    return table, clamped


def relu_int8(q_in, in_qp: QuantParams, mult: FixedPointMultiplier,
              out_qp: QuantParams, audit: SaturationAudit | None = None):
    """Looks each int8 value of an array, or of a ``model_ir.FrameBlock``'s
    frames (returning the block of the results), up in the table of its
    quantization parameters; the table is built once per parameter set."""
    table, clamped = _relu_table(in_qp.zero_point, mult.mantissa,
                                 mult.exponent, out_qp.zero_point)
    block = isinstance(q_in, FrameBlock)
    bits = (q_in.frames if block else q_in).view(np.uint8)
    if audit is not None:
        _tally(audit, clamped.take(bits), q_in.index if block else None)
    out = table.take(bits)
    return FrameBlock(out, q_in.index) if block else out


def avg_pool1d_int8(q_in: np.ndarray, pool: int) -> np.ndarray:
    """Pools the time axis (-2) of a (..., T, C) input: integer sum then
    rounded division; quantization params unchanged."""
    sums = float_engine.pool_groups(q_in, pool).astype(np.int64).sum(axis=-2)
    return _round_half_away_div(sums, pool).astype(np.int8)


def lstm_hybrid(q_in: np.ndarray, in_qp: QuantParams, packed: PackedLSTM,
                out_qp: QuantParams) -> np.ndarray:
    """Dequantize the (..., T, D) sequences of ``q_in``, run the LSTM cell
    over them in float32, the dtype of ``packed`` (``quantizer.pack_lstm``),
    and requantize to the calibrated output range."""
    h = float_engine.lstm_forward(dequantize(q_in, in_qp), packed)
    return quantize_tensor(h, out_qp)


def softmax_int8(q_logits: np.ndarray, in_qp: QuantParams,
                 out_qp: QuantParams) -> np.ndarray:
    """Normalizes each row (last axis) of the logits."""
    probs = float_engine.softmax(dequantize(q_logits, in_qp))
    return quantize_tensor(probs, out_qp)


def run_layers(model: QuantizedModel, q_value,
               audit: SaturationAudit | None = None) -> np.ndarray:
    """Runs a ``model_ir.FrameBlock`` of quantized frames, or a quantized
    (N, T, C) batch, made its ``model_ir.batch_block``, through every
    layer; returns the (N, K) int8 output. Convs and ReLUs keep the block,
    so each runs once per distinct row; the windows are placed
    (``float_engine.windows``) once, at the first layer that reads a
    window whole."""
    for ql in model.layers:
        kind = ql.spec.kind
        if kind not in float_engine.ROW_WISE:
            q_value = float_engine.windows(q_value)  # reads a window whole
        if kind == LayerKind.CONV1D:
            if isinstance(q_value, np.ndarray):
                q_value = batch_block(q_value)
            q_value = conv1d_int8(q_value, ql.packed, ql.multiplier,
                                  ql.out_qp, audit)
        elif kind == LayerKind.RELU:
            q_value = relu_int8(q_value, ql.in_qp, ql.multiplier,
                                ql.out_qp, audit)
        elif kind == LayerKind.DROPOUT:
            pass  # identity at inference
        elif kind == LayerKind.AVGPOOL1D:
            q_value = avg_pool1d_int8(q_value, ql.spec.pool)
        elif kind == LayerKind.FLATTEN:
            q_value = q_value.reshape(len(q_value), np.prod(q_value.shape[1:]))
        elif kind == LayerKind.DENSE:
            vec = q_value[:, -1] if q_value.ndim == 3 else q_value
            q_value = dense_int8(vec, ql.packed, ql.multiplier, ql.out_qp,
                                 audit)
        elif kind == LayerKind.LSTM:
            q_value = lstm_hybrid(q_value, ql.in_qp, ql.packed, ql.out_qp)
        elif kind == LayerKind.SOFTMAX:
            q_value = softmax_int8(q_value, ql.in_qp, ql.out_qp)
    return q_value


def run_quantized(model: QuantizedModel, x,
                  audit: SaturationAudit | None = None):
    """Integer inference on one real-valued (T, C) window array, returning
    (probability vector, class), or on N windows, returning ((N, K)
    probabilities, (N,) classes): an (N, T, C) array, a sequence of (T, C)
    windows or a ``datapipe.Windows``, run by ``model_ir.map_blocks``; a
    frame row that a block's windows share is quantized once.

    Argmax ties break toward the lowest class index. Non-finite input
    raises ``NonFiniteInputError``.
    """
    single = isinstance(x, np.ndarray) and x.ndim == 2

    def run(block):
        q_in = FrameBlock(quantize_tensor(block.frames, model.input_qp),
                          block.index)
        return dequantize(run_layers(model, q_in, audit),
                          model.layers[-1].out_qp)

    probs = map_blocks(run, x, model.input_shape)
    classes = probs.argmax(axis=1)
    if single:
        return probs[0], int(classes[0])
    return probs, classes


@dataclass(frozen=True)
class LatencyStats:
    mean_us: float
    p50_us: float
    p95_us: float


def timed_inference(model, window: np.ndarray,
                    repetitions: int) -> LatencyStats:
    """Wall-clock latency of the inference call only (input prep excluded).

    ``model`` may be a QuantizedModel, timed as a ``model_ir.batch_block``
    of one window, or a float ModelGraph; WARMUP_CALLS warm-up runs are
    discarded. Either raises ``ShapeMismatchError`` or
    ``NonFiniteInputError`` for a window the model cannot take.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if isinstance(model, QuantizedModel):
        batch, _ = window_batch(window, model.input_shape)
        q_input = batch_block(quantize_tensor(batch, model.input_qp))

        def call():
            run_layers(model, q_input)
    else:
        def call():
            float_engine.forward(model, window)

    for _ in range(WARMUP_CALLS):
        call()
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter_ns()
        call()
        samples.append((time.perf_counter_ns() - start) / 1000.0)
    arr = np.array(samples)
    return LatencyStats(mean_us=float(arr.mean()),
                        p50_us=float(np.percentile(arr, 50)),
                        p95_us=float(np.percentile(arr, 95)))
