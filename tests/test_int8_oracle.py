"""Whole quantized models against an executor in exact integers.

The reference below runs a ``QuantizedModel`` in int64 and Python
integers only: conv and dense as centred sums sum((q - zp) * w) + b,
requantization by exact rounding half away from zero, ReLU as arithmetic
and pooling as integer sums. The LSTM and the softmax are float by design,
so it runs them through the engine's own code. ``run_layers`` must equal
it bit for bit, with the same ``SaturationAudit`` counts, also where a
float GEMM stops being exact: columns whose bound 128 * sum|w| sits at
2**24, and accumulators up to 2**31.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tinyhar import datapipe as dp
from tinyhar import int8_engine as ie
from tinyhar import model_ir, modelfile, training
from tinyhar.model_ir import LayerKind
from tinyhar.quantizer import (FixedPointMultiplier, QLayer, QuantizedModel,
                               QuantParams, quantize_model, quantize_tensor)
from tinyhar.synth import synth_generate

INT32_LIMIT = 2**31
EXACT_SUM = 2**17  # 128 * EXACT_SUM == 2**24


# ------------------------------------------------------------ reference

def exact_requantize(acc, mult: FixedPointMultiplier):
    """acc * mantissa * 2**(exponent - 31) for |acc| < 2**31, rounded half
    away from zero. A left shift of a nonzero accumulator is at least
    2**30 in magnitude, so it is reported as +-2**40, which saturates to
    the same rail."""
    shift = 31 - mult.exponent
    if shift <= 0:
        return np.sign(acc) * (1 << 40)
    magnitude = np.abs(acc) * mult.mantissa  # below 2**62
    if shift >= 63:  # magnitude < 2**62 rounds to 0
        return np.zeros_like(acc)
    quotient, remainder = np.divmod(magnitude, 1 << shift)
    return np.sign(acc) * (quotient + (2 * remainder >= 1 << shift))


def distinct_row_product(rows, w):
    """Integer rows (..., D) @ w (D, F) in int64, once per distinct row:
    windows cut at stride 1 share most of their conv rows."""
    flat = np.ascontiguousarray(rows).reshape(-1, rows.shape[-1])
    slot = {}  # each distinct row's bytes, in order of first sight
    inverse = [slot.setdefault(row.tobytes(), len(slot)) for row in flat]
    distinct = np.frombuffer(b"".join(slot), flat.dtype).reshape(
        len(slot), -1)
    product = distinct.astype(np.int64) @ np.asfortranarray(w)
    return product[inverse].reshape(rows.shape[:-1] + (-1,))


class Counts:
    """Per-window clamp counts and per-window totals, as SaturationAudit
    counts them."""

    def __init__(self, windows):
        self.clamped = np.zeros(windows, dtype=np.int64)
        self.total = 0

    def saturate(self, values):
        out = np.clip(values, -128, 127)
        self.clamped += (out != values).reshape(len(values), -1).sum(axis=1)
        self.total += values[0].size
        return out


def reference_layers(model: QuantizedModel, q_in: np.ndarray):
    """The (N, K) int8 output of ``model`` on an (N, T, C) int8 batch, its
    ``Counts`` and the int64 accumulator of each conv and dense layer."""
    value, counts, accs = q_in.astype(np.int64), Counts(len(q_in)), []
    for ql in model.layers:
        kind = ql.spec.kind
        if kind in (LayerKind.CONV1D, LayerKind.DENSE):
            # |q - zp| <= 255, so the centred rows fit in int16
            centred = (value - ql.in_qp.zero_point).astype(np.int16)
            w = ql.weights["w"].astype(np.int64)
            if kind == LayerKind.CONV1D:
                channels, kernel, filters = w.shape
                steps = centred.shape[-2] - kernel + 1
                # row t: steps t..t + kernel - 1, in (kernel, channel) order
                rows = np.concatenate([centred[:, k:k + steps]
                                       for k in range(kernel)], axis=-1)
                w = w.transpose(1, 0, 2).reshape(kernel * channels, filters)
            else:
                rows = centred[:, -1] if centred.ndim == 3 else centred
            acc = distinct_row_product(rows, w) + ql.bias
            assert np.abs(acc).max() < INT32_LIMIT
            accs.append(acc)
            value = counts.saturate(exact_requantize(acc, ql.multiplier)
                                    + ql.out_qp.zero_point)
        elif kind == LayerKind.RELU:
            above = np.maximum(value, ql.in_qp.zero_point) - ql.in_qp.zero_point
            value = counts.saturate(exact_requantize(above, ql.multiplier)
                                    + ql.out_qp.zero_point)
        elif kind == LayerKind.AVGPOOL1D:
            pool = ql.spec.pool
            groups = value.shape[1] // pool
            sums = value[:, :groups * pool].reshape(
                len(value), groups, pool, -1).sum(axis=2)
            quotient, remainder = np.divmod(np.abs(sums), pool)
            value = np.sign(sums) * (quotient + (2 * remainder >= pool))
        elif kind == LayerKind.FLATTEN:
            value = value.reshape(len(value), -1)
        elif kind == LayerKind.LSTM:
            value = ie.lstm_hybrid(value.astype(np.int8), ql.in_qp,
                                   ql.packed, ql.out_qp).astype(np.int64)
        elif kind == LayerKind.SOFTMAX:
            value = ie.softmax_int8(value.astype(np.int8), ql.in_qp,
                                    ql.out_qp).astype(np.int64)
        # a DROPOUT layer is the identity at inference
    return value.astype(np.int8), counts, accs


def assert_matches_reference(model, q_in, reference=None):
    """``run_layers`` on ``q_in`` equals the reference bit for bit: its
    output, its audit counts and every conv and dense accumulator, which
    a requantization could otherwise round away. ``reference`` reuses a
    reference run on a longer batch whose first windows are ``q_in``."""
    n = len(q_in)
    want, counts, want_accs = reference or reference_layers(model, q_in)
    accs, accumulate = [], ie._accumulate

    def recording(cols, packed):
        accs.append(accumulate(cols, packed))
        return accs[-1]

    audit = ie.SaturationAudit()
    with mock.patch.object(ie, "_accumulate", recording):
        got = ie.run_layers(model, q_in, audit)
    assert len(accs) == len(want_accs)
    for acc, want_acc in zip(accs, want_accs):
        assert acc.dtype == np.int64
        assert acc.tobytes() == want_acc[:n].tobytes()
    assert got.dtype == np.int8
    assert got.tobytes() == want[:n].tobytes()
    assert audit == ie.SaturationAudit(int(counts.clamped[:n].sum()),
                                       counts.total * n)


# ------------------------------------------------- models built directly

SUM_TARGETS = ("random", "below", "at", "above", "full")


def linear_weights(rng, rows, columns):
    """int8 (rows, columns) weights whose columns each take one of
    SUM_TARGETS: sum|w| just below 2**17 (bound 128 * sum|w| just below
    2**24), at it, above it, every row at 127, or uniform; with one sign
    per column or mixed signs."""
    w = np.empty((rows, columns), dtype=np.int64)
    for column in range(columns):
        target = rng.choice(SUM_TARGETS)
        if target == "random":
            w[:, column] = rng.integers(-127, 128, size=rows)
            continue
        total = {"below": EXACT_SUM - 1, "at": EXACT_SUM,
                 "above": EXACT_SUM + int(rng.integers(1, 2**15)),
                 "full": rows * 127}[target]
        total = min(total, rows * 127)
        magnitudes = np.zeros(rows, dtype=np.int64)
        magnitudes[:total // 127] = 127
        if total // 127 < rows:
            magnitudes[total // 127] = total % 127
        signs = rng.choice([1, -1]) if rng.random() < 0.7 \
            else rng.choice([1, -1], size=rows)
        w[:, column] = rng.permutation(magnitudes) * signs
    return w.astype(np.int8)


def linear_bias(rng, w):
    """int32 biases; some put sum|w| * 255 + |b| just below 2**31."""
    room = INT32_LIMIT - 1 - 255 * np.abs(w.astype(np.int64)).sum(axis=0)
    bias = np.where(rng.random(len(room)) < 0.5,
                    room * rng.choice([1, -1], size=len(room)),
                    rng.integers(-1000, 1000, size=len(room)))
    return bias.astype(np.int32)


def multiplier(rng, exponents=(-36, 33)):
    return FixedPointMultiplier(int(rng.integers(1 << 30, 1 << 31)),
                                int(rng.integers(*exponents)))


def random_qp(rng):
    return QuantParams(float(rng.uniform(0.01, 0.2)),
                       int(rng.integers(-128, 128)))


def build_model(rng, arch, channels, kernel, steps, filters, classes,
                in_zero_point):
    """A QuantizedModel built from specs and drawn integer parameters, not
    through calibration: conv, relu, dropout, pool, flatten, dense, relu,
    dense, softmax; or conv, relu, lstm, dense, softmax."""
    specs = [model_ir.conv1d(channels, filters, kernel), model_ir.relu()]
    if arch == "mc_cnn":
        pool = int(rng.integers(1, 3))
        width = (steps - kernel + 1) // pool * filters
        hidden = int(rng.integers(1, 20))
        specs += [model_ir.dropout(0.2), model_ir.avg_pool1d(pool),
                  model_ir.flatten(), model_ir.dense(width, hidden),
                  model_ir.relu(), model_ir.dense(hidden, classes)]
    else:
        hidden = int(rng.integers(1, 6))
        specs += [model_ir.lstm(filters, hidden),
                  model_ir.dense(hidden, classes)]
    specs.append(model_ir.softmax())
    qp = QuantParams(0.05, in_zero_point)
    input_qp, layers = qp, []
    for spec in specs:
        out_qp = qp
        ql = QLayer(spec=spec, in_qp=qp, out_qp=qp)
        if spec.kind == LayerKind.CONV1D:
            w = linear_weights(rng, spec.kernel * spec.in_channels,
                               spec.out_filters)
            # (kernel * channels, F) rows back to (C, K, F)
            ql.weights = {"w": w.reshape(spec.kernel, spec.in_channels, -1)
                          .transpose(1, 0, 2)}
        elif spec.kind == LayerKind.DENSE:
            ql.weights = {"w": linear_weights(rng, spec.in_dim,
                                              spec.out_dim)}
        elif spec.kind == LayerKind.LSTM:
            ql.weights = {
                "w_x": rng.integers(-127, 128, size=(spec.in_dim,
                                                     4 * spec.hidden)),
                "w_h": rng.integers(-127, 128, size=(spec.hidden,
                                                     4 * spec.hidden))}
            ql.weights = {name: w.astype(np.int8)
                          for name, w in ql.weights.items()}
            ql.weight_qps = {"w_x": QuantParams(0.002, 0),
                             "w_h": QuantParams(0.004, 0)}
            ql.bias = rng.integers(-500, 500,
                                   size=4 * spec.hidden).astype(np.int32)
            out_qp = random_qp(rng)
        if spec.kind in (LayerKind.CONV1D, LayerKind.DENSE):
            ql.bias = linear_bias(rng, ql.weights["w"].reshape(
                -1, ql.weights["w"].shape[-1]))
            ql.multiplier = multiplier(rng)
            out_qp = random_qp(rng)
        elif spec.kind == LayerKind.RELU:
            ql.multiplier = multiplier(rng, (-2, 4))
            out_qp = random_qp(rng)
        elif spec.kind == LayerKind.SOFTMAX:
            out_qp = QuantParams(1 / 256, -128)
        ql.out_qp = out_qp
        layers.append(ql)
        qp = out_qp
    return QuantizedModel(layers, (steps, channels), classes, input_qp)


def inputs(rng, mode, shape, zero_point):
    """int8 inputs at -128, at 127, at the zero point, a mix of the three,
    or uniform."""
    if mode == "rails":
        return rng.choice(np.array([-128, 127, zero_point], dtype=np.int8),
                          size=shape)
    if mode == "uniform":
        return rng.integers(-128, 128, size=shape).astype(np.int8)
    value = {"low": -128, "high": 127, "zero_point": zero_point}[mode]
    return np.full(shape, value, dtype=np.int8)


class TestBuiltModels:
    @settings(max_examples=60, deadline=None)
    @given(arch=st.sampled_from(["mc_cnn", "deep_conv_lstm"]),
           channels=st.one_of(st.integers(1, 8), st.integers(345, 791)),
           kernel=st.integers(1, 3), extra_steps=st.integers(0, 10),
           filters=st.integers(1, 120), classes=st.integers(2, 15),
           in_zero_point=st.integers(-128, 127),
           mode=st.sampled_from(["low", "high", "zero_point", "rails",
                                 "uniform"]),
           windows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    # every column at 127 over 2,373 rows: bounds near 3 * 2**24, and raw
    # sums of 127 * 127 products that float32 cannot hold unsplit
    @example(arch="mc_cnn", channels=791, kernel=3, extra_steps=9,
             filters=110, classes=15, in_zero_point=-128, mode="high",
             windows=2, seed=0)
    # the input zero point at one rail and the inputs at the other:
    # centred values of -255 meet biases that fill the int32 bound
    @example(arch="mc_cnn", channels=400, kernel=3, extra_steps=2,
             filters=7, classes=4, in_zero_point=127, mode="low",
             windows=1, seed=3)
    @example(arch="deep_conv_lstm", channels=791, kernel=2, extra_steps=3,
             filters=5, classes=6, in_zero_point=-128, mode="rails",
             windows=3, seed=7)
    # a 1,440-wide dense layer whose columns split into two chunks
    @example(arch="mc_cnn", channels=5, kernel=1, extra_steps=10,
             filters=120, classes=6, in_zero_point=0, mode="uniform",
             windows=2, seed=1)
    def test_run_layers_equals_reference(self, arch, channels, kernel,
                                         extra_steps, filters, classes,
                                         in_zero_point, mode, windows, seed):
        rng = np.random.default_rng(seed)
        steps = kernel + extra_steps + 1  # room for a pool of 2
        model = build_model(rng, arch, channels, kernel, steps, filters,
                            classes, in_zero_point)
        assert_matches_reference(
            model, inputs(rng, mode, (windows, steps, channels),
                          in_zero_point))


# ------------------------------------------------ stream reference models

STREAM_SEED = 21
STREAM_WINDOWS = 300


@pytest.fixture(scope="module")
def stream_models():
    """The four stream reference models (mc_cnn trained for one epoch and
    an untrained deep_conv_lstm, at 23 and 791 channels, N3, window 24,
    quantized and reloaded) and 300 consecutive held-out windows each."""
    sessions = synth_generate(STREAM_SEED, subjects=1, sessions_per_subject=5,
                              duration_s=300.0)
    held_out = [s for s in sessions if s.session == 5]
    models = {}
    for width in (23, 791):
        group = dp.ChannelGroup.from_width(width)
        train, _ = dp.split_by_session(dp.make_windows(sessions, 24, 48,
                                                       group), 5)
        stats = dp.fit_stats(train)
        train = dp.normalize(train, stats)
        test = dp.normalize(dp.make_windows(held_out, 24, 1, group)
                            [:STREAM_WINDOWS], stats)
        rep = [s.window for s in train[:32]]
        cnn, _ = training.train(
            model_ir.build_mc_cnn(width, 24, 400, seed=STREAM_SEED),
            dp.stack_windows(train), None,
            training.TrainConfig(epochs=1, seed=STREAM_SEED))
        lstm = model_ir.build_deep_conv_lstm(width, 24, filters=100,
                                             seed=STREAM_SEED)
        for arch, graph in (("mc_cnn", cnn), ("deep_conv_lstm", lstm)):
            qmodel = modelfile.deserialize(modelfile.serialize(
                quantize_model(graph, rep)))
            models[f"{arch}-{width}ch"] = (qmodel, dp.stack_windows(test)[0])
    return models


@pytest.mark.parametrize("name", ["mc_cnn-23ch", "mc_cnn-791ch",
                                  "deep_conv_lstm-23ch",
                                  "deep_conv_lstm-791ch"])
def test_stream_models_equal_reference(stream_models, name):
    qmodel, x = stream_models[name]
    q_in = quantize_tensor(x, qmodel.input_qp)
    assert len(q_in) == STREAM_WINDOWS
    reference = reference_layers(qmodel, q_in)
    for n in (1, 7, STREAM_WINDOWS):
        assert_matches_reference(qmodel, q_in[:n], reference)
