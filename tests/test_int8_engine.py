from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conv_oracle import conv1d_forward, conv1d_int8
from tinyhar import float_engine as fe
from tinyhar import int8_engine as ie
from tinyhar import model_ir
from tinyhar.model_ir import (NonFiniteInputError, ShapeMismatchError,
                              build_deep_conv_lstm, build_mc_cnn)
from tinyhar.quantizer import (FixedPointMultiplier, QuantParams,
                               affine_params, decompose_multiplier, dequantize,
                               pack_linear, pack_lstm, quantize_model,
                               quantize_tensor, symmetric_params)


def make_quantized_conv(rng, channels=3, kernel=2, filters=4, steps=8):
    """Random small conv layer quantized by hand; returns everything needed
    to run both the float and the int8 path."""
    x = rng.normal(size=(steps, channels))
    w = rng.normal(size=(channels, kernel, filters)) * 0.5
    b = rng.normal(size=filters) * 0.1
    in_qp = affine_params(float(x.min()), float(x.max()))
    w_qp = symmetric_params(float(w.min()), float(w.max()))
    y = conv1d_forward(x, w, b)
    out_qp = affine_params(float(y.min()), float(y.max()))
    mult = decompose_multiplier(in_qp.scale * w_qp.scale / out_qp.scale)
    q_x = quantize_tensor(x, in_qp)
    q_w = quantize_tensor(w, w_qp)
    q_b = np.round(b / (in_qp.scale * w_qp.scale)).astype(np.int32)
    return x, w, b, q_x, q_w, q_b, in_qp, w_qp, out_qp, mult


class TestConv1dInt8:
    def test_zero_weights_yield_zero_point(self):
        in_qp = affine_params(-1.0, 1.0)
        out_qp = affine_params(-2.0, 2.0)
        mult = decompose_multiplier(0.3)
        out = conv1d_int8(np.full((6, 2), 5, dtype=np.int8),
                             pack_linear(np.zeros((2, 3, 4), dtype=np.int8),
                                         np.zeros(4, dtype=np.int32),
                                         in_qp.zero_point), mult, out_qp)
        assert np.all(out == out_qp.zero_point)

    def test_hand_requantization_scalar(self):
        # 1 channel, kernel 1: acc = (q_in - zp_in) * q_w + bias
        in_qp = QuantParams(0.5, 0)
        out_qp = QuantParams(0.125, 10)
        w_scale = 0.25
        mult = decompose_multiplier(in_qp.scale * w_scale / out_qp.scale)  # = 1
        q_in = np.array([[4]], dtype=np.int8)
        q_w = np.array([[[2]]], dtype=np.int8)
        bias = np.array([3], dtype=np.int32)
        out = conv1d_int8(q_in, pack_linear(q_w, bias, in_qp.zero_point),
                             mult, out_qp)
        # acc = 4*2 + 3 = 11; multiplier 1.0; + zp_out 10 -> 21
        assert out[0, 0] == 21

    def test_matches_float_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            (x, w, b, q_x, q_w, q_b,
             in_qp, w_qp, out_qp, mult) = make_quantized_conv(rng)
            q_out = conv1d_int8(
                q_x, pack_linear(q_w, q_b, in_qp.zero_point), mult, out_qp)
            y = conv1d_forward(x, w, b)
            err = np.abs(dequantize(q_out, out_qp) - y)
            assert err.max() <= 3 * out_qp.scale


class TestDenseInt8:
    def test_identity_scaled_layer_within_one_lsb(self):
        # same scale in and out, identity-like weights
        qp = QuantParams(0.1, 0)
        w_scale = 1.0 / 127.0
        n = 5
        q_w = (np.eye(n) * 127).astype(np.int8)
        mult = decompose_multiplier(qp.scale * w_scale / qp.scale)
        q_in = np.array([10, -20, 30, 0, 127], dtype=np.int8)
        out = ie.dense_int8(
            q_in, pack_linear(q_w, np.zeros(n, dtype=np.int32), qp.zero_point),
            mult, qp)
        assert np.abs(out.astype(int) - q_in.astype(int)).max() <= 1

    def test_saturates_without_wraparound(self):
        qp = QuantParams(1.0, 0)
        q_w = np.full((4, 2), 127, dtype=np.int8)
        mult = decompose_multiplier(0.9999)
        q_in = np.full(4, 127, dtype=np.int8)
        audit = ie.SaturationAudit()
        out = ie.dense_int8(
            q_in, pack_linear(q_w, np.zeros(2, dtype=np.int32), qp.zero_point),
            mult, qp, audit)
        assert np.all(out == 127)
        assert audit.clamped == 2

    def test_zero_input_gives_requantized_bias(self):
        in_qp = QuantParams(0.5, 7)
        out_qp = QuantParams(0.25, -3)
        w_scale = 0.5
        mult = decompose_multiplier(in_qp.scale * w_scale / out_qp.scale)  # 1.0
        q_in = np.full(3, 7, dtype=np.int8)  # exactly zp_in
        q_w = np.array([[5], [6], [7]], dtype=np.int8)
        bias = np.array([9], dtype=np.int32)
        out = ie.dense_int8(q_in, pack_linear(q_w, bias, in_qp.zero_point),
                            mult, out_qp)
        assert out[0] == 9 * 1 + out_qp.zero_point  # requantized bias + zp


def centered_conv_acc(q_in, zero_point, q_w, bias):
    """Oracle: the unpacked conv accumulator, from an int64 centered copy
    of the input and an int64 im2col."""
    steps, channels = q_in.shape[-2:]
    _, kernel, filters = q_w.shape
    out_steps = steps - kernel + 1
    centered = q_in.astype(np.int64) - zero_point
    w2 = np.ascontiguousarray(q_w.transpose(1, 0, 2)).reshape(
        kernel * channels, filters)
    cols = np.empty(q_in.shape[:-2] + (out_steps, kernel * channels),
                    dtype=np.int64)
    for k in range(kernel):
        cols[..., k * channels:(k + 1) * channels] = \
            centered[..., k:k + out_steps, :]
    return centered_dense_acc(cols, 0, w2, bias)


def centered_dense_acc(q_in, zero_point, q_w, bias):
    """Oracle: the unpacked dense accumulator."""
    centered = q_in.astype(np.int64) - zero_point
    return (np.rint(centered.astype(np.float64) @ q_w.astype(np.float64))
            .astype(np.int64) + bias.astype(np.int64))


def int8_array(rng, shape):
    return rng.integers(-128, 128, size=shape).astype(np.int8)


class TestPackedKernels:
    """The packed kernels against the unpacked formulation, bit for bit:
    the accumulator ``requantize`` receives, the output and the audit."""

    @staticmethod
    def check(kernel, q_in, packed, oracle_acc, mult, out_qp):
        audit, oracle_audit = ie.SaturationAudit(), ie.SaturationAudit()
        with mock.patch.object(ie, "requantize",
                               wraps=ie.requantize) as spy:
            out = kernel(q_in, packed, mult, out_qp, audit)
        acc = spy.call_args.args[0]
        assert acc.dtype == np.int64
        assert acc.tobytes() == oracle_acc.tobytes()
        expected = ie._saturate(ie.requantize(oracle_acc, mult)
                                + out_qp.zero_point, oracle_audit)
        assert out.dtype == np.int8
        assert out.tobytes() == expected.tobytes()
        assert audit == oracle_audit

    mults = st.builds(FixedPointMultiplier,
                      st.integers(1 << 30, (1 << 31) - 1), st.integers(-40, 34))

    @settings(max_examples=40, deadline=None)
    @given(zero_point=st.integers(-128, 127),
           lead=st.lists(st.integers(1, 3), max_size=2),
           channels=st.integers(1, 791), kernel=st.integers(1, 3),
           extra_steps=st.integers(0, 4), filters=st.integers(1, 6),
           mult=mults, seed=st.integers(0, 2**16))
    @example(zero_point=-128, lead=[], channels=791, kernel=3,
             extra_steps=0, filters=2,
             mult=FixedPointMultiplier(1 << 30, -20), seed=0)
    def test_conv_equals_centered_oracle(self, zero_point, lead, channels,
                                         kernel, extra_steps, filters, mult,
                                         seed):
        rng = np.random.default_rng(seed)
        q_in = int8_array(rng, (*lead, kernel + extra_steps, channels))
        q_w = int8_array(rng, (channels, kernel, filters))
        if seed % 4 == 0:  # the largest products: every operand at -128
            q_in[:], q_w[:] = -128, -128
        bias = rng.integers(-2**31, 2**31, size=filters).astype(np.int32)
        packed = pack_linear(q_w, bias, zero_point)
        if seed % 4 == 0:
            # a row's bound is 128 * 128, so a chunk holds 1,023 rows and
            # the 791-channel example runs three chunks
            assert len(packed.chunks) == -(-kernel * channels // 1023)
        self.check(conv1d_int8, q_in, packed,
                   centered_conv_acc(q_in, zero_point, q_w, bias), mult,
                   QuantParams(0.1, int(rng.integers(-128, 128))))

    @settings(max_examples=40, deadline=None)
    @given(zero_point=st.integers(-128, 127),
           lead=st.lists(st.integers(1, 3), max_size=2),
           width=st.integers(1, 2373), outputs=st.integers(1, 6),
           mult=mults, seed=st.integers(0, 2**16))
    def test_dense_equals_centered_oracle(self, zero_point, lead, width,
                                          outputs, mult, seed):
        rng = np.random.default_rng(seed)
        q_in = int8_array(rng, (*lead, width))
        q_w = int8_array(rng, (width, outputs))
        bias = rng.integers(-2**31, 2**31, size=outputs).astype(np.int32)
        self.check(ie.dense_int8, q_in, pack_linear(q_w, bias, zero_point),
                   centered_dense_acc(q_in, zero_point, q_w, bias), mult,
                   QuantParams(0.1, int(rng.integers(-128, 128))))


class TestAvgPoolInt8:
    def test_exact_mean(self):
        q = np.array([[2], [4]], dtype=np.int8)
        assert ie.avg_pool1d_int8(q, 2)[0, 0] == 3

    def test_round_half_away_from_zero(self):
        q = np.array([[1], [2]], dtype=np.int8)
        assert ie.avg_pool1d_int8(q, 2)[0, 0] == 2
        q = np.array([[-1], [-2]], dtype=np.int8)
        assert ie.avg_pool1d_int8(q, 2)[0, 0] == -2

    def test_matches_float_pool_within_one_lsb(self):
        rng = np.random.default_rng(1)
        q = rng.integers(-128, 128, size=(12, 5)).astype(np.int8)
        qp = QuantParams(0.07, 3)
        pooled = ie.avg_pool1d_int8(q, 3)
        oracle = fe.avg_pool1d(dequantize(q, qp), 3)
        assert np.abs(dequantize(pooled, qp) - oracle).max() <= qp.scale


class TestRequantize:
    def test_round_half_away_both_signs(self):
        mult = decompose_multiplier(0.5)
        acc = np.array([1, -1, 3, -3, 2, -2], dtype=np.int64)
        out = ie.requantize(acc, mult)
        assert list(out) == [1, -1, 2, -2, 1, -1]

    @given(accs=st.lists(st.integers(-(1 << 31), (1 << 31) - 1),
                         min_size=1, max_size=6),
           mantissa=st.integers(1 << 30, (1 << 31) - 1),
           exponent=st.integers(31, 90))
    @example(accs=[(1 << 31) - 1, -(1 << 31)], mantissa=(1 << 31) - 1,
             exponent=33)
    def test_left_shift_against_exact_integers(self, accs, mantissa, exponent):
        # multipliers >= 2**30 take the left-shift branch
        out = ie.requantize(np.array(accs, dtype=np.int64),
                            FixedPointMultiplier(mantissa, exponent))
        for acc, got in zip(accs, out.tolist()):
            exact = acc * mantissa * 2 ** (exponent - 31)
            if abs(exact) <= 1 << 31:
                assert got == exact
            else:  # saturates to the correct rail, never wraps
                assert (got > 0) == (exact > 0) and abs(got) >= 1 << 31
            assert min(max(got, -128), 127) == min(max(exact, -128), 127)

    @given(accs=st.lists(st.integers(-(1 << 31), (1 << 31) - 1),
                         min_size=1, max_size=6),
           mantissa=st.integers(1 << 30, (1 << 31) - 1),
           exponent=st.integers(-70, 30))
    @example(accs=[1, -1, (1 << 31) - 1, -(1 << 31)],
             mantissa=(1 << 31) - 1, exponent=-33)
    def test_right_shift_against_exact_integers(self, accs, mantissa,
                                                exponent):
        out = ie.requantize(np.array(accs, dtype=np.int64),
                            FixedPointMultiplier(mantissa, exponent))
        den = 1 << (31 - exponent)
        for acc, got in zip(accs, out.tolist()):
            # round half away from zero: round the magnitude half up
            magnitude = (abs(acc) * mantissa + den // 2) // den
            assert got == (magnitude if acc >= 0 else -magnitude)

    def test_left_shift_saturates_near_int32_limits(self):
        mult = decompose_multiplier(2.0 ** 33)
        assert mult.exponent == 34
        acc = np.array([(1 << 31) - 1, -(1 << 31), 1, -1, 0], dtype=np.int64)
        out = ie.requantize(acc, mult)
        assert np.clip(out, -128, 127).tolist() == [127, -128, 127, -128, 0]


def arithmetic_relu(q_in, in_qp, mult, out_qp, audit):
    """Oracle: clip at the input zero point, requantize, saturate."""
    clipped = np.maximum(q_in.astype(np.int64), in_qp.zero_point)
    rescaled = ie.requantize(clipped - in_qp.zero_point, mult) \
        + out_qp.zero_point
    out = np.clip(rescaled, -128, 127)
    audit.total += rescaled.size
    audit.clamped += int((rescaled != out).sum())
    return out.astype(np.int8)


class TestReluInt8:
    @settings(max_examples=200, deadline=None)
    @given(in_zp=st.integers(-128, 127), out_zp=st.integers(-128, 127),
           mantissa=st.integers(1 << 30, (1 << 31) - 1),
           exponent=st.integers(-12, 40))
    @example(in_zp=-128, out_zp=127, mantissa=1 << 30, exponent=1)
    @example(in_zp=127, out_zp=-128, mantissa=(1 << 31) - 1, exponent=36)
    def test_equals_arithmetic_on_every_int8_value(self, in_zp, out_zp,
                                                   mantissa, exponent):
        # exponents above 31 are left shifts; large ones saturate
        in_qp, out_qp = QuantParams(0.1, in_zp), QuantParams(0.1, out_zp)
        mult = FixedPointMultiplier(mantissa, exponent)
        q = np.arange(-128, 128, dtype=np.int8).reshape(2, 16, 8)
        got_audit, want_audit = ie.SaturationAudit(), ie.SaturationAudit()
        got = ie.relu_int8(q, in_qp, mult, out_qp, got_audit)
        want = arithmetic_relu(q, in_qp, mult, out_qp, want_audit)
        assert got.dtype == np.int8 and got.shape == q.shape
        assert got.tobytes() == want.tobytes()
        assert got_audit == want_audit

    def test_strided_input(self):
        qp, mult = QuantParams(0.05, -3), decompose_multiplier(0.7)
        q = np.arange(-128, 128, dtype=np.int8).reshape(16, 16)[::2, 1::3]
        got = ie.relu_int8(q, qp, mult, qp)
        want = arithmetic_relu(q, qp, mult, qp, ie.SaturationAudit())
        assert got.tobytes() == want.tobytes()


class TestLstmHybrid:
    def test_zero_weights_output_zero_point(self):
        in_qp = QuantParams(0.1, 2)
        out_qp = QuantParams(0.05, -4)
        weights = {"w_x": np.zeros((3, 8), dtype=np.int8),
                   "w_h": np.zeros((2, 8), dtype=np.int8)}
        w_qps = {"w_x": QuantParams(0.01, 0), "w_h": QuantParams(0.01, 0)}
        q_in = np.full((5, 3), 17, dtype=np.int8)
        out = ie.lstm_hybrid(q_in, in_qp,
                             pack_lstm(weights, w_qps,
                                       np.zeros(8, dtype=np.int32), 0.001),
                             out_qp)
        assert np.all(out == out_qp.zero_point)

    def test_agreement_with_float_lstm(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 4))
        w_x = rng.normal(size=(4, 12)) * 0.3
        w_h = rng.normal(size=(3, 12)) * 0.3
        b = rng.normal(size=12) * 0.1
        h = fe.lstm_forward(x, fe.pack_lstm_gates(w_x, w_h, b))
        in_qp = affine_params(float(x.min()), float(x.max()))
        out_qp = affine_params(float(h.min()), float(h.max()))
        w_qps = {"w_x": symmetric_params(float(w_x.min()), float(w_x.max())),
                 "w_h": symmetric_params(float(w_h.min()), float(w_h.max()))}
        weights = {"w_x": quantize_tensor(w_x, w_qps["w_x"]),
                   "w_h": quantize_tensor(w_h, w_qps["w_h"])}
        bias_scale = in_qp.scale * w_qps["w_x"].scale
        bias = np.round(b / bias_scale).astype(np.int32)
        q_out = ie.lstm_hybrid(quantize_tensor(x, in_qp), in_qp,
                               pack_lstm(weights, w_qps, bias, bias_scale),
                               out_qp)
        assert np.abs(dequantize(q_out, out_qp) - h).max() <= 3 * out_qp.scale


def drawn_lstm(rng, width, hidden):
    """Random int8 LSTM weights, their scales and an int32 bias."""
    weights = {"w_x": rng.integers(-127, 128, size=(width, 4 * hidden)),
               "w_h": rng.integers(-127, 128, size=(hidden, 4 * hidden))}
    weights = {name: w.astype(np.int8) for name, w in weights.items()}
    w_qps = {name: QuantParams(float(rng.uniform(0.002, 0.02)), 0)
             for name in weights}
    bias = rng.integers(-2000, 2000, size=4 * hidden).astype(np.int32)
    return weights, w_qps, bias


def dequantized_lstm(weights, w_qps, bias, bias_scale):
    """The float64 weights and bias that ``pack_lstm`` packs."""
    return (dequantize(weights["w_x"], w_qps["w_x"]),
            dequantize(weights["w_h"], w_qps["w_h"]),
            bias.astype(np.float64) * bias_scale)


LSTM_SHAPES = dict(hidden=st.integers(1, 9), steps=st.integers(1, 6),
                   n=st.integers(1, 9), width=st.integers(1, 9),
                   seed=st.integers(0, 2**16))


class TestLstmHybridProperties:
    @settings(max_examples=60, deadline=None)
    @given(**LSTM_SHAPES)
    def test_within_one_lsb_of_the_float64_reference(self, hidden, steps, n,
                                                      width, seed):
        # float32 cell math against the same dequantized weights in float64
        rng = np.random.default_rng(seed)
        weights, w_qps, bias = drawn_lstm(rng, width, hidden)
        in_qp = QuantParams(float(rng.uniform(0.01, 0.1)),
                            int(rng.integers(-128, 128)))
        out_qp = QuantParams(float(rng.uniform(1 / 255, 4 / 255)),
                             int(rng.integers(-20, 21)))
        bias_scale = in_qp.scale * w_qps["w_x"].scale
        q_in = rng.integers(-128, 128, size=(n, steps, width)).astype(np.int8)
        packed = pack_lstm(weights, w_qps, bias, bias_scale)
        assert packed.w_x.dtype == packed.w_h.dtype == np.float32
        got = ie.lstm_hybrid(q_in, in_qp, packed, out_qp)
        reference = fe.lstm_forward(
            dequantize(q_in, in_qp), fe.pack_lstm_gates(
                *dequantized_lstm(weights, w_qps, bias, bias_scale)))
        want = quantize_tensor(reference, out_qp)
        assert got.dtype == np.int8 and got.shape == want.shape
        assert np.abs(got.astype(np.int64) - want).max() <= 1

    @settings(max_examples=60, deadline=None)
    @given(**LSTM_SHAPES)
    def test_windows_equal_one_at_a_time(self, hidden, steps, n, width, seed):
        rng = np.random.default_rng(seed)
        weights, w_qps, bias = drawn_lstm(rng, width, hidden)
        in_qp = QuantParams(0.05, int(rng.integers(-128, 128)))
        out_qp = QuantParams(2 / 255, 0)
        packed = pack_lstm(weights, w_qps, bias, in_qp.scale * 0.01)
        q_in = rng.integers(-128, 128, size=(n, steps, width)).astype(np.int8)
        batched = ie.lstm_hybrid(q_in, in_qp, packed, out_qp)
        singles = [ie.lstm_hybrid(window, in_qp, packed, out_qp)
                   for window in q_in]
        assert batched.tobytes() == np.stack(singles).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(**LSTM_SHAPES)
    def test_packing_is_exact(self, hidden, steps, n, width, seed):
        # the (input, forget, output | candidate) layout, sigmoid gates
        # halved: reordered back and doubled, the dequantized weights
        rng = np.random.default_rng(seed)
        weights, w_qps, bias = drawn_lstm(rng, width, hidden)
        dequantized = dequantized_lstm(weights, w_qps, bias, 0.0003)
        packed = fe.pack_lstm_gates(*dequantized)
        packed32 = pack_lstm(weights, w_qps, bias, 0.0003)
        for name, want in zip(("w_x", "w_h", "b"), dequantized):
            arr = getattr(packed, name)
            i, f, o, g = np.split(arr, 4, axis=-1)
            assert np.concatenate([2 * i, 2 * f, g, 2 * o], axis=-1) \
                .tobytes() == want.tobytes()
            assert getattr(packed32, name).tobytes() == \
                arr.astype(np.float32).tobytes()


class TestSoftmaxInt8:
    IN_QP = QuantParams(0.1, 0)
    OUT_QP = QuantParams(1 / 256, -128)

    def test_uniform_logits(self):
        q = np.zeros(15, dtype=np.int8)
        out = ie.softmax_int8(q, self.IN_QP, self.OUT_QP)
        assert np.all(out == -128 + round(256 / 15))

    def test_dominant_logit_saturates(self):
        q = np.zeros(15, dtype=np.int8)
        q[4] = 127
        out = ie.softmax_int8(q, self.IN_QP, self.OUT_QP)
        assert out[4] >= 120

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        q = rng.integers(-128, 128, size=15).astype(np.int8)
        perm = rng.permutation(15)
        direct = ie.softmax_int8(q, self.IN_QP, self.OUT_QP)
        assert np.array_equal(direct[perm],
                              ie.softmax_int8(q[perm], self.IN_QP, self.OUT_QP))


@pytest.fixture(scope="module")
def quantized_mc_cnn():
    graph = build_mc_cnn(4, 16, 8, dense_width=6, num_classes=15, seed=8)
    rng = np.random.default_rng(9)
    rep = [rng.normal(size=(16, 4)) for _ in range(8)]
    return graph, quantize_model(graph, rep)


class TestRunQuantized:
    def test_probabilities_sum_near_one(self, quantized_mc_cnn):
        _, qm = quantized_mc_cnn
        probs, _ = ie.run_quantized(qm, np.random.default_rng(10).normal(size=(16, 4)))
        assert abs(probs.sum() - 1.0) <= 8 / 256

    def test_bit_identical_across_runs(self, quantized_mc_cnn):
        _, qm = quantized_mc_cnn
        w = np.random.default_rng(11).normal(size=(16, 4))
        p1, c1 = ie.run_quantized(qm, w)
        p2, c2 = ie.run_quantized(qm, w)
        assert np.array_equal(p1, p2) and c1 == c2

    def test_no_value_escapes_int8(self, quantized_mc_cnn):
        _, qm = quantized_mc_cnn
        audit = ie.SaturationAudit()
        ie.run_quantized(qm, np.random.default_rng(12).normal(size=(16, 4)),
                         audit)
        assert audit.total > 0  # the audit hook saw every requantization

    def test_deep_conv_lstm_path(self):
        graph = build_deep_conv_lstm(6, 24, 4, hidden=5, seed=13)
        rng = np.random.default_rng(14)
        qm = quantize_model(graph, [rng.normal(size=(24, 6)) for _ in range(4)])
        probs, pred = ie.run_quantized(qm, rng.normal(size=(24, 6)))
        assert abs(probs.sum() - 1.0) <= 8 / 256
        assert 0 <= pred < 15


@pytest.fixture(scope="module")
def quantized_deep_conv_lstm():
    graph = build_deep_conv_lstm(6, 24, 4, hidden=5, seed=13)
    rng = np.random.default_rng(14)
    return graph, quantize_model(graph, [rng.normal(size=(24, 6))
                                         for _ in range(4)])


class TestBatch:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 9), arch=st.sampled_from(["mc_cnn", "lstm"]),
           seed=st.integers(0, 2**16))
    def test_batch_equals_single_window_calls(self, quantized_mc_cnn,
                                              quantized_deep_conv_lstm,
                                              n, arch, seed):
        _, qm = quantized_mc_cnn if arch == "mc_cnn" \
            else quantized_deep_conv_lstm
        x = np.random.default_rng(seed).normal(size=(n,) + qm.input_shape)
        single_audit, batch_audit = ie.SaturationAudit(), ie.SaturationAudit()
        singles = [ie.run_quantized(qm, w, single_audit) for w in x]
        # blocks of 4 windows, so n > 4 crosses a block boundary
        with mock.patch.object(model_ir, "BLOCK_WINDOWS", 4):
            probs, classes = ie.run_quantized(qm, x, batch_audit)
        assert probs.tobytes() == np.stack([p for p, _ in singles]).tobytes()
        assert classes.tolist() == [c for _, c in singles]
        assert batch_audit == single_audit

    def test_full_block_boundary(self, quantized_mc_cnn):
        _, qm = quantized_mc_cnn
        x = np.random.default_rng(16).normal(
            size=(model_ir.BLOCK_WINDOWS + 1,) + qm.input_shape)
        probs, classes = ie.run_quantized(qm, x)
        last_probs, last_class = ie.run_quantized(qm, x[-1])
        assert probs.shape == (len(x), qm.num_classes)
        assert probs[-1].tobytes() == last_probs.tobytes()
        assert classes[-1] == last_class

    def test_empty_batch(self, quantized_mc_cnn):
        _, qm = quantized_mc_cnn
        probs, classes = ie.run_quantized(qm, np.zeros((0,) + qm.input_shape))
        assert probs.shape == (0, qm.num_classes) and classes.shape == (0,)

    def test_kernels_with_leading_axis_equal_per_window(self):
        rng = np.random.default_rng(17)
        qp, out_qp = QuantParams(0.05, 3), QuantParams(0.1, -7)
        mult = decompose_multiplier(0.02)
        q = rng.integers(-128, 128, size=(3, 10, 4)).astype(np.int8)
        q_w = rng.integers(-127, 128, size=(4, 3, 5)).astype(np.int8)
        bias = rng.integers(-500, 500, size=5).astype(np.int32)
        d_w = rng.integers(-127, 128, size=(4, 6)).astype(np.int8)
        d_bias = rng.integers(-500, 500, size=6).astype(np.int32)
        lstm_w = {"w_x": rng.integers(-127, 128, size=(4, 8)).astype(np.int8),
                  "w_h": rng.integers(-127, 128, size=(2, 8)).astype(np.int8)}
        lstm_qps = {"w_x": QuantParams(0.01, 0), "w_h": QuantParams(0.02, 0)}
        lstm_bias = rng.integers(-50, 50, size=8).astype(np.int32)
        kernels = [
            lambda v: conv1d_int8(v, pack_linear(q_w, bias, qp.zero_point),
                                     mult, out_qp),
            lambda v: ie.dense_int8(
                v, pack_linear(d_w, d_bias, qp.zero_point), mult, out_qp),
            lambda v: ie.relu_int8(v, qp, mult, out_qp),
            lambda v: ie.avg_pool1d_int8(v, 3),
            lambda v: ie.lstm_hybrid(
                v, qp, pack_lstm(lstm_w, lstm_qps, lstm_bias, 0.0005), out_qp),
            lambda v: ie.softmax_int8(v, qp, out_qp),
        ]
        for kernel in kernels:
            batched = kernel(q)
            for i in range(len(q)):
                assert batched[i].tobytes() == kernel(q[i]).tobytes()

    @pytest.mark.parametrize("shape", [(3, 16, 5), (16, 5), (2, 3, 16, 4),
                                       (4,), (3, 15, 4)])
    def test_wrong_input_shape_raises(self, quantized_mc_cnn, shape):
        _, qm = quantized_mc_cnn
        with pytest.raises(ShapeMismatchError):
            ie.run_quantized(qm, np.zeros(shape))


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_run_quantized_raises(self, quantized_mc_cnn, bad):
        graph, qm = quantized_mc_cnn
        x = np.zeros((5, 16, 4))
        x[3, 7, 2] = bad
        with pytest.raises(NonFiniteInputError):
            ie.run_quantized(qm, x)
        with pytest.raises(NonFiniteInputError):
            ie.run_quantized(qm, x[3])
        with pytest.raises(NonFiniteInputError):
            fe.forward(graph, x[3])


class TestTimedInference:
    def test_single_repetition(self, quantized_mc_cnn):
        _, qm = quantized_mc_cnn
        stats = ie.timed_inference(qm, np.zeros((16, 4)), repetitions=1)
        assert stats.p50_us == pytest.approx(stats.mean_us)

    def test_larger_model_is_slower(self):
        rng = np.random.default_rng(15)
        rep = [rng.normal(size=(24, 23)) for _ in range(2)]
        small = quantize_model(build_mc_cnn(23, 24, 32, seed=0), rep)
        large = quantize_model(build_mc_cnn(23, 24, 400, seed=0), rep)
        w = rng.normal(size=(24, 23))
        fast = ie.timed_inference(small, w, repetitions=10)
        slow = ie.timed_inference(large, w, repetitions=10)
        assert slow.mean_us > fast.mean_us

    def test_rejects_zero_repetitions(self, quantized_mc_cnn):
        _, qm = quantized_mc_cnn
        with pytest.raises(ValueError):
            ie.timed_inference(qm, np.zeros((16, 4)), repetitions=0)

    @pytest.mark.parametrize("window, error", [
        (np.zeros((16, 6)), ShapeMismatchError),
        (np.zeros((20, 4)), ShapeMismatchError),
        (np.full((16, 4), np.nan), NonFiniteInputError)])
    def test_int8_and_float_reject_the_same_windows(self, quantized_mc_cnn,
                                                    window, error):
        for model in quantized_mc_cnn:  # the float graph, then its int8 form
            with pytest.raises(error):
                ie.timed_inference(model, window, repetitions=1)
