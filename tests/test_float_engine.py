import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conv_oracle import conv1d_forward
from tinyhar import float_engine as fe
from tinyhar.model_ir import (ShapeMismatchError, build_deep_conv_lstm,
                              build_mc_cnn, dense)
from tinyhar import training


class TestConv1d:
    def test_kernel1_identity(self):
        x = np.array([[1.0], [2.0], [-3.0]])
        w = np.ones((1, 1, 1))
        out = conv1d_forward(x, w, np.zeros(1))
        assert np.array_equal(out, x)

    def test_hand_convolution(self):
        # input [1..5], box kernel [1,1,1] -> sliding sums
        x = np.arange(1.0, 6.0).reshape(5, 1)
        w = np.ones((1, 3, 1))
        out = conv1d_forward(x, w, np.zeros(1))
        assert np.array_equal(out.ravel(), [6.0, 9.0, 12.0])
        out3 = conv1d_forward(x[:3], w, np.zeros(1))
        assert np.array_equal(out3.ravel(), [6.0])

    def test_bias_only(self):
        x = np.random.default_rng(0).normal(size=(6, 4))
        w = np.zeros((4, 3, 2))
        out = conv1d_forward(x, w, np.array([7.0, 7.0]))
        assert np.all(out == 7.0)

    def test_channel_mismatch(self):
        # the graph checks its conv weights once; the kernel trusts them
        graph = build_mc_cnn(4, 16, 8)
        params = [dict(p) for p in graph.params]
        params[0]["w"] = np.zeros((3, 3, 8), np.float32)
        with pytest.raises(ShapeMismatchError):
            graph.with_params(tuple(params))


def per_window_conv(x, w, b):
    """Oracle: each window's rows, stacked one slice per kernel tap, times
    the (K * C, F) weight matrix in a product of its own."""
    kernel = w.shape[1]
    out_steps = x.shape[-2] - kernel + 1
    w2 = w.transpose(1, 0, 2).reshape(-1, w.shape[2]).astype(np.float64)
    out = np.empty(x.shape[:-2] + (out_steps, w.shape[2]))
    for lead in np.ndindex(x.shape[:-2]):
        taps = [x[lead][k:k + out_steps] for k in range(kernel)]
        out[lead] = np.concatenate(taps, axis=1).astype(np.float64) @ w2
    return out + b


class TestConv1dOracle:
    @settings(max_examples=60, deadline=None)
    @given(lead=st.sampled_from([(), (1,), (3,), (2, 3)]),
           kernel=st.integers(1, 4), extra_steps=st.integers(0, 6),
           channels=st.integers(1, 9), filters=st.integers(1, 7),
           x_dtype=st.sampled_from([np.float32, np.float64]),
           weight_dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**16))
    def test_equals_per_window_oracle(self, lead, kernel, extra_steps,
                                      channels, filters, x_dtype,
                                      weight_dtype, seed):
        rng = np.random.default_rng(seed)
        x = mixed_magnitude(rng, (*lead, kernel + extra_steps, channels),
                            x_dtype)
        w = mixed_magnitude(rng, (channels, kernel, filters), weight_dtype)
        b = mixed_magnitude(rng, filters, weight_dtype)
        out = conv1d_forward(x, w, b)
        expected = per_window_conv(x, w, b)
        assert out.dtype == expected.dtype == np.float64
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_rows_are_a_read_only_view(self):
        x = np.arange(24, dtype=np.float32).reshape(2, 4, 3)
        view = fe.rows(x, 2)
        assert view.shape == (2, 3, 6) and view.dtype == np.float32
        assert np.shares_memory(view, x) and not view.flags.writeable
        assert view[1, 2].tolist() == x[1, 2:4].ravel().tolist()


class TestSimpleOps:
    def test_relu(self):
        assert np.array_equal(fe.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_avg_pool_hand(self):
        x = np.array([2.0, 4.0, 6.0, 8.0]).reshape(4, 1)
        assert np.array_equal(fe.avg_pool1d(x, 2).ravel(), [3.0, 7.0])

    def test_avg_pool_preserves_mean(self):
        x = np.random.default_rng(1).normal(size=(8, 3))
        pooled = fe.avg_pool1d(x, 2)
        assert pooled.mean() == pytest.approx(x.mean())

    def test_dense_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(fe.dense_forward(v, np.eye(3), np.zeros(3)), v)


class TestLstm:
    def test_all_zero_weights(self):
        seq = np.random.default_rng(0).normal(size=(5, 3))
        packed = fe.pack_lstm_gates(np.zeros((3, 8)), np.zeros((2, 8)),
                                    np.zeros(8))
        assert np.all(fe.lstm_forward(seq, packed) == 0.0)

    def test_forget_gate_saturation(self):
        # huge forget bias, everything else zero: cell stays at c_0 = 0
        hidden = 2
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 100.0
        seq = np.random.default_rng(1).normal(size=(6, 3))
        out = fe.lstm_forward(seq, fe.pack_lstm_gates(
            np.zeros((3, 8)), np.zeros((hidden, 8)), b))
        assert np.allclose(out, 0.0, atol=1e-12)

    @pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12),
                                            (np.float32, 1e-6)])
    def test_scalar_hand_evaluation(self, dtype, rel):
        # hidden size 1, one step: evaluate the gate equations by hand
        x = 0.5
        w_x = np.array([[0.2, -0.3, 0.4, 0.1]])  # gates i, f, g, o
        w_h = np.zeros((1, 4))
        b = np.array([0.05, 0.0, -0.1, 0.2])
        i = 1 / (1 + math.exp(-(0.2 * x + 0.05)))
        g = math.tanh(0.4 * x - 0.1)
        o = 1 / (1 + math.exp(-(0.1 * x + 0.2)))
        c = i * g  # f * c_0 = 0
        expected = o * math.tanh(c)
        out = fe.lstm_forward(np.array([[x]]),
                              fe.pack_lstm_gates(w_x, w_h, b, dtype))
        assert out.dtype == dtype
        assert out[0, 0] == pytest.approx(expected, rel=rel)

    def test_packing_orders_and_halves_the_gates(self):
        hidden = 2
        w = np.arange(1.0, 1.0 + 3 * 4 * hidden).reshape(3, 4 * hidden)
        packed = fe.pack_lstm_gates(w, w[:hidden], w[0])
        i, f, g, o = np.split(w, 4, axis=1)
        assert np.array_equal(packed.w_x,
                              np.hstack([i / 2, f / 2, o / 2, g]))
        assert np.array_equal(packed.w_h, packed.w_x[:hidden])
        assert np.array_equal(packed.b, packed.w_x[0])


def gemv_rows(v, w):
    """``v @ w`` for (..., D) rows, one GEMV per row."""
    return (v[..., None, :] @ w)[..., 0, :]


def per_step_lstm(seq, w_x, w_h, b, dtype):
    """Oracle: the packed tanh form in ``dtype``, step by step and gate by
    gate. Each window's input projection is a product of its own, plus
    the bias; each step adds one GEMV per row, and each gate takes a tanh
    call of its own, a sigmoid gate as 0.5 + 0.5 * tanh."""
    packed = fe.pack_lstm_gates(w_x, w_h, b, dtype)
    hidden = w_h.shape[0]
    seq = seq.astype(dtype)
    x_proj = np.empty(seq.shape[:-1] + (4 * hidden,), dtype)
    for lead in np.ndindex(seq.shape[:-2]):
        x_proj[lead] = seq[lead] @ packed.w_x + packed.b
    h = np.zeros(seq.shape[:-2] + (hidden,), dtype)
    c = np.zeros(seq.shape[:-2] + (hidden,), dtype)
    out = np.empty(seq.shape[:-1] + (hidden,), dtype)
    for t in range(seq.shape[-2]):
        z = x_proj[..., t, :] + gemv_rows(h, packed.w_h)
        i = 0.5 + 0.5 * np.tanh(z[..., :hidden])
        f = 0.5 + 0.5 * np.tanh(z[..., hidden:2 * hidden])
        o = 0.5 + 0.5 * np.tanh(z[..., 2 * hidden:3 * hidden])
        g = np.tanh(z[..., 3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[..., t, :] = h
    return out


def mixed_magnitude(rng, shape, dtype=np.float64):
    return (rng.normal(size=shape)
            * 10.0 ** rng.uniform(-3, 3, size=shape)).astype(dtype)


class TestLstmOracle:
    @settings(max_examples=60, deadline=None)
    @given(lead=st.sampled_from([(), (1,), (3,), (2, 3)]),
           steps=st.integers(1, 6), width=st.integers(1, 9),
           hidden=st.integers(1, 9),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**16))
    def test_equals_per_step_oracle(self, lead, steps, width, hidden,
                                    dtype, seed):
        rng = np.random.default_rng(seed)
        seq = mixed_magnitude(rng, (*lead, steps, width))
        w_x = mixed_magnitude(rng, (width, 4 * hidden))
        w_h = mixed_magnitude(rng, (hidden, 4 * hidden))
        b = mixed_magnitude(rng, 4 * hidden)
        out = fe.lstm_forward(seq, fe.pack_lstm_gates(w_x, w_h, b, dtype))
        expected = per_step_lstm(seq, w_x, w_h, b, dtype)
        assert out.dtype == dtype and out.shape == expected.shape
        # the byte comparison includes the sign bit
        assert out.tobytes() == expected.tobytes()


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(fe.softmax(np.zeros(3)), 1 / 3)

    def test_large_logits_no_overflow(self):
        out = fe.softmax(np.array([1000.0, 1000.0, 1000.0]))
        assert np.allclose(out, 1 / 3)

    def test_log_ratios(self):
        out = fe.softmax(np.log([1.0, 2.0, 3.0]))
        assert np.allclose(out, [1 / 6, 2 / 6, 3 / 6])

    @given(st.permutations(range(5)))
    def test_permutation_equivariant(self, perm):
        logits = np.array([0.3, -1.2, 2.5, 0.0, 1.1])
        perm = np.array(perm)
        assert np.allclose(fe.softmax(logits)[perm], fe.softmax(logits[perm]))


class TestForward:
    @pytest.fixture
    def graph(self):
        return build_mc_cnn(5, 16, 8, dense_width=6, num_classes=4, seed=2)

    def test_probabilities_sum_to_one(self, graph):
        w = np.random.default_rng(3).normal(size=(16, 5))
        assert fe.forward(graph, w).sum() == pytest.approx(1.0, abs=1e-6)

    def test_zero_final_dense_gives_uniform(self, graph):
        params = [dict(p) for p in graph.params]
        params[-2] = {"w": np.zeros_like(params[-2]["w"]),
                      "b": np.zeros_like(params[-2]["b"])}
        zeroed = graph.with_params(tuple(params))
        out = fe.forward(zeroed, np.random.default_rng(4).normal(size=(16, 5)))
        assert np.allclose(out, 1 / 4)

    def test_deterministic(self, graph):
        w = np.random.default_rng(5).normal(size=(16, 5))
        assert np.array_equal(fe.forward(graph, w), fe.forward(graph, w))

    def test_shape_mismatch(self, graph):
        with pytest.raises(ShapeMismatchError):
            fe.forward(graph, np.zeros((16, 6)))

    def test_matches_batched_trainer_forward(self, graph):
        # the trainer's predict_* and the reference run one layer loop, so
        # they agree bit for bit on the same batch, LSTM graphs included
        lstm = build_deep_conv_lstm(5, 16, 4, hidden=5, num_classes=4,
                                    seed=7)
        x = np.random.default_rng(6).normal(size=(7, 16, 5))
        for g in (graph, lstm):
            probs = fe.forward(g, x)
            assert probs.shape == (7, 4)
            assert fe.forward_collect(g, x)[-1].tobytes() == probs.tobytes()
            assert training.predict_proba(g, x).tobytes() == probs.tobytes()
            assert training.predict_batch(g, x).tolist() == \
                probs.argmax(axis=1).tolist()


@pytest.fixture(scope="module")
def small_graphs():
    return {"mc_cnn": build_mc_cnn(5, 16, 8, dense_width=6, num_classes=4,
                                   seed=2),
            "lstm": build_deep_conv_lstm(6, 24, 4, hidden=5, seed=13)}


class TestBatch:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 9), arch=st.sampled_from(["mc_cnn", "lstm"]),
           seed=st.integers(0, 2**16))
    def test_collect_equals_the_layer_loop_on_the_same_batch(
            self, small_graphs, n, arch, seed):
        graph = small_graphs[arch]
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n,) + graph.input_shape) \
            * rng.choice([1e-3, 1.0, 30.0], size=(n, 1, 1))
        batched = fe.forward_collect(graph, x)
        assert len(batched) == len(graph.layers) + 1
        assert batched[0].tobytes() == x.tobytes()
        outputs = map(fe.windows,
                      fe.layer_outputs(graph, graph.float64_params, x))
        for act, out in zip(batched[1:], outputs, strict=True):
            assert act.shape == out.shape
            assert act.tobytes() == out.tobytes()
        assert fe.forward(graph, x).tobytes() == batched[-1].tobytes()
        single = fe.forward_collect(graph, x[0])
        assert [a.shape for a in single] == [a.shape[1:] for a in batched]

    def test_kernels_with_leading_axis_equal_per_window(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 10, 4))
        conv_w, conv_b = rng.normal(size=(4, 3, 5)), rng.normal(size=5)
        dense_w, dense_b = rng.normal(size=(4, 6)), rng.normal(size=6)
        lstm = [fe.pack_lstm_gates(rng.normal(size=(4, 8)),
                                   rng.normal(size=(2, 8)),
                                   rng.normal(size=8), dtype)
                for dtype in (np.float64, np.float32)]
        kernels = [
            lambda v: conv1d_forward(v, conv_w, conv_b),
            lambda v: fe.dense_forward(v, dense_w, dense_b),
            fe.relu,
            lambda v: fe.avg_pool1d(v, 3),
            lambda v: fe.lstm_forward(v, lstm[0]),
            lambda v: fe.lstm_forward(v, lstm[1]),
            fe.softmax,
        ]
        for kernel in kernels:
            batched = kernel(x)
            for i in range(len(x)):
                assert batched[i].tobytes() == kernel(x[i]).tobytes()

    @pytest.mark.parametrize("shape", [(3, 16, 6), (2, 3, 16, 5), (5,),
                                       (3, 15, 5)])
    def test_wrong_input_shape_raises(self, small_graphs, shape):
        for run in (fe.forward, fe.forward_collect):
            with pytest.raises(ShapeMismatchError):
                run(small_graphs["mc_cnn"], np.zeros(shape))
