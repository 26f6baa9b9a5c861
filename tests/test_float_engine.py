import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinyhar import float_engine as fe
from tinyhar.model_ir import (ShapeMismatchError, build_deep_conv_lstm,
                              build_mc_cnn, dense)
from tinyhar import training


class TestConv1d:
    def test_kernel1_identity(self):
        x = np.array([[1.0], [2.0], [-3.0]])
        w = np.ones((1, 1, 1))
        out = fe.conv1d_forward(x, w, np.zeros(1))
        assert np.array_equal(out, x)

    def test_hand_convolution(self):
        # input [1..5], box kernel [1,1,1] -> sliding sums
        x = np.arange(1.0, 6.0).reshape(5, 1)
        w = np.ones((1, 3, 1))
        out = fe.conv1d_forward(x, w, np.zeros(1))
        assert np.array_equal(out.ravel(), [6.0, 9.0, 12.0])
        out3 = fe.conv1d_forward(x[:3], w, np.zeros(1))
        assert np.array_equal(out3.ravel(), [6.0])

    def test_bias_only(self):
        x = np.random.default_rng(0).normal(size=(6, 4))
        w = np.zeros((4, 3, 2))
        out = fe.conv1d_forward(x, w, np.array([7.0, 7.0]))
        assert np.all(out == 7.0)

    def test_channel_mismatch(self):
        # the graph checks its conv weights once; the kernel trusts them
        graph = build_mc_cnn(4, 16, 8)
        params = [dict(p) for p in graph.params]
        params[0]["w"] = np.zeros((3, 3, 8), np.float32)
        with pytest.raises(ShapeMismatchError):
            graph.with_params(tuple(params))


def per_step_conv(x, w, b):
    """Oracle: one row product per output time step."""
    kernel = w.shape[1]
    lead = x.shape[:-2]
    out_steps = x.shape[-2] - kernel + 1
    w2 = fe.conv_matrix(w)
    out = np.empty(lead + (out_steps, w.shape[2]), dtype=np.result_type(x, w))
    for t in range(out_steps):
        out[..., t, :] = fe._rowwise_matmul(
            x[..., t:t + kernel, :].reshape(lead + (-1,)), w2)
    return out + b


class TestConv1dOracle:
    @settings(max_examples=60, deadline=None)
    @given(lead=st.sampled_from([(), (1,), (3,), (2, 3)]),
           kernel=st.integers(1, 4), extra_steps=st.integers(0, 6),
           channels=st.integers(1, 9), filters=st.integers(1, 7),
           x_dtype=st.sampled_from([np.float32, np.float64]),
           weight_dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**16))
    def test_equals_per_step_oracle(self, lead, kernel, extra_steps,
                                    channels, filters, x_dtype, weight_dtype,
                                    seed):
        rng = np.random.default_rng(seed)
        x = mixed_magnitude(rng, (*lead, kernel + extra_steps, channels),
                            x_dtype)
        w = mixed_magnitude(rng, (channels, kernel, filters), weight_dtype)
        b = mixed_magnitude(rng, filters, weight_dtype)
        out = fe.conv1d_forward(x, w, b)
        expected = per_step_conv(x, w, b)
        assert out.dtype == expected.dtype == np.result_type(x_dtype,
                                                             weight_dtype)
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
        out = fe.lstm_forward(seq, np.zeros((3, 8)), np.zeros((2, 8)),
                              np.zeros(8))
        assert np.all(out == 0.0)

    def test_forget_gate_saturation(self):
        # huge forget bias, everything else zero: cell stays at c_0 = 0
        hidden = 2
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 100.0
        seq = np.random.default_rng(1).normal(size=(6, 3))
        out = fe.lstm_forward(seq, np.zeros((3, 8)), np.zeros((hidden, 8)), b)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_scalar_hand_evaluation(self):
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
        out = fe.lstm_forward(np.array([[x]]), w_x, w_h, b)
        assert out[0, 0] == pytest.approx(expected, rel=1e-12)


def piecewise_sigmoid(x):
    """Oracle: the masked piecewise sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def per_step_lstm(seq, w_x, w_h, b):
    """Oracle: two GEMV calls and three per-gate sigmoid calls per step."""
    hidden = w_h.shape[0]
    h = np.zeros(seq.shape[:-2] + (hidden,))
    c = np.zeros(seq.shape[:-2] + (hidden,))
    out = np.empty(seq.shape[:-1] + (hidden,))
    for t in range(seq.shape[-2]):
        gates = (fe._rowwise_matmul(seq[..., t, :], w_x)
                 + fe._rowwise_matmul(h, w_h) + b)
        i = piecewise_sigmoid(gates[..., :hidden])
        f = piecewise_sigmoid(gates[..., hidden:2 * hidden])
        g = np.tanh(gates[..., 2 * hidden:3 * hidden])
        o = piecewise_sigmoid(gates[..., 3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[..., t, :] = h
    return out


def mixed_magnitude(rng, shape, dtype=np.float64):
    return (rng.normal(size=shape)
            * 10.0 ** rng.uniform(-3, 3, size=shape)).astype(dtype)


class TestSigmoid:
    EXTREMES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1.0, -1.0,
                36.7, -36.7, 709.8, -709.8, 745.0, -745.0, 1e308, -1e308,
                np.inf, -np.inf]

    def test_equals_piecewise_form(self):
        rng = np.random.default_rng(23)
        x = np.concatenate([mixed_magnitude(rng, 10_000), self.EXTREMES])
        # the byte comparison includes the sign bit
        assert fe.sigmoid(x).tobytes() == piecewise_sigmoid(x).tobytes()
        grid = x[:9_996].reshape(3, 4, -1)
        assert fe.sigmoid(grid).tobytes() == \
            piecewise_sigmoid(grid).tobytes()

    def test_no_overflow_at_the_rails(self):
        with np.errstate(over="raise", invalid="raise"):
            out = fe.sigmoid(np.array([-1e308, -745.0, 745.0, 1e308]))
        assert out[0] == 0.0 and out[-1] == 1.0


class TestLstmOracle:
    @settings(max_examples=40, deadline=None)
    @given(lead=st.sampled_from([(), (1,), (3,), (2, 3)]),
           steps=st.integers(1, 6), width=st.integers(1, 9),
           hidden=st.integers(1, 7),
           weight_dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**16))
    def test_equals_per_step_oracle(self, lead, steps, width, hidden,
                                    weight_dtype, seed):
        rng = np.random.default_rng(seed)
        seq = mixed_magnitude(rng, (*lead, steps, width))
        w_x = mixed_magnitude(rng, (width, 4 * hidden), weight_dtype)
        w_h = mixed_magnitude(rng, (hidden, 4 * hidden), weight_dtype)
        b = mixed_magnitude(rng, 4 * hidden, weight_dtype)
        out = fe.lstm_forward(seq, w_x, w_h, b)
        expected = per_step_lstm(seq, w_x, w_h, b)
        assert out.shape == expected.shape
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
        # the trainer's vectorized path and the reference must agree
        x = np.random.default_rng(6).normal(size=(7, 16, 5))
        batched = training.predict_proba(graph, x)
        for i in range(7):
            assert np.allclose(batched[i], fe.forward(graph, x[i]), atol=1e-10)


@pytest.fixture(scope="module")
def small_graphs():
    return {"mc_cnn": build_mc_cnn(5, 16, 8, dense_width=6, num_classes=4,
                                   seed=2),
            "lstm": build_deep_conv_lstm(6, 24, 4, hidden=5, seed=13)}


class TestBatch:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 9), arch=st.sampled_from(["mc_cnn", "lstm"]),
           seed=st.integers(0, 2**16))
    def test_batch_equals_single_window_calls(self, small_graphs, n, arch,
                                              seed):
        graph = small_graphs[arch]
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n,) + graph.input_shape) \
            * rng.choice([1e-3, 1.0, 30.0], size=(n, 1, 1))
        singles = [fe.forward_collect(graph, w) for w in x]
        batched = fe.forward_collect(graph, x)
        assert len(batched) == len(singles[0]) == len(graph.layers) + 1
        for layer, act in enumerate(batched):
            stacked = np.stack([acts[layer] for acts in singles])
            assert act.shape == stacked.shape
            assert act.tobytes() == stacked.tobytes()
        assert fe.forward(graph, x).tobytes() == batched[-1].tobytes()

    def test_kernels_with_leading_axis_equal_per_window(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 10, 4))
        conv_w, conv_b = rng.normal(size=(4, 3, 5)), rng.normal(size=5)
        dense_w, dense_b = rng.normal(size=(4, 6)), rng.normal(size=6)
        w_x, w_h = rng.normal(size=(4, 8)), rng.normal(size=(2, 8))
        lstm_b = rng.normal(size=8)
        kernels = [
            lambda v: fe.conv1d_forward(v, conv_w, conv_b),
            lambda v: fe.dense_forward(v, dense_w, dense_b),
            fe.relu,
            lambda v: fe.avg_pool1d(v, 3),
            lambda v: fe.lstm_forward(v, w_x, w_h, lstm_b),
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
