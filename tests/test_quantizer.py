import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinyhar import float_engine as fe
from tinyhar import int8_engine, model_ir, modelfile
from tinyhar.model_ir import (GraphError, LayerKind, NonFiniteInputError,
                              ShapeMismatchError, build_deep_conv_lstm,
                              build_mc_cnn)
from tinyhar.quantizer import (DEGENERATE_SCALE, AccumulatorOverflowError,
                               BiasOverflowError, EmptyDatasetError,
                               FixedPointMultiplier,
                               NonPositiveMultiplierError, QuantizedModel,
                               QuantParams, RangeOverflowError,
                               affine_params, calibrate, decompose_multiplier,
                               dequantize, pack_linear, quantize_model,
                               quantize_tensor, symmetric_params)


class TestQuantParams:
    @pytest.mark.parametrize("scale", [0.0, np.nan, np.inf])
    def test_scale_not_finite_and_positive_rejected(self, scale):
        with pytest.raises(ValueError):
            QuantParams(scale, 0)


class TestAffineParams:
    def test_relu6_style_range(self):
        qp = affine_params(0.0, 6.0)
        assert qp.scale == pytest.approx(6.0 / 255.0)
        assert qp.zero_point == -128

    def test_symmetric_weight_range(self):
        qp = symmetric_params(-1.0, 1.0)
        assert qp.scale == pytest.approx(1.0 / 127.0)
        assert qp.zero_point == 0

    def test_degenerate_range(self):
        qp = affine_params(0.0, 0.0)
        assert qp.scale == DEGENERATE_SCALE
        assert qp.zero_point == -128

    @given(st.floats(-100, 0), st.floats(0, 100))
    def test_zero_exactly_representable(self, lo, hi):
        qp = affine_params(lo, hi)
        assert dequantize(np.array([qp.zero_point]), qp)[0] == 0.0
        assert quantize_tensor(np.array([0.0]), qp)[0] == qp.zero_point


class TestQuantizeDequantize:
    def test_zero_maps_to_zero_point(self):
        qp = affine_params(-2.0, 3.0)
        assert quantize_tensor(np.zeros(5), qp)[0] == qp.zero_point

    def test_saturation_above_range(self):
        qp = affine_params(0.0, 1.0)
        assert quantize_tensor(np.array([100.0]), qp)[0] == 127

    def test_round_trip_error_bound_brute_force(self):
        rng = np.random.default_rng(0)
        lo, hi = -1.5, 2.5
        qp = affine_params(lo, hi)
        x = rng.uniform(lo, hi, size=10_000)
        err = np.abs(dequantize(quantize_tensor(x, qp), qp) - x)
        assert err.max() <= qp.scale / 2 + 1e-9

    @staticmethod
    def three_temporaries(x, qp):
        """The formula quantize_tensor computes in place."""
        q = np.round(np.asarray(x, dtype=np.float64) / qp.scale) \
            + qp.zero_point
        return np.clip(q, -128, 127).astype(np.int8)

    @pytest.mark.parametrize("zero_point", [-128, -3, 0, 127])
    def test_equals_the_formula(self, zero_point):
        qp = QuantParams(0.25, zero_point)
        steps = np.arange(-300, 300)
        rng = np.random.default_rng(5)
        x = np.concatenate([
            (steps + 0.5) * qp.scale, (steps - 0.5) * qp.scale,  # ties
            [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300],  # zeros, rails
            rng.normal(scale=40.0, size=1000)]).reshape(2, -1)
        want = self.three_temporaries(x, qp)
        got = quantize_tensor(x, qp)
        assert got.dtype == np.int8 and got.shape == x.shape
        assert got.tobytes() == want.tobytes()
        assert {-128, 127} <= set(got.ravel().tolist())

    @pytest.mark.parametrize("x", [0.375, -0.0, 1e300, np.array(-0.125),
                                   np.float32(0.625)])
    def test_scalar_input(self, x):
        qp = QuantParams(0.25, -3)
        got = quantize_tensor(x, qp)
        assert got.dtype == np.int8 and got.shape == ()
        assert got == self.three_temporaries(x, qp)

    def test_float32_input_is_cast_before_the_divide(self):
        qp = QuantParams(0.1, 7)
        # float32 values next to the ties, where a float32 divide rounds
        # some of them to other integers
        x = ((np.arange(-130, 130) + 0.5) * qp.scale).astype(np.float32)
        got = quantize_tensor(x, qp)
        assert got.tobytes() == self.three_temporaries(x, qp).tobytes()
        in_float32 = np.clip(np.round(x / np.float32(qp.scale))
                             + qp.zero_point, -128, 127).astype(np.int8)
        assert got.tobytes() != in_float32.tobytes()


class TestPackLinear:
    """``pack_linear``'s chunk plan: the fewest equal runs of the K * C
    rows, consecutive and covering them all, with lengths that differ by
    at most one, each column of each run with a bound 128 * sum|w| below
    2**24 that the same plan with one run fewer exceeds; every chunk is a
    row view of one float32 copy of the matrix."""

    @staticmethod
    def bound(w, edges):  # the largest 128 * sum|w| of the runs' columns
        return max((128 * np.abs(w[a:b]).sum(axis=0)).max()
                   for a, b in zip(edges, edges[1:]))

    @staticmethod
    def check_plan(matrix, packed):
        w = matrix.astype(np.int64)
        runs = [rows for rows, _ in packed.chunks]
        edges = [0] + [rows.stop for rows in runs]
        assert [rows.start for rows in runs] == edges[:-1]
        assert edges[-1] == len(w)
        assert all(rows.step is None for rows in runs)
        lengths = {rows.stop - rows.start for rows in runs}
        assert min(lengths) > 0 and max(lengths) - min(lengths) <= 1
        assert TestPackLinear.bound(w, edges) < 2**24
        if len(runs) > 1:
            fewer = len(runs) - 1
            assert TestPackLinear.bound(
                w, [i * len(w) // fewer for i in range(fewer + 1)]) >= 2**24
        whole = packed.chunks[0][1].base
        assert whole.dtype == np.float32 and whole.flags.c_contiguous
        assert whole.tobytes() == w.astype(np.float32).tobytes()
        address = whole.__array_interface__["data"][0]
        for rows, chunk in packed.chunks:
            assert chunk.base is whole
            assert chunk.shape == (rows.stop - rows.start, w.shape[1])
            assert chunk.__array_interface__["data"][0] \
                == address + rows.start * whole.strides[0]

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 3000), kernel=st.sampled_from([None, 1, 3]),
           columns=st.integers(1, 6), magnitude=st.integers(0, 127),
           zero_point=st.integers(-128, 127), seed=st.integers(0, 2**16))
    def test_chunks_cover_the_rows_within_the_bound(self, rows, kernel,
                                                    columns, magnitude,
                                                    zero_point, seed):
        rng = np.random.default_rng(seed)
        shape = (rows, columns) if kernel is None \
            else (-(-rows // kernel), kernel, columns)
        q_w = rng.integers(-magnitude, magnitude + 1, size=shape)
        q_w[rng.random(shape) < 0.5] = 127  # some columns far over 2**24
        q_w = q_w.astype(np.int8)
        bias = rng.integers(-1000, 1000, size=columns).astype(np.int32)
        packed = pack_linear(q_w, bias, zero_point)
        matrix = q_w if kernel is None else fe.conv_matrix(q_w)
        self.check_plan(matrix, packed)
        assert packed.kernel == (kernel or 1)
        assert packed.bias.tolist() == [
            b - zero_point * s for b, s in zip(
                bias.tolist(), matrix.astype(np.int64).sum(axis=0).tolist())]

    def test_full_scale_791_channel_conv_splits(self):
        q_w = np.random.default_rng(7).choice(
            np.array([-127, 127], dtype=np.int8), size=(791, 3, 16))
        packed = pack_linear(q_w, np.zeros(16, dtype=np.int32), -128)
        assert len(packed.chunks) >= 2
        self.check_plan(fe.conv_matrix(q_w), packed)


class TestDecomposeMultiplier:
    def test_half(self):
        m = decompose_multiplier(0.5)
        assert m == FixedPointMultiplier(1 << 30, 0)

    def test_quarter(self):
        m = decompose_multiplier(0.25)
        assert m == FixedPointMultiplier(1 << 30, -1)

    def test_one_third_reconstruction(self):
        m = decompose_multiplier(1 / 3)
        assert abs(m.value - 1 / 3) / (1 / 3) <= 2.0 ** -30

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveMultiplierError):
            decompose_multiplier(0.0)

    @pytest.mark.parametrize("m", [np.inf, np.nan])
    def test_non_finite_rejected(self, m):
        with pytest.raises(NonPositiveMultiplierError):
            decompose_multiplier(m)

    def test_brute_force_reconstruction(self):
        rng = np.random.default_rng(1)
        for m in rng.uniform(1e-6, 8.0, size=10_000):
            fp = decompose_multiplier(m)
            assert (1 << 30) <= fp.mantissa < (1 << 31)
            assert abs(fp.value - m) / m <= 2.0 ** -30


@pytest.fixture(scope="module")
def small_graph():
    return build_mc_cnn(4, 16, 8, dense_width=6, num_classes=3, seed=5)


class TestCalibrate:
    def test_empty_dataset_rejected(self, small_graph):
        with pytest.raises(EmptyDatasetError):
            calibrate(small_graph, [])

    def test_zero_window_ranges_contain_zero(self, small_graph):
        ranges = calibrate(small_graph, [np.zeros((16, 4))])
        for lo, hi in ranges:
            assert lo <= 0.0 <= hi

    def test_two_window_union(self, small_graph):
        # one window per block, so each window runs alone in both calls
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(2, 16, 4))
        ra = calibrate(small_graph, [a])
        rb = calibrate(small_graph, [b])
        with mock.patch.object(model_ir, "BLOCK_WINDOWS", 1):
            rab = calibrate(small_graph, [a, b])
        for (lo_a, hi_a), (lo_b, hi_b), (lo, hi) in zip(ra, rb, rab):
            assert lo == min(lo_a, lo_b)
            assert hi == max(hi_a, hi_b)

    def test_relu_output_min_is_zero(self, small_graph):
        rng = np.random.default_rng(3)
        windows = [rng.normal(size=(16, 4)) for _ in range(5)]
        # forward oracle: recompute post-ReLU activations directly
        ranges = calibrate(small_graph, windows)
        for i, spec in enumerate(small_graph.layers):
            if spec.kind == LayerKind.RELU:
                lo, hi = ranges[i + 1]
                oracle_min = min(fe.forward_collect(small_graph, w)[i + 1].min()
                                 for w in windows)
                assert lo == max(0.0, min(oracle_min, 0.0)) == 0.0


def per_window_ranges(graph, windows, block):
    """The calibration fold, window by window, over one forward_collect
    call per block of ``block`` windows."""
    ranges = None
    for start in range(0, len(windows), block):
        for acts in zip(*fe.forward_collect(graph,
                                            windows[start:start + block])):
            if ranges is None:
                ranges = [(float(a.min()), float(a.max())) for a in acts]
            else:
                ranges = [(min(lo, float(a.min())), max(hi, float(a.max())))
                          for (lo, hi), a in zip(ranges, acts)]
    return [(min(lo, 0.0), max(hi, 0.0)) for lo, hi in ranges]


class TestCalibrateBlocks:
    @pytest.fixture(scope="class")
    def graphs(self):
        return [build_mc_cnn(4, 16, 8, dense_width=6, num_classes=3, seed=5),
                build_deep_conv_lstm(6, 24, 4, hidden=5, seed=13)]

    @pytest.mark.parametrize("block", [2, 3])
    def test_blocks_equal_per_window_fold(self, graphs, block):
        rng = np.random.default_rng(21)
        for graph in graphs:
            x = rng.normal(size=(7,) + graph.input_shape)
            x[1] = 0.0
            x[4] = -0.0  # all-zero windows, both signs of zero
            x[5, ::2] = -0.0
            # zero-only sets, where the sign of a bound is the first
            # window's: a min or max over a whole block may pick either
            zeros = np.zeros((2, 7) + graph.input_shape)
            zeros[0, ::2] = zeros[1, 1::2] = -0.0
            for windows in (x, *zeros):
                expected = per_window_ranges(graph, windows, block)
                with mock.patch.object(model_ir, "BLOCK_WINDOWS", block):
                    got = calibrate(graph, list(windows))
                assert (np.array(got).tobytes()
                        == np.array(expected).tobytes())

    def test_wrongly_shaped_window_raises(self, small_graph):
        rep = [np.zeros((16, 4)), np.zeros((16, 5)), np.zeros((16, 4))]
        with pytest.raises(ShapeMismatchError):
            calibrate(small_graph, rep)


class TestQuantizeModel:
    @pytest.fixture
    def rep(self):
        rng = np.random.default_rng(4)
        return [rng.normal(size=(16, 4)) for _ in range(6)]

    def test_size_ratio_at_realistic_scale(self):
        # on a toy graph the per-tensor quantization metadata dominates, so
        # the near-4x weight shrink only shows at production filter counts
        graph = build_mc_cnn(23, 24, 128, seed=5)
        rng = np.random.default_rng(4)
        qm = quantize_model(graph, [rng.normal(size=(24, 23))
                                    for _ in range(4)])
        ratio = (len(modelfile.serialize(graph))
                 / len(modelfile.serialize(qm)))
        assert 3.0 <= ratio <= 4.5

    def test_bias_scale_contract(self, small_graph, rep):
        qm = quantize_model(small_graph, rep)
        for ql, params in zip(qm.layers, small_graph.params):
            if ql.spec.kind in (LayerKind.CONV1D, LayerKind.DENSE):
                bias_scale = ql.in_qp.scale * ql.weight_qps["w"].scale
                expected = np.round(params["b"].astype(np.float64) / bias_scale)
                assert np.array_equal(ql.bias, expected.astype(np.int32))

    def test_weights_symmetric(self, small_graph, rep):
        qm = quantize_model(small_graph, rep)
        for ql in qm.layers:
            if ql.weight_qps:
                assert all(qp.zero_point == 0 for qp in ql.weight_qps.values())

    def test_softmax_output_coding(self, small_graph, rep):
        qm = quantize_model(small_graph, rep)
        assert qm.layers[-1].out_qp == QuantParams(1 / 256, -128)

    def test_deterministic(self, small_graph, rep):
        a = modelfile.serialize(quantize_model(small_graph, rep))
        b = modelfile.serialize(quantize_model(small_graph, rep))
        assert a == b

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_representative_window_raises(self, small_graph, rep,
                                                     bad):
        rep[2][5, 1] = bad
        with pytest.raises(NonFiniteInputError):
            quantize_model(small_graph, rep)

    def test_bias_beyond_int32_raises(self, small_graph):
        # an all-zero representative window gives the input a degenerate
        # scale, so the first conv's bias of 0.5 needs far more than int32
        params = [dict(p) for p in small_graph.params]
        params[0]["b"] = np.full_like(params[0]["b"], 0.5)
        graph = small_graph.with_params(tuple(params))
        with pytest.raises(BiasOverflowError, match="layer 0 .CONV1D."):
            quantize_model(graph, [np.zeros((16, 4))])

    def test_accumulator_beyond_int32_raises(self, small_graph, rep):
        # a bias just inside int32 passes the bias check, but the int8
        # products can add up to 255 * sum|w| more, past the int32 limit
        first = quantize_model(small_graph, rep).layers[0]
        bias_scale = first.in_qp.scale * first.weight_qps["w"].scale
        params = [dict(p) for p in small_graph.params]
        params[0]["b"] = np.full_like(params[0]["b"],
                                      (2**31 - 1000) * bias_scale)
        bias = np.round(params[0]["b"].astype(np.float64) / bias_scale)
        assert np.abs(bias).max() < 2**31
        graph = small_graph.with_params(tuple(params))
        with pytest.raises(AccumulatorOverflowError, match="layer 0 .CONV1D."):
            quantize_model(graph, rep)

    def test_overflowing_input_range_raises(self, small_graph):
        window = np.full((16, 4), 1e308)
        with np.errstate(all="ignore"), \
                pytest.raises(RangeOverflowError, match="the input"):
            quantize_model(small_graph, [window, -window])

    @settings(max_examples=60, deadline=None)
    @given(arch=st.sampled_from(["mc_cnn", "lstm"]),
           input_exp=st.none() | st.integers(-330, 307),
           bias_exp=st.integers(-330, 307),
           weight_exp=st.integers(-40, 40),
           seed=st.integers(0, 2**16))
    def test_degenerate_and_extreme_ranges(self, arch, input_exp, bias_exp,
                                           weight_exp, seed):
        """Quantizing either succeeds, giving a model whose outputs are
        probabilities, or raises a typed error. Tiny and huge input,
        weight and bias magnitudes reach every rail of float64; an input
        exponent of None is an all-zero, degenerate input range."""
        graph = (build_mc_cnn(4, 16, 8, dense_width=6, num_classes=5, seed=1)
                 if arch == "mc_cnn" else
                 build_deep_conv_lstm(4, 16, 4, hidden=3, num_classes=5,
                                      seed=1))
        rng = np.random.default_rng(seed)
        params = [{name: rng.uniform(-1, 1, size=p.shape)
                   * 10.0 ** (bias_exp if name == "b" else weight_exp)
                   for name, p in layer.items()} for layer in graph.params]
        graph = graph.with_params(tuple(params))
        scale = 0.0 if input_exp is None else 10.0 ** input_exp
        rep = rng.uniform(-1, 1, size=(3, 16, 4)) * scale
        with np.errstate(all="ignore"):  # float64 overflow is expected
            try:
                qm = quantize_model(graph, list(rep))
            except (BiasOverflowError, AccumulatorOverflowError,
                    RangeOverflowError, NonPositiveMultiplierError):
                return
            probs, classes = int8_engine.run_quantized(qm, rep)
        assert np.all((probs >= 0) & (probs <= 1))
        assert np.all((classes >= 0) & (classes < 5))

    def test_int8_model_weights_are_int8(self, small_graph, rep):
        qm = quantize_model(small_graph, rep)
        for ql in qm.layers:
            if ql.weights:
                for arr in ql.weights.values():
                    assert arr.dtype == np.int8
            if ql.bias is not None:
                assert ql.bias.dtype == np.int32

    def test_quantizing_packs_nothing(self, small_graph, rep):
        # packing is the engine's cost, paid on the first inference
        qm = quantize_model(small_graph, rep)
        weighted = [ql for ql in qm.layers if ql.weights]
        assert weighted
        assert all("packed" not in vars(ql) for ql in qm.layers)
        int8_engine.run_quantized(qm, np.stack(rep))
        assert all("packed" in vars(ql) for ql in weighted)


class TestQuantizedModelChecks:
    """A QuantizedModel checks its layers when built, as a ModelGraph
    does, so the int8 kernels need not check them on every call."""

    @pytest.fixture(scope="class")
    def qm(self, small_graph):
        rng = np.random.default_rng(4)
        return quantize_model(small_graph,
                              [rng.normal(size=(16, 4)) for _ in range(3)])

    @staticmethod
    def rebuilt(qm, index, **changes):
        layers = list(qm.layers)
        layers[index] = dataclasses.replace(layers[index], **changes)
        return QuantizedModel(layers, qm.input_shape, qm.num_classes,
                              qm.input_qp)

    @pytest.mark.parametrize("index, field, edit, error", [
        pytest.param(0, "weights", lambda ql: {"w": ql.weights["w"][1:]},
                     ShapeMismatchError, id="conv-weights-for-3-channels"),
        pytest.param(7, "weights", lambda ql: {"w": ql.weights["w"][:, 1:]},
                     ShapeMismatchError, id="dense-weights-too-narrow"),
        pytest.param(0, "weights", lambda ql: None, GraphError,
                     id="conv-without-weights"),
        pytest.param(7, "bias", lambda ql: None, GraphError,
                     id="dense-without-bias"),
        pytest.param(0, "multiplier", lambda ql: None, GraphError,
                     id="conv-without-multiplier"),
        pytest.param(1, "multiplier", lambda ql: None, GraphError,
                     id="relu-without-multiplier"),
        pytest.param(9, "multiplier", lambda ql: None, GraphError,
                     id="dense-without-multiplier"),
    ])
    def test_malformed_layer_rejected(self, qm, index, field, edit, error):
        with pytest.raises(error):
            self.rebuilt(qm, index, **{field: edit(qm.layers[index])})

    def test_accumulator_bound_checked(self, qm):
        bias = np.full_like(qm.layers[0].bias, 2**31 - 1000)
        with pytest.raises(AccumulatorOverflowError, match="layer 0 .CONV1D."):
            self.rebuilt(qm, 0, bias=bias)
