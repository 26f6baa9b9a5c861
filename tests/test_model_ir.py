from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tinyhar import float_engine, model_ir, modelfile
from tinyhar.model_ir import (DivisibilityError, LayerKind,
                              ShapeMismatchError, ShapeUnderflowError,
                              build_deep_conv_lstm, build_mc_cnn,
                              output_shapes, param_count)
from tinyhar.quantizer import quantize_model

ALL_GROUPS = (17, 23, 768, 791)
MC_CNN_LEVELS = (128, 256, 400)
DCL_LEVELS = (32, 64, 100)


def conv_layers(graph):
    return [s for s in graph.layers if s.kind == LayerKind.CONV1D]


class TestBuildMcCnn:
    def test_filter_ratio_400(self):
        g = build_mc_cnn(23, 24, 400)
        convs = conv_layers(g)
        assert convs[0].out_filters == 400
        assert convs[1].out_filters == 100

    def test_filter_ratio_128(self):
        convs = conv_layers(build_mc_cnn(23, 24, 128))
        assert convs[1].out_filters == 32

    def test_indivisible_filters_rejected(self):
        with pytest.raises(DivisibilityError):
            build_mc_cnn(23, 24, 130)

    def test_layer_sequence(self):
        kinds = [s.kind for s in build_mc_cnn(23, 24, 128).layers]
        assert kinds == [LayerKind.CONV1D, LayerKind.RELU, LayerKind.CONV1D,
                         LayerKind.RELU, LayerKind.DROPOUT,
                         LayerKind.AVGPOOL1D, LayerKind.FLATTEN,
                         LayerKind.DENSE, LayerKind.RELU, LayerKind.DENSE,
                         LayerKind.SOFTMAX]

    def test_tiny_window_underflows(self):
        with pytest.raises(ShapeUnderflowError):
            build_mc_cnn(23, 5, 128)  # two valid k=3 convs need >= 6 steps + pool

    @given(st.sampled_from([4, 8, 16, 128, 256, 400]))
    def test_four_to_one_ratio_holds(self, first_filters):
        convs = conv_layers(build_mc_cnn(8, 16, first_filters))
        assert convs[0].out_filters == 4 * convs[1].out_filters


class TestBuildDeepConvLstm:
    def test_uniform_filters(self):
        convs = conv_layers(build_deep_conv_lstm(23, 24, 100))
        assert len(convs) == 4
        assert all(c.out_filters == 100 for c in convs)

    def test_thermal_input_channels(self):
        convs = conv_layers(build_deep_conv_lstm(768, 24, 32))
        assert convs[0].in_channels == 768

    def test_two_lstm_layers(self):
        kinds = [s.kind for s in build_deep_conv_lstm(23, 24, 32).layers]
        assert kinds.count(LayerKind.LSTM) == 2

    def test_window_too_short(self):
        with pytest.raises(ShapeUnderflowError):
            build_deep_conv_lstm(23, 3, 32)  # 4 valid k=3 convs eat 8 steps


@pytest.mark.parametrize("build", [
    lambda: build_mc_cnn(23, 24, 0),
    lambda: build_mc_cnn(0, 24, 16),
    lambda: build_mc_cnn(23, 24, 16, dense_width=0),
    lambda: build_deep_conv_lstm(6, 12, 0),
    lambda: build_deep_conv_lstm(6, 12, 4, hidden=0)],
    ids=["no filters", "no channels", "no dense width", "dcl no filters",
         "no hidden"])
def test_builders_reject_a_zero_dim(build):
    with pytest.raises(model_ir.GraphError):
        build()


class TestParamCount:
    def test_dense(self):
        assert model_ir.layer_param_count(model_ir.dense(10, 15)) == 165

    def test_conv(self):
        spec = model_ir.conv1d(23, 400, 3)
        assert model_ir.layer_param_count(spec) == 23 * 3 * 400 + 400 == 27_600 + 400

    def test_lstm(self):
        assert model_ir.layer_param_count(model_ir.lstm(100, 64)) == 42_240

    @pytest.mark.parametrize("builder,levels", [
        (build_mc_cnn, MC_CNN_LEVELS), (build_deep_conv_lstm, DCL_LEVELS)])
    @pytest.mark.parametrize("channels", ALL_GROUPS)
    def test_matches_stored_scalar_enumeration(self, builder, levels, channels):
        # independent oracle: count every stored scalar in the param tensors
        g = builder(channels, 24, levels[0])
        _, total = param_count(g)
        brute = sum(arr.size for layer in g.params for arr in layer.values())
        assert total == brute


class TestAllPaperConfigs:
    @pytest.mark.parametrize("channels", ALL_GROUPS)
    @pytest.mark.parametrize("level", range(3))
    @pytest.mark.parametrize("arch", ["mc_cnn", "deep_conv_lstm"])
    def test_constructs_with_15_classes(self, channels, level, arch):
        if arch == "mc_cnn":
            g = build_mc_cnn(channels, 24, MC_CNN_LEVELS[level])
        else:
            g = build_deep_conv_lstm(channels, 24, DCL_LEVELS[level])
        assert output_shapes(g.layers, g.input_shape)[-1] == (15,)


def serialized_sizes(graph):
    """(float, int8) sizes of the graph's serialized .thar files."""
    rng = np.random.default_rng(0)
    qmodel = quantize_model(graph, [rng.normal(size=graph.input_shape)
                                    for _ in range(2)])
    return len(modelfile.serialize(graph)), len(modelfile.serialize(qmodel))


class TestModelSize:
    def test_float_size_no_overhead(self):
        # a float file stores every parameter in 4 bytes: two graphs of the
        # same structure differ by 4 bytes per extra parameter
        small = build_mc_cnn(8, 16, 8, dense_width=4, num_classes=3)
        large = build_mc_cnn(8, 16, 8, dense_width=9, num_classes=3)
        extra = param_count(large)[1] - param_count(small)[1]
        assert extra > 0
        assert (len(modelfile.serialize(large))
                - len(modelfile.serialize(small))) == 4 * extra

    def test_int8_strictly_smaller(self):
        size_f, size_q = serialized_sizes(build_mc_cnn(23, 24, 128))
        assert size_q < size_f

    @pytest.mark.parametrize("channels", ALL_GROUPS)
    @pytest.mark.parametrize("first_filters", MC_CNN_LEVELS)
    def test_ratio_in_paper_band(self, channels, first_filters):
        size_f, size_q = serialized_sizes(
            build_mc_cnn(channels, 24, first_filters))
        assert 3.0 <= size_f / size_q <= 4.5


class TestGraphImmutability:
    def test_params_frozen(self):
        g = build_mc_cnn(8, 16, 8)
        with pytest.raises(ValueError):
            g.params[0]["w"][0, 0, 0] = 1.0

    def test_float64_params_cast_once_and_exactly(self):
        g = build_deep_conv_lstm(8, 24, 4, hidden=5)
        cast = g.float64_params
        assert g.float64_params is cast
        for spec, params, params64 in zip(g.layers, g.params, cast):
            if spec.kind == LayerKind.LSTM:  # packed from the exact cast
                params = {k: v.astype(np.float64) for k, v in params.items()}
                params64 = vars(params64)
                packed = vars(float_engine.pack_lstm_gates(**params))
                assert sorted(params64) == sorted(packed)
                for name, arr in packed.items():
                    assert params64[name].tobytes() == arr.tobytes()
                continue
            assert sorted(params) == sorted(params64)
            for name, arr in params.items():
                assert params64[name].dtype == np.float64
                assert params64[name].astype(np.float32).tobytes() == \
                    arr.tobytes()


def stacked(block):
    """The (N, T, C) windows of a FrameBlock, gathered by its index."""
    return block.frames[block.index]


class TestMapBlocks:
    def test_blocks_cover_the_windows_in_order(self):
        x = np.random.default_rng(0).normal(size=(9, 4, 2)).astype(np.float32)
        blocks = []

        def record(block):
            blocks.append(block)
            return stacked(block)

        with mock.patch.object(model_ir, "BLOCK_WINDOWS", 4):
            out = model_ir.map_blocks(record, x, (4, 2))
        assert all(isinstance(b, model_ir.FrameBlock) for b in blocks)
        assert [b.shape for b in blocks] == [(4, 4, 2), (4, 4, 2), (1, 4, 2)]
        assert all(b.frames.dtype == np.float64 for b in blocks)
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("x, shape", [
        (np.ones((4, 2)), (1, 4, 2)),          # one window
        (np.zeros((0, 4, 2)), (0, 4, 2)),      # no window
        ([np.ones((4, 2)), np.zeros((4, 2))], (2, 4, 2)),  # a sequence
        (np.ones((3, 4, 2)), (3, 4, 2)),       # an array
    ])
    def test_every_input_is_a_frame_block(self, x, shape):
        def shape_of(block):
            assert isinstance(block, model_ir.FrameBlock)
            assert block.frames.dtype == np.float64
            assert np.array_equal(stacked(block),
                                  np.reshape(x, (-1, 4, 2)))
            return np.array([block.shape])

        assert model_ir.map_blocks(shape_of, x, (4, 2)).tolist() == \
            [list(shape)]

    def test_an_array_block_is_a_view_with_an_arithmetic_index(self):
        x = np.random.default_rng(1).normal(size=(5, 4, 2))
        blocks = []

        def record(block):
            blocks.append(block)
            return np.zeros(len(block.index))

        with mock.patch.object(np, "unique",
                               side_effect=AssertionError("np.unique")):
            model_ir.map_blocks(record, x, (4, 2))
        [block] = blocks
        assert np.shares_memory(block.frames, x)
        assert block.frames.shape == (20, 2)
        assert block.index.tolist() == np.arange(20).reshape(5, 4).tolist()

    @pytest.mark.parametrize("x", [np.zeros((0, 4, 3)), np.zeros((2, 4)),
                                   [np.zeros((4, 2)), np.zeros((3, 2))]])
    def test_wrong_shapes_raise(self, x):
        with pytest.raises(ShapeMismatchError):
            model_ir.map_blocks(lambda block: block, x, (4, 2))
