import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinyhar import float_engine as fe
from tinyhar import int8_engine as ie
from tinyhar import modelfile
from tinyhar.model_ir import (LayerKind, ShapeMismatchError,
                              build_deep_conv_lstm, build_mc_cnn)
from tinyhar.modelfile import (CorruptHeaderError, ModelFileError,
                               TruncatedPayloadError, VersionMismatchError,
                               deserialize, serialize)
from tinyhar.quantizer import AccumulatorOverflowError, quantize_model


@pytest.fixture(scope="module")
def float_graph():
    return build_mc_cnn(23, 24, 16, dense_width=8, seed=3)


@pytest.fixture(scope="module")
def quant_model(float_graph):
    rng = np.random.default_rng(0)
    rep = [rng.normal(size=(24, 23)) for _ in range(4)]
    return quantize_model(float_graph, rep)


def test_float_round_trip_bit_exact(float_graph):
    restored = deserialize(serialize(float_graph))
    assert restored.layers == float_graph.layers
    assert restored.input_shape == float_graph.input_shape
    assert restored.num_classes == float_graph.num_classes
    for orig, back in zip(float_graph.params, restored.params):
        assert set(orig) == set(back)
        for name in orig:
            assert orig[name].dtype == back[name].dtype
            assert np.array_equal(orig[name], back[name])


def test_quantized_round_trip_bit_exact(quant_model):
    restored = deserialize(serialize(quant_model))
    assert restored.input_qp == quant_model.input_qp
    for orig, back in zip(quant_model.layers, restored.layers):
        assert orig.spec == back.spec
        assert orig.in_qp == back.in_qp
        assert orig.out_qp == back.out_qp
        assert orig.multiplier == back.multiplier
        if orig.weights is None:
            assert back.weights is None
        else:
            for name in orig.weights:
                assert np.array_equal(orig.weights[name], back.weights[name])
                assert orig.weight_qps[name] == back.weight_qps[name]
        if orig.bias is None:
            assert back.bias is None
        else:
            assert np.array_equal(orig.bias, back.bias)
            assert back.bias.dtype == np.dtype("<i4")


@pytest.fixture(scope="module")
def lstm_quant_model():
    rng = np.random.default_rng(1)
    graph = build_deep_conv_lstm(23, 24, 8, hidden=6, seed=1)
    return quantize_model(graph, [rng.normal(size=(24, 23)) for _ in range(4)])


@settings(max_examples=15, deadline=None)
@given(arch=st.sampled_from(["mc_cnn", "lstm"]), n=st.integers(1, 6),
       seed=st.integers(0, 2**16))
def test_deserialized_model_classifies_like_in_memory(quant_model,
                                                     lstm_quant_model, arch,
                                                     n, seed):
    # the file model packs its weights from the parsed arrays, the
    # in-memory one from those quantize_model made
    model = quant_model if arch == "mc_cnn" else lstm_quant_model
    restored = deserialize(serialize(model))
    x = np.random.default_rng(seed).normal(size=(n, 24, 23)) * 3
    results = []
    for m in (model, restored):
        audit = ie.SaturationAudit()
        probs, classes = ie.run_quantized(m, x, audit)
        results.append((probs.tobytes(), classes.tolist(), audit))
    assert results[0] == results[1]


def test_serialize_is_deterministic(quant_model):
    assert serialize(quant_model) == serialize(quant_model)


def test_lstm_graph_round_trip():
    g = build_deep_conv_lstm(17, 24, 8, hidden=6, seed=1)
    restored = deserialize(serialize(g))
    for orig, back in zip(g.params, restored.params):
        for name in orig:
            assert np.array_equal(orig[name], back[name])


def test_wrong_magic_rejected(float_graph):
    data = bytearray(serialize(float_graph))
    data[:4] = b"NOPE"
    with pytest.raises(CorruptHeaderError):
        deserialize(bytes(data))


def test_version_mismatch_rejected(float_graph):
    data = bytearray(serialize(float_graph))
    data[4:8] = (99).to_bytes(4, "little")
    with pytest.raises(VersionMismatchError):
        deserialize(bytes(data))


def test_truncated_mid_tensor_rejected(float_graph):
    data = serialize(float_graph)
    with pytest.raises(TruncatedPayloadError):
        deserialize(data[:len(data) // 2])


def test_truncated_header_rejected(float_graph):
    with pytest.raises(TruncatedPayloadError):
        deserialize(serialize(float_graph)[:7])


def test_save_load_round_trip(tmp_path, quant_model):
    path = tmp_path / "model.thar"
    written = modelfile.save(quant_model, path)
    assert path.stat().st_size == written
    restored = modelfile.load(path)
    assert restored.input_qp == quant_model.input_qp


# magic, version, precision, three dims and the layer count
HEADER_BYTES = struct.calcsize("<4sIB4I")
LAYER_RECORD_BYTES = struct.calcsize("<B7Id")


@pytest.mark.parametrize("kind", [LayerKind.AVGPOOL1D.value, 99])
def test_bad_layer_kind_raises_corrupt_header(float_graph, quant_model, kind):
    # layer 1 is a ReLU; as a pool its pool width reads 0
    for model in (float_graph, quant_model):
        data = bytearray(serialize(model))
        data[HEADER_BYTES + LAYER_RECORD_BYTES] = kind
        with pytest.raises(CorruptHeaderError):
            deserialize(bytes(data))


def test_accumulator_overflow_raises_on_load(quant_model):
    # the first int32 bias record is conv 0's; set it just inside int32
    filters = len(quant_model.layers[0].bias)
    record = struct.pack("<H1sBBIQ", 1, b"b", 2, 1, filters, 4 * filters)
    data = bytearray(serialize(quant_model))
    start = data.index(record) + len(record)
    data[start:start + 4 * filters] = np.full(filters, 2**31 - 1000,
                                              "<i4").tobytes()
    with pytest.raises(CorruptHeaderError) as info:
        deserialize(bytes(data))
    assert isinstance(info.value.__cause__, AccumulatorOverflowError)


@pytest.fixture(scope="module")
def fuzz_files():
    """Small models of each architecture and precision, serialized, and
    the windows they were calibrated on."""
    x = np.random.default_rng(0).normal(size=(4, 12, 6))
    files = {}
    for arch, graph in (("mc_cnn", build_mc_cnn(6, 12, 8, dense_width=6,
                                                seed=0)),
                        ("deep_conv_lstm", build_deep_conv_lstm(
                            6, 12, 4, hidden=5, seed=0))):
        files[arch, "float"] = serialize(graph)
        files[arch, "int8"] = serialize(quantize_model(graph, x))
    return x, files


@pytest.mark.parametrize("arch", ["mc_cnn", "deep_conv_lstm"])
@pytest.mark.parametrize("precision", ["float", "int8"])
@settings(max_examples=100, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 2**32), st.integers(0, 255)),
                      min_size=1, max_size=2))
def test_corrupt_file_raises_model_file_error_or_runs(fuzz_files, arch,
                                                      precision, edits):
    """A corrupted file either raises a ModelFileError on load, or loads a
    model that classifies the original windows. A changed window length
    that no parameter shape depends on loads, and the original windows
    then raise ShapeMismatchError; input is never built from the file's
    dims, which could ask for gigabytes."""
    x, files = fuzz_files
    data = bytearray(files[arch, precision])
    for where, value in edits:
        data[where % len(data)] = value
    try:
        model = deserialize(bytes(data))
    except ModelFileError:
        return
    run = fe.forward if precision == "float" else ie.run_quantized
    with np.errstate(all="ignore"):  # corrupt weights may overflow
        if model.input_shape == x.shape[1:]:
            run(model, x)
        else:
            with pytest.raises(ShapeMismatchError):
                run(model, x)
