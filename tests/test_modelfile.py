import dataclasses
import struct
import types
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinyhar import float_engine as fe
from tinyhar import int8_engine as ie
from tinyhar import model_ir, modelfile
from tinyhar.datapipe import DatasetStats
from tinyhar.model_ir import (LayerKind, ModelGraph, Precision,
                              ShapeMismatchError, build_deep_conv_lstm,
                              build_mc_cnn)
from tinyhar.modelfile import (ChecksumError, CorruptHeaderError,
                               ModelFileError, TruncatedPayloadError,
                               VersionMismatchError, deserialize, serialize)
from tinyhar.quantizer import AccumulatorOverflowError, quantize_model


@pytest.fixture(scope="module")
def float_graph():
    return build_mc_cnn(23, 24, 16, dense_width=8, seed=3)


@pytest.fixture(scope="module")
def quant_model(float_graph):
    rng = np.random.default_rng(0)
    rep = [rng.normal(size=(24, 23)) for _ in range(4)]
    return quantize_model(float_graph, rep)


def stats_for(channels: int, seed: int = 0) -> DatasetStats:
    rng = np.random.default_rng(seed)
    return DatasetStats(mean=rng.normal(size=channels),
                        std=rng.uniform(0.0, 3.0, size=channels))


def body(model) -> bytearray:
    """The serialized model without its CRC trailer, to edit and reseal:
    a test of a check behind the CRC needs a file whose CRC holds."""
    return bytearray(serialize(model)[:-4])


def sealed(data) -> bytes:
    return bytes(data) + struct.pack("<I", zlib.crc32(bytes(data)))


def stats_record(mean, std) -> bytes:
    """A stats record as the format documents it: flag 1, then float64
    tensor records "mean" and "std"."""
    record = b"\x01"
    for name, arr in (("mean", mean), ("std", std)):
        payload = np.asarray(arr, "<f8").tobytes()
        record += struct.pack(f"<H{len(name)}sBBIQ", len(name), name.encode(),
                              3, 1, len(arr), len(payload)) + payload
    return record


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


@pytest.mark.parametrize("arch", ["mc_cnn", "lstm"])
def test_a_model_states_its_specs_and_precision(float_graph, quant_model,
                                                lstm_quant_model, arch,
                                                tmp_path):
    # built, quantized and loaded models alike; the file's precision byte
    # follows the magic and the u32 version
    graph, qmodel = ((float_graph, quant_model) if arch == "mc_cnn" else
                     (build_deep_conv_lstm(23, 24, 8, hidden=6, seed=1),
                      lstm_quant_model))
    for model, precision in ((graph, Precision.FLOAT32),
                             (qmodel, Precision.INT8_FULL)):
        path = tmp_path / f"{precision.name}.thar"
        modelfile.save(model, path)
        for m in (model, modelfile.load(path)):
            assert m.precision is precision
            assert m.specs == graph.layers
        assert path.read_bytes()[len(modelfile.MAGIC) + 4] == precision.value


def test_serialize_refuses_another_object(float_graph):
    stand_in = types.SimpleNamespace(
        precision=Precision.FLOAT32, specs=float_graph.layers,
        layers=float_graph.layers, params=float_graph.params,
        input_shape=float_graph.input_shape,
        num_classes=float_graph.num_classes, stats=None)
    with pytest.raises(TypeError, match="cannot serialize SimpleNamespace"):
        serialize(stand_in)


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
    data = body(float_graph)
    with pytest.raises(TruncatedPayloadError):
        deserialize(sealed(data[:len(data) // 2]))


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
        data = body(model)
        data[HEADER_BYTES + LAYER_RECORD_BYTES] = kind
        with pytest.raises(CorruptHeaderError):
            deserialize(sealed(data))


def unchecked_file(graph, edits) -> bytes:
    """The file ``serialize`` writes for ``graph`` with the layer
    attributes ``edits`` ({layer index: {field: value}}) and zero
    parameters of the shapes those layers take, built without
    ``check_layers``: a file whose CRC holds around layers no builder
    makes."""
    layers = list(graph.layers)
    for index, fields in edits.items():
        layers[index] = dataclasses.replace(layers[index], **fields)
    params = tuple({name: np.zeros(shape, np.float32) for name, shape in
                    model_ir.param_shapes(spec).items()} for spec in layers)
    with mock.patch.object(model_ir, "check_layers"):
        bad = ModelGraph(tuple(layers), params, graph.input_shape,
                         graph.num_classes)
    return serialize(bad)


# layers of build_mc_cnn(23, 24, 16, dense_width=8): 0 and 2 conv, 4
# dropout, 7 and 9 dense; of build_deep_conv_lstm(6, 12, 4, hidden=5): 8
# and 9 LSTM. Each set of edits keeps every shape after it consistent.
BAD_LAYERS = {
    "conv kernel 0": ("mc_cnn", {2: {"kernel": 0}, 7: {"in_dim": 44}}),
    "conv filters 0": ("mc_cnn", {0: {"out_filters": 0},
                                  2: {"in_channels": 0}}),
    "dense width 0": ("mc_cnn", {7: {"out_dim": 0}, 9: {"in_dim": 0}}),
    "dropout rate 1.5": ("mc_cnn", {4: {"rate": 1.5}}),
    "dropout rate nan": ("mc_cnn", {4: {"rate": float("nan")}}),
    "lstm hidden 0": ("deep_conv_lstm", {8: {"hidden": 0},
                                         9: {"in_dim": 0}}),
}


@pytest.mark.parametrize("bad", BAD_LAYERS)
def test_bad_layer_attribute_raises_corrupt_header(float_graph, bad):
    arch, edits = BAD_LAYERS[bad]
    graph = (float_graph if arch == "mc_cnn"
             else build_deep_conv_lstm(6, 12, 4, hidden=5, seed=0))
    with pytest.raises(CorruptHeaderError, match="malformed model file"):
        deserialize(unchecked_file(graph, edits))


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, np.nan, np.inf])
def test_bad_dropout_rate_raises_corrupt_header(float_graph, quant_model,
                                                rate):
    # layer 4's record: kind, seven u32 attributes, then the f64 rate
    start = HEADER_BYTES + 4 * LAYER_RECORD_BYTES + struct.calcsize("<B7I")
    for model in (float_graph, quant_model):
        data = body(model)
        assert struct.unpack_from("<d", data, start) == (0.2,)
        data[start:start + 8] = struct.pack("<d", rate)
        with pytest.raises(CorruptHeaderError, match="dropout rate"):
            deserialize(sealed(data))


def test_accumulator_overflow_raises_on_load(quant_model):
    # the first int32 bias record is conv 0's; set it just inside int32
    filters = len(quant_model.layers[0].bias)
    record = struct.pack("<H1sBBIQ", 1, b"b", 2, 1, filters, 4 * filters)
    data = body(quant_model)
    start = data.index(record) + len(record)
    data[start:start + 4 * filters] = np.full(filters, 2**31 - 1000,
                                              "<i4").tobytes()
    with pytest.raises(CorruptHeaderError) as info:
        deserialize(sealed(data))
    assert isinstance(info.value.__cause__, AccumulatorOverflowError)


def test_non_finite_input_scale_raises_on_load(quant_model):
    # the input quant params follow the layer records: f64 scale, i32 zp
    start = HEADER_BYTES + LAYER_RECORD_BYTES * len(quant_model.layers)
    for scale in (np.nan, np.inf):
        data = body(quant_model)
        data[start:start + 8] = struct.pack("<d", scale)
        with pytest.raises(CorruptHeaderError):
            deserialize(sealed(data))


def test_wrong_tensor_dtype_raises_on_load(float_graph, quant_model):
    """Each tensor record must hold the dtype serialize writes at its
    place: float32 parameters, int8 weights and an int32 bias."""
    cases = [
        # conv 0's float32 weights relabelled int32, the same item size
        (float_graph, struct.pack("<H1sB", 1, b"w", 0), 2),
        # conv 0's int8 weights relabelled int32
        (quant_model, struct.pack("<H1sB", 1, b"w", 1), 2),
        # conv 0's int32 bias relabelled float32
        (quant_model, struct.pack("<H1sB", 1, b"b", 2), 0),
    ]
    for model, record, code in cases:
        data = body(model)
        data[data.index(record) + len(record) - 1] = code
        with pytest.raises(CorruptHeaderError, match="dtype code"):
            deserialize(sealed(data))


def test_stats_round_trip_bit_exact(float_graph, quant_model):
    stats = stats_for(23)
    for model in (float_graph, quant_model):
        restored = deserialize(serialize(
            dataclasses.replace(model, stats=stats)))
        for name in ("mean", "std"):
            back = getattr(restored.stats, name)
            assert back.dtype == np.dtype("<f8")
            assert back.tobytes() == getattr(stats, name).tobytes()
            assert not back.flags.writeable
        assert deserialize(serialize(model)).stats is None


def test_stats_record_layout(float_graph, quant_model):
    """The stats record follows the parameters and precedes the CRC; a
    model without statistics writes only its zero flag."""
    stats = stats_for(23)
    for model in (float_graph, quant_model):
        without = body(model)
        assert without[-1] == 0
        with_stats = serialize(dataclasses.replace(model, stats=stats))
        assert with_stats == sealed(without[:-1]
                                    + stats_record(stats.mean, stats.std))


@pytest.mark.parametrize("mean, std", [
    (np.zeros(22), np.ones(22)),                        # one channel short
    (np.zeros(24), np.ones(24)),                        # one channel over
    (np.zeros(23), np.ones(22)),                        # std alone short
    (np.r_[np.nan, np.zeros(22)], np.ones(23)),
    (np.zeros(23), np.r_[np.ones(22), np.inf]),
    (np.zeros(23), np.r_[np.ones(22), -1.0]),
])
def test_bad_stats_raise_corrupt_header(float_graph, quant_model, mean, std):
    for model in (float_graph, quant_model):
        data = body(model)[:-1] + stats_record(mean, std)
        with pytest.raises(CorruptHeaderError):
            deserialize(sealed(data))


def test_bad_stats_rejected_when_built(float_graph):
    with pytest.raises(ShapeMismatchError):
        dataclasses.replace(float_graph, stats=stats_for(22))
    with pytest.raises(ValueError):
        dataclasses.replace(float_graph, stats=DatasetStats(
            np.zeros(23), np.full(23, np.nan)))


def test_version_1_file_rejected(float_graph):
    data = bytearray(serialize(float_graph))
    data[4:8] = (1).to_bytes(4, "little")
    with pytest.raises(VersionMismatchError):
        deserialize(bytes(data))


def test_weight_byte_change_raises_checksum_error(float_graph, quant_model):
    """One changed byte inside a weight payload, a change no structural
    check can see, is caught by the CRC."""
    for model, header in (
            (float_graph, struct.pack("<H1sBB", 1, b"w", 0, 3)),
            (quant_model, struct.pack("<H1sBB", 1, b"w", 1, 3))):
        data = bytearray(serialize(model))
        # conv 0's weights: skip the three dims and the payload length
        start = data.index(header) + len(header) + 3 * 4 + 8
        data[start + 5] ^= 0x01
        with pytest.raises(ChecksumError):
            deserialize(bytes(data))


def test_trailing_bytes_rejected(float_graph):
    with pytest.raises(CorruptHeaderError, match="follow the stats"):
        deserialize(sealed(body(float_graph) + b"\x00"))


@pytest.fixture(scope="module")
def fuzz_files():
    """Small models of each architecture and precision with statistics,
    serialized, the windows they were calibrated on, and what the models
    compute on those windows."""
    x = np.random.default_rng(0).normal(size=(4, 12, 6))
    stats = stats_for(6)
    files, outputs = {}, {}
    for arch, graph in (("mc_cnn", build_mc_cnn(6, 12, 8, dense_width=6,
                                                seed=0)),
                        ("deep_conv_lstm", build_deep_conv_lstm(
                            6, 12, 4, hidden=5, seed=0))):
        graph = dataclasses.replace(graph, stats=stats)
        for precision, model in (("float", graph),
                                 ("int8", quantize_model(graph, x))):
            files[arch, precision] = serialize(model)
            outputs[arch, precision] = fuzz_outputs(model, x)
    return x, files, outputs


def fuzz_outputs(model, x):
    """Every bit a loaded model shows: its statistics and its outputs on
    ``x``, with the int8 saturation counts."""
    stats = model.stats.mean.tobytes() + model.stats.std.tobytes()
    if isinstance(model, ModelGraph):
        return stats, fe.forward(model, x).tobytes()
    audit = ie.SaturationAudit()
    probs, classes = ie.run_quantized(model, x, audit)
    return stats, probs.tobytes(), classes.tolist(), audit


@pytest.mark.parametrize("arch", ["mc_cnn", "deep_conv_lstm"])
@pytest.mark.parametrize("precision", ["float", "int8"])
@settings(max_examples=100, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 2**32), st.integers(0, 255)),
                      min_size=1, max_size=2))
def test_corrupt_file_raises_model_file_error_or_runs(fuzz_files, arch,
                                                      precision, edits):
    """A corrupted file either raises a ModelFileError on load, or loads a
    model that runs bit-identically to the original on the original
    windows, with the same statistics."""
    x, files, outputs = fuzz_files
    data = bytearray(files[arch, precision])
    for where, value in edits:
        data[where % len(data)] = value
    try:
        model = deserialize(bytes(data))
    except ModelFileError:
        return
    assert fuzz_outputs(model, x) == outputs[arch, precision]
