"""Flat binary model file format (".thar").

Layout (all little-endian):

    magic "THAR" | u32 version | u8 precision (0 = float32, 1 = int8 full)
    u32 window_len | u32 channels | u32 num_classes | u32 n_layers
    n_layers * layer record:
        u8 kind | 7 * u32 structural attrs | f64 dropout rate
    precision 0: per layer, a tensor table of float32 parameter tensors.
    precision 1: input quant params, then per layer: in/out quant params,
        optional fixed-point multiplier, int8 weight tensor table with
        per-tensor quant params, optional int32 bias tensor.

    tensor record: u16 name length | name | u8 dtype | u8 ndim |
        ndim * u32 dims | u64 payload bytes | raw payload
    dtype codes: 0 = float32, 1 = int8, 2 = int32; a record whose code is
    not the one its place in the file holds is rejected.

Round-trips are bit-exact on every parameter.
"""
from __future__ import annotations

import struct

import numpy as np

from .model_ir import LayerKind, LayerSpec, ModelGraph, Precision
from .quantizer import FixedPointMultiplier, QLayer, QuantParams, QuantizedModel

MAGIC = b"THAR"
VERSION = 1

# the dtypes ``serialize`` writes: float32 parameters, int8 weights and
# int32 biases
_FLOAT32, _INT8, _INT32 = np.dtype("<f4"), np.dtype("i1"), np.dtype("<i4")
_DTYPE_CODES = {_FLOAT32: 0, _INT8: 1, _INT32: 2}


class ModelFileError(ValueError):
    pass


class CorruptHeaderError(ModelFileError):
    pass


class VersionMismatchError(ModelFileError):
    pass


class TruncatedPayloadError(ModelFileError):
    pass


class _Writer:
    def __init__(self):
        self.chunks: list[bytes] = []

    def pack(self, fmt: str, *values):
        self.chunks.append(struct.pack("<" + fmt, *values))

    def raw(self, data: bytes):
        self.chunks.append(data)

    def tensor(self, name: str, arr: np.ndarray):
        arr = np.ascontiguousarray(arr)
        code = _DTYPE_CODES[arr.dtype.newbyteorder("<")]
        encoded = name.encode()
        self.pack("H", len(encoded))
        self.raw(encoded)
        self.pack("BB", code, arr.ndim)
        for dim in arr.shape:
            self.pack("I", dim)
        payload = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
        self.pack("Q", len(payload))
        self.raw(payload)

    def qp(self, qp: QuantParams):
        self.pack("di", qp.scale, qp.zero_point)

    def bytes(self) -> bytes:
        return b"".join(self.chunks)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedPayloadError(
                f"need {n} bytes at offset {self.pos}, "
                f"only {len(self.data) - self.pos} remain")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        fmt = "<" + fmt
        values = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return values if len(values) > 1 else values[0]

    def tensor(self, dtype: np.dtype) -> tuple[str, np.ndarray]:
        """One tensor record, which must hold ``dtype``."""
        name_len = self.unpack("H")
        name = self.take(name_len).decode()
        code, ndim = self.unpack("BB")
        if code != _DTYPE_CODES[dtype]:
            raise CorruptHeaderError(
                f"tensor {name!r} has dtype code {code}, "
                f"expected {_DTYPE_CODES[dtype]}")
        shape = tuple(self.unpack("I") for _ in range(ndim))
        nbytes = self.unpack("Q")
        arr = np.frombuffer(self.take(nbytes), dtype=dtype)
        return name, arr.reshape(shape).copy()

    def qp(self) -> QuantParams:
        scale, zp = self.unpack("di")
        return QuantParams(scale, zp)


def _write_specs(w: _Writer, layers, input_shape, num_classes):
    w.pack("IIII", input_shape[0], input_shape[1], num_classes, len(layers))
    for spec in layers:
        w.pack("B7Id", spec.kind.value, spec.in_channels, spec.out_filters,
               spec.kernel, spec.pool, spec.in_dim, spec.out_dim,
               spec.hidden, spec.rate)


def _read_specs(r: _Reader):
    window_len, channels, num_classes, n_layers = r.unpack("IIII")
    layers = []
    for _ in range(n_layers):
        values = r.unpack("B7Id")
        kind = LayerKind(values[0])
        layers.append(LayerSpec(kind, in_channels=values[1],
                                out_filters=values[2], kernel=values[3],
                                pool=values[4], in_dim=values[5],
                                out_dim=values[6], hidden=values[7],
                                rate=values[8]))
    return tuple(layers), (window_len, channels), num_classes


def serialize(model) -> bytes:
    """Serialize a ModelGraph (float32) or QuantizedModel (int8 full)."""
    w = _Writer()
    w.raw(MAGIC)
    if isinstance(model, ModelGraph):
        w.pack("IB", VERSION, Precision.FLOAT32.value)
        _write_specs(w, model.layers, model.input_shape, model.num_classes)
        for layer_params in model.params:
            w.pack("I", len(layer_params))
            for name in sorted(layer_params):
                w.tensor(name, layer_params[name].astype(_FLOAT32))
        return w.bytes()
    if isinstance(model, QuantizedModel):
        w.pack("IB", VERSION, Precision.INT8_FULL.value)
        _write_specs(w, tuple(ql.spec for ql in model.layers),
                     model.input_shape, model.num_classes)
        w.qp(model.input_qp)
        for ql in model.layers:
            w.qp(ql.in_qp)
            w.qp(ql.out_qp)
            if ql.multiplier is None:
                w.pack("B", 0)
            else:
                w.pack("B", 1)
                w.pack("Ii", ql.multiplier.mantissa, ql.multiplier.exponent)
            weights = ql.weights or {}
            w.pack("B", len(weights))
            for name in sorted(weights):
                w.qp(ql.weight_qps[name])
                w.tensor(name, weights[name])
            if ql.bias is None:
                w.pack("B", 0)
            else:
                w.pack("B", 1)
                w.tensor("b", ql.bias.astype(_INT32))
        return w.bytes()
    raise TypeError(f"cannot serialize {type(model).__name__}")


def deserialize(data: bytes):
    """Parse bytes back into a ModelGraph or QuantizedModel, which checks
    itself as it is built; a malformed file raises a ModelFileError, any
    other ValueError from parsing or checking as a CorruptHeaderError."""
    try:
        return _parse(data)
    except ModelFileError:
        raise
    except ValueError as exc:
        raise CorruptHeaderError(f"malformed model file: {exc}") from exc


def _parse(data: bytes):
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise CorruptHeaderError("bad magic; not a THAR model file")
    version, precision_code = r.unpack("IB")
    if version != VERSION:
        raise VersionMismatchError(
            f"file version {version}, supported version {VERSION}")
    precision = Precision(precision_code)
    layers, input_shape, num_classes = _read_specs(r)
    if precision == Precision.FLOAT32:
        params = []
        for _ in layers:
            n_tensors = r.unpack("I")
            layer_params = {}
            for _ in range(n_tensors):
                name, arr = r.tensor(_FLOAT32)
                layer_params[name] = arr
            params.append(layer_params)
        return ModelGraph(layers, tuple(params), input_shape, num_classes)
    input_qp = r.qp()
    qlayers = []
    for spec in layers:
        in_qp = r.qp()
        out_qp = r.qp()
        mult = None
        if r.unpack("B"):
            mantissa, exponent = r.unpack("Ii")
            mult = FixedPointMultiplier(mantissa, exponent)
        n_weights = r.unpack("B")
        weights, weight_qps = {}, {}
        for _ in range(n_weights):
            w_qp = r.qp()
            name, arr = r.tensor(_INT8)
            weights[name] = arr
            weight_qps[name] = w_qp
        bias = None
        if r.unpack("B"):
            _, bias = r.tensor(_INT32)
        qlayers.append(QLayer(spec=spec, in_qp=in_qp, out_qp=out_qp,
                              weights=weights or None,
                              weight_qps=weight_qps or None,
                              bias=bias, multiplier=mult))
    return QuantizedModel(layers=qlayers, input_shape=input_shape,
                          num_classes=num_classes, input_qp=input_qp)


def save(model, path) -> int:
    data = serialize(model)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def load(path):
    with open(path, "rb") as fh:
        return deserialize(fh.read())
