"""Layer-graph model representation: layer specs, the two network builders,
the input check, block type and block loop the executors share, the check
of a model's normalization statistics, and parameter accounting.

A model is a plain ordered list of layers. There is no general computation
graph: the only supported topologies are the conv->pool->dense classifier
(``build_mc_cnn``) and the stacked conv + LSTM classifier
(``build_deep_conv_lstm``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import ClassVar

import numpy as np

from .datapipe import DatasetStats, Windows


class GraphError(ValueError):
    """Malformed layer graph."""


class ShapeUnderflowError(GraphError):
    """Valid convolutions / pooling exhausted the time axis."""


class DivisibilityError(GraphError):
    """A structural divisibility constraint (e.g. the 4:1 filter ratio) failed."""


class ShapeMismatchError(GraphError):
    """Adjacent layers or tensors disagree on shape."""


class NonFiniteInputError(ValueError):
    """A model input holds NaN or infinity."""


# windows the executors run together; bounds the memory of one call
BLOCK_WINDOWS = 256
CONV_KERNEL = 3  # time steps each conv of both builders spans
MC_CNN_DROPOUT = 0.2
MC_CNN_POOL = 2


def window_batch(x, input_shape: tuple[int, int]) -> tuple[np.ndarray, bool]:
    """Checks that ``x`` is one ``input_shape`` window or a batch of them
    (else ShapeMismatchError) and finite (else NonFiniteInputError);
    returns it as a float64 batch and whether it was one window. ``x`` is
    an array-like, such as a sequence of windows, of which an empty one is
    a batch of none."""
    try:
        x = np.asarray(x, np.float64)
    except ValueError:  # ragged windows, or text, do not stack
        raise ShapeMismatchError(f"the windows are not all "
                                 f"{tuple(input_shape)} numbers") from None
    if x.shape == (0,):
        x = x.reshape(0, *input_shape)
    single = x.ndim == 2
    batch = x[None] if single else x
    if batch.ndim != 3 or batch.shape[1:] != tuple(input_shape):
        raise ShapeMismatchError(f"input shape {x.shape} is neither "
                                 f"{tuple(input_shape)} nor a batch of it")
    if not np.isfinite(batch).all():
        raise NonFiniteInputError("input holds NaN or infinity")
    return batch, single


@dataclass(frozen=True)
class FrameBlock:
    """The windows :func:`map_blocks` hands every executor: window ``i`` at
    step ``t`` is row ``index[i, t]`` of ``frames``, so a window's steps,
    and its rows of a valid conv, are consecutive rows. A
    :func:`frame_block` runs a row its windows share once (Rybakov et al.
    2020, arXiv 2005.06720); an array block's frames are the array's rows."""

    frames: np.ndarray  # (R, C), float64 as checked, int8 once quantized
    index: np.ndarray   # (N, T)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.index.shape + self.frames.shape[1:]

    @property
    def stacked(self) -> bool:
        """Whether window ``i``'s step ``t`` is row ``i * T + t``, as in a
        :func:`batch_block`: rows read once each, in window order."""
        windows, steps = self.index.shape
        return self.index.size == len(self.frames) and (
            windows < 2 or bool((np.diff(self.index[:, 0]) >= steps).all()))


def batch_block(batch: np.ndarray) -> FrameBlock:
    """The :class:`FrameBlock` of an (N, T, C) batch: its rows, a view of
    a contiguous batch, are the frames."""
    windows, steps = batch.shape[:2]
    return FrameBlock(batch.reshape(-1, batch.shape[2]),
                      np.arange(windows * steps).reshape(windows, steps))


def frame_block(windows: Windows,
                input_shape: tuple[int, int]) -> FrameBlock:
    """The :class:`FrameBlock` of ``windows`` (``normalize``'s
    ``np.unique`` and ``searchsorted``): its distinct covered frame rows
    as float64, checked like :func:`window_batch`. A frame row no window
    covers is neither copied nor checked."""
    if (windows.window_len, windows.frames.shape[-1]) != tuple(input_shape):
        raise ShapeMismatchError(
            f"windows of {windows.window_len} steps of "
            f"{windows.frames.shape[-1]} channels are not "
            f"{tuple(input_shape)}")
    rows = windows.rows()
    distinct = np.unique(rows)
    frames = np.asarray(windows.frames[distinct], np.float64)
    if not np.isfinite(frames).all():
        raise NonFiniteInputError("input holds NaN or infinity")
    return FrameBlock(frames, np.searchsorted(distinct, rows))


def map_blocks(fn, x, input_shape: tuple[int, int]) -> np.ndarray:
    """``fn`` of the :class:`FrameBlock` of each block of at most
    BLOCK_WINDOWS windows of ``x``, concatenated. ``x`` is an (N, T, C)
    array, a sequence of (T, C) windows or a ``datapipe.Windows`` (one
    (T, C) array is one window). A ``Windows`` block is its
    :func:`frame_block`; another is :func:`window_batch`'s float64 batch,
    made its :func:`batch_block`. Each block is built in its turn, so
    memory does not grow with N; no window makes one empty block."""
    if isinstance(x, np.ndarray) and x.ndim == 2:
        x = x[None]
    results = []
    for start in range(0, max(len(x), 1), BLOCK_WINDOWS):
        part = x[start:start + BLOCK_WINDOWS]
        if isinstance(part, Windows):
            block = frame_block(part, input_shape)
        else:
            block = batch_block(window_batch(part, input_shape)[0])
        results.append(fn(block))
        del block  # freed before the next block is built
    return np.concatenate(results)


class LayerKind(Enum):
    CONV1D = 0
    RELU = 1
    DROPOUT = 2
    AVGPOOL1D = 3
    DENSE = 4
    LSTM = 5
    SOFTMAX = 6
    FLATTEN = 7


class Precision(Enum):
    FLOAT32 = 0
    INT8_FULL = 1


@dataclass(frozen=True)
class LayerSpec:
    """One layer. Only the attributes relevant to ``kind`` are meaningful."""

    kind: LayerKind
    in_channels: int = 0
    out_filters: int = 0
    kernel: int = 0
    pool: int = 0
    in_dim: int = 0
    out_dim: int = 0
    hidden: int = 0
    rate: float = 0.0


def conv1d(in_channels: int, out_filters: int, kernel: int) -> LayerSpec:
    return LayerSpec(LayerKind.CONV1D, in_channels=in_channels,
                     out_filters=out_filters, kernel=kernel)


def relu() -> LayerSpec:
    return LayerSpec(LayerKind.RELU)


def dropout(rate: float) -> LayerSpec:
    return LayerSpec(LayerKind.DROPOUT, rate=rate)


def avg_pool1d(pool: int) -> LayerSpec:
    return LayerSpec(LayerKind.AVGPOOL1D, pool=pool)


def dense(in_dim: int, out_dim: int) -> LayerSpec:
    return LayerSpec(LayerKind.DENSE, in_dim=in_dim, out_dim=out_dim)


def lstm(in_dim: int, hidden: int) -> LayerSpec:
    return LayerSpec(LayerKind.LSTM, in_dim=in_dim, hidden=hidden)


def softmax() -> LayerSpec:
    return LayerSpec(LayerKind.SOFTMAX)


def flatten() -> LayerSpec:
    return LayerSpec(LayerKind.FLATTEN)


def layer_output_shape(spec: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape produced by one layer given its input shape, after checking
    the layer's own attributes (a GraphError names a bad one).

    2D shapes are (time_steps, channels); 1D shapes are flat feature vectors.
    A Dense layer fed a sequence consumes the final time step.
    """
    kind = spec.kind
    if kind == LayerKind.CONV1D:
        if min(spec.in_channels, spec.out_filters, spec.kernel) < 1:
            raise GraphError(f"conv1d needs positive dims, got "
                             f"({spec.in_channels}, {spec.out_filters}, "
                             f"{spec.kernel})")
        if len(shape) != 2:
            raise ShapeMismatchError(f"conv1d needs a 2D input, got {shape}")
        steps, channels = shape
        if channels != spec.in_channels:
            raise ShapeMismatchError(
                f"conv1d expects {spec.in_channels} channels, got {channels}")
        out_steps = steps - spec.kernel + 1
        if out_steps < 1:
            raise ShapeUnderflowError(
                f"kernel {spec.kernel} exhausts {steps} time steps")
        return (out_steps, spec.out_filters)
    if kind == LayerKind.AVGPOOL1D:
        if len(shape) != 2:
            raise ShapeMismatchError(f"avg_pool1d needs a 2D input, got {shape}")
        if not 1 <= spec.pool <= shape[0]:
            raise ShapeUnderflowError(
                f"pool {spec.pool} does not fit {shape[0]} time steps")
        return (shape[0] // spec.pool, shape[1])
    if kind == LayerKind.FLATTEN:
        return (int(np.prod(shape)),)
    if kind == LayerKind.DENSE:
        if min(spec.in_dim, spec.out_dim) < 1:
            raise GraphError(f"dense needs positive widths, got "
                             f"({spec.in_dim}, {spec.out_dim})")
        in_dim = shape[-1]  # a sequence input: dense sees the last time step
        if in_dim != spec.in_dim:
            raise ShapeMismatchError(
                f"dense expects {spec.in_dim} inputs, got {in_dim}")
        return (spec.out_dim,)
    if kind == LayerKind.LSTM:
        if spec.hidden < 1:
            raise GraphError(f"hidden size must be >= 1, got {spec.hidden}")
        if len(shape) != 2:
            raise ShapeMismatchError(f"lstm needs a 2D input, got {shape}")
        if shape[1] != spec.in_dim:
            raise ShapeMismatchError(
                f"lstm expects {spec.in_dim} inputs, got {shape[1]}")
        return (shape[0], spec.hidden)
    if kind == LayerKind.DROPOUT and not 0.0 <= spec.rate < 1.0:
        raise GraphError(f"dropout rate must be in [0, 1), got {spec.rate}")
    # RELU / DROPOUT / SOFTMAX are shape-preserving
    return shape


def output_shapes(layers: tuple[LayerSpec, ...],
                  input_shape: tuple[int, int]) -> list[tuple[int, ...]]:
    """Per-layer output shapes, validating shape compatibility along the way."""
    shapes = []
    shape: tuple[int, ...] = input_shape
    for spec in layers:
        shape = layer_output_shape(spec, shape)
        shapes.append(shape)
    return shapes


# LSTM gate order throughout: input, forget, candidate, output.
def param_shapes(spec: LayerSpec) -> dict[str, tuple[int, ...]]:
    if spec.kind == LayerKind.CONV1D:
        return {"w": (spec.in_channels, spec.kernel, spec.out_filters),
                "b": (spec.out_filters,)}
    if spec.kind == LayerKind.DENSE:
        return {"w": (spec.in_dim, spec.out_dim), "b": (spec.out_dim,)}
    if spec.kind == LayerKind.LSTM:
        return {"w_x": (spec.in_dim, 4 * spec.hidden),
                "w_h": (spec.hidden, 4 * spec.hidden),
                "b": (4 * spec.hidden,)}
    return {}


def init_params(layers: tuple[LayerSpec, ...], seed: int) -> tuple[dict, ...]:
    """Uniform fan-in scaled initialization (He-style bound), zero biases."""
    rng = np.random.default_rng(seed)
    params = []
    for spec in layers:
        shapes = param_shapes(spec)
        layer_params: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            if name.startswith("b"):
                layer_params[name] = np.zeros(shape, dtype=np.float32)
            else:  # fan-in: every weight axis but the output one; an
                # empty weight, of a dim check_layers rejects, takes any
                limit = math.sqrt(6.0 / max(1, math.prod(shape[:-1])))
                layer_params[name] = rng.uniform(
                    -limit, limit, size=shape).astype(np.float32)
        params.append(layer_params)
    return tuple(params)


def check_layers(layers: tuple[LayerSpec, ...], params,
                 input_shape: tuple[int, int], num_classes: int) -> None:
    """Raises unless ``layers`` fit ``input_shape`` and end in a softmax over
    ``num_classes``, each with exactly the parameters of :func:`param_shapes`.
    Both model types run it when built; the executors' kernels trust it."""
    if len(layers) != len(params):
        raise GraphError("one param dict per layer required")
    shapes = output_shapes(layers, input_shape)
    if not layers or layers[-1].kind != LayerKind.SOFTMAX:
        raise GraphError("last layer must be softmax")
    if shapes[-1] != (num_classes,):
        raise GraphError(
            f"softmax input width {shapes[-1]} != num_classes {num_classes}")
    for spec, layer_params in zip(layers, params):
        expected = param_shapes(spec)
        if set(expected) != set(layer_params):
            raise GraphError(
                f"layer {spec.kind.name} expects params {sorted(expected)}, "
                f"got {sorted(layer_params)}")
        for name, shape in expected.items():
            if tuple(layer_params[name].shape) != shape:
                raise ShapeMismatchError(
                    f"{spec.kind.name}.{name} has shape "
                    f"{layer_params[name].shape}, expected {shape}")


def check_stats(stats: DatasetStats | None, channels: int) -> None:
    """Raises unless ``stats`` is None, or one finite mean and one finite
    std >= 0 per input channel; then makes its arrays read-only. Both model
    types run it when built."""
    if stats is None:
        return
    for name in ("mean", "std"):
        arr = getattr(stats, name)
        if arr.shape != (channels,):
            raise ShapeMismatchError(f"stats {name} has shape {arr.shape}, "
                                     f"expected ({channels},)")
        if not np.isfinite(arr).all():
            raise GraphError(f"stats {name} holds NaN or infinity")
        arr.flags.writeable = False
    if np.any(stats.std < 0):
        raise GraphError("stats std holds a negative value")


@dataclass(frozen=True)
class ModelGraph:
    """Immutable layer list plus float parameters, checked when built.

    Parameter arrays are frozen (non-writeable) so a graph can be shared
    read-only across concurrent executors. ``stats`` are the per-channel
    z-score statistics of the windows the graph was trained on, when known.
    """

    precision: ClassVar[Precision] = Precision.FLOAT32
    layers: tuple[LayerSpec, ...]
    params: tuple[dict[str, np.ndarray], ...]
    input_shape: tuple[int, int]
    num_classes: int
    stats: DatasetStats | None = None

    @property
    def specs(self) -> tuple[LayerSpec, ...]:
        """The layer specs, as every model type names them."""
        return self.layers

    def __post_init__(self):
        check_layers(self.layers, self.params, self.input_shape,
                     self.num_classes)
        check_stats(self.stats, self.input_shape[1])
        for layer_params in self.params:
            for arr in layer_params.values():
                arr.flags.writeable = False

    @cached_property
    def float64_params(self) -> tuple:
        """``params`` cast (exactly) to float64 once per graph, so that the
        float layer loop's products do not cast them on every call; an
        LSTM layer's in the ``float_engine.PackedLSTM`` gate layout of
        ``float_engine.pack_lstm_gates``."""
        from . import float_engine  # which imports this module

        cast = [{k: v.astype(np.float64) for k, v in p.items()}
                for p in self.params]
        return tuple(float_engine.pack_lstm_gates(**p)
                     if spec.kind == LayerKind.LSTM else p
                     for spec, p in zip(self.layers, cast))

    def with_params(self, params: tuple[dict[str, np.ndarray], ...]) -> "ModelGraph":
        return ModelGraph(self.layers, params, self.input_shape,
                          self.num_classes, self.stats)


def build_mc_cnn(channels: int, window_len: int, first_filters: int = 128,
                 dense_width: int = 128, num_classes: int = 15,
                 seed: int = 0) -> ModelGraph:
    """Two-conv classifier with a 4:1 filter ratio between the conv layers."""
    if first_filters % 4 != 0:
        raise DivisibilityError(
            f"first conv filter count must be divisible by 4, got {first_filters}")
    layers = [
        conv1d(channels, first_filters, CONV_KERNEL),
        relu(),
        conv1d(first_filters, first_filters // 4, CONV_KERNEL),
        relu(),
        dropout(MC_CNN_DROPOUT),
        avg_pool1d(MC_CNN_POOL),
        flatten(),
    ]
    shapes = output_shapes(tuple(layers), (window_len, channels))
    flat_dim = shapes[-1][0]
    layers += [
        dense(flat_dim, dense_width),
        relu(),
        dense(dense_width, num_classes),
        softmax(),
    ]
    layers_t = tuple(layers)
    return ModelGraph(layers_t, init_params(layers_t, seed),
                      (window_len, channels), num_classes)


def build_deep_conv_lstm(channels: int, window_len: int, filters: int = 32,
                         hidden: int = 128, num_classes: int = 15,
                         seed: int = 0) -> ModelGraph:
    """Four uniform conv layers followed by two stacked LSTM layers."""
    layers: list[LayerSpec] = []
    in_ch = channels
    for _ in range(4):
        layers.append(conv1d(in_ch, filters, CONV_KERNEL))
        layers.append(relu())
        in_ch = filters
    layers += [
        lstm(filters, hidden),
        lstm(hidden, hidden),
        dense(hidden, num_classes),
        softmax(),
    ]
    layers_t = tuple(layers)
    return ModelGraph(layers_t, init_params(layers_t, seed),
                      (window_len, channels), num_classes)


def layer_param_count(spec: LayerSpec) -> int:
    return sum(math.prod(shape) for shape in param_shapes(spec).values())


def param_count(graph: ModelGraph) -> tuple[list[int], int]:
    """Per-layer parameter counts and their total."""
    counts = [layer_param_count(spec) for spec in graph.layers]
    return counts, sum(counts)
