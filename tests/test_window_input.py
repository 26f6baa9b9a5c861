"""The forms of window input every entry point takes, and the int8 kernels
``run_quantized`` reaches through module attributes."""
from functools import lru_cache

import numpy as np
import pytest

from tinyhar import float_engine, int8_engine, training
from tinyhar.datapipe import Windows
from tinyhar.model_ir import (LayerKind, ShapeMismatchError,
                              build_deep_conv_lstm, build_mc_cnn,
                              window_batch)
from tinyhar.quantizer import EmptyDatasetError, calibrate, quantize_model

STEPS, CHANNELS, CLASSES = 12, 5, 3


@lru_cache
def models(arch="mc_cnn"):
    graph = (build_mc_cnn(CHANNELS, STEPS, 8, dense_width=6,
                          num_classes=CLASSES, seed=1)
             if arch == "mc_cnn" else
             build_deep_conv_lstm(CHANNELS, STEPS, 4, hidden=5,
                                  num_classes=CLASSES, seed=2))
    rep = np.random.default_rng(3).normal(size=(8, STEPS, CHANNELS))
    return graph, quantize_model(graph, rep)


def no_windows():
    frames = np.zeros((STEPS, CHANNELS))
    none = np.zeros(0, dtype=np.int64)
    return Windows(frames, none, none, none, none, STEPS)


def windows(n, seed=0):
    return np.random.default_rng(seed).normal(size=(n, STEPS, CHANNELS))


# each entry point's (N, K) probabilities, or (N,) classes
ENTRY_POINTS = {
    "predict_proba": lambda g, q, x: training.predict_proba(g, x),
    "predict_batch": lambda g, q, x: training.predict_batch(g, x),
    "run_quantized": lambda g, q, x: int8_engine.run_quantized(q, x)[0],
    "forward": lambda g, q, x: float_engine.forward(g, x),
}


EMPTY = {"list": [], "tuple": (), "array": np.zeros((0, STEPS, CHANNELS)),
         "Windows": no_windows()}


class TestEmptyInput:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("empty", sorted(EMPTY))
    def test_no_windows_give_no_rows(self, entry, empty):
        out = ENTRY_POINTS[entry](*models(), EMPTY[empty])
        want = (0,) if entry == "predict_batch" else (0, CLASSES)
        assert out.shape == want

    def test_run_quantized_gives_no_classes(self):
        probs, classes = int8_engine.run_quantized(models()[1], [])
        assert probs.shape == (0, CLASSES) and classes.shape == (0,)

    @pytest.mark.parametrize("empty", sorted(EMPTY))
    def test_calibrate_still_refuses_no_windows(self, empty):
        with pytest.raises(EmptyDatasetError):
            calibrate(models()[0], EMPTY[empty])


class TestSequenceInput:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("kind", [list, tuple])
    def test_a_sequence_equals_the_stacked_array(self, entry, kind):
        x = windows(7)
        got = ENTRY_POINTS[entry](*models(), kind(x))
        assert got.tobytes() == ENTRY_POINTS[entry](*models(), x).tobytes()

    def test_forward_collect_of_a_sequence_equals_the_stacked_array(self):
        graph = models()[0]
        x = windows(5)
        got = float_engine.forward_collect(graph, list(x))
        want = float_engine.forward_collect(graph, x)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.int16])
    def test_window_batch_stacks_any_array_to_float64(self, dtype):
        x = windows(4).astype(dtype)
        batch, single = window_batch(x, (STEPS, CHANNELS))
        assert batch.dtype == np.float64 and not single
        assert batch.tobytes() == x.astype(np.float64).tobytes()

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS) + [
        "forward_collect"])
    @pytest.mark.parametrize("bad", [
        [np.zeros((STEPS, CHANNELS)), np.zeros((STEPS - 1, CHANNELS))],
        np.full((2, STEPS, CHANNELS), "x")], ids=["ragged", "strings"])
    def test_windows_that_do_not_stack_raise_shape_mismatch(self, entry,
                                                             bad):
        call = ENTRY_POINTS.get(
            entry, lambda g, q, x: float_engine.forward_collect(g, x))
        with pytest.raises(ShapeMismatchError):
            call(*models(), bad)


# perfbench times an int8 kernel by replacing its int8_engine attribute
KERNELS = ("conv1d_int8", "dense_int8", "relu_int8", "avg_pool1d_int8",
           "lstm_hybrid", "softmax_int8", "requantize", "quantize_tensor")
LAYER_KERNELS = {LayerKind.CONV1D: "conv1d_int8", LayerKind.RELU: "relu_int8",
                 LayerKind.AVGPOOL1D: "avg_pool1d_int8",
                 LayerKind.DENSE: "dense_int8", LayerKind.LSTM: "lstm_hybrid",
                 LayerKind.SOFTMAX: "softmax_int8"}


class TestKernelBinding:
    @pytest.mark.parametrize("arch", ["mc_cnn", "deep_conv_lstm"])
    def test_run_quantized_calls_each_kernel_by_its_module_name(
            self, arch, monkeypatch):
        graph, qmodel = models(arch)
        want = int8_engine.run_quantized(qmodel, windows(3))
        calls = dict.fromkeys(KERNELS, 0)

        def counting(name, kernel):
            def counted(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)
            return counted

        for name in KERNELS:
            monkeypatch.setattr(int8_engine, name,
                                counting(name, getattr(int8_engine, name)))
        got = int8_engine.run_quantized(qmodel, windows(3))
        assert got[0].tobytes() == want[0].tobytes()
        layers = [LAYER_KERNELS.get(spec.kind) for spec in graph.layers]
        for name in LAYER_KERNELS.values():  # one block: once per layer
            assert calls[name] == layers.count(name), name
        assert calls["requantize"] >= layers.count("conv1d_int8") \
            + layers.count("dense_int8") > 0
        # the input, and the output of an LSTM and the softmax
        assert calls["quantize_tensor"] == 1 + layers.count("lstm_hybrid") \
            + layers.count("softmax_int8")
        reached = {name for name, count in calls.items() if count}
        used = {name for name in layers if name} | {"requantize",
                                                    "quantize_tensor"}
        assert reached == used
