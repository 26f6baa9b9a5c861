import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyhar import float_engine, model_ir, training
from tinyhar.benchlab import MC_CNN_FILTERS
from tinyhar.datapipe import ChannelGroup
from tinyhar.model_ir import (BLOCK_WINDOWS, LayerKind, ModelGraph,
                              build_deep_conv_lstm, build_mc_cnn, conv1d,
                              dense, flatten, init_params, relu, softmax)
from tinyhar.training import TrainConfig, UnsupportedLayerError, grad_check, train


def separable_toy_set(n=120, seed=0):
    """Two classes, 2 channels, 8 steps; class 1 carries a strong offset."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 0.3, size=(n, 8, 2))
    y = rng.integers(0, 2, size=n)
    x[y == 1] += 2.0
    return x, y


class TestTrain:
    def test_separable_toy_set_learns(self):
        x, y = separable_toy_set()
        g = build_mc_cnn(2, 8, 8, dense_width=8, num_classes=2, seed=0)
        cfg = TrainConfig(epochs=50, batch_size=16, seed=0)
        trained, history = train(g, (x, y), (x, y), cfg)
        assert history[-1]["train_acc"] >= 0.99

    def test_lstm_graph_rejected(self):
        g = build_deep_conv_lstm(2, 24, 4, hidden=4, num_classes=15, seed=0)
        with pytest.raises(UnsupportedLayerError):
            train(g, (np.zeros((4, 24, 2)), np.zeros(4, dtype=int)),
                  None, TrainConfig(epochs=1))

    def test_same_seed_same_history(self):
        x, y = separable_toy_set()
        g = build_mc_cnn(2, 8, 8, dense_width=8, num_classes=2, seed=1)
        cfg = TrainConfig(epochs=5, batch_size=16, seed=7)
        _, h1 = train(g, (x, y), (x, y), cfg)
        _, h2 = train(g, (x, y), (x, y), cfg)
        assert h1 == h2

    def test_history_csv_shape(self):
        x, y = separable_toy_set(n=32)
        g = build_mc_cnn(2, 8, 4, dense_width=4, num_classes=2, seed=0)
        _, history = train(g, (x, y), (x, y), TrainConfig(epochs=3))
        text = training.history_to_csv(history)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,loss,train_acc,val_acc"
        assert len(lines) == 4


class TestHistoryNeedsValSet:
    def test_same_parameters_and_losses_without_val_set(self):
        x, y = separable_toy_set()
        g = build_mc_cnn(2, 8, 8, dense_width=8, num_classes=2, seed=1)
        cfg = TrainConfig(epochs=4, batch_size=16, seed=7)
        with_history, h1 = train(g, (x, y), (x, y), cfg)
        without, h2 = train(g, (x, y), None, cfg)
        for p1, p2 in zip(with_history.params, without.params):
            assert sorted(p1) == sorted(p2)
            for name in p1:
                assert p2[name].dtype == np.float32
                assert p1[name].tobytes() == p2[name].tobytes()
        assert [(e["epoch"], e["loss"]) for e in h1] == \
            [(e["epoch"], e["loss"]) for e in h2]

    def test_no_inference_pass_and_nan_accuracies(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("inference pass ran")

        monkeypatch.setattr(training, "_inference_logits", refuse)
        x, y = separable_toy_set(n=32)
        g = build_mc_cnn(2, 8, 4, dense_width=4, num_classes=2, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=16)
        with pytest.raises(AssertionError, match="inference pass ran"):
            train(g, (x, y), (x, y), cfg)  # the patch bites with a val_set
        _, history = train(g, (x, y), None, cfg)
        assert [e["epoch"] for e in history] == [1, 2]
        assert all(np.isfinite(e["loss"]) for e in history)
        assert all(np.isnan(e["train_acc"]) and np.isnan(e["val_acc"])
                   for e in history)


class TestConvGemmBits:
    """The trainer runs conv 0 forward, and every conv's input-gradient
    product, as one GEMM over the rows of all windows, on the premise that
    its bits equal one GEMM per window. Pinned at the sweep's shapes, so a
    BLAS whose blocking breaks the premise fails here rather than silently
    moving trained parameters and reports."""

    @pytest.mark.parametrize("filters", sorted(MC_CNN_FILTERS.values()))
    @pytest.mark.parametrize("channels", [g.value for g in ChannelGroup])
    def test_one_gemm_equals_per_window_products(self, channels, filters):
        layers = (conv1d(channels, filters, 3),
                  conv1d(filters, filters // 4, 3), flatten(),
                  dense(20 * (filters // 4), 15), softmax())
        graph = ModelGraph(layers, init_params(layers, channels),
                           (24, channels), 15)
        x = np.random.default_rng(filters).normal(size=(32, 24, channels))
        for dtype in (np.float32, np.float64):
            params = [{k: v.astype(dtype) for k, v in p.items()}
                      for p in graph.params]
            w0 = float_engine.conv_matrix(params[0]["w"])
            w1 = float_engine.conv_matrix(params[1]["w"])
            for n in (1, 7, 32):
                caches = []
                logits = training._logits(graph, params, x[:n],
                                          keep=caches.append)
                cols0 = float_engine.im2col(x[:n], 3)
                out0 = cols0 @ w0 + params[0]["b"]  # one GEMM per window
                # conv 1's rows are conv 0's output, copied
                assert caches[1][1].tobytes() == \
                    float_engine.im2col(out0, 3).tobytes()
                labels = np.arange(n) % 15
                _, dlogits = training._loss_and_dlogits(logits, labels)
                grads = training._backward_batch(graph, params, caches,
                                                 dlogits)
                dseq = (dlogits @ params[3]["w"].T).reshape(n, 20, -1)
                dout0 = float_engine.col2im(dseq @ w1.T, 22)
                dw0 = (cols0.reshape(-1, cols0.shape[2]).T
                       @ dout0.reshape(-1, filters))
                assert grads[0]["w"].tobytes() == \
                    float_engine.conv_weights(dw0, channels).tobytes()
                assert grads[0]["b"].tobytes() == \
                    dout0.sum(axis=(0, 1)).tobytes()


def dense_after_sequence_graph():
    layers = (conv1d(4, 8, 3), relu(), dense(8, 15), softmax())
    return ModelGraph(layers, init_params(layers, 3), (10, 4), 15)


class TestDenseAfterSequence:
    """A dense layer fed a (T, D) sequence reads its last time step."""

    @pytest.fixture
    def graph(self):
        return dense_after_sequence_graph()

    def test_predict_matches_float_executor(self, graph):
        x = np.random.default_rng(4).normal(size=(5, 10, 4))
        preds = training.predict_batch(graph, x)
        assert preds.shape == (5,)
        assert preds.tolist() == [int(float_engine.forward(graph, w).argmax())
                                  for w in x]

    def test_trains_with_exact_gradients(self, graph):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(20, 10, 4)), rng.integers(0, 15, size=20)
        trained, history = train(graph, (x, y), None,
                                 TrainConfig(epochs=2, batch_size=8))
        assert len(history) == 2 and np.isfinite(history[-1]["loss"])
        assert grad_check(trained, x[0], int(y[0]), seed=6) <= 1e-3


class TestBlockedInference:
    """Inference passes run BLOCK_WINDOWS windows at a time."""

    @pytest.fixture
    def graph(self):
        return build_mc_cnn(6, 24, 16, dense_width=8, num_classes=4, seed=2)

    def test_memory_peak_does_not_grow_with_batch(self, graph):
        x = np.random.default_rng(0).normal(
            size=(3 * BLOCK_WINDOWS,) + graph.input_shape)

        def peak(n):
            tracemalloc.start()
            try:
                training.predict_proba(graph, x[:n])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3 * BLOCK_WINDOWS) < 1.5 * peak(BLOCK_WINDOWS)

    def test_no_windows_give_no_rows(self, graph):
        x = np.zeros((0,) + graph.input_shape)
        assert training.predict_proba(graph, x).shape == (0, 4)

    def test_block_size_leaves_results_unchanged(self, graph):
        x = np.random.default_rng(1).normal(size=(11,) + graph.input_shape)
        whole = training.predict_proba(graph, x)
        with mock.patch.object(model_ir, "BLOCK_WINDOWS", 4):
            blocked = training.predict_proba(graph, x)
        assert blocked.tobytes() == whole.tobytes()


class TestConfigValidation:
    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=1.5)


class TestGradCheck:
    def test_tiny_mc_cnn(self):
        g = build_mc_cnn(3, 12, 4, dense_width=5, num_classes=3, seed=0)
        w = np.random.default_rng(1).normal(size=(12, 3))
        assert grad_check(g, w, label=1, num_samples=200, seed=2) <= 1e-3

    def test_dense_only_graph(self):
        layers = (flatten(), dense(8, 6), relu(), dense(6, 3), softmax())
        g = ModelGraph(layers, init_params(layers, 0), (4, 2), 3)
        w = np.random.default_rng(3).normal(size=(4, 2))
        assert grad_check(g, w, label=0, num_samples=200, seed=4) <= 1e-4

    def test_zero_input_zero_conv_gradients(self):
        g = build_mc_cnn(3, 12, 4, dense_width=5, num_classes=3, seed=0)
        params = [{k: v.astype(np.float64) for k, v in p.items()}
                  for p in g.params]
        x = np.zeros((1, 12, 3))
        caches = []
        logits = training._logits(g, params, x, keep=caches.append)
        _, dlogits = training._loss_and_dlogits(logits, np.array([1]))
        grads = training._backward_batch(g, params, caches, dlogits)
        assert np.all(grads[0]["w"] == 0.0)  # conv weight grads vanish


def stacked_im2col(x, kernel):
    """im2col of a (..., T, C) input as one stacked slice per kernel tap."""
    out_steps = x.shape[-2] - kernel + 1
    cols = np.stack([x[..., k:k + out_steps, :] for k in range(kernel)],
                    axis=-2)
    return cols.reshape(x.shape[:-2] + (out_steps, kernel * x.shape[-1]))


def full_backward(graph, params, caches, dlogits):
    """Reference backprop: einsum conv weight gradient, and the gradient is
    carried through every layer down to the input window."""
    grads = [dict() for _ in graph.layers]
    dvalue = dlogits
    for idx in range(len(caches) - 1, -1, -1):  # no cache for the softmax
        cache = caches[idx]
        tag = cache[0]
        if tag == "dense":
            grads[idx]["w"] = cache[1].T @ dvalue
            grads[idx]["b"] = dvalue.sum(axis=0)
            dvalue = dvalue @ params[idx]["w"].T
        elif tag == "flatten":
            dvalue = dvalue.reshape(cache[1])
        elif tag == "pool":
            in_shape, pool, out_steps = cache[1], cache[2], dvalue.shape[1]
            dx = np.zeros(in_shape)
            dx[:, :out_steps * pool] = np.repeat(dvalue / pool, pool, axis=1)
            dvalue = dx
        elif tag == "dropout":
            dvalue = dvalue * cache[1] * cache[2]
        elif tag == "relu":
            dvalue = dvalue * (cache[1] > 0)
        elif tag == "conv":
            cols, w2, in_shape = cache[1], cache[2], cache[3]
            spec = graph.layers[idx]
            dw2 = np.einsum("ntk,ntf->kf", cols, dvalue)
            grads[idx]["w"] = dw2.reshape(
                spec.kernel, spec.in_channels, -1).transpose(1, 0, 2)
            grads[idx]["b"] = dvalue.sum(axis=(0, 1))
            dcols = (dvalue @ w2.T).reshape(
                dvalue.shape[0], dvalue.shape[1], spec.kernel, spec.in_channels)
            dx = np.zeros(in_shape)
            for k in range(spec.kernel):
                dx[:, k:k + dvalue.shape[1], :] += dcols[:, :, k, :]
            dvalue = dx
    return grads, dvalue


def conv_first_case():
    g = build_mc_cnn(5, 16, 8, dense_width=6, num_classes=4, seed=3)
    x = np.random.default_rng(4).normal(size=(9, 16, 5))
    return g, x


def dense_first_case():
    # the trainer's kernels take (N, features) rows straight into layer 0
    layers = (dense(7, 6), relu(), dense(6, 3), softmax())
    g = ModelGraph(layers, init_params(layers, 5), (1, 7), 3)
    return g, np.random.default_rng(6).normal(size=(9, 7))


def flatten_first_case():
    layers = (flatten(), dense(8, 6), relu(), dense(6, 3), softmax())
    g = ModelGraph(layers, init_params(layers, 7), (4, 2), 3)
    return g, np.random.default_rng(8).normal(size=(9, 4, 2))


def batch_gradients(graph, x):
    params = [{k: v.astype(np.float64) for k, v in p.items()}
              for p in graph.params]
    caches = []
    logits = training._logits(
        graph, params, x, rng=np.random.default_rng(0), keep=caches.append)
    labels = np.arange(x.shape[0]) % graph.num_classes
    _, dlogits = training._loss_and_dlogits(logits, labels)
    return (training._backward_batch(graph, params, caches, dlogits),
            full_backward(graph, params, caches, dlogits))


class TestKernelOracles:
    @settings(max_examples=60, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), max_size=2),
           steps=st.integers(1, 12), channels=st.integers(1, 6),
           int8=st.booleans(), data=st.data())
    def test_im2col_equals_stacked_slices(self, lead, steps, channels, int8,
                                          data):
        kernel = data.draw(st.integers(1, steps))
        rng = np.random.default_rng(len(lead) * 100 + steps)
        shape = tuple(lead) + (steps, channels)
        if int8:
            x = rng.integers(-128, 128, size=shape).astype(np.int8)
        else:
            x = rng.normal(size=shape)
        cols = float_engine.im2col(x, kernel)
        ref = stacked_im2col(x, kernel).astype(np.float64)
        assert cols.dtype == np.float64
        assert cols.shape == ref.shape
        assert cols.flags.c_contiguous
        assert cols.tobytes() == ref.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), max_size=2),
           steps=st.integers(1, 12), channels=st.integers(1, 6),
           data=st.data())
    def test_col2im_is_the_adjoint_of_im2col(self, lead, steps, channels,
                                             data):
        # integer values make both inner products exact
        kernel = data.draw(st.integers(1, steps))
        rng = np.random.default_rng(len(lead) * 100 + steps)
        x = rng.integers(-50, 50, size=tuple(lead) + (steps, channels))
        y = rng.integers(-50, 50, size=tuple(lead) + (
            steps - kernel + 1, kernel * channels)).astype(np.float64)
        assert np.sum(float_engine.im2col(x, kernel) * y) == \
            np.sum(x * float_engine.col2im(y, steps))

    def test_conv_weights_inverts_conv_matrix(self):
        w = np.random.default_rng(0).normal(size=(5, 3, 7))
        m = float_engine.conv_matrix(w)
        assert m.shape == (15, 7) and m.flags.c_contiguous
        assert np.array_equal(m[1 * 5 + 2], w[2, 1])  # row k * C + c
        assert np.array_equal(float_engine.conv_weights(m, 5), w)

    def test_conv_weight_gradient_matches_einsum(self):
        g, x = conv_first_case()
        grads, (ref, _) = batch_gradients(g, x)
        conv_layers = [i for i, spec in enumerate(g.layers)
                       if spec.kind == LayerKind.CONV1D]
        assert len(conv_layers) == 2
        for idx in conv_layers:
            got, want = grads[idx]["w"], ref[idx]["w"]
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("case", [conv_first_case, dense_first_case,
                                      flatten_first_case])
    def test_backward_stops_at_layer_zero_with_same_gradients(self, case):
        g, x = case()
        grads, (ref, dx) = batch_gradients(g, x)
        assert dx.shape == x.shape  # the reference does reach the input
        assert [sorted(d) for d in grads] == [sorted(d) for d in ref]
        for idx, layer_ref in enumerate(ref):
            for name, want in layer_ref.items():
                got = grads[idx][name]
                if g.layers[idx].kind == LayerKind.CONV1D and name == "w":
                    assert np.abs(got - want).max() <= \
                        1e-12 * np.abs(want).max()
                else:
                    assert np.array_equal(got, want)

    def test_same_seed_byte_identical_parameters(self):
        x, y = separable_toy_set()
        g = build_mc_cnn(2, 8, 8, dense_width=8, num_classes=2, seed=2)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=9)
        first, _ = train(g, (x, y), None, cfg)
        second, _ = train(g, (x, y), None, cfg)
        for p1, p2 in zip(first.params, second.params):
            assert sorted(p1) == sorted(p2)
            for name in p1:
                assert p1[name].dtype == np.float32
                assert p1[name].tobytes() == p2[name].tobytes()


def arrays_of(cache):
    """The arrays a layer cache holds (its shapes and scales are not)."""
    return [v for v in cache[1:] if isinstance(v, np.ndarray)]


class TestFloat32Training:
    """``train`` runs every step in float32, the dtype of graph params."""

    @pytest.fixture(params=["mc_cnn", "dense_after_sequence"])
    def graph(self, request):
        if request.param == "mc_cnn":
            return build_mc_cnn(4, 10, 8, dense_width=6, num_classes=15,
                                seed=3)
        return dense_after_sequence_graph()

    def test_every_cache_gradient_and_moment_is_float32(self, graph,
                                                        monkeypatch):
        seen = {"caches": 0, "grads": 0, "moments": 0}
        backward, step = training._backward_batch, training._Adam.step

        def checked_backward(graph_, params, caches, dlogits):
            assert dlogits.dtype == np.float32
            tags = {c[0] for c in caches}
            assert {"conv", "dense", "relu"} <= tags
            for cache in caches:
                for arr in arrays_of(cache):
                    if arr.dtype != bool:  # dropout's keep mask
                        assert arr.dtype == np.float32, cache[0]
                        seen["caches"] += 1
            grads = backward(graph_, params, caches, dlogits)
            for layer_grads in grads:
                for g in layer_grads.values():
                    assert g.dtype == np.float32
                    seen["grads"] += 1
            return grads

        def checked_step(opt, params, grads):
            step(opt, params, grads)
            for arr in [*opt.m.values(), *opt.v.values(),
                        *(v for p in params for v in p.values())]:
                assert arr.dtype == np.float32
                seen["moments"] += 1

        monkeypatch.setattr(training, "_backward_batch", checked_backward)
        monkeypatch.setattr(training._Adam, "step", checked_step)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(20,) + graph.input_shape)  # float64 windows
        y = rng.integers(0, 15, size=20)
        trained, _ = train(graph, (x, y), None,
                           TrainConfig(epochs=2, batch_size=8))
        assert all(seen.values())
        assert all(v.dtype == np.float32
                   for p in trained.params for v in p.values())

    def test_float32_gradients_match_float64_ones(self, graph):
        # the same float32 parameters and windows, and the same dropout
        # masks, backpropagated at both precisions: the float32 error,
        # about 2e-7 of the largest gradient entry here and 5e-7 at the
        # sweep's 23ch, 128-filter shapes, stays within 1e-5 of it
        x = np.random.default_rng(9).normal(
            size=(16,) + graph.input_shape).astype(np.float32)
        labels = np.arange(16) % graph.num_classes
        grads = {}
        for dtype in (np.float32, np.float64):
            params = [{k: v.astype(dtype) for k, v in p.items()}
                      for p in graph.params]
            caches = []
            logits = training._logits(graph, params, x.astype(dtype),
                                      rng=np.random.default_rng(0),
                                      keep=caches.append)
            _, dlogits = training._loss_and_dlogits(logits, labels)
            grads[dtype] = training._backward_batch(graph, params, caches,
                                                    dlogits)
        for got, want in zip(grads[np.float32], grads[np.float64],
                             strict=True):
            assert sorted(got) == sorted(want)
            for name, ref in want.items():
                assert got[name].dtype == np.float32
                assert np.abs(got[name] - ref).max() <= \
                    1e-5 * np.abs(ref).max()

    def test_grad_check_stays_float64(self, graph, monkeypatch):
        backward = training._backward_batch
        dtypes = set()

        def spy(graph_, params, caches, dlogits):
            grads = backward(graph_, params, caches, dlogits)
            dtypes.update(g.dtype for p in grads for g in p.values())
            return grads

        monkeypatch.setattr(training, "_backward_batch", spy)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(20,) + graph.input_shape)
        y = rng.integers(0, 15, size=20)
        trained, _ = train(graph, (x, y), None,
                           TrainConfig(epochs=2, batch_size=8))
        dtypes.clear()
        # criterion 5's bound, on a graph trained in float32
        assert grad_check(trained, x[0], int(y[0]), seed=1) <= 1e-3
        assert dtypes == {np.dtype(np.float64)}


class TestEpochAccuracyIsPredictBatch:
    def test_last_val_pass_equals_predict_batch(self, monkeypatch):
        # the trainer's parameters are float32 at every step, so the last
        # epoch's val_acc pass runs the returned graph's parameters
        passes = []
        inference = training._inference_logits

        def recorded(graph, params, x):
            passes.append(inference(graph, params, x))
            return passes[-1]

        monkeypatch.setattr(training, "_inference_logits", recorded)
        x, y = separable_toy_set(n=80, seed=3)
        x_val, y_val = separable_toy_set(n=40, seed=4)
        g = build_mc_cnn(2, 8, 8, dense_width=8, num_classes=2, seed=5)
        trained, history = train(g, (x, y), (x_val, y_val),
                                 TrainConfig(epochs=3, batch_size=16))
        val_logits = passes[-1]  # each epoch runs train, then val
        preds = training.predict_batch(trained, x_val)
        assert len(passes) == 2 * len(history) + 1
        assert passes[-1].tobytes() == val_logits.tobytes()
        assert preds.tolist() == val_logits.argmax(axis=1).tolist()
        assert history[-1]["val_acc"] == float((preds == y_val).mean())
