"""Backprop trainer for the conv/dense model family.

Backward kernels, the Adam optimizer, categorical cross-entropy loss, and
a central finite-difference gradient checker. Training runs in float32,
the dtype a graph stores its parameters in: parameters, Adam moments,
training windows, activations and gradients, as every array the backward
pass makes takes the dtype of the gradient flowing into it. The
per-epoch accuracies and ``predict_*`` stack their windows to float64, as
the float reference does, and :func:`grad_check` runs in float64. The
trained parameters are those of the last step, so the last epoch's
accuracy pass and ``predict_*`` on the trained graph compute the same
logits, bit for bit. The forward pass
of training steps, of the per-epoch accuracies and of ``predict_*`` is
``float_engine.layer_outputs``, the float reference's own layer loop,
stopped before the final softmax and given the trainer's dropout and
backward caches. Convolutions are ``float_engine.window_rows`` times
``conv_matrix`` weights in both directions: the conv weight gradient is
``cols.T @ dout`` over all windows and time steps, and so is the
input-gradient product. Backpropagation stops at the first layer's
parameters; no gradient with respect to the input window is computed. A
dense layer fed a sequence reads its last time step, as in the IR. The
per-epoch accuracies cost one inference pass per split and epoch, and
``train`` runs them only when it is given a validation split. LSTM graphs
cannot be trained, and ``predict_*`` runs them like any other graph.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from . import float_engine
from .model_ir import LayerKind, ModelGraph, map_blocks


class UnsupportedLayerError(ValueError):
    """Graph contains a layer the trainer cannot differentiate (LSTM)."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.learning_rate < 1.0:
            raise ValueError("learning_rate must be in (0, 1)")


_TRAINABLE = (LayerKind.CONV1D, LayerKind.RELU, LayerKind.DROPOUT,
              LayerKind.AVGPOOL1D, LayerKind.FLATTEN, LayerKind.DENSE,
              LayerKind.SOFTMAX)


def _check_trainable(graph: ModelGraph) -> None:
    for spec in graph.layers:
        if spec.kind not in _TRAINABLE:
            raise UnsupportedLayerError(
                f"trainer does not support {spec.kind.name} layers")


def _logits(graph: ModelGraph, params, x: np.ndarray, **hooks) -> np.ndarray:
    """The input of the final softmax for ``x`` (N, T, C): the output of
    every layer of ``float_engine.layer_outputs`` but the last, with its
    ``rng`` and ``keep`` ``hooks``; the softmax itself is never run."""
    for value in islice(float_engine.layer_outputs(graph, params, x, **hooks),
                        len(graph.layers) - 1):
        pass
    return value


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _loss_and_dlogits(logits: np.ndarray, labels: np.ndarray):
    n = logits.shape[0]
    logp = _log_softmax(logits)
    loss = -logp[np.arange(n), labels].mean()
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def _backward_batch(graph: ModelGraph, params, caches, dlogits: np.ndarray):
    """Returns per-layer gradient dicts mirroring ``params``.

    Stops after the parameter gradients of layer 0: nothing needs the
    gradient with respect to the input window.
    """
    grads = [dict() for _ in graph.layers]
    dvalue = dlogits
    for idx in range(len(caches) - 1, -1, -1):  # the softmax kept no cache
        cache, spec = caches[idx], graph.layers[idx]
        tag = cache[0]
        if tag == "dense":
            grads[idx]["w"] = cache[1].T @ dvalue
            grads[idx]["b"] = dvalue.sum(axis=0)
        elif tag == "conv":
            cols = cache[1]
            dout = dvalue.reshape(-1, dvalue.shape[2])
            dw2 = cols.reshape(-1, cols.shape[2]).T @ dout
            grads[idx]["w"] = float_engine.conv_weights(dw2, spec.in_channels)
            grads[idx]["b"] = dvalue.sum(axis=(0, 1))
        if idx == 0:
            break
        if tag == "dense":
            dvalue = dvalue @ params[idx]["w"].T
            if len(cache[2]) == 3:  # only the last time step was read
                dseq = np.zeros(cache[2], dvalue.dtype)
                dseq[:, -1] = dvalue
                dvalue = dseq
        elif tag == "conv":
            w2, in_shape = cache[2], cache[3]
            dcols = dvalue.reshape(-1, dvalue.shape[2]) @ w2.T
            dvalue = float_engine.col2im(
                dcols.reshape(dvalue.shape[:2] + dcols.shape[1:]), in_shape[1])
        elif tag == "flatten":
            dvalue = dvalue.reshape(cache[1])
        elif tag == "pool":
            dx, pool = np.zeros(cache[1], dvalue.dtype), cache[2]
            float_engine.pool_groups(dx, pool)[...] = dvalue[:, :, None] / pool
            dvalue = dx
        elif tag == "dropout":
            keep, scale = cache[1], cache[2]
            dvalue = dvalue * keep * scale
        elif tag == "relu":
            dvalue = dvalue * (cache[1] > 0)
        # "identity" passes through
    return grads


class _Adam:
    def __init__(self, lr: float):
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m: dict[tuple[int, str], np.ndarray] = {}
        self.v: dict[tuple[int, str], np.ndarray] = {}

    def step(self, params, grads):
        self.t += 1
        for idx, layer_grads in enumerate(grads):
            for name, g in layer_grads.items():
                key = (idx, name)
                if key not in self.m:
                    self.m[key] = np.zeros_like(g)
                    self.v[key] = np.zeros_like(g)
                m, v = self.m[key], self.v[key]
                # In place, with the rounding of the textbook expressions
                # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
                # step = lr * m_hat / (sqrt(v_hat) + eps), so results are
                # bit-identical to them.
                tmp = np.multiply(1 - self.beta1, g)
                m *= self.beta1
                m += tmp
                np.multiply(1 - self.beta2, g, out=tmp)
                tmp *= g
                v *= self.beta2
                v += tmp
                step = np.divide(m, 1 - self.beta1 ** self.t)
                step *= self.lr
                np.divide(v, 1 - self.beta2 ** self.t, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += self.eps
                step /= tmp
                params[idx][name] -= step


def _inference_logits(graph: ModelGraph, params, x) -> np.ndarray:
    """Logits of the windows ``x``, one float64 inference pass per
    ``model_ir.map_blocks`` block, a ``model_ir.FrameBlock``."""
    return map_blocks(partial(_logits, graph, params), x, graph.input_shape)


def predict_proba(graph: ModelGraph, x) -> np.ndarray:
    """Class probabilities (inference mode, float64) of N windows: an
    (N, T, C) array, a sequence of (T, C) windows or a ``datapipe.Windows``.
    Each array block's rows equal ``float_engine.forward`` of that block,
    bit for bit, as the softmax treats each row on its own."""
    return float_engine.softmax(
        _inference_logits(graph, graph.float64_params, x))


def predict_batch(graph: ModelGraph, x) -> np.ndarray:
    """Argmax classes (inference mode, float64) of N windows: any input
    :func:`predict_proba` takes."""
    return _inference_logits(graph, graph.float64_params, x).argmax(axis=1)


def train(graph: ModelGraph, train_set, val_set, cfg: TrainConfig):
    """Train on (X, y) arrays in float32; returns (trained graph,
    per-epoch history).

    History entries are dicts with epoch, loss, train_acc, val_acc. The
    accuracies, one inference pass per split and epoch, run exactly when
    ``val_set`` is given (its X any window set :func:`predict_batch`
    takes); with None both are NaN. The trained parameters are the same
    either way, and deterministic given cfg.seed at a fixed BLAS thread
    count.
    """
    _check_trainable(graph)
    x_train, y_train = train_set
    params = [{k: v.astype(np.float32) for k, v in p.items()}
              for p in graph.params]
    rng = np.random.default_rng(cfg.seed)
    opt = _Adam(cfg.learning_rate)
    n = x_train.shape[0]
    entries = []
    x_train = x_train.astype(np.float32)

    def accuracy(split) -> float:  # NaN without validation, or if empty
        if val_set is None or not len(split[0]):
            return float("nan")
        logits = _inference_logits(graph, params, split[0])
        return float((logits.argmax(axis=1) == split[1]).mean())

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            caches = []
            logits = _logits(graph, params, xb, rng=rng, keep=caches.append)
            loss, dlogits = _loss_and_dlogits(logits, yb)
            grads = _backward_batch(graph, params, caches, dlogits)
            opt.step(params, grads)
            epoch_loss += float(loss) * len(idx)
        entries.append({"epoch": epoch, "loss": epoch_loss / n,
                        "train_acc": accuracy(train_set),
                        "val_acc": accuracy(val_set)})
    return graph.with_params(tuple(params)), entries


def history_to_csv(history) -> str:
    buf = io.StringIO()
    buf.write("epoch,loss,train_acc,val_acc\n")
    for row in history:
        buf.write(f"{row['epoch']},{row['loss']:.8f},"
                  f"{row['train_acc']:.6f},{row['val_acc']:.6f}\n")
    return buf.getvalue()


def grad_check(graph: ModelGraph, window: np.ndarray, label: int,
               step: float = 1e-4, num_samples: int = 200,
               seed: int = 0) -> float:
    """Max relative discrepancy between analytic and central finite-difference
    gradients over a random sample of parameters (dropout disabled)."""
    _check_trainable(graph)
    params = [{k: v.astype(np.float64) for k, v in p.items()}
              for p in graph.params]
    x = window[None].astype(np.float64)
    y = np.array([label])

    def loss_at(p):
        loss, _ = _loss_and_dlogits(_logits(graph, p, x), y)
        return loss

    caches = []
    logits = _logits(graph, params, x, keep=caches.append)
    _, dlogits = _loss_and_dlogits(logits, y)
    grads = _backward_batch(graph, params, caches, dlogits)

    coords = []
    for idx, layer_params in enumerate(params):
        for name, arr in layer_params.items():
            for flat in range(arr.size):
                coords.append((idx, name, flat))
    rng = np.random.default_rng(seed)
    if len(coords) > num_samples:
        picked = [coords[i] for i in
                  rng.choice(len(coords), size=num_samples, replace=False)]
    else:
        picked = coords

    worst = 0.0
    for idx, name, flat in picked:
        arr = params[idx][name]
        orig = arr.flat[flat]
        arr.flat[flat] = orig + step
        up = loss_at(params)
        arr.flat[flat] = orig - step
        down = loss_at(params)
        arr.flat[flat] = orig
        numeric = (up - down) / (2 * step)
        analytic = grads[idx][name].flat[flat]
        denom = max(abs(numeric), abs(analytic), 1e-6)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst
