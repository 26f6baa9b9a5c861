"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(on the real stdout, so it survives pytest capture). The suite exercises the
whole pipeline on synthetic data: training, quantization, integer inference,
serialization, sweep determinism, and the microcontroller deployment model.
"""
import time

import numpy as np
import pytest

from conv_oracle import conv1d_forward, conv1d_int8
from tinyhar import (benchlab, datapipe as dp, float_engine as fe,
                     int8_engine as ie, mcu, metrics, modelfile, training)
from tinyhar.model_ir import (Precision, build_deep_conv_lstm, build_mc_cnn)
from tinyhar.quantizer import (affine_params, decompose_multiplier,
                               dequantize, pack_linear, quantize_model,
                               quantize_tensor, symmetric_params)
from tinyhar.synth import synth_generate

GROUPS = (dp.ChannelGroup.G17, dp.ChannelGroup.G23, dp.ChannelGroup.G768,
          dp.ChannelGroup.G791)
LEVELS = ("N1", "N2", "N3")
PROFILE_NAMES = ("nrf52840", "mimxrt1062", "stm32l4s5", "stm32f767")


_capture = None


@pytest.fixture(autouse=True)
def _live_reporting(capfd):
    """Let announce() write through pytest's output capture."""
    global _capture
    _capture = capfd
    yield
    _capture = None


def announce(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    with _capture.disabled():
        print(line, flush=True)


@pytest.fixture(scope="module")
def long_sessions():
    """Six 17-minute sessions: enough for >1000 held-out windows per group."""
    return synth_generate(seed=42, subjects=2, sessions_per_subject=3,
                          duration_s=1020.0)


def _prepared(sessions, group, held_out, n_train, n_test):
    windows = dp.make_windows(sessions, 24, 12, group)
    train, test = dp.split_by_session(windows, held_out)
    stats = dp.fit_stats(train[:400])
    return (dp.normalize(train[:n_train], stats),
            dp.normalize(test[:n_test], stats))


def test_criterion_1_quantization_fidelity(long_sessions):
    """Int8 top-1 agreement >= 95% and mean probability deviation <= 0.05
    against the float executor, for all 12 trained conv configurations."""
    started = time.monotonic()
    worst_agree, worst_dev = 1.0, 0.0
    for group in GROUPS:
        # the low-rate groups train fast, so give them more passes; the
        # big thermal groups converge to confident predictions in two
        n_train, epochs = (512, 6) if group.width <= 23 else (192, 2)
        train, test = _prepared(long_sessions, group, held_out=3,
                                n_train=n_train, n_test=1018)
        assert len(test) >= 1000
        x, _ = dp.stack_windows(test)
        for li, level in enumerate(LEVELS):
            seed = 100 + li
            graph = build_mc_cnn(group.width, 24,
                                 benchlab.MC_CNN_FILTERS[level], seed=seed)
            cfg = training.TrainConfig(epochs=epochs, batch_size=32,
                                       learning_rate=1e-3, seed=seed)
            graph, _ = training.train(graph, dp.stack_windows(train),
                                      None, cfg)
            qmodel = quantize_model(graph, [s.window for s in train[:8]])
            float_probs = training.predict_proba(graph, x)
            probs, preds = ie.run_quantized(qmodel, x)
            agreement = float(np.mean(preds == float_probs.argmax(axis=1)))
            deviation = float(np.abs(probs - float_probs).mean(axis=1).mean())
            worst_agree = min(worst_agree, agreement)
            worst_dev = max(worst_dev, deviation)
    elapsed = time.monotonic() - started
    ok = worst_agree >= 0.95 and worst_dev <= 0.05 and elapsed <= 600
    announce("criterion 1: quantization fidelity", ok,
             f"min agreement {worst_agree:.4f}, max deviation "
             f"{worst_dev:.4f}, {elapsed:.0f}s")
    assert worst_agree >= 0.95
    assert worst_dev <= 0.05
    assert elapsed <= 600


def test_criterion_2_size_ratio():
    """Serialized float/int8 size ratio in [3.0, 4.5] for all 24 configs."""
    rng = np.random.default_rng(0)
    ratios = {}
    for arch in ("mc_cnn", "deep_conv_lstm"):
        for group in GROUPS:
            rep = [rng.normal(size=(24, group.width)) for _ in range(2)]
            for level in LEVELS:
                graph = benchlab.build_for(arch, group, level,
                                           window_len=24, seed=1)
                qmodel = quantize_model(graph, rep)
                ratio = (len(modelfile.serialize(graph))
                         / len(modelfile.serialize(qmodel)))
                ratios[f"{arch}-{group.width}-{level}"] = ratio
    lo, hi = min(ratios.values()), max(ratios.values())
    ok = 3.0 <= lo and hi <= 4.5
    announce("criterion 2: float/int8 size ratio", ok,
             f"24 configs, range [{lo:.2f}, {hi:.2f}]")
    assert 3.0 <= lo and hi <= 4.5


def test_criterion_3_feasibility():
    """Float 23-channel N3 rejected on the nRF52840, int8 accepted; every
    int8 23-channel config fits on all four profiles."""
    rng = np.random.default_rng(1)
    rep = [rng.normal(size=(24, 23)) for _ in range(2)]
    big = build_mc_cnn(23, 24, 400, seed=1)
    big_q = quantize_model(big, rep)
    nrf = mcu.BUILTIN_PROFILES["nrf52840"]
    float_rejected = not mcu.fits_on(
        len(modelfile.serialize(big)),
        mcu.estimate_arena(big, Precision.FLOAT32), nrf).feasible
    int8_accepted = mcu.fits_on(
        len(modelfile.serialize(big_q)),
        mcu.estimate_arena(big_q), nrf).feasible
    all_fit = True
    for arch in ("mc_cnn", "deep_conv_lstm"):
        for level in LEVELS:
            graph = benchlab.build_for(arch, dp.ChannelGroup.G23, level,
                                       window_len=24, seed=1)
            qmodel = quantize_model(graph, rep)
            size = len(modelfile.serialize(qmodel))
            arena = mcu.estimate_arena(qmodel)
            for name in PROFILE_NAMES:
                verdict = mcu.fits_on(size, arena,
                                      mcu.BUILTIN_PROFILES[name])
                all_fit = all_fit and verdict.feasible
    ok = float_rejected and int8_accepted and all_fit
    announce("criterion 3: deployment feasibility", ok,
             f"float-on-nRF rejected={float_rejected}, "
             f"int8-on-nRF accepted={int8_accepted}, "
             f"all int8 23ch configs fit={all_fit}")
    assert float_rejected and int8_accepted and all_fit


def test_criterion_4_latency_ordering():
    """Estimated int8 latency orders the four parts correctly, and on the
    host the integer engine beats the float reference on the same graph."""
    graph = build_mc_cnn(23, 24, 400, seed=2)
    latency = {name: mcu.estimate_latency(graph, mcu.BUILTIN_PROFILES[name],
                                          Precision.INT8_FULL)
               for name in PROFILE_NAMES}
    ordered = (latency["mimxrt1062"] < latency["stm32f767"]
               < latency["stm32l4s5"] < latency["nrf52840"])
    rng = np.random.default_rng(3)
    qmodel = quantize_model(graph, [rng.normal(size=(24, 23))
                                    for _ in range(2)])
    window = rng.normal(size=(24, 23))
    # int8 and float calls alternate, so a slow spell on the host slows
    # both sides alike; each side is the mean of its 30 timed calls
    calls = np.array([[ie.timed_inference(model, window, repetitions=1).mean_us
                       for model in (qmodel, graph)] for _ in range(30)])
    int8_us, float_us = calls.mean(axis=0)
    host_faster = int8_us < float_us
    ok = ordered and host_faster
    announce("criterion 4: latency ordering", ok,
             f"estimates {', '.join(f'{latency[n]:.1f}ms' for n in ('mimxrt1062', 'stm32f767', 'stm32l4s5', 'nrf52840'))}; "
             f"host int8 {int8_us:.0f}us vs float {float_us:.0f}us")
    assert ordered
    assert host_faster


def test_criterion_5_training_sanity():
    """Seed-7 training on the 23-channel group reaches 85% accuracy and 0.70
    macro F1 under leave-one-session-out; gradients check out to 1e-3."""
    started = time.monotonic()
    sessions = synth_generate(seed=7, subjects=2, sessions_per_subject=5,
                              duration_s=420.0)
    windows = dp.make_windows(sessions, 24, 12, dp.ChannelGroup.G23)
    train, test = dp.split_by_session(windows, 5)
    stats = dp.fit_stats(train)
    train, test = dp.normalize(train, stats), dp.normalize(test, stats)
    graph = build_mc_cnn(23, 24, 128, seed=7)
    cfg = training.TrainConfig(epochs=5, batch_size=32, learning_rate=1e-3,
                               seed=7)
    graph, _ = training.train(graph, dp.stack_windows(train), None, cfg)
    x, y = dp.stack_windows(test)
    preds = training.predict_batch(graph, x)
    acc = metrics.accuracy(preds, y)
    f1 = metrics.macro_f1(preds, y)
    grad_err = training.grad_check(
        build_mc_cnn(4, 12, 8, dense_width=6, num_classes=3, seed=2),
        np.random.default_rng(3).normal(size=(12, 4)), label=1,
        num_samples=200, seed=3)
    elapsed = time.monotonic() - started
    ok = acc >= 0.85 and f1 >= 0.70 and grad_err <= 1e-3 and elapsed <= 900
    announce("criterion 5: training sanity", ok,
             f"accuracy {acc:.4f}, macro F1 {f1:.4f}, grad err "
             f"{grad_err:.2e}, {elapsed:.0f}s")
    assert acc >= 0.85
    assert f1 >= 0.70
    assert grad_err <= 1e-3
    assert elapsed <= 900


def test_criterion_6_metric_oracles():
    """Accuracy and macro F1 match brute-force tallies on 100 random sets."""
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        n = int(rng.integers(10, 300))
        # imbalanced draws: squash the label distribution toward low ids
        labels = (rng.integers(0, 15, size=n) * rng.integers(0, 15, size=n)
                  // 14).astype(np.int64)
        preds = np.where(rng.random(n) < 0.6, labels,
                         rng.integers(0, 15, size=n)).astype(np.int64)
        acc_oracle = sum(int(p == l) for p, l in zip(preds, labels)) / n
        f1s = []
        for c in range(15):
            tp = sum(int(p == c and l == c) for p, l in zip(preds, labels))
            denom = (sum(int(p == c) for p in preds)
                     + sum(int(l == c) for l in labels))
            f1s.append(0.0 if denom == 0 else 2 * tp / denom)
        ok = ok and metrics.accuracy(preds, labels) == pytest.approx(acc_oracle)
        ok = ok and metrics.macro_f1(preds, labels) == pytest.approx(
            sum(f1s) / 15)
    announce("criterion 6: metric oracles", ok, "100 random sets")
    assert ok


def test_criterion_7_numeric_kernel_oracles():
    """Int8 kernels within 3 output scales of float on 50 random layers;
    round-trip <= scale/2 on 10k values; multiplier reconstruction <= 2^-30."""
    rng = np.random.default_rng(6)
    kernel_ok = True
    for _ in range(50):
        steps = int(rng.integers(4, 12))
        channels = int(rng.integers(1, 8))
        filters = int(rng.integers(1, 8))
        kernel = int(rng.integers(1, min(4, steps) + 1))
        x = rng.normal(size=(steps, channels))
        w = rng.normal(size=(channels, kernel, filters)) * 0.5
        b = rng.normal(size=filters) * 0.1
        in_qp = affine_params(float(x.min()), float(x.max()))
        w_qp = symmetric_params(float(w.min()), float(w.max()))
        q_x = quantize_tensor(x, in_qp)
        bias = np.round(b / (in_qp.scale * w_qp.scale)).astype(np.int32)
        # per-layer oracles: the float kernel on the dequantized operands,
        # so the bound covers only the layer's own arithmetic error
        x_hat = dequantize(q_x, in_qp)
        w_hat = dequantize(quantize_tensor(w, w_qp), w_qp)

        # conv vs float conv
        pre = conv1d_forward(x_hat, w_hat, b)
        conv_qp = affine_params(min(0.0, float(pre.min())),
                                max(0.0, float(pre.max())))
        mult = decompose_multiplier(in_qp.scale * w_qp.scale / conv_qp.scale)
        q_conv = conv1d_int8(
            q_x, pack_linear(quantize_tensor(w, w_qp), bias, in_qp.zero_point),
            mult, conv_qp)
        err = np.abs(dequantize(q_conv, conv_qp) - pre).max()
        kernel_ok = kernel_ok and err <= 3 * conv_qp.scale

        # relu on the conv's quantized output, judged against float relu of
        # the same dequantized input (per-layer error, not chained error)
        relu_float = fe.relu(dequantize(q_conv, conv_qp))
        relu_qp = affine_params(0.0, max(float(relu_float.max()), 1e-6))
        q_relu = ie.relu_int8(
            q_conv, conv_qp,
            decompose_multiplier(conv_qp.scale / relu_qp.scale), relu_qp)
        err = np.abs(dequantize(q_relu, relu_qp) - relu_float).max()
        kernel_ok = kernel_ok and err <= 3 * relu_qp.scale

        # average pool on the quantized input directly
        if steps >= 2:
            pool_float = fe.avg_pool1d(dequantize(q_x, in_qp), 2)
            q_pool = ie.avg_pool1d_int8(q_x, 2)
            err = np.abs(dequantize(q_pool, in_qp) - pool_float).max()
            kernel_ok = kernel_ok and err <= 3 * in_qp.scale

        # dense vs float dense
        w_d = rng.normal(size=(channels, filters)) * 0.5
        wd_qp = symmetric_params(float(w_d.min()), float(w_d.max()))
        wd_hat = dequantize(quantize_tensor(w_d, wd_qp), wd_qp)
        dense_float = fe.dense_forward(x_hat[0], wd_hat, b)
        dense_qp = affine_params(min(0.0, float(dense_float.min())),
                                 max(0.0, float(dense_float.max())))
        mult = decompose_multiplier(in_qp.scale * wd_qp.scale / dense_qp.scale)
        q_dense = ie.dense_int8(
            q_x[0], pack_linear(
                quantize_tensor(w_d, wd_qp),
                np.round(b / (in_qp.scale * wd_qp.scale)).astype(np.int32),
                in_qp.zero_point),
            mult, dense_qp)
        err = np.abs(dequantize(q_dense, dense_qp) - dense_float).max()
        kernel_ok = kernel_ok and err <= 3 * dense_qp.scale

    values = rng.uniform(-40.0, 40.0, size=10_000)
    qp = affine_params(-40.0, 40.0)
    round_trip = np.abs(dequantize(quantize_tensor(values, qp), qp) - values)
    round_trip_ok = bool(round_trip.max() <= qp.scale / 2 + 1e-12)

    mults = rng.uniform(2.0**-20, 1.0, size=10_000)
    recon_ok = True
    for m in mults:
        fpm = decompose_multiplier(float(m))
        recon_ok = recon_ok and abs(fpm.value - m) / m <= 2.0**-30
    ok = kernel_ok and round_trip_ok and recon_ok
    announce("criterion 7: numeric kernel oracles", ok,
             f"layers ok={kernel_ok}, round trip ok={round_trip_ok}, "
             f"multiplier ok={recon_ok}")
    assert kernel_ok and round_trip_ok and recon_ok


def test_criterion_8_determinism():
    """Bit-exact int8 inference; byte-identical sweep CSVs across runs."""
    rng = np.random.default_rng(8)
    graph = build_mc_cnn(23, 24, 128, seed=8)
    qmodel = quantize_model(graph, [rng.normal(size=(24, 23))
                                    for _ in range(2)])
    window = rng.normal(size=(24, 23))
    p1, c1 = ie.run_quantized(qmodel, window)
    p2, c2 = ie.run_quantized(qmodel, window)
    inference_exact = bool(np.array_equal(p1, p2) and c1 == c2)

    sessions = synth_generate(seed=9, subjects=1, sessions_per_subject=2,
                              duration_s=90.0)
    cfg = benchlab.SweepConfig(window_len=12, stride=12, held_out_session=2,
                               seed=9, train_epochs=1, rep_windows=8,
                               max_eval_windows=40)
    csv1 = benchlab.reports_to_csv(benchlab.sweep(sessions, cfg))
    csv2 = benchlab.reports_to_csv(benchlab.sweep(sessions, cfg))
    sweep_exact = csv1 == csv2
    ok = inference_exact and sweep_exact
    announce("criterion 8: determinism", ok,
             f"inference bit-exact={inference_exact}, "
             f"48-config sweep byte-identical={sweep_exact}")
    assert inference_exact and sweep_exact


def test_criterion_9_pipeline_invariants():
    """Channel-group cardinalities, exact 6 Hz resampling on 3 Hz and 12 Hz
    hand traces, and session-confined windows."""
    cards_ok = {g.width for g in dp.ChannelGroup} == {791, 768, 23, 17}

    def trace(rate_hz):
        n = int(2 * rate_hz) + 1
        ts = np.arange(n) * (1000.0 / rate_hz)
        return dp.SensorStream(name=f"{rate_hz}hz", channel_start=0,
                               timestamps=ts,
                               values=np.arange(n, dtype=float).reshape(-1, 1))

    grid_ok = True
    for rate in (3.0, 12.0):
        ticks, frames = dp.synchronize([trace(rate)])
        grid_ok = grid_ok and bool(
            np.allclose(np.diff(ticks), dp.GRID_STEP_MS))
        # sample-and-hold: held value is the trace index of the newest
        # native sample at or before each tick
        expected = np.floor(ticks / (1000.0 / rate) + 1e-9)
        grid_ok = grid_ok and bool(np.allclose(frames[:, 0], expected))

    rng = np.random.default_rng(10)
    recs = [dp.SessionRecording(subject=1, session=s,
                                timestamps=np.arange(10) * dp.GRID_STEP_MS,
                                frames=rng.normal(size=(10, 791)),
                                labels=np.full(10, s, dtype=np.int64))
            for s in (1, 2)]
    windows = dp.make_windows(recs, window_len=6, stride=2)
    confined_ok = all(w.label == w.session for w in windows)
    ok = cards_ok and grid_ok and confined_ok
    announce("criterion 9: pipeline invariants", ok,
             f"cardinalities ok={cards_ok}, 6Hz grid ok={grid_ok}, "
             f"windows confined={confined_ok}")
    assert cards_ok and grid_ok and confined_ok
