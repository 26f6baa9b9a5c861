"""The benchmark's workloads: sweep, stream and deploy.

Each workload runs in one process as a closed loop with one client: the
next operation starts only when the previous one returns. Inputs come from
``tinyhar.synth`` seeded by the benchmark's seed. tinyhar is called only
through module attributes, so a traced run sees every call.

A workload has ``setup(seed, workdir)``, which builds its fixtures (an
untraced run times it ``setups`` times), ``run_round(state, tracer,
outcome)``, one unit of timed work, and
``finish(state, tracer, outcome)``, the checks and quality figures that run
after timing stops. ``tracer`` is None in an untraced run.
"""
from __future__ import annotations

import contextlib
import io
import math
import time
from pathlib import Path

import numpy as np

from tinyhar import (benchlab, cli, datapipe, float_engine, int8_engine,
                     model_ir, modelfile, quantizer, synth, training)
from tinyhar.mcu import BUILTIN_PROFILES

from layers import MODELS

NUM_CLASSES = datapipe.NUM_CLASSES
WINDOW_LEN = 24
HELD_OUT_SESSION = 5
# Criterion 1: int8 classes agree with the float executor on >= 95%.
MIN_AGREEMENT = 0.95


class Outcome:
    """Operations attempted and failed (a failed output check is a
    failure), and per-model request latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.latency_ns: dict[str, list[int]] = {m: [] for m in MODELS}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def accuracy_summary(int8: list[float], float_: list[float]) -> dict:
    """Held-out accuracy of int8 models and of their float twins.

    ``acc_ratio``, the lower of mean int8 and mean float accuracy over mean
    float accuracy, is the bounded quality metric: it stays near 1 whatever
    the seed's data, a faster but wrong int8 path lowers it, and it cannot
    rise above 1 when float accuracy falls. Accuracy itself moves with the
    seed's data; ``check_accuracy`` guards it with a floor.
    """
    acc_int8, acc_float = float(np.mean(int8)), float(np.mean(float_))
    ratio = min(acc_int8, acc_float) / acc_float if acc_float > 0 else 0.0
    return {"acc_ratio": ratio,
            "acc_int8": acc_int8, "acc_float": acc_float,
            "acc_pairs": len(int8)}


def check_accuracy(summary: dict, floor: float) -> list[str]:
    """Mean int8 and mean float held-out accuracy each reach ``floor``
    (NaN fails): a broken trainer or float path lowers both, which the
    ratio alone would not show."""
    return [f"mean {kind} held-out accuracy {summary[f'acc_{kind}']:.4f} "
            f"below {floor}" for kind in ("int8", "float")
            if not summary[f"acc_{kind}"] >= floor]


def quality(outcome: Outcome, int8: list[float], float_: list[float],
            floor: float) -> dict:
    """``accuracy_summary`` plus its floor check, counted as one output
    check of ``outcome``."""
    summary = accuracy_summary(int8, float_)
    outcome.attempted += 1
    problems = check_accuracy(summary, floor)
    if problems:
        outcome.fail("; ".join(problems))
    return summary


def _request(tracer, request_id: str):
    return contextlib.nullcontext() if tracer is None \
        else tracer.request(request_id)


# ------------------------------------------------------------------ sweep

# 300 s sessions keep every class in the held-out session; the sweep is
# shrunk only through subjects, stride and epochs.
SWEEP_DATA = {"subjects": 1, "sessions_per_subject": 5, "duration_s": 300.0}
SWEEP_SHRINK = {"stride": 48, "train_epochs": 2}
SWEEP_CONFIGS = 48
# Mean held-out accuracy of the 12 trained mc_cnn configs was 0.84-0.91
# over seeds 1-5 and 11-20, in both precisions.
SWEEP_ACC_FLOOR = 0.75


def check_sweep(reports, report_csv: str) -> list[str]:
    """Output checks of one sweep round."""
    problems = []
    if len(reports) != SWEEP_CONFIGS:
        problems.append(f"{len(reports)} reports, expected {SWEEP_CONFIGS}")
    rows = benchlab.parse_report_csv(report_csv)
    if len(rows) != SWEEP_CONFIGS:
        problems.append(f"report.csv has {len(rows)} rows, "
                        f"expected {SWEEP_CONFIGS}")
    sizes = {(r["arch"], r["channels"], r["level"], r["precision"]):
             int(r["model_size_bytes"] or 0) for r in rows}
    for (arch, channels, level, precision), size in sizes.items():
        twin = sizes.get((arch, channels, level, "float"))
        if precision == "int8" and (twin is None or size >= twin):
            problems.append(f"{arch}-{channels}ch-{level}: int8 size {size} "
                            f"not below float {twin}")
    for row in rows:
        empty = [f"{p}_{v}" for p in BUILTIN_PROFILES
                 for v in ("flash_ok", "sram_ok") if row[f"{p}_{v}"] == ""]
        if empty:
            problems.append(f"{row['arch']}-{row['channels']}ch-"
                            f"{row['level']}-{row['precision']}: empty MCU "
                            f"verdict {', '.join(empty)}")
    return problems


class Sweep:
    name = "sweep"
    # set-up is one synth_generate call of about 0.2 s; its median needs
    # more samples than the set-ups of seconds in stream and deploy
    setups = 9
    trace_rounds = 1

    def setup(self, seed: int, workdir: Path):
        return {"sessions": synth.synth_generate(seed, **SWEEP_DATA),
                "cfg": benchlab.SweepConfig(seed=seed, jobs=1,
                                            **SWEEP_SHRINK),
                "out": workdir / "sweep"}

    def run_round(self, state, tracer, outcome: Outcome) -> None:
        reports = benchlab.sweep(state["sessions"], state["cfg"])
        benchlab.render_report(reports, state["out"])
        state["reports"] = reports
        outcome.attempted += len(reports)
        for report in reports:
            if report.error:
                outcome.fail(f"{report.config_id}: {report.error}")
        for problem in check_sweep(
                reports, (state["out"] / "report.csv").read_text()):
            outcome.fail(problem)

    def finish(self, state, tracer, outcome: Outcome) -> dict:
        trained = [r for r in state["reports"] if r.arch == "mc_cnn"]
        return quality(
            outcome,
            [r.accuracy for r in trained
             if r.precision == model_ir.Precision.INT8_FULL],
            [r.accuracy for r in trained
             if r.precision == model_ir.Precision.FLOAT32],
            SWEEP_ACC_FLOOR)


# ----------------------------------------------------------------- stream

STREAM_DATA = {"subjects": 1, "sessions_per_subject": 5, "duration_s": 300.0}
STREAM_TRAIN_STRIDE = 48
STREAM_EPOCHS = 1
REP_WINDOWS = 32
POOL_WINDOWS = 256     # consecutive held-out windows at stride 1
ROUND_WINDOWS = 32     # windows per round, each through all four models
ORACLE_WINDOWS = 48    # evenly spaced held-out windows for the float check
# Mean oracle-window accuracy of the two trained mc_cnn models was
# 0.74-0.94 over seeds 1-20, in both precisions.
STREAM_ACC_FLOOR = 0.6


def check_prediction(probs, cls) -> str | None:
    """Per-call output check: a length-15 probability vector and its argmax
    class in 0..14."""
    probs = np.asarray(probs)
    if probs.shape != (NUM_CLASSES,) or not np.all(np.isfinite(probs)):
        return f"probability vector of shape {probs.shape}"
    if not 0 <= cls < NUM_CLASSES:
        return f"class {cls} outside 0..{NUM_CLASSES - 1}"
    if cls != int(np.argmax(probs)):
        return f"class {cls} is not the argmax {int(np.argmax(probs))}"
    return None


def agreement(int8_classes, float_classes) -> float:
    return float(np.mean(np.asarray(int8_classes)
                         == np.asarray(float_classes)))


class Stream:
    name = "stream"
    setups = 3
    trace_rounds = 10

    def setup(self, seed: int, workdir: Path):
        sessions = synth.synth_generate(seed, **STREAM_DATA)
        held_out = [s for s in sessions if s.session == HELD_OUT_SESSION]
        models = {}
        for width in (23, 791):
            group = datapipe.ChannelGroup.from_width(width)
            windows = datapipe.make_windows(sessions, WINDOW_LEN,
                                            STREAM_TRAIN_STRIDE, group)
            train, _ = datapipe.split_by_session(windows, HELD_OUT_SESSION)
            stats = datapipe.fit_stats(train)
            train = datapipe.normalize(train, stats)
            test = datapipe.make_windows(held_out, WINDOW_LEN, 1, group)
            step = len(test) // ORACLE_WINDOWS
            pool = datapipe.normalize(test[:POOL_WINDOWS], stats)
            oracle = datapipe.normalize(test[::step][:ORACLE_WINDOWS], stats)
            rep = [s.window for s in train[:REP_WINDOWS]]
            cnn = model_ir.build_mc_cnn(
                width, WINDOW_LEN,
                first_filters=benchlab.MC_CNN_FILTERS["N3"], seed=seed)
            cnn, _ = training.train(
                cnn, datapipe.stack_windows(train), None,
                training.TrainConfig(epochs=STREAM_EPOCHS, seed=seed))
            lstm = model_ir.build_deep_conv_lstm(
                width, WINDOW_LEN,
                filters=benchlab.DEEP_CONV_LSTM_FILTERS["N3"], seed=seed)
            for arch, graph in (("mc_cnn", cnn), ("deep_conv_lstm", lstm)):
                qmodel = modelfile.deserialize(modelfile.serialize(
                    quantizer.quantize_model(graph, rep)))
                models[f"{arch}-{width}ch"] = {
                    "graph": graph, "qmodel": qmodel,
                    "pool": [s.window for s in pool],
                    "oracle": oracle}
        return {"models": models, "round": 0}

    def run_round(self, state, tracer, outcome: Outcome) -> None:
        first = state["round"] * ROUND_WINDOWS
        state["round"] += 1
        for i in range(first, first + ROUND_WINDOWS):
            index = i % POOL_WINDOWS
            for name in MODELS:
                model = state["models"][name]
                window = model["pool"][index]
                outcome.attempted += 1
                with _request(tracer, f"{name}/{index}"):
                    start = time.perf_counter_ns()
                    try:
                        probs, cls = int8_engine.run_quantized(
                            model["qmodel"], window)
                    except Exception as exc:  # counted, the loop goes on
                        outcome.fail(f"{name} window {index}: {exc!r}")
                        continue
                    elapsed = time.perf_counter_ns() - start
                outcome.latency_ns[name].append(elapsed)
                problem = check_prediction(probs, cls)
                if problem:
                    outcome.fail(f"{name} window {index}: {problem}")

    def finish(self, state, tracer, outcome: Outcome) -> dict:
        """Float oracle check and float reference latency, untimed."""
        int8_acc, float_acc, forward_ns = [], [], {}
        for name in MODELS:
            model = state["models"][name]
            int8_classes, float_classes, labels, times = [], [], [], []
            for j, sample in enumerate(model["oracle"]):
                with _request(tracer, f"oracle:{name}:{j}"):
                    start = time.perf_counter_ns()
                    probs = float_engine.forward(model["graph"], sample.window)
                    times.append(time.perf_counter_ns() - start)
                    _, cls = int8_engine.run_quantized(model["qmodel"],
                                                       sample.window)
                float_classes.append(int(np.argmax(probs)))
                int8_classes.append(cls)
                labels.append(sample.label)
            forward_ns[name] = times
            if name.startswith("mc_cnn"):
                outcome.attempted += 1
                agree = agreement(int8_classes, float_classes)
                if agree < MIN_AGREEMENT:
                    outcome.fail(f"{name}: int8/float agreement {agree:.3f} "
                                 f"below {MIN_AGREEMENT}")
                int8_acc.append(agreement(int8_classes, labels))
                float_acc.append(agreement(float_classes, labels))
        return {**quality(outcome, int8_acc, float_acc, STREAM_ACC_FLOOR),
                "forward_ns": forward_ns}


# ----------------------------------------------------------------- deploy

DEPLOY_WIDTHS = (23, 791)
# 300 s sessions, as in sweep and stream: a session holds about ten activity
# segments, so the two training sessions cover nearly every class of the
# held-out one. With 60 s sessions the held-out session's few classes were
# often unseen and eval accuracy swung from 0.34 to 0.99 across seeds.
DEPLOY_SYNTH = ["--subjects", "1", "--sessions", "3", "--duration-s", "300"]
DEPLOY_SPLIT = ["--held-out-session", "3"]
DEPLOY_TRAIN = ["--epochs", "5", "--stride", "24"]
# Mean eval accuracy of the two models was 0.78-0.95 over seeds 1-5 and
# 11-21, in both precisions.
DEPLOY_ACC_FLOOR = 0.6


def run_cli(argv) -> tuple[int, str]:
    """``tinyhar`` in-process; returns the exit code and captured output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def eval_accuracy(report_csv: str) -> float:
    """Accuracy of a one-row eval report.csv; NaN when it has none."""
    rows = benchlab.parse_report_csv(report_csv)
    return float(rows[0]["accuracy"] or "nan") if len(rows) == 1 else math.nan


def check_feasibility(feasibility_csv: str) -> str | None:
    listed = {line.split(",")[0]
              for line in feasibility_csv.splitlines()[1:] if line}
    if listed != set(BUILTIN_PROFILES):
        return (f"feasibility.csv lists {sorted(listed)}, expected "
                f"{sorted(BUILTIN_PROFILES)}")
    return None


def _command(tracer, outcome: Outcome, model: str, argv) -> bool:
    """One timed CLI request; False when it exited non-zero."""
    outcome.attempted += 1
    with _request(tracer, f"{argv[0]}:{model}"):
        code, output = run_cli(argv)
    if code != 0:
        outcome.fail(f"{argv[0]} {model} exited {code}: {output.strip()}")
    return code == 0


class Deploy:
    name = "deploy"
    setups = 3
    trace_rounds = 1

    def setup(self, seed: int, workdir: Path):
        data = workdir / "data"
        commands = [["synth", "--out", data, "--seed", seed, *DEPLOY_SYNTH]]
        commands += [["train", "--data", data, "--group", width,
                      "--out", workdir / f"mc_cnn-{width}ch", "--seed", seed,
                      *DEPLOY_TRAIN, *DEPLOY_SPLIT]
                     for width in DEPLOY_WIDTHS]
        for argv in commands:
            code, output = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited {code}: "
                                   f"{output.strip()}")
        return {"data": data, "workdir": workdir, "accuracy": {}}

    def run_round(self, state, tracer, outcome: Outcome) -> None:
        data = state["data"]
        for width in DEPLOY_WIDTHS:
            model = f"mc_cnn-{width}ch"
            base = state["workdir"] / model
            paths = {"float": base / "model_float.thar",
                     "int8": base / "q" / "model_int8.thar"}
            _command(tracer, outcome, model,
                     ["quantize", "--model", paths["float"], "--data", data,
                      "--out", base / "q", *DEPLOY_SPLIT])
            for precision in ("int8", "float"):
                out = base / f"eval_{precision}"
                if _command(tracer, outcome, model,
                            ["eval", "--model", paths[precision], "--data",
                             data, "--stride", 1, "--out", out,
                             *DEPLOY_SPLIT]):
                    accuracy = eval_accuracy((out / "report.csv").read_text())
                    state["accuracy"][(model, precision)] = accuracy
                    if not math.isfinite(accuracy):
                        outcome.fail(f"eval {model} {precision}: no finite "
                                     f"accuracy in report.csv")
            out = base / "mcu"
            if _command(tracer, outcome, model,
                        ["mcu-check", "--model", paths["int8"], "--out", out]):
                problem = check_feasibility(
                    (out / "feasibility.csv").read_text())
                if problem:
                    outcome.fail(f"mcu-check {model}: {problem}")

    def finish(self, state, tracer, outcome: Outcome) -> dict:
        accuracy = state["accuracy"]
        return quality(
            outcome,
            [accuracy.get((f"mc_cnn-{w}ch", "int8"), math.nan)
             for w in DEPLOY_WIDTHS],
            [accuracy.get((f"mc_cnn-{w}ch", "float"), math.nan)
             for w in DEPLOY_WIDTHS],
            DEPLOY_ACC_FLOOR)


WORKLOADS = {w.name: w for w in (Sweep(), Stream(), Deploy())}
