"""Tests of the benchmark's own code. Run from the repository root:

    python -m pytest -q perfbench/tests
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import measure
import workloads
from tinyhar import int8_engine, quantizer
from tinyhar.model_ir import build_mc_cnn
from tracing import Span, Tracer, self_times

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_p99_needs_a_thousand_samples():
    short = measure.latency_summary([1_000_000] * 999)
    assert short["n"] == 999 and short["p50_ms"] == 1.0
    assert short["p99_ms"] is None
    full = measure.latency_summary(list(range(1, 1001)))
    assert full["p99_ms"] is not None
    assert full["p50_ms"] < full["p99_ms"] <= 1000 / 1e6


def test_quartile_spread():
    assert measure.quartile_spread([10.0] * 5) == 0.0
    assert measure.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(
        (4.5 - 1.5) / 3)


def test_self_time_of_nested_spans():
    spans = [Span("root", 0, 100, None, None),
             Span("a", 10, 40, 0, None),
             Span("a.child", 15, 25, 1, None),
             Span("b", 50, 90, 0, None)]
    assert self_times(spans) == [100 - 30 - 40, 30 - 10, 10, 40]


def test_tracer_nests_spans_and_requests():
    tracer = Tracer()
    with tracer.request("r1"), tracer.span("outer"):
        with tracer.span("inner"):
            pass
    with tracer.span("after"):
        pass
    outer, inner, after = tracer.spans
    assert inner.parent == 0 and outer.parent is None and after.parent is None
    assert outer.request == inner.request == "r1" and after.request is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert sum(self_times(tracer.spans)) == sum(
        s.end - s.start for s in (outer, after))


def test_stage_times_cover_the_sweep_span():
    spans = [Span("benchlab.sweep", 0, 1000, None, None),
             Span("datapipe.windowing", 0, 100, 0, None),
             Span("benchlab.run_config", 100, 900, 0, "c"),
             Span("training.train", 100, 500, 2, "c"),
             Span("quantizer.quantize_self", 500, 700, 2, "c"),
             Span("quantizer.calibrate", 520, 680, 4, "c"),
             Span("float_engine.forward_collect", 530, 670, 5, "c"),
             Span("int8_engine.run_quantized", 700, 850, 2, "c"),
             Span("benchlab.render_report", 1000, 1100, None, None),
             Span("synth.generate", 1100, 1200, None, None)]
    stages = layers.stage_times(spans, self_times(spans))
    assert stages == {"prepare": 100 + 100, "train": 400, "calibrate": 160,
                      "quantize": 40, "serialize": 0,
                      "evaluate": 150 + 50, "render": 100}
    assert sum(stages.values()) == 1100  # synth lies outside the sweep


def _bindings():
    return {(name, attr): value for name, module in layers.modules().items()
            for attr, value in vars(module).items() if callable(value)}


def test_traced_run_restores_every_wrapped_function():
    before = _bindings()
    tracer, audit = Tracer(), int8_engine.SaturationAudit()
    modules = layers.modules()
    rng = np.random.default_rng(0)
    graph = build_mc_cnn(23, 24, 8, seed=0)
    with tracer.installed(layers.targets(audit), modules):
        wrapped = {key for key, value in _bindings().items()
                   if before[key] is not value}
        qmodel = quantizer.quantize_model(
            graph, [rng.normal(size=(24, 23)) for _ in range(2)])
        with tracer.request("mc_cnn-23ch/0"):
            probs, cls = int8_engine.run_quantized(qmodel,
                                                   rng.normal(size=(24, 23)))
    assert _bindings() == before
    assert ("cli", "ingest_csv") in wrapped
    assert ("benchlab", "quantize_model") in wrapped
    assert ("tinyhar", "run_quantized") in wrapped
    assert ("int8_engine", "quantize_tensor") in wrapped
    assert ("quantizer", "quantize_tensor") not in wrapped
    names = {s.name for s in tracer.spans}
    assert {"quantizer.quantize_self", "quantizer.calibrate",
            "float_engine.forward_collect", "int8_engine.run_quantized",
            "int8_engine.conv1d_int8", "int8_engine.requantize"} <= names
    assert audit.total > 0  # the audit reached the untouched call site
    values = layers.per_layer(tracer.spans, tracer.counts, audit, 0.0)
    assert set(values) == set(layers.per_layer_names())
    assert values["int8_engine.calls"] == 1
    assert values["quantizer.calibrate_windows"] == 2
    assert values["int8_engine.conv1d_int8_s.mc_cnn-23ch"] == pytest.approx(
        values["int8_engine.conv1d_int8_s"])
    assert workloads.check_prediction(probs, cls) is None


def test_output_check_fails_on_planted_wrong_class():
    probs = np.full(15, 0.01)
    probs[7] = 0.86
    assert workloads.check_prediction(probs, 7) is None
    assert "argmax" in workloads.check_prediction(probs, 3)
    assert "outside" in workloads.check_prediction(probs, 15)
    assert "shape" in workloads.check_prediction(probs[:14], 7)
    float_classes = list(range(15)) * 4
    planted = list(float_classes)
    planted[0] = planted[1] = planted[2] = 14  # 3 of 60 wrong: 0.95 holds
    assert workloads.agreement(planted, float_classes) >= 0.95
    planted[3] = 14
    assert workloads.agreement(planted, float_classes) < \
        workloads.MIN_AGREEMENT


def test_accuracy_guard_catches_broken_float_and_training():
    good = workloads.accuracy_summary([0.90, 0.88], [0.91, 0.89])
    assert good["acc_ratio"] == pytest.approx(0.89 / 0.90)
    assert workloads.check_accuracy(good, 0.75) == []
    # a broken float path: int8 reads above float and the ratio stays at 1
    broken_float = workloads.accuracy_summary([0.90], [0.30])
    assert broken_float["acc_ratio"] == 1.0
    assert [p.split()[1] for p in
            workloads.check_accuracy(broken_float, 0.75)] == ["float"]
    # a broken trainer lowers both precisions alike
    outcome = workloads.Outcome()
    broken_train = workloads.quality(outcome, [0.07], [0.07], 0.75)
    assert broken_train["acc_ratio"] == 1.0
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert "int8" in outcome.messages[0] and "float" in outcome.messages[0]
    missing = workloads.accuracy_summary([math.nan], [0.9])
    assert len(workloads.check_accuracy(missing, 0.75)) == 1


def test_record_mismatches():
    record = {"metrics": {"a_s": {"workloads": ["stream"]},
                          "b_s": {"workloads": ["sweep"]}}}
    values = {"a_s": 0.1, "b_s": 0}
    assert layers.record_mismatches("stream", values, record) == []
    problems = layers.record_mismatches("sweep", values, record)
    assert [p.split()[0] for p in problems] == ["a_s", "b_s"]
    assert "omits" in problems[0] and "lists" in problems[1]


def test_sweep_check_flags_int8_not_smaller_than_float():
    from tinyhar import benchlab
    from tinyhar.datapipe import ChannelGroup
    from tinyhar.model_ir import Precision

    reports = [benchlab.EvalReport(
        arch="mc_cnn", group=ChannelGroup.G23, level="N1", filters=128,
        precision=p, model_size_bytes=size,
        mcu_results=benchlab.mcu_results_for(
            build_mc_cnn(23, 24, 8), p, size))
        for p, size in ((Precision.FLOAT32, 100), (Precision.INT8_FULL, 100))]
    problems = workloads.check_sweep(reports, benchlab.reports_to_csv(reports))
    assert any("not below float" in p for p in problems)
    assert any("48" in p for p in problems)
    assert not any("MCU verdict" in p for p in problems)


def test_benchmark_json_names_every_metric():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(n, layers.unit_of(n)) for n in layers.per_layer_names()]
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    record = json.loads((BENCH / "record.json").read_text())
    assert set(record["metrics"]) == {
        m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert set(record["workloads"]) == set(workloads.WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode not in (0, None)
    assert "correct" not in run.stdout
