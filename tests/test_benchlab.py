import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from tinyhar import (benchlab, int8_engine, metrics, model_ir, modelfile,
                     training)
from tinyhar.datapipe import ChannelGroup, Windows
from tinyhar.model_ir import (ModelGraph, Precision, build_mc_cnn, dense,
                              flatten, init_params, softmax)
from tinyhar.quantizer import calibrate, quantize_model
from tinyhar.synth import synth_generate


@pytest.fixture(scope="module")
def tiny_sessions():
    return synth_generate(seed=4, subjects=1, sessions_per_subject=2,
                          duration_s=60.0)


@pytest.fixture(scope="module")
def tiny_cfg():
    return benchlab.SweepConfig(window_len=12, stride=12, held_out_session=2,
                                seed=3, train_epochs=1, rep_windows=8,
                                max_eval_windows=10)


@pytest.fixture(scope="module")
def tiny_split(tiny_sessions, tiny_cfg):
    return benchlab.prepared_windows(tiny_sessions, ChannelGroup.G17,
                                     tiny_cfg.window_len, tiny_cfg.stride,
                                     tiny_cfg.held_out_session)


@pytest.fixture(scope="module")
def small_reports(tiny_sessions, tiny_cfg):
    return benchlab.sweep(tiny_sessions, tiny_cfg,
                          architectures=("mc_cnn",),
                          groups=(ChannelGroup.G17,),
                          levels=("N1",))


class TestFilterTables:
    def test_published_filter_counts(self):
        assert benchlab.MC_CNN_FILTERS == {"N1": 128, "N2": 256, "N3": 400}
        assert benchlab.DEEP_CONV_LSTM_FILTERS == {"N1": 32, "N2": 64,
                                                   "N3": 100}

    def test_build_for_respects_level(self):
        g = benchlab.build_for("mc_cnn", ChannelGroup.G17, "N2",
                               window_len=24, seed=0)
        assert g.layers[0].out_filters == 256
        g = benchlab.build_for("deep_conv_lstm", ChannelGroup.G17, "N3",
                               window_len=24, seed=0)
        assert g.layers[0].out_filters == 100


class TestRunConfig:
    def test_one_report_per_precision(self, tiny_split, tiny_cfg):
        reports = benchlab.run_config(tiny_split, "mc_cnn",
                                      ChannelGroup.G17, "N1", tiny_cfg)
        assert [r.precision for r in reports] == [Precision.FLOAT32,
                                                  Precision.INT8_FULL]
        for r in reports:
            assert not math.isnan(r.accuracy)
            assert r.model_size_bytes > 0
            assert set(r.mcu_results) == {"nrf52840", "mimxrt1062",
                                          "stm32l4s5", "stm32f767"}
            assert r.error is None

    def test_int8_report_is_smaller(self, tiny_split, tiny_cfg):
        flt, q = benchlab.run_config(tiny_split, "mc_cnn",
                                     ChannelGroup.G17, "N1", tiny_cfg)
        assert q.model_size_bytes < flt.model_size_bytes

    def test_lstm_arch_skips_accuracy(self, tiny_split, tiny_cfg):
        reports = benchlab.run_config(tiny_split, "deep_conv_lstm",
                                      ChannelGroup.G17, "N1", tiny_cfg)
        for r in reports:
            assert math.isnan(r.accuracy)
            assert r.confusion is None
            assert r.model_size_bytes > 0

    def test_config_id(self, tiny_split, tiny_cfg):
        flt, q = benchlab.run_config(tiny_split, "mc_cnn",
                                     ChannelGroup.G17, "N1", tiny_cfg)
        assert flt.config_id == "mc_cnn-17ch-N1-float"
        assert q.config_id == "mc_cnn-17ch-N1-int8"


class TestCalibrationSet:
    def test_configs_without_samples_calibrate_on_one_window(
            self, tiny_split, tiny_cfg):
        # the rule keys on samples, not on the architecture: an untrained
        # mc_cnn is still evaluated, so it calibrates on rep_windows
        seen = []

        def spy(graph, representative_set):
            seen.append(len(representative_set))
            return quantize_model(graph, representative_set)

        untrained = dataclasses.replace(tiny_cfg, train_epochs=0)
        with mock.patch.object(benchlab, "quantize_model", spy):
            for arch, cfg in (("mc_cnn", tiny_cfg), ("mc_cnn", untrained),
                              ("deep_conv_lstm", tiny_cfg)):
                benchlab.run_config(tiny_split, arch, ChannelGroup.G17,
                                    "N1", cfg)
        assert seen == [tiny_cfg.rep_windows, tiny_cfg.rep_windows, 1]

    def test_one_window_gives_the_rows_rep_windows_give(self, tiny_split,
                                                        tiny_cfg):
        def on_rep_windows(graph, representative_set):
            return quantize_model(graph,
                                  tiny_split.train[:tiny_cfg.rep_windows])

        rows = benchlab.run_config(tiny_split, "deep_conv_lstm",
                                   ChannelGroup.G17, "N1", tiny_cfg)
        with mock.patch.object(benchlab, "quantize_model", on_rep_windows):
            full = benchlab.run_config(tiny_split, "deep_conv_lstm",
                                       ChannelGroup.G17, "N1", tiny_cfg)
        assert benchlab.reports_to_csv(rows) == benchlab.reports_to_csv(full)


class TestEvaluate:
    @pytest.fixture(scope="class")
    def models(self, tiny_split, tiny_cfg):
        graph = benchlab.build_for("mc_cnn", ChannelGroup.G17, "N1",
                                   tiny_cfg.window_len, seed=3)
        rep = [s.window for s in tiny_split[0][:tiny_cfg.rep_windows]]
        return graph, quantize_model(graph, rep)

    def test_without_samples(self, models):
        for model, precision in zip(models, Precision):
            r = benchlab.evaluate(model, "mc_cnn", ChannelGroup.G17, "N1", 128,
                                  len(modelfile.serialize(model)))
            assert r.precision == precision
            assert math.isnan(r.accuracy) and math.isnan(r.macro_f1)
            assert r.confusion is None
            assert r.model_size_bytes == len(modelfile.serialize(model))

    def test_with_samples(self, models, tiny_split):
        samples = tiny_split[1][:10]
        for model, precision in zip(models, Precision):
            size = len(modelfile.serialize(model))
            r = benchlab.evaluate(model, "mc_cnn", ChannelGroup.G17, "N1", 128,
                                  size, samples)
            preds, labels = benchlab.classify(model, samples)
            assert r.precision == precision
            assert r.accuracy == metrics.accuracy(preds, labels)
            assert r.macro_f1 == metrics.macro_f1(preds, labels)
            assert np.array_equal(r.confusion,
                                  metrics.confusion(preds, labels))
            assert r.model_size_bytes == size
            assert r.mcu_results == benchlab.mcu_results_for(model, precision,
                                                             size)


def overlapping_windows(n, input_shape, seed=0):
    """``n`` stride-1 windows over one random recording."""
    steps, channels = input_shape
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(n + steps - 1, channels))
    frames.flags.writeable = False
    zeros = np.zeros(n, dtype=np.int64)
    return Windows(frames, np.arange(n), rng.integers(0, 3, n), zeros, zeros,
                   steps)


class TestBlockedWindows:
    """Batch consumers take a ``Windows`` one model_ir block at a time."""

    def test_classify_memory_peak_does_not_grow_with_windows(self):
        # a dense-only graph runs light passes, so a peak that grows with
        # the window count shows any whole-set stacking
        layers = (flatten(), dense(24 * 6, 3), softmax())
        graph = ModelGraph(layers, init_params(layers, 0), (24, 6), 3)
        windows = overlapping_windows(3 * model_ir.BLOCK_WINDOWS, (24, 6))
        qmodel = quantize_model(graph, windows[:16].x)

        def peak(model, samples):
            tracemalloc.start()
            try:
                benchlab.classify(model, samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for model in (graph, qmodel):
            assert (peak(model, windows)
                    < 1.5 * peak(model, windows[:model_ir.BLOCK_WINDOWS]))

    def test_windows_array_and_list_give_identical_results(self):
        graph = build_mc_cnn(5, 16, 8, dense_width=6, num_classes=3, seed=4)
        windows = overlapping_windows(11, graph.input_shape, seed=1)
        qmodel = quantize_model(graph, windows.x)
        forms = (windows, windows.x, [s.window for s in windows])
        # blocks of 4 windows, so 11 windows cross two block boundaries
        with mock.patch.object(model_ir, "BLOCK_WINDOWS", 4):
            results = [(int8_engine.run_quantized(qmodel, x),
                        training.predict_batch(graph, x),
                        calibrate(graph, x)) for x in forms]
        for (probs, classes), preds, ranges in results:
            expected = results[0]
            assert probs.tobytes() == expected[0][0].tobytes()
            assert classes.tobytes() == expected[0][1].tobytes()
            assert preds.tobytes() == expected[1].tobytes()
            assert np.array(ranges).tobytes() == np.array(expected[2]).tobytes()


class TestSweep:
    def test_report_count(self, small_reports):
        assert len(small_reports) == 2  # 1 arch x 1 group x 1 level x 2 prec

    def test_deterministic_csv(self, tiny_sessions, tiny_cfg, small_reports):
        again = benchlab.sweep(tiny_sessions, tiny_cfg,
                               architectures=("mc_cnn",),
                               groups=(ChannelGroup.G17,),
                               levels=("N1",))
        assert benchlab.reports_to_csv(again) == \
            benchlab.reports_to_csv(small_reports)

    def test_failure_is_recorded_not_raised(self, tiny_sessions):
        # window longer than the recording -> no windows -> config errors out
        bad = benchlab.SweepConfig(window_len=10_000, stride=12,
                                   held_out_session=2, train_epochs=0)
        reports = benchlab.sweep(tiny_sessions, bad,
                                 architectures=("mc_cnn",),
                                 groups=(ChannelGroup.G17,), levels=("N1",))
        assert len(reports) == 2
        assert all(r.error for r in reports)

    @pytest.mark.parametrize("field", ["window_len", "stride",
                                       "rep_windows", "max_eval_windows",
                                       "jobs", "batch_size"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_window_counts_below_one_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            benchlab.SweepConfig(**{field: value})

    @pytest.mark.parametrize("field, value, rule", [
        ("train_epochs", -1, ">= 0"), ("seed", -1, ">= 0"),
        *(("learning_rate", value, "in (0, 1)")
          for value in (0.0, 1.0, math.nan, 7.0))])
    def test_training_field_out_of_range_is_rejected(self, field, value,
                                                     rule):
        with pytest.raises(ValueError,
                           match=re.escape(f"{field} must be {rule}, got")):
            benchlab.SweepConfig(**{field: value})

    def test_parallel_matches_serial(self, tiny_sessions, tiny_cfg,
                                     small_reports):
        cfg = benchlab.SweepConfig(**{**tiny_cfg.__dict__, "jobs": 2})
        parallel = benchlab.sweep(tiny_sessions, cfg,
                                  architectures=("mc_cnn",),
                                  groups=(ChannelGroup.G17,), levels=("N1",))
        assert benchlab.reports_to_csv(parallel) == \
            benchlab.reports_to_csv(small_reports)


class TestRendering:
    def test_csv_round_trip(self, small_reports):
        text = benchlab.reports_to_csv(small_reports)
        rows = benchlab.parse_report_csv(text)
        assert len(rows) == len(small_reports)
        assert rows[0]["arch"] == "mc_cnn"
        assert rows[0]["channels"] == "17"
        assert rows[0]["precision"] == "float"
        assert rows[1]["precision"] == "int8"
        assert float(rows[1]["model_size_bytes"]) < \
            float(rows[0]["model_size_bytes"])

    def test_markdown_table_shape(self, small_reports):
        md = benchlab.reports_to_markdown(small_reports)
        lines = md.strip().splitlines()
        assert len(lines) == 2 + len(small_reports)
        assert all(line.startswith("|") for line in lines)

    def test_heatmap_svg(self):
        m = np.array([[5, 1], [0, 3]])
        svg = benchlab.confusion_heatmap_svg(m)
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 4
        assert "true 0, pred 1: 1" in svg

    def test_render_report_writes_files(self, small_reports, tmp_path):
        written = benchlab.render_report(small_reports, tmp_path / "out")
        assert "report.csv" in written
        assert "report.md" in written
        svgs = [k for k in written if k.endswith(".svg")]
        assert len(svgs) == 2  # one heatmap per mc_cnn report
        assert (tmp_path / "out" / "report.csv").exists()
