"""Experiment harness: per-configuration evaluation reports, the full
architecture x channel-group x filter-level x precision sweep, and report
rendering (CSV, markdown, SVG confusion heatmap).

DeepConvLSTM configurations are benchmarked for size, latency, and
feasibility only (the trainer does not cover LSTM backprop); their accuracy
fields are not-a-number.
"""
from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import int8_engine, mcu, metrics, modelfile, training
from .datapipe import (ChannelGroup, DatapipeError, DatasetStats, Windows,
                       fit_stats, make_windows, normalize, split_by_session,
                       stack_windows)
from .int8_engine import LatencyStats
from .model_ir import (ModelGraph, Precision, build_deep_conv_lstm,
                       build_mc_cnn)
from .quantizer import QuantizedModel, quantize_model

MC_CNN_FILTERS = {"N1": 128, "N2": 256, "N3": 400}
DEEP_CONV_LSTM_FILTERS = {"N1": 32, "N2": 64, "N3": 100}
ARCHITECTURES = ("mc_cnn", "deep_conv_lstm")
LEVELS = ("N1", "N2", "N3")
LATENCY_REPS = 5  # timed calls per model when measuring host latency
HEATMAP_CELL = 24  # side of one confusion heatmap cell, in pixels


def filters_for(arch: str, level: str) -> int:
    table = MC_CNN_FILTERS if arch == "mc_cnn" else DEEP_CONV_LSTM_FILTERS
    return table[level]


@dataclass(frozen=True)
class SweepConfig:
    window_len: int = 24
    stride: int = 12
    held_out_session: int = 5
    seed: int = 0
    train_epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 1e-3
    rep_windows: int = 32          # calibration subset size
    max_eval_windows: int = 300    # evaluation windows per config and precision
    measure_host_latency: bool = False  # keeps sweep output deterministic
    jobs: int = 1


@dataclass
class McuResult:
    latency_ms: float
    energy_mj: float
    verdict: mcu.FeasibilityVerdict


@dataclass
class EvalReport:
    arch: str
    group: ChannelGroup
    level: str
    filters: int
    precision: Precision
    accuracy: float = math.nan
    macro_f1: float = math.nan
    confusion: np.ndarray | None = None
    model_size_bytes: int = 0
    host_latency: LatencyStats | None = None
    mcu_results: dict[str, McuResult] = field(default_factory=dict)
    error: str | None = None

    @property
    def precision_label(self) -> str:
        return "int8" if self.precision == Precision.INT8_FULL else "float"

    @property
    def config_id(self) -> str:
        return (f"{self.arch}-{self.group.width}ch-{self.level}-"
                f"{self.precision_label}")


def build_for(arch: str, group: ChannelGroup, level: str, window_len: int,
              seed: int) -> ModelGraph:
    if arch == "mc_cnn":
        return build_mc_cnn(group.width, window_len,
                            first_filters=filters_for(arch, level), seed=seed)
    return build_deep_conv_lstm(group.width, window_len,
                                filters=filters_for(arch, level), seed=seed)


def mcu_results_for(model, precision: Precision,
                    size_bytes: int) -> dict[str, McuResult]:
    results = {}
    arena = mcu.estimate_arena(model, precision)
    for name, profile in mcu.BUILTIN_PROFILES.items():
        latency = mcu.estimate_latency(model, profile, precision)
        results[name] = McuResult(
            latency_ms=latency,
            energy_mj=mcu.estimate_energy(latency, profile, precision),
            verdict=mcu.fits_on(size_bytes, arena, profile),
        )
    return results


def classify(model, samples: Windows):
    """(predicted classes, true labels) of ``samples`` under a float
    ModelGraph or a QuantizedModel, in one call that stacks one block of
    windows at a time."""
    if isinstance(model, QuantizedModel):
        _, preds = int8_engine.run_quantized(model, samples)
    else:
        preds = training.predict_batch(model, samples)
    return preds, samples.y


class PreparedSplit(NamedTuple):
    train: Windows
    test: Windows
    stats: DatasetStats  # fitted on the raw train windows


def prepared_windows(sessions, group: ChannelGroup, window_len: int,
                     stride: int, held_out_session: int) -> PreparedSplit:
    """Train and test windows, z-scored with train-split statistics, and
    those statistics."""
    windows = make_windows(sessions, window_len, stride, group)
    train, test = split_by_session(windows, held_out_session)
    if not train:
        raise DatapipeError(f"no training windows left after holding out "
                            f"session {held_out_session}")
    stats = fit_stats(train)
    return PreparedSplit(normalize(train, stats), normalize(test, stats),
                         stats)


def evaluate(model, arch: str, group: ChannelGroup, level: str, filters: int,
             size: int, samples: Windows | None = None) -> EvalReport:
    """The report of a float ModelGraph or a QuantizedModel whose
    serialized size is ``size`` bytes: that size and MCU estimates, plus
    accuracy, macro F1 and confusion on ``samples`` when given."""
    precision = (Precision.INT8_FULL if isinstance(model, QuantizedModel)
                 else Precision.FLOAT32)
    report = EvalReport(arch=arch, group=group, level=level, filters=filters,
                        precision=precision, model_size_bytes=size,
                        mcu_results=mcu_results_for(model, precision, size))
    if samples is not None:
        preds, labels = classify(model, samples)
        report.accuracy = metrics.accuracy(preds, labels)
        report.macro_f1 = metrics.macro_f1(preds, labels)
        report.confusion = metrics.confusion(preds, labels)
    return report


def run_config(split: PreparedSplit, arch: str, group: ChannelGroup,
               level: str, cfg: SweepConfig) -> list[EvalReport]:
    """Train (MC-CNN only), quantize, and evaluate one configuration on its
    prepared windows: the float report, then the int8 one. The models do
    not carry the split's statistics."""
    train_set, test_set = split.train, split.test
    seed = cfg.seed + 1000 * LEVELS.index(level) + group.width
    graph = build_for(arch, group, level, cfg.window_len, seed)
    trainable = arch == "mc_cnn"
    if trainable and cfg.train_epochs > 0:
        tc = training.TrainConfig(epochs=cfg.train_epochs,
                                  batch_size=cfg.batch_size,
                                  learning_rate=cfg.learning_rate, seed=seed)
        graph, _ = training.train(graph, stack_windows(train_set), None, tc)
    qmodel = quantize_model(graph, train_set[:cfg.rep_windows])
    samples = test_set[:cfg.max_eval_windows] if trainable else None
    reports = []
    for model in (graph, qmodel):
        report = evaluate(model, arch, group, level, filters_for(arch, level),
                          len(modelfile.serialize(model)), samples)
        if cfg.measure_host_latency:
            report.host_latency = int8_engine.timed_inference(
                model, test_set[0].window, LATENCY_REPS)
        reports.append(report)
    return reports


def sweep(sessions, cfg: SweepConfig,
          architectures=ARCHITECTURES,
          groups=(ChannelGroup.G17, ChannelGroup.G23, ChannelGroup.G768,
                  ChannelGroup.G791),
          levels=LEVELS) -> list[EvalReport]:
    """One report per configuration; failures are recorded, not raised."""
    prepared = {}
    for group in groups:
        try:
            prepared[group] = prepared_windows(
                sessions, group, cfg.window_len, cfg.stride,
                cfg.held_out_session)
        except Exception as exc:  # recorded per config below
            prepared[group] = exc
    configs = [(arch, group, level) for arch in architectures
               for group in groups for level in levels]

    def run_one(config):
        arch, group, level = config
        try:
            if isinstance(prepared[group], Exception):
                raise prepared[group]
            return run_config(prepared[group], arch, group, level, cfg)
        except Exception as exc:  # aggregation continues past failures
            return [EvalReport(arch=arch, group=group, level=level,
                               filters=filters_for(arch, level),
                               precision=precision, error=str(exc))
                    for precision in Precision]

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            grouped = list(pool.map(run_one, configs))
    else:
        grouped = [run_one(config) for config in configs]
    return [report for batch in grouped for report in batch]


# ---------------------------------------------------------------- rendering

CSV_COLUMNS = ["arch", "channels", "level", "filters", "precision",
               "accuracy", "macro_f1", "model_size_bytes", "host_mean_us"]
for _name in sorted(mcu.BUILTIN_PROFILES):
    CSV_COLUMNS += [f"{_name}_latency_ms", f"{_name}_energy_mj",
                    f"{_name}_flash_ok", f"{_name}_sram_ok"]
CSV_COLUMNS.append("error")


def _fmt(value, decimals=6) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, float):
        return f"{value:.{decimals}f}"
    return str(value)


def report_row(report: EvalReport) -> dict[str, str]:
    row = {
        "arch": report.arch,
        "channels": str(report.group.width),
        "level": report.level,
        "filters": str(report.filters),
        "precision": report.precision_label,
        "accuracy": _fmt(report.accuracy),
        "macro_f1": _fmt(report.macro_f1),
        "model_size_bytes": str(report.model_size_bytes),
        "host_mean_us": _fmt(report.host_latency.mean_us
                             if report.host_latency else None, 1),
        "error": report.error or "",
    }
    for name in sorted(mcu.BUILTIN_PROFILES):
        result = report.mcu_results.get(name)
        row[f"{name}_latency_ms"] = _fmt(result.latency_ms if result else None)
        row[f"{name}_energy_mj"] = _fmt(result.energy_mj if result else None)
        row[f"{name}_flash_ok"] = ("" if result is None
                                   else str(int(result.verdict.flash_ok)))
        row[f"{name}_sram_ok"] = ("" if result is None
                                  else str(int(result.verdict.sram_ok)))
    return row


def reports_to_csv(reports: list[EvalReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for report in reports:
        writer.writerow(report_row(report))
    return buf.getvalue()


def parse_report_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def reports_to_markdown(reports: list[EvalReport]) -> str:
    lines = ["| " + " | ".join(CSV_COLUMNS) + " |",
             "|" + "---|" * len(CSV_COLUMNS)]
    for report in reports:
        row = report_row(report)
        lines.append("| " + " | ".join(row[c] for c in CSV_COLUMNS) + " |")
    return "\n".join(lines) + "\n"


def confusion_heatmap_svg(matrix: np.ndarray) -> str:
    """Hand-rolled SVG heatmap (deterministic output, no plotting deps)."""
    cell = HEATMAP_CELL
    n = matrix.shape[0]
    peak = max(1, int(matrix.max()))
    size = n * cell
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    for i in range(n):
        for j in range(n):
            frac = matrix[i, j] / peak
            shade = int(round(255 * (1.0 - frac)))
            parts.append(
                f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" '
                f'height="{cell}" fill="rgb({shade},{shade},255)">'
                f'<title>true {i}, pred {j}: {int(matrix[i, j])}</title></rect>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_report(reports: list[EvalReport], outdir) -> dict[str, str]:
    """Write report.csv, report.md, and per-config confusion heatmaps.

    Returns {relative filename: path written}.
    """
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = {}
    csv_path = outdir / "report.csv"
    csv_path.write_text(reports_to_csv(reports))
    written["report.csv"] = str(csv_path)
    md_path = outdir / "report.md"
    md_path.write_text(reports_to_markdown(reports))
    written["report.md"] = str(md_path)
    for report in reports:
        if report.confusion is not None:
            name = f"confusion_{report.config_id}.svg"
            path = outdir / name
            path.write_text(confusion_heatmap_svg(report.confusion))
            written[name] = str(path)
    return written
