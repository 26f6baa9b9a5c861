"""Which tinyhar functions the traced run wraps, and how its spans become the
per-layer metrics.

Layers are tinyhar's modules. Every per-layer metric is a sum of self time
or a count over all spans of one traced run, so a layer that a workload
never enters reads 0 on it.
"""
from __future__ import annotations

import importlib

from tracing import Span, Target, self_times

MODULES = ("datapipe", "synth", "model_ir", "training", "float_engine",
           "quantizer", "int8_engine", "modelfile", "mcu", "metrics",
           "benchlab", "cli")

KERNELS = ("conv1d_int8", "dense_int8", "relu_int8", "avg_pool1d_int8",
           "lstm_hybrid", "softmax_int8", "requantize", "quantize_tensor")

# the four reference models of the stream workload
MODELS = ("mc_cnn-23ch", "mc_cnn-791ch", "deep_conv_lstm-23ch",
          "deep_conv_lstm-791ch")

STAGES = ("prepare", "train", "calibrate", "quantize", "serialize",
          "evaluate", "render")

CLI_COMMANDS = {"cmd_synth": "synth", "cmd_train": "train",
                "cmd_quantize": "quantize", "cmd_eval": "eval",
                "cmd_mcu_check": "mcu-check"}

MCU_FUNCTIONS = ("load_profiles", "fits_on", "estimate_arena", "mac_count",
                 "estimate_latency", "estimate_energy")


def _config_request(args) -> str:
    return f"{args['arch']}-{args['group'].width}ch-{args['level']}"


def targets(audit) -> list[Target]:
    """Every wrapped function. ``audit`` is the SaturationAudit handed to
    int8 calls whose caller passed none."""

    def with_audit(args, kwargs):
        if len(args) < 3 and "audit" not in kwargs:
            kwargs = dict(kwargs, audit=audit)
        return args, kwargs

    return [
        Target("datapipe", ("ingest_csv",), "datapipe.ingest",
               count=("datapipe.ingest_rows", lambda a, r: len(r[2]))),
        Target("datapipe", ("make_windows",), "datapipe.windowing",
               count=("datapipe.windows", lambda a, r: len(r))),
        Target("datapipe", ("split_by_session", "fit_stats", "normalize",
                            "stack_windows"), "datapipe.windowing"),
        Target("datapipe", ("write_csv",), "datapipe.write_csv"),
        Target("synth", ("synth_generate",), "synth.generate"),
        Target("training", ("train",), "training.train",
               count=("training.train_window_epochs",
                      lambda a, r: len(a["train_set"][0]) * a["cfg"].epochs)),
        Target("training", ("predict_batch", "predict_proba"),
               "training.predict",
               count=("training.predict_windows", lambda a, r: len(a["x"]))),
        Target("quantizer", ("calibrate",), "quantizer.calibrate",
               count=("quantizer.calibrate_windows",
                      lambda a, r: len(a["representative_set"]))),
        Target("quantizer", ("quantize_model",), "quantizer.quantize_self"),
        Target("float_engine", ("forward_collect",),
               "float_engine.forward_collect"),
        Target("float_engine", ("forward",), "float_engine.forward"),
        Target("int8_engine", ("run_quantized",), "int8_engine.run_quantized",
               prepare=with_audit),
        # quantize_tensor is the quantizer's function; only the int8
        # engine's binding counts as an int8 kernel
        *(Target("int8_engine", (k,), f"int8_engine.{k}", everywhere=False)
          for k in KERNELS),
        Target("modelfile", ("serialize",), "modelfile.serialize",
               count=("modelfile.bytes", lambda a, r: len(r))),
        Target("modelfile", ("deserialize",), "modelfile.deserialize"),
        Target("mcu", MCU_FUNCTIONS, "mcu"),
        Target("metrics", ("accuracy", "confusion", "macro_f1"), "metrics"),
        Target("benchlab", ("sweep",), "benchlab.sweep"),
        Target("benchlab", ("run_config",), "benchlab.run_config",
               request=_config_request),
        Target("benchlab", ("build_for",), "benchlab.build_for"),
        Target("benchlab", ("render_report",), "benchlab.render_report"),
        *(Target("cli", (fn,), f"cli.{cmd}") for fn, cmd in
          CLI_COMMANDS.items()),
    ]


def modules() -> dict[str, object]:
    """tinyhar's modules, plus the package for its re-exported names."""
    found = {name: importlib.import_module(f"tinyhar.{name}")
             for name in MODULES}
    found["tinyhar"] = importlib.import_module("tinyhar")
    return found


# span name -> per-layer self-time metric
SELF_TIME = {
    "datapipe.ingest": "datapipe.ingest_s",
    "datapipe.windowing": "datapipe.windowing_s",
    "datapipe.write_csv": "datapipe.write_csv_s",
    "synth.generate": "synth.generate_s",
    "training.train": "training.train_s",
    "training.predict": "training.predict_s",
    "quantizer.calibrate": "quantizer.calibrate_s",
    "quantizer.quantize_self": "quantizer.quantize_self_s",
    "float_engine.forward_collect": "float_engine.forward_collect_s",
    "float_engine.forward": "float_engine.forward_s",
    "int8_engine.run_quantized": "int8_engine.run_quantized_s",
    **{f"int8_engine.{k}": f"int8_engine.{k}_s" for k in KERNELS},
    "modelfile.serialize": "modelfile.serialize_s",
    "modelfile.deserialize": "modelfile.deserialize_s",
    "mcu": "mcu.s",
    "metrics": "metrics.s",
    **{f"cli.{cmd}": f"cli.{cmd}_s" for cmd in CLI_COMMANDS.values()},
}

COUNTS = ("datapipe.ingest_rows", "datapipe.windows",
          "training.train_window_epochs", "training.predict_windows",
          "quantizer.calibrate_windows", "modelfile.bytes")

# Sweep stages. A span's self time goes to the stage of its nearest
# ancestor-or-self listed here; only spans under a sweep, run_config or
# render_report call are attributed. Glue code in sweep (window
# preparation) counts as prepare, glue in run_config as evaluate.
STAGE_OF = {
    "benchlab.sweep": "prepare",
    "datapipe.windowing": "prepare",
    "benchlab.build_for": "prepare",
    "training.train": "train",
    "quantizer.calibrate": "calibrate",
    "quantizer.quantize_self": "quantize",
    "modelfile.serialize": "serialize",
    "benchlab.run_config": "evaluate",
    "training.predict": "evaluate",
    "int8_engine.run_quantized": "evaluate",
    "metrics": "evaluate",
    "mcu": "evaluate",
    "benchlab.render_report": "render",
}
STAGE_ROOTS = ("benchlab.sweep", "benchlab.run_config",
               "benchlab.render_report")


def model_of(request: str | None) -> str | None:
    """Stream requests are named '<model>/<window index>'."""
    if request is None or "/" not in request:
        return None
    return request.split("/", 1)[0]


def stage_times(spans: list[Span], own: list[int]) -> dict[str, int]:
    """Self time (ns) per sweep stage."""
    stage: list[str | None] = []
    rooted: list[bool] = []
    for s in spans:  # parents always precede their children
        up = s.parent
        inherited = stage[up] if up is not None else None
        stage.append(STAGE_OF.get(s.name, inherited))
        rooted.append(s.name in STAGE_ROOTS
                      or (up is not None and rooted[up]))
    totals = dict.fromkeys(STAGES, 0)
    for i, s in enumerate(spans):
        if rooted[i] and stage[i] is not None:
            totals[stage[i]] += own[i]
    return totals


def per_layer_names() -> list[str]:
    names = list(SELF_TIME.values()) + list(COUNTS) + ["int8_engine.calls"]
    names += [f"int8_engine.{k}_s.{m}" for k in KERNELS for m in MODELS]
    names += ["int8_engine.clamped_frac"]
    names += [f"benchlab.stage.{s}_s" for s in STAGES]
    names += ["trace.overhead_s"]
    return names


def per_layer(spans: list[Span], counts: dict[str, int], audit,
              overhead_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced run."""
    own = self_times(spans)
    values: dict[str, float] = dict.fromkeys(per_layer_names(), 0)
    for i, s in enumerate(spans):
        metric = SELF_TIME.get(s.name)
        if metric is None:
            continue
        values[metric] += own[i] / 1e9
        model = model_of(s.request)
        if model in MODELS and s.name.startswith("int8_engine.") \
                and metric != "int8_engine.run_quantized_s":
            values[f"{metric}.{model}"] += own[i] / 1e9
    for counter in COUNTS:
        values[counter] = counts.get(counter, 0)
    values["int8_engine.calls"] = sum(
        1 for s in spans if s.name == "int8_engine.run_quantized")
    values["int8_engine.clamped_frac"] = (audit.clamped / audit.total
                                          if audit.total else 0.0)
    for stage, ns in stage_times(spans, own).items():
        values[f"benchlab.stage.{stage}_s"] = ns / 1e9
    values["trace.overhead_s"] = overhead_s
    return values


def record_mismatches(workload: str, values: dict[str, float],
                      record: dict) -> list[str]:
    """Per-layer metrics of a traced run of ``workload`` that disagree with
    the workloads record.json lists for them: non-zero but not listed, or
    listed but zero."""
    problems = []
    for name, value in values.items():
        listed = workload in record["metrics"][name]["workloads"]
        if listed != (value != 0):
            problems.append(f"{name} reads {value:.6g} on {workload}, which "
                            f"record.json {'lists' if listed else 'omits'}")
    return problems


def unit_of(name: str) -> str:
    if name in COUNTS or name == "int8_engine.calls":
        return "count"
    if name == "int8_engine.clamped_frac":
        return "fraction"
    return "s"
