"""Batch command line: synth, train, quantize, eval, bench, sweep, mcu-check.

Exit codes: 0 success, 1 validation error (bad flags, missing or malformed
inputs), 2 runtime failure. Each numeric flag's range is checked by its
argparse type, so a bad flag or ``--config`` value exits 1 naming it
before any input is read. Every run writes a config echo JSON capturing
the effective flag values into its output directory. All outputs are
deterministic given --seed at a fixed BLAS thread count (host latency
measurements excepted): a GEMM's summation order, and so a float
result's last bits, can follow the thread count.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import benchlab, int8_engine, mcu, modelfile, synth, training
from .benchlab import SweepConfig
from .datapipe import (SYNC_RATE_HZ, ChannelGroup, SessionRecording,
                       ingest_csv, make_windows, normalize, stack_windows,
                       write_csv)
from .model_ir import LayerKind, ModelGraph, build_mc_cnn
from .quantizer import quantize_model


class CliError(Exception):
    """Input validation failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def checked(parse, ok, rule: str):
    """An argparse type: ``parse`` the text, then reject it unless ``ok``."""
    def check(text):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    check.__name__ = parse.__name__  # argparse names a bad parse by it
    return check


count = checked(int, lambda n: n >= 1, "at least 1")
nonnegative = checked(int, lambda n: n >= 0, "at least 0")
rate = checked(float, lambda x: 0 < x < 1, "in (0, 1)")
filter_count = checked(int, lambda n: n >= 1 and n % 4 == 0,
                       "a positive multiple of 4")
duration = checked(float, lambda s: 1 <= s * SYNC_RATE_HZ < np.inf,
                   f"finite and at least one {SYNC_RATE_HZ:g} Hz frame")


def _write_config_echo(outdir: Path, args: argparse.Namespace) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    effective = {k: v for k, v in sorted(vars(args).items())
                 if k not in ("func", "config")}
    (outdir / "config.json").write_text(
        json.dumps(effective, indent=2, default=str) + "\n")


# the keys of a manifest entry, and the JSON type each takes
_ENTRY_KEYS = {"subject": (int, "an integer"), "session": (int, "an integer"),
               "path": (str, "a string")}


def _manifest_entries(manifest_path: Path) -> list[dict]:
    """The ``sessions`` entries of a dataset's manifest, each checked to
    hold an integer ``subject`` and ``session`` and a string ``path``."""
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict):
        raise CliError(f"{manifest_path} holds no JSON object")
    entries = manifest.get("sessions")
    if not isinstance(entries, list):
        raise CliError(f"{manifest_path}: key 'sessions' must be a list of "
                       f"session entries")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CliError(f"{manifest_path}: sessions[{i}] is not an object")
        for key, (kind, name) in _ENTRY_KEYS.items():
            value = entry.get(key)
            # a JSON true or false is a bool, which is an int in Python
            if not isinstance(value, kind) or isinstance(value, bool):
                raise CliError(f"{manifest_path}: sessions[{i}]: key "
                               f"{key!r} must be {name}")
    return entries


def _iter_sessions(data_dir: str, keep=lambda session: True,
                   group: ChannelGroup = ChannelGroup.G791):
    """The recordings of the manifest's sessions whose id passes ``keep``,
    in manifest order, each CSV read only when its turn comes, with
    ``group``'s channels."""
    manifest_path = Path(data_dir) / "manifest.json"
    if not manifest_path.is_file():
        raise CliError(f"no manifest.json in {data_dir}; "
                       f"generate a dataset with `tinyhar synth` first")
    for entry in _manifest_entries(manifest_path):
        if not keep(entry["session"]):
            continue
        path = Path(data_dir) / entry["path"]
        if not path.is_file():
            raise CliError(f"dataset file missing: {path}")
        timestamps, frames, labels = ingest_csv(path, group)
        yield SessionRecording(subject=entry["subject"],
                               session=entry["session"],
                               timestamps=timestamps, frames=frames,
                               labels=labels)


def _load_dataset(data_dir: str, group=ChannelGroup.G791):
    return list(_iter_sessions(data_dir, group=group))


def _load_model(path: str):
    model_path = Path(path)
    if not model_path.is_file():
        raise CliError(f"model file not found: {path}")
    try:
        return modelfile.load(model_path)
    except modelfile.VersionMismatchError as exc:
        raise CliError(f"{path}: {exc}; make it again with `tinyhar train` "
                       f"(and `tinyhar quantize`)") from None


def _require_windows(windows, held_out_session: int) -> None:
    """Raises, naming the flag, if the held-out session gave no windows."""
    if not windows:
        raise CliError(f"--held-out-session {held_out_session} produced no "
                       f"windows")


def _require_stats(model, path: str) -> None:
    """Raises unless ``model`` carries the statistics its inputs are
    z-scored with."""
    if model.stats is None:
        raise CliError(f"{path} carries no normalization statistics; "
                       f"make it with `tinyhar train`")


def cmd_synth(args) -> int:
    outdir = Path(args.out)
    sessions = synth.synth_generate(args.seed, subjects=args.subjects,
                                    sessions_per_subject=args.sessions,
                                    duration_s=args.duration_s)
    entries = []
    for rec in sessions:
        name = f"subject{rec.subject:02d}_session{rec.session}.csv"
        write_csv(outdir / name, rec.timestamps, rec.frames, rec.labels)
        entries.append({"subject": rec.subject, "session": rec.session,
                        "path": name})
    (outdir / "manifest.json").write_text(
        json.dumps({"sessions": entries}, indent=2) + "\n")
    print(f"wrote {len(entries)} session files to {outdir}")
    return 0


def cmd_train(args) -> int:
    outdir = Path(args.out)
    cfg = training.TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                               learning_rate=args.learning_rate,
                               seed=args.seed)
    group = ChannelGroup.from_width(args.group)
    sessions = _load_dataset(args.data, group)
    train_set, test_set, stats = benchlab.prepared_windows(
        sessions, group, args.window_len, args.stride, args.held_out_session)
    _require_windows(test_set, args.held_out_session)
    graph = build_mc_cnn(group.width, args.window_len,
                         first_filters=args.filters, seed=args.seed)
    graph, history = training.train(graph, stack_windows(train_set),
                                    (test_set, test_set.y), cfg)
    graph = dataclasses.replace(graph, stats=stats)
    model_path = outdir / "model_float.thar"
    modelfile.save(graph, model_path)
    (outdir / "history.csv").write_text(training.history_to_csv(history))
    last = history[-1]
    print(f"trained {args.epochs} epochs: loss {last['loss']:.4f}, "
          f"train_acc {last['train_acc']:.4f}, val_acc {last['val_acc']:.4f}")
    print(f"model written to {model_path}")
    return 0


def _windows(model, sessions, stride: int):
    """``sessions`` cut into ``model``'s windows at ``stride`` and z-scored
    with the model's statistics."""
    window_len, channels = model.input_shape
    return normalize(make_windows(sessions, window_len, stride,
                                  ChannelGroup.from_width(channels)),
                     model.stats)


def cmd_quantize(args) -> int:
    outdir = Path(args.out)
    model = _load_model(args.model)
    if not isinstance(model, ModelGraph):
        raise CliError(f"{args.model} is already quantized")
    _require_stats(model, args.model)
    # the first --rep-windows training windows, read session by session
    sessions, seen = [], 0
    window_len, channels = model.input_shape
    for rec in _iter_sessions(args.data,
                              lambda s: s != args.held_out_session,
                              ChannelGroup.from_width(channels)):
        sessions.append(rec)
        seen += len(range(0, len(rec.labels) - window_len + 1, args.stride))
        if seen >= args.rep_windows:
            break
    rep_set = _windows(model, sessions, args.stride)[:args.rep_windows]
    if not rep_set:
        raise CliError(f"no representative windows: --rep-windows "
                       f"{args.rep_windows}, and the sessions other than "
                       f"held-out session {args.held_out_session} hold "
                       f"{seen} windows")
    qmodel = quantize_model(model, rep_set)
    out_path = outdir / "model_int8.thar"
    size = modelfile.save(qmodel, out_path)
    float_size = Path(args.model).stat().st_size
    print(f"quantized model written to {out_path} "
          f"({size} bytes, float/int8 ratio {float_size / size:.2f})")
    return 0


def cmd_eval(args) -> int:
    outdir = Path(args.out)
    model = _load_model(args.model)
    _require_stats(model, args.model)
    convs = [s for s in model.specs if s.kind == LayerKind.CONV1D]
    if not convs or any(s.kind == LayerKind.LSTM for s in model.specs):
        raise CliError(f"{args.model}: eval supports MC-CNN models only")
    group = ChannelGroup.from_width(model.input_shape[1])
    test_set = _windows(model, list(_iter_sessions(
        args.data, lambda s: s == args.held_out_session, group)),
        args.stride)
    _require_windows(test_set, args.held_out_session)
    report = benchlab.evaluate(model, "mc_cnn", group, "custom",
                               convs[0].out_filters,
                               Path(args.model).stat().st_size, test_set)
    benchlab.render_report([report], outdir)
    print(f"accuracy {report.accuracy:.4f}, macro F1 {report.macro_f1:.4f}, "
          f"size {report.model_size_bytes} bytes; report in {outdir}")
    return 0


def cmd_bench(args) -> int:
    outdir = Path(args.out)
    model = _load_model(args.model)
    rng = np.random.default_rng(args.seed)
    window = rng.normal(size=model.input_shape)
    stats = int8_engine.timed_inference(model, window, args.reps)
    (outdir / "latency.csv").write_text(
        "mean_us,p50_us,p95_us\n"
        f"{stats.mean_us:.1f},{stats.p50_us:.1f},{stats.p95_us:.1f}\n")
    print(f"latency over {args.reps} runs: mean {stats.mean_us:.1f} us, "
          f"p50 {stats.p50_us:.1f} us, p95 {stats.p95_us:.1f} us")
    return 0


def cmd_sweep(args) -> int:
    outdir = Path(args.out)
    cfg = SweepConfig(window_len=args.window_len, stride=args.stride,
                      held_out_session=args.held_out_session, seed=args.seed,
                      train_epochs=args.epochs, batch_size=args.batch_size,
                      learning_rate=args.learning_rate,
                      max_eval_windows=args.max_eval_windows,
                      measure_host_latency=args.measure_host_latency,
                      jobs=args.jobs)
    reports = benchlab.sweep(_load_dataset(args.data), cfg)
    benchlab.render_report(reports, outdir)
    failures = [r.config_id for r in reports if r.error]
    print(f"{len(reports)} reports written to {outdir}"
          + (f" ({len(failures)} failed: {', '.join(failures)})"
             if failures else ""))
    return 0


def cmd_mcu_check(args) -> int:
    outdir = Path(args.out)
    model = _load_model(args.model)
    profiles = (mcu.load_profiles(args.profiles) if args.profiles
                else mcu.BUILTIN_PROFILES)
    if args.profile != "all":
        if args.profile not in profiles:
            raise CliError(f"unknown profile {args.profile!r}; "
                           f"available: {', '.join(sorted(profiles))}")
        profiles = {args.profile: profiles[args.profile]}
    size = Path(args.model).stat().st_size
    arena = mcu.estimate_arena(model)
    rows = ["profile,flash_ok,sram_ok,flash_needed_bytes,arena_needed_bytes"]
    for name in sorted(profiles):
        verdict = mcu.fits_on(size, arena, profiles[name])
        rows.append(f"{name},{int(verdict.flash_ok)},{int(verdict.sram_ok)},"
                    f"{verdict.flash_needed},{verdict.arena_needed}")
        status = "feasible" if verdict.feasible else "INFEASIBLE"
        print(f"{name:12s} {status:10s} flash {verdict.flash_needed}"
              f"/{profiles[name].flash_bytes} B, "
              f"sram {verdict.arena_needed}/{profiles[name].sram_bytes} B")
    (outdir / "feasibility.csv").write_text("\n".join(rows) + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tinyhar",
                     description="Quantized time-series inference benchlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", default=None,
                       help="JSON config file; explicit flags win")
        p.add_argument("--seed", type=nonnegative, default=0, help="PRNG seed")
        p.add_argument("--out", default=f"runs/{name}",
                       help="output directory")
        return p

    p = add("synth", cmd_synth, "generate a synthetic labeled dataset")
    p.add_argument("--subjects", type=count, default=2, help="subject count")
    p.add_argument("--sessions", type=count, default=5,
                   help="sessions per subject")
    p.add_argument("--duration-s", type=duration, default=300.0,
                   help="session length in seconds")

    def add_split(p):  # a model file fixes its own window length
        p.add_argument("--stride", type=count, default=12,
                       help="window stride in samples")
        p.add_argument("--held-out-session", type=int, default=5,
                       help="session id held out as test split")

    def add_windowing(p):
        p.add_argument("--window-len", type=count, default=24,
                       help="window length in samples (6 Hz)")
        add_split(p)

    p = add("train", cmd_train, "train a float MC-CNN model")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--group", type=int, default=23,
                   choices=[17, 23, 768, 791], help="channel group width")
    p.add_argument("--filters", type=filter_count, default=128,
                   help="first conv layer filter count (divisible by 4)")
    p.add_argument("--epochs", type=count, default=20, help="training epochs")
    p.add_argument("--batch-size", type=count, default=32, help="batch size")
    p.add_argument("--learning-rate", type=rate, default=1e-3,
                   help="Adam learning rate")
    add_windowing(p)

    p = add("quantize", cmd_quantize, "full-integer quantize a float model")
    p.add_argument("--model", required=True, help="float .thar model file")
    p.add_argument("--data", required=True,
                   help="dataset directory (representative set source)")
    p.add_argument("--rep-windows", type=count, default=64,
                   help="representative window count for calibration")
    add_split(p)

    p = add("eval", cmd_eval, "evaluate a model on the held-out session")
    p.add_argument("--model", required=True, help=".thar model file")
    p.add_argument("--data", required=True, help="dataset directory")
    add_split(p)

    p = add("bench", cmd_bench, "measure host inference latency")
    p.add_argument("--model", required=True, help=".thar model file")
    p.add_argument("--reps", type=count, default=50,
                   help="timed repetitions (after warm-up)")

    p = add("sweep", cmd_sweep, "run the full configuration sweep")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--epochs", type=nonnegative, default=3,
                   help="training epochs per MC-CNN config")
    p.add_argument("--batch-size", type=count, default=32, help="batch size")
    p.add_argument("--learning-rate", type=rate, default=1e-3,
                   help="Adam learning rate")
    p.add_argument("--max-eval-windows", type=count, default=300,
                   help="cap on evaluation windows per config and precision")
    p.add_argument("--measure-host-latency", action="store_true",
                   help="also record host wall-clock latency "
                        "(makes the CSV nondeterministic)")
    p.add_argument("--jobs", type=count, default=1,
                   help="parallel config workers")
    add_windowing(p)

    p = add("mcu-check", cmd_mcu_check, "check flash/SRAM feasibility")
    p.add_argument("--model", required=True, help=".thar model file")
    p.add_argument("--profile", default="all",
                   help="MCU profile name, or 'all'")
    p.add_argument("--profiles", default=None,
                   help="JSON profile registry overriding the built-ins")
    return parser


def _apply_config_file(parser, args, argv) -> argparse.Namespace:
    """``args`` with its ``--config`` file's values, each parsed as its
    flag would be, ahead of ``argv``, so explicit flags win."""
    if not args.config:
        return args
    if not Path(args.config).is_file():
        raise CliError(f"config file not found: {args.config}")
    overrides = json.loads(Path(args.config).read_text())
    if not isinstance(overrides, dict):
        raise CliError(f"{args.config} holds no JSON object")
    flags = []
    for key, value in overrides.items():
        flag = "--" + key.replace("_", "-")
        flag += "" if isinstance(value, bool) else f"={value}"
        try:
            if key in ("command", "func", "config") or key not in vars(args):
                raise CliError(f"names no flag of `tinyhar {args.command}`")
            if value is None or isinstance(value, (list, dict)):
                raise CliError(f"cannot be {json.dumps(value)}")
            parser.parse_args([argv[0], flag, *argv[1:]])  # raises if bad
        except CliError as exc:
            raise CliError(f"{args.config}: key {key!r}: {exc}") from None
        flags += [] if value is False else [flag]
    return parser.parse_args([argv[0], *flags, *argv[1:]])


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = _apply_config_file(parser, parser.parse_args(argv), argv)
        _write_config_echo(Path(args.out), args)
        return args.func(args)
    except (CliError, ValueError) as exc:  # typed input errors subclass it
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
