#!/usr/bin/env python3
"""tinyhar benchmark: the sweep, stream and deploy workloads.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 15 --trace 0

With ``--trace 0`` tracing is off and the end-to-end metrics are measured:
set-up runs several times and its median is ``setup_s``, then rounds of the
workload repeat for about ``--seconds`` and the median timed wall time of
a round is ``wall_s``. With ``--trace 1`` set-up runs once, traced, and then
a fixed number of untraced and traced rounds alternate; the traced spans
become the per-layer metrics and the difference between the two kinds of
rounds is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output check passed, 1 when one failed and 2 when tinyhar's
sources are missing. Results, the environment record and (traced) spans are
written under ``.perfbench_out/``.
"""
import os

# One BLAS/OpenMP thread, set before anything imports NumPy: the host is
# small and noisy, and the workloads are single-client closed loops.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "acc_ratio": "ratio",
                    "peak_rss_mb": "MiB"}


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def run_plain(workload, seed: int, seconds: float, workdir: Path):
    from measure import peak_rss_mb
    from workloads import Outcome

    setup_s = []
    for _ in range(workload.setups):
        state, elapsed = _timed(workload.setup, seed, workdir)
        setup_s.append(elapsed)
    # Rounds repeat while the next one is expected to end within
    # ``seconds``; there is always at least one.
    outcome, walls = Outcome(), []
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        _, elapsed = _timed(workload.run_round, state, None, outcome)
        walls.append(elapsed)
    extra = workload.finish(state, None, outcome)
    metrics = {"setup_s": statistics.median(setup_s),
               "wall_s": statistics.median(walls),
               "acc_ratio": extra["acc_ratio"],
               "peak_rss_mb": peak_rss_mb()}
    samples = {"setup_s": len(setup_s), "wall_s": len(walls),
               "acc_ratio": extra["acc_pairs"], "peak_rss_mb": 1}
    details = {"setup_s": setup_s, "round_s": walls, "extra": extra,
               "latency_ns": outcome.latency_ns}
    return metrics, samples, [outcome], details


def run_traced(workload, seed: int, workdir: Path):
    import layers
    from tinyhar import int8_engine
    from tracing import Tracer
    from workloads import Outcome

    tracer, audit = Tracer(), int8_engine.SaturationAudit()
    targets, modules = layers.targets(audit), layers.modules()
    with tracer.installed(targets, modules):
        state = workload.setup(seed, workdir)
    plain, traced = Outcome(), Outcome()
    plain_walls, traced_walls = [], []
    for _ in range(workload.trace_rounds):
        _, elapsed = _timed(workload.run_round, state, None, plain)
        plain_walls.append(elapsed)
        with tracer.installed(targets, modules):
            _, elapsed = _timed(workload.run_round, state, tracer, traced)
        traced_walls.append(elapsed)
    # After timing only the float reference is traced: the oracle's int8
    # calls are checks, not timed requests, and stay out of the int8 totals.
    reference = [t for t in targets if t.span == "float_engine.forward"]
    with tracer.installed(reference, modules):
        extra = workload.finish(state, tracer, traced)
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics = layers.per_layer(tracer.spans, tracer.counts, audit, overhead)
    details = {"untraced_round_s": plain_walls,
               "traced_round_s": traced_walls, "extra": extra,
               "latency_ns": traced.latency_ns,
               "untraced_latency_ns": plain.latency_ns,
               "spans": tracer.spans}
    return metrics, {}, [plain, traced], details


def _print_latency(details: dict, traced: bool) -> None:
    """Per-model request latency (stream) and float reference latency."""
    from measure import latency_summary

    extra = details["extra"]
    for model, samples in details["latency_ns"].items():
        if not samples:
            continue
        summary = latency_summary(samples)
        p99 = ("n/a" if summary["p99_ms"] is None
               else f"{summary['p99_ms']:.4f} ms")
        kind = "traced" if traced else "untraced"
        print(f"  {kind} run_quantized {model}: p50 "
              f"{summary['p50_ms']:.4f} ms, p99 {p99} (n={summary['n']})")
        if traced:
            base = latency_summary(details["untraced_latency_ns"][model])
            print(f"    tracing overhead at p50: "
                  f"{summary['p50_ms'] - base['p50_ms']:+.4f} ms "
                  f"(untraced p50 {base['p50_ms']:.4f} ms, n={base['n']})")
    for model, samples in (extra.get("forward_ns") or {}).items():
        summary = latency_summary(samples)
        print(f"  float_engine.forward {model}: p50 "
              f"{summary['p50_ms']:.4f} ms (n={summary['n']})")


def _units(trace: bool) -> dict[str, str]:
    if not trace:
        return END_TO_END_UNITS
    import layers
    return {name: layers.unit_of(name) for name in layers.per_layer_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "stream", "deploy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tinyhar" / "__init__.py").is_file():
        print(f"perfbench: no tinyhar sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from measure import environment
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = environment(ROOT, args.workload, args.seed)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, samples, outcomes, details = run_traced(
                workload, args.seed, workdir)
        else:
            metrics, samples, outcomes, details = run_plain(
                workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    units = _units(bool(args.trace))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        count = f" (n={samples[name]})" if name in samples else ""
        print(f"  {name} = {metrics[name]:.6g} {unit}{count}")
    print(f"  error_rate = {failed / max(attempted, 1):.6g} "
          f"({failed} failed / {attempted} attempted)")
    if args.trace:
        import layers
        record = json.loads(
            Path(__file__).with_name("record.json").read_text())
        for problem in layers.record_mismatches(args.workload, metrics,
                                                record):
            print(f"  record mismatch: {problem}")
        stages = sum(v for k, v in metrics.items()
                     if k.startswith("benchlab.stage."))
        print(f"  benchlab stages sum to {stages:.4f} s; rounds median "
              f"{statistics.median(details['traced_round_s']):.4f} s traced, "
              f"{statistics.median(details['untraced_round_s']):.4f} s "
              f"untraced (n={workload.trace_rounds} each)")
    extra = details["extra"]
    print(f"  held-out accuracy: int8 {extra['acc_int8']:.4f}, float "
          f"{extra['acc_float']:.4f} (mean of {extra['acc_pairs']} models)")
    _print_latency(details, bool(args.trace))
    for outcome in outcomes:
        for message in outcome.messages:
            print(f"  check failed: {message}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = details.pop("spans", None)
    if spans is not None:
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.request]
                       for s in spans], fh)
    Path(f"{stem}.json").write_text(json.dumps(
        {"environment": env, "metrics": metrics, "samples": samples,
         "attempted": attempted, "failed": failed,
         "messages": [m for o in outcomes for m in o.messages],
         "details": details}, default=str, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
