#!/usr/bin/env python3
"""Run the full 48-configuration sweep (2 architectures x 4 channel groups x
3 filter levels x 2 precisions) on a synthetic dataset and render the report
bundle (CSV, markdown, confusion heatmaps).
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tinyhar import benchlab
from tinyhar.cli import count, duration, nonnegative
from tinyhar.synth import synth_generate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=nonnegative, default=0)
    parser.add_argument("--duration-s", type=duration, default=300.0)
    parser.add_argument("--epochs", type=nonnegative, default=3)
    parser.add_argument("--max-eval-windows", type=count, default=300)
    parser.add_argument("--jobs", type=count, default=1)
    parser.add_argument("--host-latency", action="store_true",
                        help="also measure host wall-clock latency "
                             "(makes the CSV nondeterministic)")
    parser.add_argument("--out", default="runs/sweep")
    args = parser.parse_args()

    cfg = benchlab.SweepConfig(seed=args.seed, train_epochs=args.epochs,
                               max_eval_windows=args.max_eval_windows,
                               measure_host_latency=args.host_latency,
                               jobs=args.jobs)
    sessions = synth_generate(args.seed, subjects=2, sessions_per_subject=5,
                              duration_s=args.duration_s)
    started = time.monotonic()
    reports = benchlab.sweep(sessions, cfg)
    elapsed = time.monotonic() - started
    written = benchlab.render_report(reports, args.out)
    failures = [r.config_id for r in reports if r.error]
    print(f"{len(reports)} reports in {elapsed:.1f}s; "
          f"{len(written)} files under {args.out}")
    if failures:
        print(f"failed configs: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
