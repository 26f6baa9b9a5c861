#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its values, median and quartile spread (distance between
the first and third quartile over the median) against a third of the
metric's bound in BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --workload sweep --seeds 1 2 3 4 5
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        run = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(bench["run_seconds"]), "--trace",
             "0"], cwd=ROOT, capture_output=True, text=True, timeout=180)
        if run.returncode != 0:
            print(f"seed {seed}: exit {run.returncode}\n{run.stdout}"
                  f"{run.stderr}", file=sys.stderr)
            return 1
        result = json.loads(run.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
            flush=True)
    ok = True
    for metric in bench["end_to_end"]:
        name = metric["name"]
        spread = quartile_spread(values[name])
        limit = metric["bound"] / 3
        flag = "ok" if spread < limit else "WIDE"
        ok &= flag == "ok"
        print(f"{args.workload} {name}: median "
              f"{statistics.median(values[name]):.6g}, spread {spread:.4f} "
              f"(bound/3 {limit:.4f}) {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
