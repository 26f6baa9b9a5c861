#!/usr/bin/env python3
"""End-to-end demo: generate data, train, quantize, evaluate, and check
microcontroller feasibility for one configuration.

Equivalent to chaining the `tinyhar synth/train/quantize/eval/mcu-check`
subcommands, but in-process and with a compact console summary.
"""
import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from tinyhar import datapipe as dp
from tinyhar import metrics, modelfile, training
from tinyhar.benchlab import classify, mcu_results_for, prepared_windows
from tinyhar.cli import count, duration, filter_count, nonnegative
from tinyhar.model_ir import Precision, build_mc_cnn
from tinyhar.quantizer import quantize_model
from tinyhar.synth import synth_generate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=nonnegative, default=7)
    parser.add_argument("--group", type=int, default=23,
                        choices=[17, 23, 768, 791])
    parser.add_argument("--filters", type=filter_count, default=128)
    parser.add_argument("--epochs", type=count, default=5)
    parser.add_argument("--duration-s", type=duration, default=420.0)
    parser.add_argument("--out", default="runs/pipeline")
    args = parser.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    group = dp.ChannelGroup.from_width(args.group)

    print(f"generating synthetic dataset (seed {args.seed}) ...")
    sessions = synth_generate(args.seed, subjects=2, sessions_per_subject=5,
                              duration_s=args.duration_s)
    train, test, stats = prepared_windows(sessions, group, window_len=24,
                                          stride=12, held_out_session=5)
    print(f"  {len(train)} train / {len(test)} held-out windows "
          f"({group.width} channels)")

    print(f"training MC-CNN ({args.filters} first-layer filters, "
          f"{args.epochs} epochs) ...")
    graph = build_mc_cnn(group.width, 24, args.filters, seed=args.seed)
    cfg = training.TrainConfig(epochs=args.epochs, batch_size=32,
                               learning_rate=1e-3, seed=args.seed)
    graph, history = training.train(graph, dp.stack_windows(train),
                                    (test, test.y), cfg)
    graph = dataclasses.replace(graph, stats=stats)  # both files carry them
    for row in history:
        print(f"  epoch {row['epoch']}: loss {row['loss']:.4f} "
              f"train {row['train_acc']:.4f} val {row['val_acc']:.4f}")
    modelfile.save(graph, outdir / "model_float.thar")

    print("quantizing (full integer, 64 representative windows) ...")
    qmodel = quantize_model(graph, train[:64])
    modelfile.save(qmodel, outdir / "model_int8.thar")
    float_size = (outdir / "model_float.thar").stat().st_size
    int8_size = (outdir / "model_int8.thar").stat().st_size
    print(f"  sizes: float {float_size / 1024:.1f} KiB, "
          f"int8 {int8_size / 1024:.1f} KiB "
          f"(ratio {float_size / int8_size:.2f})")

    float_preds, y = classify(graph, test)
    int8_preds, _ = classify(qmodel, test)
    agreement = float(np.mean(float_preds == int8_preds))
    print(f"evaluation on held-out session:")
    print(f"  float accuracy {metrics.accuracy(float_preds, y):.4f}, "
          f"macro F1 {metrics.macro_f1(float_preds, y):.4f}")
    print(f"  int8  accuracy {metrics.accuracy(int8_preds, y):.4f}, "
          f"macro F1 {metrics.macro_f1(int8_preds, y):.4f}")
    print(f"  int8/float top-1 agreement {agreement:.4f}")

    print("microcontroller feasibility (int8 model):")
    results = mcu_results_for(qmodel, Precision.INT8_FULL, int8_size)
    for name, result in sorted(results.items()):
        status = "feasible" if result.verdict.feasible else "INFEASIBLE"
        print(f"  {name:12s} {status:10s} "
              f"latency {result.latency_ms:8.2f} ms, "
              f"energy {result.energy_mj:6.2f} mJ")
    print(f"artifacts in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
