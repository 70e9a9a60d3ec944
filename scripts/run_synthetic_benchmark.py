#!/usr/bin/env python3
"""Compare all four training modes on the 6-known / 4-unknown blob task.

For every seed, one closed-set model is pretrained and then fine-tuned
once per mode; each result is bias-calibrated on the validation split and
evaluated on the open test split. Prints a per-mode table of detection AUC,
macro-F1 over K+1 classes, and closed-set argmax accuracy.
"""

from __future__ import annotations

import argparse

import numpy as np

from openset.pipeline import BLOB_TASK, blob_experiment, closed_accuracy
from openset.trainer import TRAIN_MODES


def run_seed(seed: int, task: dict) -> dict:
    _, _, test, results = blob_experiment(seed, **task)
    return {mode: (report.auc, report.macro_f1, closed_accuracy(model, test))
            for mode, (model, _, report) in results.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    for name, default in BLOB_TASK.items():  # --num-classes, --known, ..., --finetune-epochs
        parser.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    task = vars(parser.parse_args())
    seeds = task.pop("seeds")

    results = {mode: [] for mode in TRAIN_MODES}
    for seed in range(seeds):
        for mode, values in run_seed(seed, task).items():
            results[mode].append(values)
        print(f"seed {seed} done")

    print(f"\n{task['known']} known / {task['num_classes'] - task['known']} unknown blobs, {seeds} seeds (mean ± std)")
    print(f"{'mode':12s} {'AUC':>16s} {'macro-F1':>16s} {'closed acc':>16s}")
    for mode in TRAIN_MODES:
        arr = np.array(results[mode])
        cells = [f"{arr[:, i].mean():.3f} ± {arr[:, i].std():.3f}" for i in range(3)]
        print(f"{mode:12s} {cells[0]:>16s} {cells[1]:>16s} {cells[2]:>16s}")


if __name__ == "__main__":
    main()
