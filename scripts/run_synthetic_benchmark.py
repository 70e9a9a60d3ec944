#!/usr/bin/env python3
"""Compare all four training modes on a run config's task (default: configs/blobs6.json).

For every seed, one closed-set model is pretrained and then fine-tuned
once per mode; each result is bias-calibrated on the validation split and
evaluated on the open test split. Prints a per-mode table of detection AUC,
macro-F1 over K+1 classes, and closed-set argmax accuracy.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from openset.cli import load_run_config
from openset.pipeline import closed_accuracy, experiment
from openset.trainer import TRAIN_MODES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5, help="run seeds 0 to SEEDS-1 (default 5)")
    parser.add_argument("--config", default=Path(__file__).resolve().parent.parent / "configs" / "blobs6.json",
                        help="run config of the task; each seed is set in its dataset, split and train blocks "
                             "(default: configs/blobs6.json)")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"argument --seeds: must be at least 1, got {args.seeds}")
    base = load_run_config(args.config, ("dataset", "split", "train"))

    results = {mode: [] for mode in TRAIN_MODES}
    for seed in range(args.seeds):
        cfg = base.at_seed(seed)
        _, _, test, runs = experiment(cfg.dataset.load(), cfg.split, cfg.train, cfg.calibration)
        for mode, (model, _, report) in runs.items():
            results[mode].append((report.auc, report.macro_f1, closed_accuracy(model, test)))
        print(f"seed {seed} done")

    known, unknown = len(base.split.known_class_ids), len(base.split.unknown_class_ids)
    print(f"\n{known} known / {unknown} unknown {base.dataset.kind}, {args.seeds} seeds (mean ± std)")
    print(f"{'mode':12s} {'AUC':>16s} {'macro-F1':>16s} {'closed acc':>16s}")
    for mode in TRAIN_MODES:
        arr = np.array(results[mode])
        cells = [f"{arr[:, i].mean():.3f} ± {arr[:, i].std():.3f}" for i in range(3)]
        print(f"{mode:12s} {cells[0]:>16s} {cells[1]:>16s} {cells[2]:>16s}")


if __name__ == "__main__":
    main()
