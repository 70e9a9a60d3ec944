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

from openset.datastore import OpenSplit, gen_gaussian_blobs
from openset.network import predict_open
from openset.pipeline import mode_sweep, prepare
from openset.trainer import TRAIN_MODES, TrainConfig, pretrain_closed


def run_seed(seed: int, args) -> dict:
    data = gen_gaussian_blobs(args.num_classes, args.per_class, dim=2,
                              center_scale=args.center_scale, spread=args.spread, seed=seed)
    known = list(range(args.known))
    unknown = list(range(args.known, args.num_classes))
    split = OpenSplit(known, unknown, val_fraction=0.1, test_fraction=0.3, seed=seed)
    train, val, test, _ = prepare(data, split)

    config = TrainConfig(pretrain_epochs=args.pretrain_epochs,
                         finetune_epochs=args.finetune_epochs, seed=seed)
    pretrained = pretrain_closed(train, config)
    known_mask = test.labels < len(known)

    out = {}
    for mode, (model, _, report) in mode_sweep(pretrained, train, val, test, split, config).items():
        argmax_acc = float(
            (predict_open(model, test.features, bias=-1e9)[known_mask]
             == test.labels[known_mask]).mean()
        )
        out[mode] = (report.auc, report.macro_f1, argmax_acc)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--num-classes", type=int, default=10)
    parser.add_argument("--known", type=int, default=6)
    parser.add_argument("--per-class", type=int, default=300)
    parser.add_argument("--center-scale", type=float, default=5.0)
    parser.add_argument("--spread", type=float, default=0.35)
    parser.add_argument("--pretrain-epochs", type=int, default=200)
    parser.add_argument("--finetune-epochs", type=int, default=150)
    args = parser.parse_args()

    results = {mode: [] for mode in TRAIN_MODES}
    for seed in range(args.seeds):
        for mode, values in run_seed(seed, args).items():
            results[mode].append(values)
        print(f"seed {seed} done")

    print(f"\n{args.known} known / {args.num_classes - args.known} unknown blobs, "
          f"{args.seeds} seeds (mean ± std)")
    print(f"{'mode':12s} {'AUC':>16s} {'macro-F1':>16s} {'closed acc':>16s}")
    for mode in TRAIN_MODES:
        arr = np.array(results[mode])
        cells = [f"{arr[:, i].mean():.3f} ± {arr[:, i].std():.3f}" for i in range(3)]
        print(f"{mode:12s} {cells[0]:>16s} {cells[1]:>16s} {cells[2]:>16s}")


if __name__ == "__main__":
    main()
