#!/usr/bin/env python3
"""Macro-F1 of each training mode as the number of unknown classes grows.

Keeps the known classes fixed and adds more unknown blob classes to the
test set, printing openness alongside the scores: harder compositions
(higher openness) should degrade every mode, with the placeholder modes
staying on top.
"""

from __future__ import annotations

import argparse

import numpy as np

from openset.datastore import LabeledSet, OpenSplit, gen_gaussian_blobs
from openset.metrics import openness
from openset.pipeline import mode_sweep, prepare
from openset.trainer import TRAIN_MODES, TrainConfig, pretrain_closed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--known", type=int, default=6)
    parser.add_argument("--unknown-counts", type=int, nargs="+", default=[2, 4, 8, 12])
    parser.add_argument("--per-class", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pretrain-epochs", type=int, default=200)
    parser.add_argument("--finetune-epochs", type=int, default=150)
    args = parser.parse_args()

    max_classes = args.known + max(args.unknown_counts)
    data = gen_gaussian_blobs(max_classes, args.per_class, dim=2,
                              center_scale=6.0, spread=0.35, seed=args.seed)
    config = TrainConfig(pretrain_epochs=args.pretrain_epochs,
                         finetune_epochs=args.finetune_epochs, seed=args.seed)

    print(f"{'unknown':>8s} {'openness':>9s} " + " ".join(f"{m:>11s}" for m in TRAIN_MODES))
    for n_unknown in args.unknown_counts:
        known = list(range(args.known))
        unknown = list(range(args.known, args.known + n_unknown))
        keep = np.isin(data.labels, known + unknown)
        subset = LabeledSet(data.features[keep], data.labels[keep])
        split = OpenSplit(known, unknown, val_fraction=0.1, test_fraction=0.3, seed=args.seed)
        train, val, test, _ = prepare(subset, split)
        pretrained = pretrain_closed(train, config)
        results = mode_sweep(pretrained, train, val, test, split, config)
        f1s = [report.macro_f1 for _, _, report in results.values()]
        pct = openness(args.known, args.known + n_unknown)
        print(f"{n_unknown:>8d} {pct:>8.2f}% " + " ".join(f"{f:>11.3f}" for f in f1s))


if __name__ == "__main__":
    main()
