#!/usr/bin/env python3
"""Macro-F1 of each training mode as the number of unknown classes grows.

Keeps the known classes fixed and adds more unknown blob classes to the
test set, printing openness alongside the scores: harder compositions
(higher openness) should degrade every mode, with the placeholder modes
staying on top.
"""

from __future__ import annotations

import argparse

from openset.datastore import LabeledSet, OpenSplit, gen_gaussian_blobs
from openset.metrics import openness
from openset.pipeline import BLOB_TASK, SPLIT_FRACTIONS, experiment
from openset.trainer import TRAIN_MODES, TrainConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--known", type=int, default=BLOB_TASK["known"])
    parser.add_argument("--unknown-counts", type=int, nargs="+", default=[2, 4, 8, 12])
    parser.add_argument("--per-class", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pretrain-epochs", type=int, default=BLOB_TASK["pretrain_epochs"])
    parser.add_argument("--finetune-epochs", type=int, default=BLOB_TASK["finetune_epochs"])
    args = parser.parse_args()

    max_classes = args.known + max(args.unknown_counts)
    data = gen_gaussian_blobs(max_classes, args.per_class, 2, center_scale=6.0, spread=0.35, seed=args.seed)
    config = TrainConfig(pretrain_epochs=args.pretrain_epochs, finetune_epochs=args.finetune_epochs, seed=args.seed)

    print(f"{'unknown':>8s} {'openness':>9s} " + " ".join(f"{m:>11s}" for m in TRAIN_MODES))
    for n_unknown in args.unknown_counts:
        num_classes = args.known + n_unknown
        keep = data.labels < num_classes  # the first num_classes of the classes drawn
        split = OpenSplit(list(range(args.known)), list(range(args.known, num_classes)),
                          seed=args.seed, **SPLIT_FRACTIONS)
        *_, results = experiment(LabeledSet(data.features[keep], data.labels[keep]), split, config)
        f1s = [report.macro_f1 for _, _, report in results.values()]
        print(f"{n_unknown:>8d} {openness(args.known, num_classes):>8.2f}% " + " ".join(f"{f:>11.3f}" for f in f1s))


if __name__ == "__main__":
    main()
