#!/usr/bin/env python3
"""Macro-F1 of each training mode as the number of unknown classes grows.

Keeps the known classes fixed and adds more unknown blob classes to the
test set, printing openness alongside the scores: harder compositions
(higher openness) should degrade every mode, with the placeholder modes
staying on top.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from openset.cli import load_run_config
from openset.datastore import LabeledSet, OpenSplit, gen_gaussian_blobs
from openset.metrics import openness
from openset.pipeline import experiment
from openset.trainer import TRAIN_MODES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=Path(__file__).resolve().parent.parent / "configs" / "blobs6.json",
                        help="run config whose split (the number of known classes and the fractions), train and "
                             "calibration blocks are used; the blobs are drawn here (default: configs/blobs6.json)")
    parser.add_argument("--unknown-counts", type=int, nargs="+", default=[2, 4, 8, 12])
    parser.add_argument("--per-class", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if min(args.unknown_counts) < 0:
        parser.error(f"argument --unknown-counts: must be at least 0, got {min(args.unknown_counts)}")
    cfg = load_run_config(args.config, ("split", "train")).at_seed(args.seed)

    known = len(cfg.split.known_class_ids)
    data = gen_gaussian_blobs(known + max(args.unknown_counts), args.per_class, 2, center_scale=6.0, spread=0.35,
                              seed=args.seed)

    print(f"{'unknown':>8s} {'openness':>9s} " + " ".join(f"{m:>11s}" for m in TRAIN_MODES))
    for n_unknown in args.unknown_counts:
        num_classes = known + n_unknown
        keep = data.labels < num_classes  # the first num_classes of the classes drawn, the first `known` known
        split = OpenSplit(list(range(known)), list(range(known, num_classes)), cfg.split.val_fraction,
                          cfg.split.test_fraction, cfg.split.seed)
        *_, results = experiment(LabeledSet(data.features[keep], data.labels[keep]), split, cfg.train, cfg.calibration)
        f1s = [report.macro_f1 for _, _, report in results.values()]
        print(f"{n_unknown:>8d} {openness(known, num_classes):>8.2f}% " + " ".join(f"{f:>11.3f}" for f in f1s))


if __name__ == "__main__":
    main()
