"""The experiment protocol shared by the CLI, the scripts and the tests.

Split and standardize once, fine-tune every training mode from one
pretrained model, calibrate the dummy bias on known validation data, and
evaluate on the open test split.
"""

from __future__ import annotations

import copy
import dataclasses

from .calibration import CalibrationResult, select_bias
from .datastore import (LabeledSet, OpenSplit, Standardization, fit_standardization, gen_gaussian_blobs,
                        split_known_unknown)
from .metrics import EvalReport, evaluate
from .network import SplitMlp
from .trainer import TRAIN_MODES, TrainConfig, finetune_placeholders, pretrain_closed

# The synthetic task of the experiment scripts and the acceptance run:
# `num_classes` 2-D Gaussian blobs, the first `known` classes known and the
# rest unknown; the split holds out SPLIT_FRACTIONS of the known rows.
BLOB_TASK = {"num_classes": 10, "known": 6, "per_class": 300, "center_scale": 5.0, "spread": 0.35,
             "pretrain_epochs": 200, "finetune_epochs": 150}
SPLIT_FRACTIONS = {"val_fraction": 0.1, "test_fraction": 0.3}


def prepare(data: LabeledSet, split: OpenSplit) -> tuple[LabeledSet, LabeledSet, LabeledSet, Standardization]:
    """Train, validation and test parts, all standardized with statistics
    fitted on the train part alone, plus those statistics. The parts are
    fresh from the split, so they are standardized in place; `data` is left
    as it was."""
    train, val, test = split_known_unknown(data, split)
    stats = fit_standardization(train.features)
    for part in (train, val, test):
        stats.apply(part.features, out=part.features)
    return train, val, test, stats


def evaluate_split(model: SplitMlp, test: LabeledSet, split: OpenSplit, train_mode: str) -> EvalReport:
    """Report on the open test split: the baseline is scored by max-softmax
    confidence, every placeholder mode by the calibrated knownness score."""
    score = "max_softmax" if train_mode == "baseline" else "knownness"
    n_test_classes = len(split.known_class_ids) + len(split.unknown_class_ids)
    return evaluate(model, test, score=score, n_test_classes=n_test_classes)


def calibrate_evaluate(model: SplitMlp, val: LabeledSet, test: LabeledSet, split: OpenSplit,
                       train_mode: str, target_rate: float = 0.95,
                       intervals: int = 100) -> tuple[CalibrationResult, EvalReport]:
    """Set the model's calibration bias from the validation split, then
    evaluate it on the test split."""
    calib = select_bias(model, val, target_rate, intervals)
    model.calibration_bias = calib.chosen_bias
    return calib, evaluate_split(model, test, split, train_mode)


def experiment(data: LabeledSet, split: OpenSplit, config: TrainConfig
               ) -> tuple[SplitMlp, LabeledSet, LabeledSet, dict[str, tuple[SplitMlp, CalibrationResult, EvalReport]]]:
    """Prepare, pretrain once, then fine-tune, calibrate and evaluate a copy in
    every training mode (`config.train_mode` is not read). Returns the untouched
    pretrained model, the validation and test parts, and mode -> (model, calibration, report)."""
    train, val, test, _ = prepare(data, split)
    pretrained = pretrain_closed(train, config)
    results = {}
    for mode in TRAIN_MODES:
        model = finetune_placeholders(copy.deepcopy(pretrained), train,
                                      dataclasses.replace(config, train_mode=mode))
        results[mode] = (model, *calibrate_evaluate(model, val, test, split, mode))
    return pretrained, val, test, results


def closed_accuracy(model: SplitMlp, test: LabeledSet) -> float:
    """Accuracy of the closed-head argmax on the known rows of `test` (labels below K)."""
    known = test.labels < model.num_known
    preds = model.augmented_logits(test.features).closed.argmax(axis=1)
    return float((preds[known] == test.labels[known]).mean())


def blob_experiment(seed: int, num_classes: int, known: int, per_class: int, center_scale: float, spread: float,
                    pretrain_epochs: int, finetune_epochs: int) -> tuple:
    """`experiment` on the blob task (see BLOB_TASK), drawn, split and trained with `seed`."""
    data = gen_gaussian_blobs(num_classes, per_class, 2, center_scale, spread, seed)
    split = OpenSplit(list(range(known)), list(range(known, num_classes)), seed=seed, **SPLIT_FRACTIONS)
    config = TrainConfig(pretrain_epochs=pretrain_epochs, finetune_epochs=finetune_epochs, seed=seed)
    return experiment(data, split, config)
