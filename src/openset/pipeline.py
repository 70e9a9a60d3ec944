"""The experiment protocol shared by the CLI, the scripts and the tests.

Split and standardize once, fine-tune every training mode from one
pretrained model, calibrate the dummy bias on known validation data, and
evaluate on the open test split.
"""

from __future__ import annotations

import copy
import dataclasses

from .calibration import CalibrationResult, select_bias
from .datastore import LabeledSet, OpenSplit, Standardization, fit_standardization, split_known_unknown
from .metrics import EvalReport, evaluate
from .network import SplitMlp
from .trainer import TRAIN_MODES, TrainConfig, finetune_placeholders


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


def mode_sweep(pretrained: SplitMlp, train: LabeledSet, val: LabeledSet, test: LabeledSet,
               split: OpenSplit, config: TrainConfig
               ) -> dict[str, tuple[SplitMlp, CalibrationResult, EvalReport]]:
    """Fine-tune a copy of `pretrained` in every training mode with `config`,
    then calibrate and evaluate each: mode -> (model, calibration, report).
    `pretrained` itself is left untouched."""
    results = {}
    for mode in TRAIN_MODES:
        model = finetune_placeholders(copy.deepcopy(pretrained), train,
                                      dataclasses.replace(config, train_mode=mode))
        results[mode] = (model, *calibrate_evaluate(model, val, test, split, mode))
    return results
