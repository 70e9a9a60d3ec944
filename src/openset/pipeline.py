"""The experiment protocol shared by the CLI commands and the tests.

Split and standardize once, fine-tune every training mode from one
pretrained model, calibrate the dummy bias on known validation data, and
evaluate on the open test split.
"""

from __future__ import annotations

import copy
import dataclasses

from .calibration import CalibrationConfig, CalibrationResult, select_bias
from .datastore import LabeledSet, OpenSplit, Standardization, fit_standardization, split_known_unknown
from .metrics import EvalReport, evaluate
from .network import SplitMlp
from .trainer import TRAIN_MODES, TrainConfig, finetune_placeholders, pretrain_closed


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


def calibrate_evaluate(model: SplitMlp, val: LabeledSet, test: LabeledSet, split: OpenSplit,
                       train_mode: str, calibration: CalibrationConfig) -> tuple[CalibrationResult, EvalReport]:
    """Set the model's calibration bias from the validation features, then
    evaluate it on the test split as `train_mode` trained it."""
    calib = select_bias(model, val.features, calibration.target_rate, calibration.intervals)
    model.calibration_bias = calib.chosen_bias
    return calib, evaluate(model, test, split, train_mode)


def experiment(train: LabeledSet, val: LabeledSet, test: LabeledSet, split: OpenSplit, config: TrainConfig,
               calibration: CalibrationConfig) -> dict[str, tuple[SplitMlp, CalibrationResult, EvalReport]]:
    """On the parts `prepare` returns: pretrain once, then fine-tune, calibrate
    and evaluate a copy in every training mode (`config.train_mode` is not
    read). Returns mode -> (model, calibration, report); the baseline model
    is the pretrained one, as fine-tuning leaves it."""
    pretrained = pretrain_closed(train, config)
    results = {}
    for mode in TRAIN_MODES:
        model = finetune_placeholders(copy.deepcopy(pretrained), train,
                                      dataclasses.replace(config, train_mode=mode))
        results[mode] = (model, *calibrate_evaluate(model, val, test, split, mode, calibration))
    return results


def closed_accuracy(model: SplitMlp, test: LabeledSet) -> float:
    """Accuracy of the closed-head argmax on the known rows of `test` (labels below K)."""
    known = test.labels < model.num_known
    preds = model.augmented_logits(test.features).closed.argmax(axis=1)
    return float((preds[known] == test.labels[known]).mean())

