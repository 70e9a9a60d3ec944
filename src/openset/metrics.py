"""Evaluation: detection AUC, macro-F1 over K+1 classes, openness, ROC export."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datastore import LabeledSet, OpenSplit
from .gradcore import Array
from .network import SplitMlp
from .trainer import TRAIN_MODES


def auc(known_scores, unknown_scores) -> float:
    """Probability a random known score exceeds a random unknown score,
    ties counted 1/2 (the Mann-Whitney U over the pair count).

    Each known score counts 2 for every unknown score below it and 1 for
    every equal one, found by two binary searches in the sorted unknown
    scores; the total is exactly 2U. NaN has no order, so a NaN on either
    side raises ValueError.
    """
    k = np.asarray(known_scores, dtype=np.float64).reshape(-1)
    u = np.asarray(unknown_scores, dtype=np.float64).reshape(-1)
    if k.size == 0 or u.size == 0:
        raise ValueError("auc needs at least one score on each side")
    if np.isnan(k).any() or np.isnan(u).any():
        raise ValueError("auc is undefined for NaN scores")
    u = np.sort(u)
    twice_u = (np.searchsorted(u, k, "left") + np.searchsorted(u, k, "right")).sum()
    return twice_u / (2 * k.size * u.size)


def roc_points(known_scores: Array, unknown_scores: Array) -> Array:
    """(false-positive-rate, true-positive-rate) rows of an (n, 2) array,
    sweeping from (0,0) to (1,1) and thresholding "known" at score >= t for
    descending unique thresholds. Both sides are non-empty float64 1-D
    arrays of finite scores: `evaluate` passes only those."""
    # the first of each run of equal sorted scores (-0.0 equals 0.0), as
    # np.unique keeps them, without the numpy.ma import np.unique makes
    pooled = np.sort(np.concatenate([known_scores, unknown_scores]))
    thresholds = pooled[np.concatenate(([True], pooled[1:] != pooled[:-1]))][::-1]

    points = np.zeros((thresholds.size + 1, 2))
    for column, scores in enumerate((unknown_scores, known_scores)):
        # count of scores >= t
        passed = scores.size - np.searchsorted(np.sort(scores), thresholds, "left")
        np.divide(passed, scores.size, out=points[1:, column])
    return points


def confusion_matrix(predictions, labels, num_classes: int) -> Array:
    preds = np.asarray(predictions, dtype=np.int64).reshape(-1)
    labs = np.asarray(labels, dtype=np.int64).reshape(-1)
    if preds.shape != labs.shape:
        raise ValueError(f"{preds.size} predictions for {labs.size} labels")
    for name, arr in (("prediction", preds), ("label", labs)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise ValueError(f"{name} out of range [0, {num_classes})")
    # cell (label, prediction) is bin label * num_classes + prediction
    return np.bincount(labs * num_classes + preds, minlength=num_classes ** 2).reshape(num_classes, num_classes)


def _macro_f1(counts: Array) -> float:
    tp = np.diag(counts)
    denom = counts.sum(axis=0) + counts.sum(axis=1)  # 2tp + fp + fn
    return float(np.divide(2.0 * tp, denom, out=np.zeros(tp.size), where=denom > 0).mean())


def macro_f1(predictions, labels, num_classes: int) -> float:
    """Unweighted mean of per-class F1; a class with zero precision and
    recall contributes 0."""
    return _macro_f1(confusion_matrix(predictions, labels, num_classes))


def openness(n_train: int, n_test: int) -> float:
    """100 * (1 - sqrt(n_train / n_test)), in percent, from class counts."""
    if n_train <= 0 or n_test <= 0:
        raise ValueError("class counts must be positive")
    if n_train > n_test:
        raise ValueError(f"training classes ({n_train}) cannot exceed test classes ({n_test})")
    return 100.0 * (1.0 - math.sqrt(n_train / n_test))


@dataclass
class EvalReport:
    auc: float | None
    macro_f1: float
    closed_accuracy: float
    openness_pct: float
    rejection_rate: float
    flags: list[str]
    roc: Array        # n x 2, (false-positive-rate, true-positive-rate) rows
    confusion: Array  # (K+1) x (K+1), rows = true


def evaluate(model: SplitMlp, test_set: LabeledSet, split: OpenSplit, train_mode: str) -> EvalReport:
    """Fill every report field from one pass over the test set.

    Test labels live in [0, K], K marking open-set rows; `confusion_matrix`
    refuses one above K. The model is scored as `train_mode` trained it
    (`AugmentedLogits.score`). Openness counts the split's classes, K known
    plus every unknown class, whether or not the test rows hold each of them.
    """
    if train_mode not in TRAIN_MODES:
        raise ValueError(f"train_mode must be one of {TRAIN_MODES}, got {train_mode!r}")
    k = model.num_known
    labels = test_set.labels
    if labels.size == 0:
        raise ValueError("empty test set")
    known_mask = labels < k

    aug = model.augmented_logits(test_set.features)
    scores = aug.score(train_mode, model.calibration_bias)
    preds = aug.predictions(model.calibration_bias)

    flags: list[str] = []
    auc_value: float | None = None
    roc = np.zeros((0, 2))
    if known_mask.all() or not known_mask.any():
        flags.append("auc_omitted_one_sided_test_set")
    else:
        auc_value = auc(scores[known_mask], scores[~known_mask])
        roc = roc_points(scores[known_mask], scores[~known_mask])

    counts = confusion_matrix(preds, labels, k + 1)
    known_counts = counts[:k]  # the rows of known labels; their diagonal is right
    if known_counts.any():
        closed_accuracy = float(np.trace(known_counts) / known_counts.sum())
    else:
        closed_accuracy = 0.0
        flags.append("no_known_rows")
    return EvalReport(
        auc=auc_value,
        macro_f1=_macro_f1(counts),
        closed_accuracy=closed_accuracy,
        openness_pct=openness(k, k + len(split.unknown_class_ids)),
        rejection_rate=float(counts[:, k].sum() / labels.size),
        flags=flags,
        roc=roc,
        confusion=counts,
    )
