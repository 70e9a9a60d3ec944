"""Evaluation: detection AUC, macro-F1 over K+1 classes, openness, ROC export."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datastore import LabeledSet, OpenSplit, json_text
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


def roc_points(known_scores, unknown_scores) -> Array:
    """(false-positive-rate, true-positive-rate) rows of an (n, 2) array,
    sweeping from (0,0) to (1,1) and thresholding "known" at score >= t for
    descending unique thresholds."""
    k = np.asarray(known_scores, dtype=np.float64).reshape(-1)
    u = np.asarray(unknown_scores, dtype=np.float64).reshape(-1)
    if k.size == 0 or u.size == 0:
        raise ValueError("roc needs at least one score on each side")
    thresholds = np.unique(np.concatenate([k, u]))[::-1]

    points = np.zeros((thresholds.size + 1, 2))
    for column, scores in enumerate((u, k)):
        # count of scores >= t; NaN sorts last and never passes, as with `>=`
        n_ordered = np.count_nonzero(~np.isnan(scores))
        passed = n_ordered - np.searchsorted(np.sort(scores), thresholds, "left")
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
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (labs, preds), 1)
    return counts


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
    roc: Array        # n x 2, (false-positive-rate, true-positive-rate) rows
    confusion: Array  # (K+1) x (K+1), rows = true
    flags: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        """Stable, byte-reproducible JSON rendering."""
        doc = {
            "auc": self.auc,
            "macro_f1": self.macro_f1,
            "closed_accuracy": self.closed_accuracy,
            "openness_pct": self.openness_pct,
            "rejection_rate": self.rejection_rate,
            "flags": list(self.flags),
            "roc": self.roc,
            "confusion": self.confusion,
        }
        return json_text(doc) + "\n"


def evaluate(model: SplitMlp, test_set: LabeledSet, split: OpenSplit, train_mode: str) -> EvalReport:
    """Fill every report field from one pass over the test set.

    Test labels live in [0, K], K marking open-set rows. The model is scored
    as `train_mode` trained it (`AugmentedLogits.score`). Openness counts the
    split's classes, K known plus every unknown class, whether or not the
    test rows hold each of them.
    """
    if train_mode not in TRAIN_MODES:
        raise ValueError(f"train_mode must be one of {TRAIN_MODES}, got {train_mode!r}")
    k = model.num_known
    labels = test_set.labels
    if labels.size == 0:
        raise ValueError("empty test set")
    if labels.max() > k:
        raise ValueError(f"test label {labels.max()} out of range [0, {k}]")
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
    if known_mask.any():
        closed_accuracy = float((preds[known_mask] == labels[known_mask]).mean())
    else:
        closed_accuracy = 0.0
        flags.append("no_known_rows")
    return EvalReport(
        auc=auc_value,
        macro_f1=_macro_f1(counts),
        closed_accuracy=closed_accuracy,
        openness_pct=openness(k, k + len(split.unknown_class_ids)),
        rejection_rate=float((preds == k).mean()),
        roc=roc,
        confusion=counts,
        flags=flags,
    )
