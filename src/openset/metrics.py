"""Evaluation: detection AUC, macro-F1 over K+1 classes, openness, ROC export."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datastore import LabeledSet, json_text
from .gradcore import Array
from .network import SplitMlp

SCORE_KINDS = ("knownness", "max_softmax")


def _average_ranks(values: Array) -> Array:
    """1-based ranks with ties averaged. Exact in float64 for small n
    (all ranks are multiples of 1/2)."""
    order = np.argsort(values, kind="mergesort")
    s = values[order]
    # `!=` rather than np.diff, so NaN stays a group of its own and equal
    # infinities share one, exactly as `==` decides
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    counts = np.diff(np.append(starts, s.size))
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((2 * starts + counts + 1) / 2, counts)
    return ranks


def auc(known_scores, unknown_scores) -> float:
    """Probability a random known score exceeds a random unknown score,
    ties counted 1/2 (Mann-Whitney), computed from a rank sum."""
    k = np.asarray(known_scores, dtype=np.float64).reshape(-1)
    u = np.asarray(unknown_scores, dtype=np.float64).reshape(-1)
    if k.size == 0 or u.size == 0:
        raise ValueError("auc needs at least one score on each side")
    ranks = _average_ranks(np.concatenate([k, u]))
    u_stat = ranks[:k.size].sum() - k.size * (k.size + 1) / 2
    return u_stat / (k.size * u.size)


def roc_points(known_scores, unknown_scores) -> list[tuple[float, float]]:
    """(false-positive-rate, true-positive-rate) sweep from (0,0) to (1,1),
    thresholding "known" at score >= t for descending unique thresholds."""
    k = np.asarray(known_scores, dtype=np.float64).reshape(-1)
    u = np.asarray(unknown_scores, dtype=np.float64).reshape(-1)
    if k.size == 0 or u.size == 0:
        raise ValueError("roc needs at least one score on each side")
    thresholds = np.unique(np.concatenate([k, u]))[::-1]

    def rate(scores: Array) -> list[float]:
        # count of scores >= t; NaN sorts last and never passes, as with `>=`
        n_ordered = np.count_nonzero(~np.isnan(scores))
        passed = n_ordered - np.searchsorted(np.sort(scores), thresholds, "left")
        return (passed / scores.size).tolist()

    return [(0.0, 0.0), *zip(rate(u), rate(k))]


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


def macro_f1(predictions, labels, num_classes: int) -> float:
    """Unweighted mean of per-class F1; a class with zero precision and
    recall contributes 0."""
    counts = confusion_matrix(predictions, labels, num_classes)
    f1s = []
    for c in range(num_classes):
        tp = counts[c, c]
        fp = counts[:, c].sum() - tp
        fn = counts[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        f1s.append(2.0 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(f1s))


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
    roc: list[tuple[float, float]]
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
            "roc": np.array(self.roc, dtype=np.float64).reshape(-1, 2),
            "confusion": self.confusion,
        }
        return json_text(doc) + "\n"


def evaluate(model: SplitMlp, test_set: LabeledSet, score: str = "knownness",
             n_test_classes: int | None = None) -> EvalReport:
    """Fill every report field from one pass over the test set.

    Test labels live in [0, K], K marking open-set rows. `score` picks the
    detection scalar: the calibrated knownness score, or the max-softmax
    confidence for the thresholding baseline. `n_test_classes` is the total
    class count of the task (known plus distinct unknown classes) for the
    openness field; collapsed test labels cannot reveal it, so it defaults
    to K+1 when unknown rows are present.
    """
    if score not in SCORE_KINDS:
        raise ValueError(f"score must be one of {SCORE_KINDS}, got {score!r}")
    k = model.num_known
    labels = test_set.labels
    if labels.size == 0:
        raise ValueError("empty test set")
    if labels.max() > k:
        raise ValueError(f"test label {labels.max()} out of range [0, {k}]")
    known_mask = labels < k

    aug = model.augmented_logits(test_set.features)
    scores = aug.knownness(model.calibration_bias) if score == "knownness" else aug.max_softmax()
    preds = aug.predictions(model.calibration_bias)

    flags: list[str] = []
    auc_value: float | None = None
    roc: list[tuple[float, float]] = []
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
    if n_test_classes is None:
        n_test_classes = k + 1 if (~known_mask).any() else k
    return EvalReport(
        auc=auc_value,
        macro_f1=macro_f1(preds, labels, k + 1),
        closed_accuracy=closed_accuracy,
        openness_pct=openness(k, n_test_classes),
        rejection_rate=float((preds == k).mean()),
        roc=roc,
        confusion=counts,
        flags=flags,
    )
