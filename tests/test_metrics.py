"""AUC against brute force, macro-F1 against hand counts, openness, reports."""

from __future__ import annotations

import math
import re
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixed_logit_model, roc_points_unique_oracle
from openset.datastore import LabeledSet, OpenSplit, json_text
from openset.metrics import (
    auc,
    confusion_matrix,
    evaluate,
    macro_f1,
    openness,
    roc_points,
)
from openset.network import SplitMlp


def auc_brute_force(known, unknown) -> float:
    """O(n^2) Mann-Whitney enumeration, ties counted one half."""
    wins = 0
    ties = 0
    for k in known:
        for u in unknown:
            if k > u:
                wins += 1
            elif k == u:
                ties += 1
    return (wins + 0.5 * ties) / (len(known) * len(unknown))


def _average_ranks(values):
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


def auc_rank_sum(known, unknown) -> float:
    """The rank-sum form `auc` replaced, kept as its oracle: U is the known
    side's rank sum less its least possible value."""
    k = np.asarray(known, dtype=np.float64)
    u = np.asarray(unknown, dtype=np.float64)
    ranks = _average_ranks(np.concatenate([k, u]))
    u_stat = ranks[:k.size].sum() - k.size * (k.size + 1) / 2
    return u_stat / (k.size * u.size)


def average_ranks_loop(values):
    """Reference ranks: walk each run of `==` values in a stable sort."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j + 2) / 2
        i = j + 1
    return ranks


def roc_points_loop(known, unknown):
    """Reference ROC: one full `>=` pass over both sides per threshold."""
    k = np.asarray(known, dtype=np.float64)
    u = np.asarray(unknown, dtype=np.float64)
    points = [(0.0, 0.0)]
    for t in np.unique(np.concatenate([k, u]))[::-1]:
        points.append((float((u >= t).mean()), float((k >= t).mean())))
    return points


# few distinct values, so ties are common; signed zeros, infinities and NaN
tie_heavy_scores = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, math.inf, -math.inf, math.nan]),
              st.floats()),
    min_size=1, max_size=40,
)


# the same without NaN, plus subnormals, for `auc` and `roc_points`
ordered_scores = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-300]),
              st.floats(allow_nan=False)),
    min_size=1, max_size=40,
)


# finite, as `evaluate` passes them, and mostly tied, -0.0 against 0.0 too
tied_finite_scores = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, 5e-324, -5e-324]),
                               st.floats(allow_nan=False, allow_infinity=False))


def macro_f1_by_hand(preds, labels, num_classes) -> float:
    total = 0.0
    for c in range(num_classes):
        tp = sum(1 for p, l in zip(preds, labels) if p == c and l == c)
        fp = sum(1 for p, l in zip(preds, labels) if p == c and l != c)
        fn = sum(1 for p, l in zip(preds, labels) if p != c and l == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        total += 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return total / num_classes


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8], [0.1, 0.2]) == 1.0

    def test_all_ties_give_half(self):
        assert auc([0.5, 0.5], [0.5, 0.5, 0.5]) == 0.5

    def test_hand_example(self):
        # pairs: (.9,.5)+ (.9,.1)+ (.4,.5)- (.4,.1)+  -> 3/4
        assert auc([0.9, 0.4], [0.5, 0.1]) == 0.75
        assert auc_brute_force([0.9, 0.4], [0.5, 0.1]) == 0.75

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            auc([], [0.5])
        with pytest.raises(ValueError):
            auc([0.5], [])

    def test_matches_brute_force_exactly_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n_k = int(rng.integers(1, 51))
            n_u = int(rng.integers(1, 51))
            if trial % 2:
                # coarse integer grid forces plenty of ties
                known = rng.integers(0, 6, size=n_k).astype(float)
                unknown = rng.integers(0, 6, size=n_u).astype(float)
            else:
                known = rng.standard_normal(n_k)
                unknown = rng.standard_normal(n_u)
            assert auc(known, unknown) == auc_brute_force(list(known), list(unknown))

    @given(
        known=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
        unknown=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
    )
    @settings(max_examples=100)
    def test_complement_symmetry(self, known, unknown):
        if set(known) & set(unknown):
            return  # symmetry as stated holds for tie-free inputs
        assert auc(known, unknown) + auc(unknown, known) == pytest.approx(1.0, abs=1e-12)

    @given(known=ordered_scores, unknown=ordered_scores)
    @settings(max_examples=300)
    def test_keeps_the_bytes_of_the_rank_sum(self, known, unknown):
        assert np.float64(auc(known, unknown)).tobytes() == np.float64(auc_rank_sum(known, unknown)).tobytes()

    def test_keeps_the_bytes_of_the_rank_sum_on_a_large_tied_test_set(self):
        # the open_eval test split's size; rounding to 1e-3 forces ties
        rng = np.random.default_rng(5)
        known = np.round(rng.standard_normal(9000) + 1.0, 3)
        unknown = np.round(rng.standard_normal(12000), 3)
        assert np.float64(auc(known, unknown)).tobytes() == np.float64(auc_rank_sum(known, unknown)).tobytes()

    @pytest.mark.parametrize("known,unknown", [
        ([0.5, math.nan], [0.1]),
        ([0.5], [math.nan, 0.1]),
        ([math.nan], [math.nan]),
    ])
    def test_nan_score_rejected(self, known, unknown):
        with pytest.raises(ValueError, match="NaN"):
            auc(known, unknown)

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(3)
        known = rng.standard_normal(25)
        unknown = rng.standard_normal(31)
        transformed = auc(np.exp(known) + known**3, np.exp(unknown) + unknown**3)
        assert transformed == auc(known, unknown)


class TestAverageRanks:
    @given(values=tie_heavy_scores)
    @settings(max_examples=300)
    def test_equals_loop_reference_bit_for_bit(self, values):
        values = np.array(values)
        assert _average_ranks(values).tobytes() == average_ranks_loop(values).tobytes()


class TestRoc:
    @given(known=ordered_scores, unknown=ordered_scores)
    @settings(max_examples=300)
    def test_equals_loop_reference_exactly(self, known, unknown):
        got = roc_points(np.array(known), np.array(unknown))
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(roc_points_loop(known, unknown)).tobytes()

    @given(known=st.lists(tied_finite_scores, min_size=1, max_size=40),
           unknown=st.lists(tied_finite_scores, min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_equals_the_np_unique_thresholds_byte_for_byte(self, known, unknown):
        known, unknown = np.array(known), np.array(unknown)
        # np.unique reaches numpy.ma through np.ma.is_masked; roc_points must not
        with mock.patch.object(np.ma, "is_masked", side_effect=AssertionError("numpy.ma reached")):
            got = roc_points(known, unknown)
        assert got.tobytes() == roc_points_unique_oracle(known, unknown).tobytes()

    def test_endpoints(self):
        pts = roc_points(np.array([0.9, 0.4]), np.array([0.5, 0.1]))
        assert pts.shape == (5, 2)
        assert pts[0].tolist() == [0.0, 0.0]
        assert pts[-1].tolist() == [1.0, 1.0]

    def test_trapezoid_area_equals_auc_for_tie_free_scores(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            known = rng.standard_normal(30)
            unknown = rng.standard_normal(20)
            pts = roc_points(known, unknown)
            area = sum(
                (x1 - x0) * (y0 + y1) / 2.0
                for (x0, y0), (x1, y1) in zip(pts, pts[1:])
            )
            assert area == pytest.approx(auc(known, unknown), abs=1e-9)


class TestMacroF1:
    def test_perfect_predictions(self):
        assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_hand_confusion_example(self):
        # confusion [[2,0,0],[0,2,0],[2,0,0]]: class 2 always predicted as 0
        labels = [0, 0, 1, 1, 2, 2]
        preds = [0, 0, 1, 1, 0, 0]
        np.testing.assert_array_equal(
            confusion_matrix(preds, labels, 3), [[2, 0, 0], [0, 2, 0], [2, 0, 0]]
        )
        expected = (2 * (0.5 * 1.0) / 1.5 + 1.0 + 0.0) / 3.0
        assert macro_f1(preds, labels, 3) == pytest.approx(expected, abs=1e-12)
        assert macro_f1(preds, labels, 3) == pytest.approx(0.5556, abs=1e-4)

    def test_constant_predictions_balanced_binary(self):
        labels = [0] * 10 + [1] * 10
        preds = [0] * 20
        assert macro_f1(preds, labels, 2) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            macro_f1([0, 3], [0, 1], 3)

    def test_one_prediction_for_three_labels_is_refused(self):
        # without the check, the one prediction would broadcast over every label
        with pytest.raises(ValueError, match="1 predictions for 3 labels"):
            macro_f1([0], [0, 1, 2], 3)

    def test_matches_hand_computation_on_random_cases(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            num_classes = int(rng.integers(2, 7))
            n = int(rng.integers(1, 60))
            labels = rng.integers(0, num_classes, size=n)
            preds = rng.integers(0, num_classes, size=n)
            assert macro_f1(preds, labels, num_classes) == pytest.approx(
                macro_f1_by_hand(list(preds), list(labels), num_classes), abs=1e-12
            )

    @given(perm_seed=st.integers(min_value=0, max_value=1000), case_seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50)
    def test_permutation_equivariance(self, perm_seed, case_seed):
        rng = np.random.default_rng(case_seed)
        num_classes = 4
        labels = rng.integers(0, num_classes, size=30)
        preds = rng.integers(0, num_classes, size=30)
        perm = np.random.default_rng(perm_seed).permutation(num_classes)
        assert macro_f1(perm[preds], perm[labels], num_classes) == pytest.approx(
            macro_f1(preds, labels, num_classes), abs=1e-12
        )


class TestOpenness:
    @pytest.mark.parametrize("n_train,n_test,expected", [
        (6, 10, 22.54),
        (4, 14, 46.55),
        (4, 54, 72.78),
        (20, 200, 68.37),
    ])
    def test_published_values(self, n_train, n_test, expected):
        assert abs(openness(n_train, n_test) - expected) < 0.01

    def test_closed_task_is_zero(self):
        assert openness(7, 7) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            openness(10, 5)
        with pytest.raises(ValueError):
            openness(0, 5)


class TestEvaluate:
    # three known classes; test label 3 marks the rows of the unknown classes
    SPLIT = OpenSplit([0, 1, 2], [3, 4])

    def _model_and_data(self, seed=0):
        rng = np.random.default_rng(seed)
        model = SplitMlp.create(2, 3, 2, rng, pre_widths=(8,), post_widths=(4,))
        features = rng.standard_normal((40, 2))
        labels = rng.integers(0, 4, size=40)  # label 3 = unknown
        return model, LabeledSet(features, labels)

    def test_always_reject_model(self):
        model, data = self._model_and_data()
        model.calibration_bias = 1e9
        report = evaluate(model, data, self.SPLIT, "full")
        assert report.rejection_rate == 1.0
        assert report.closed_accuracy == 0.0

    def test_never_reject_reduces_to_argmax_accuracy(self):
        model, data = self._model_and_data()
        model.calibration_bias = -1e9
        report = evaluate(model, data, self.SPLIT, "full")
        assert report.rejection_rate == 0.0
        known = data.labels < 3
        argmax_acc = float(
            (model.augmented_logits(data.features).closed.argmax(axis=1)[known]
             == data.labels[known]).mean()
        )
        assert report.closed_accuracy == argmax_acc

    def test_report_fields_and_confusion_row_sums(self):
        model, data = self._model_and_data()
        report = evaluate(model, data, self.SPLIT, "full")
        assert report.confusion.shape == (4, 4)
        for c in range(4):
            assert report.confusion[c].sum() == (data.labels == c).sum()
        assert report.openness_pct == pytest.approx(openness(3, 5))
        assert 0.0 <= report.macro_f1 <= 1.0
        assert report.auc is not None and 0.0 <= report.auc <= 1.0
        assert report.roc[0].tolist() == [0.0, 0.0] and report.roc[-1].tolist() == [1.0, 1.0]

    def test_report_metrics_equal_the_public_functions(self):
        model, data = self._model_and_data()
        model.calibration_bias = 0.3
        report = evaluate(model, data, self.SPLIT, "full")
        aug = model.augmented_logits(data.features)
        preds = aug.predictions(model.calibration_bias)
        scores = aug.knownness(model.calibration_bias)
        known = data.labels < 3
        assert report.macro_f1 == macro_f1(preds, data.labels, 4)
        assert report.auc == auc(scores[known], scores[~known])

    def test_openness_counts_the_split_not_the_test_rows(self):
        # the rows of only one of the split's two unknown classes reach the
        # test set; openness is still that of 3 known among 5 classes
        model, data = self._model_and_data()
        assert (data.labels == 3).any()
        report = evaluate(model, data, OpenSplit([0, 1, 2], [3, 7]), "full")
        assert report.openness_pct == openness(3, 5)
        assert report.openness_pct != openness(3, 4)

    def test_no_unknown_rows_flags_auc(self):
        model, data = self._model_and_data()
        known_only = LabeledSet(data.features, np.zeros(len(data), dtype=np.int64))
        report = evaluate(model, known_only, OpenSplit([0, 1, 2]), "full")
        assert report.auc is None
        assert report.roc.shape == (0, 2) and report.roc.dtype == np.float64
        assert "auc_omitted_one_sided_test_set" in report.flags
        assert report.openness_pct == 0.0

    def test_baseline_score_uses_max_softmax(self):
        # scores differ between the two detectors, so the AUCs generally differ
        model = fixed_logit_model(
            [[5.0, 0.0], [0.1, 0.0], [4.0, 0.0], [0.2, 0.1]],
            [[4.9], [-5.0], [-5.0], [0.0]],
        )
        data = LabeledSet(np.eye(4), [0, 0, 2, 2])
        split = OpenSplit([0, 1], [2])
        aug = model.augmented_logits(data.features)
        baseline = evaluate(model, data, split, "baseline")
        assert baseline.auc == auc(aug.max_softmax()[:2], aug.max_softmax()[2:])
        for mode in ("dummy_only", "mixup_only", "full"):
            placeholder = evaluate(model, data, split, mode)
            assert placeholder.auc == auc(aug.knownness(0.0)[:2], aug.knownness(0.0)[2:])
            assert placeholder.auc != baseline.auc

    def test_deterministic_report_bytes(self):
        model, data = self._model_and_data()
        a = json_text(asdict(evaluate(model, data, self.SPLIT, "full"))) + "\n"
        b = json_text(asdict(evaluate(model, data, self.SPLIT, "full"))) + "\n"
        assert a.encode() == b.encode()

    def test_an_empty_test_set_is_refused(self):
        model, _ = self._model_and_data()
        with pytest.raises(ValueError, match="empty test set"):
            evaluate(model, LabeledSet(np.zeros((0, 2)), []), self.SPLIT, "full")

    def test_no_known_rows_gives_closed_accuracy_0_and_a_flag(self):
        model, data = self._model_and_data()
        unknown_only = LabeledSet(data.features, np.full(len(data), 3))
        report = evaluate(model, unknown_only, self.SPLIT, "full")
        assert report.closed_accuracy == 0.0
        assert report.flags == ["auc_omitted_one_sided_test_set", "no_known_rows"]

    def test_a_label_above_k_is_refused_by_the_confusion_matrix(self):
        model, data = self._model_and_data()
        above = LabeledSet(data.features, np.where(data.labels == 3, 4, data.labels))
        with pytest.raises(ValueError, match=re.escape("label out of range [0, 4)")):
            evaluate(model, above, self.SPLIT, "full")

    def test_unknown_score_kind_rejected(self):
        model, data = self._model_and_data()
        with pytest.raises(ValueError, match="train_mode"):
            evaluate(model, data, self.SPLIT, "entropy")
