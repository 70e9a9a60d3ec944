"""Bias search: gaps, candidate grids, the 95% rule, monotonicity, and the one
known-at-a-bias rule that calibration, knownness and predictions share."""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import fixed_logit_model, known_rate
from openset.calibration import CalibrationConfig, CalibrationResult, candidate_biases, logit_gaps, select_bias
from openset.checkpoint import load_checkpoint
from openset.cli import load_run_config
from openset.datastore import LabeledSet, fit_standardization, gen_gaussian_blobs
from openset.gradcore import DenseLayer
from openset.network import AugmentedLogits, SplitMlp
from openset.pipeline import prepare
from openset.trainer import TrainConfig, finetune_placeholders, pretrain_closed

REPO = Path(__file__).resolve().parent.parent


class TestLogitGaps:
    def test_single_instance(self):
        model = fixed_logit_model([[1.0, 2.0, 3.0]], [[0.5, 1.5]])
        np.testing.assert_allclose(logit_gaps(model, np.eye(1)), [1.5])

    def test_identical_heads_give_zero_gaps(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 3))
        model = SplitMlp(
            body=[DenseLayer(np.eye(4), np.zeros(4), "linear")],
            split_index=0,
            closed_head=DenseLayer(w.copy(), np.zeros(3), "linear"),
            dummy_head=DenseLayer(w.copy(), np.zeros(3), "linear"),
            input_dim=4,
        )
        gaps = logit_gaps(model, rng.standard_normal((10, 4)))
        np.testing.assert_allclose(gaps, 0.0, atol=1e-12)

    def test_length_matches_input(self):
        rng = np.random.default_rng(1)
        model = SplitMlp.create(3, 2, 2, rng)
        assert logit_gaps(model, rng.standard_normal((17, 3))).shape == (17,)

    def test_empty_set_rejected(self):
        model = SplitMlp.create(3, 2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            logit_gaps(model, np.zeros((0, 3)))


class TestCandidateBiases:
    def test_even_span(self):
        np.testing.assert_allclose(candidate_biases(np.array([0.0, 1.0]), intervals=4),
                                   [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_degenerate_span_collapses(self):
        np.testing.assert_array_equal(candidate_biases(np.array([0.7, 0.7, 0.7]), intervals=10), [0.7])

    def test_default_intervals_give_101_candidates(self):
        assert len(candidate_biases(np.array([0.0, 1.0]), CalibrationConfig().intervals)) == 101


class TestSelectBias:
    def test_below_min_accepts_everything(self):
        gaps = np.linspace(0.01, 1.0, 100)
        assert known_rate(gaps, gaps.min() - 1.0) == 1.0

    def test_above_max_rejects_everything(self):
        gaps = np.linspace(0.01, 1.0, 100)
        assert known_rate(gaps, gaps.max() + 1.0) == 0.0

    def test_hundred_even_gaps_admit_exactly_the_top_95(self):
        # direct enumeration oracle over the candidate grid
        gaps = np.linspace(0.01, 1.0, 100)
        candidates = candidate_biases(gaps, intervals=100)
        qualifying = [b for b in candidates if np.mean(gaps > b) >= 0.95]
        expected = max(qualifying)

        model = fixed_logit_model([[g, 0.0] for g in gaps], [[0.0]] * 100)
        result = select_bias(model, np.eye(100), target_rate=0.95, intervals=100)
        assert result.chosen_bias == pytest.approx(expected, abs=1e-12)
        assert result.achieved_known_rate == pytest.approx(0.95)
        assert (gaps > result.chosen_bias).sum() == 95
        assert result.target_met

    def test_rate_meets_target_whenever_any_candidate_does(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            gaps = rng.standard_normal(rng.integers(2, 60))
            model = fixed_logit_model([[g, -100.0] for g in gaps], [[0.0]] * len(gaps))
            candidates = candidate_biases(gaps, intervals=100)
            best = [b for b in candidates if known_rate(gaps, b) >= 0.95]
            result = select_bias(model, np.eye(len(gaps)), 0.95, 100)
            if best:
                assert result.target_met
                assert result.achieved_known_rate >= 0.95
                assert result.chosen_bias == pytest.approx(max(best), abs=1e-12)
            else:
                assert not result.target_met
                assert result.chosen_bias == pytest.approx(candidates[0], abs=1e-12)

    def test_the_blobs6_checkpoint_meets_a_target_of_one(self):
        # the chosen bias is the minimum gap, and predictions keep its row known
        model, _, _ = load_checkpoint(REPO / "out" / "blobs6" / "checkpoint.json")
        cfg = load_run_config(REPO / "configs" / "blobs6.json")
        _, val, _, _ = prepare(cfg.dataset.load(), cfg.split)
        result = select_bias(model, val.features, 1.0, cfg.calibration.intervals)
        kept = (model.augmented_logits(val.features).predictions(result.chosen_bias) < model.num_known).mean()
        assert result.achieved_known_rate == kept == 1.0
        assert result.target_met

    def test_known_rate_monotone_over_grid(self):
        rng = np.random.default_rng(3)
        gaps = rng.standard_normal(50)
        rates = [known_rate(gaps, b) for b in candidate_biases(gaps, intervals=100)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_calibration_never_touches_weights(self):
        data = gen_gaussian_blobs(3, 40, seed=5)
        stats = fit_standardization(data.features)
        data = LabeledSet(stats.apply(data.features), data.labels)
        cfg = TrainConfig(pretrain_epochs=20, finetune_epochs=5, batch_size=32, seed=5)
        model = pretrain_closed(data, cfg)
        finetune_placeholders(model, data, cfg)
        before = [p.copy() for p in model.parameters()]
        select_bias(model, data.features, 0.95, 100)
        for a, b in zip(model.parameters(), before):
            assert a.tobytes() == b.tobytes()

    def test_result_bounds(self):
        rng = np.random.default_rng(11)
        model = SplitMlp.create(2, 3, 2, rng)
        result = select_bias(model, rng.standard_normal((40, 2)), 0.95, 100)
        assert result.gap_min <= result.chosen_bias <= result.gap_max
        assert result.candidate_count == 101


def _select_bias_loop(gaps, target_rate: float, intervals: int) -> CalibrationResult:
    """The per-candidate loop `select_bias` replaced, kept as its oracle."""
    candidates = candidate_biases(gaps, intervals)
    chosen = None
    for bias in candidates:  # ascending; rate is non-increasing
        if known_rate(gaps, bias) >= target_rate:
            chosen = float(bias)
        else:
            break
    target_met = chosen is not None
    if chosen is None:
        chosen = float(candidates[0])
    return CalibrationResult(chosen_bias=chosen, achieved_known_rate=known_rate(gaps, chosen),
                             candidate_count=len(candidates), gap_min=float(gaps.min()),
                             gap_max=float(gaps.max()), target_met=target_met)


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0]), st.floats(-50.0, 50.0)),
                     min_size=1, max_size=40),
       target_rate=st.one_of(st.sampled_from([1.0, 0.95, 0.5, 0.1]), st.floats(0.0, 1.0, exclude_min=True)),
       intervals=st.integers(1, 300))
@example([0.7] * 5, 1.0, 100)
@example(np.linspace(0.01, 1.0, 100).tolist(), 0.95, 100)
@example([-1.0, 2.0, 2.0, 2.0], 1.0, 3)
def test_select_bias_equals_the_candidate_loop(gaps, target_rate, intervals):
    # gap i is closed logit i minus dummy logit 0, on the one-hot input i
    model = fixed_logit_model([[g, -100.0] for g in gaps], [[0.0]] * len(gaps))
    x = np.eye(len(gaps))
    want = _select_bias_loop(logit_gaps(model, x), target_rate, intervals)
    result = select_bias(model, x, target_rate, intervals)
    assert repr(asdict(result)) == repr(asdict(want))
    # predictions keep a row known exactly when its gap is at or above the bias
    kept = (model.augmented_logits(x).predictions(result.chosen_bias) < model.num_known).mean()
    assert result.achieved_known_rate == kept


@st.composite
def _logit_rows(draw):
    """(closed, dummy_max) of a few rows: tied values with signed zeros, or
    3 x standard-normal logits, where d + (c - d) <= c is false for about
    one row in seven."""
    n, k = draw(st.integers(1, 12)), draw(st.integers(2, 4))
    if draw(st.booleans()):
        tied = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])
        return draw(hnp.arrays(np.float64, (n, k), elements=tied)), draw(hnp.arrays(np.float64, n, elements=tied))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return 3.0 * rng.standard_normal((n, k)), 3.0 * rng.standard_normal(n)


class _ScoredAs:
    """A stand-in model: every set it scores gets these logits, signed zeros
    kept (a real head's zero bias turns -0.0 into 0.0)."""

    def __init__(self, closed, dummy_max):
        self.closed, self.dummy_max = closed, dummy_max

    def augmented_logits(self, features):
        return AugmentedLogits(self.closed.copy(), self.dummy_max.copy())


# 0.7 + (-1.4 - 0.7) rounds above -1.4
_ROUNDS_UP = (np.array([[-1.4, -2.0]]), np.array([0.7]))


@settings(max_examples=300, deadline=None)
@given(rows=_logit_rows())
@example(_ROUNDS_UP)
@example((np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [1.0, 1.0]]), np.array([0.0, -0.0, 0.0, 1.0])))
def test_knownness_predictions_and_calibration_gaps_apply_one_rule(rows):
    # with each row's own gap as the bias, every row sits at a tie or beside one
    closed, dummy_max = rows
    model = _ScoredAs(closed, dummy_max)
    gaps = logit_gaps(model, np.eye(len(closed)))
    aug = model.augmented_logits(None)
    for b in (*gaps.tolist(), 0.0, -0.0):
        known = gaps >= b
        np.testing.assert_array_equal(aug.knownness(b) >= 0, known, err_msg=f"knownness at bias {b!r}")
        np.testing.assert_array_equal(aug.predictions(b) != closed.shape[1], known, err_msg=f"predictions at bias {b!r}")


@settings(max_examples=200, deadline=None)
@given(rows=_logit_rows(), target_rate=st.sampled_from([0.95, 1.0]))
@example(_ROUNDS_UP, 1.0)
def test_select_bias_reports_the_share_predictions_keep_known(rows, target_rate):
    closed, dummy_max = rows
    model = fixed_logit_model(closed, dummy_max[:, None])
    x = np.eye(len(closed))
    result = select_bias(model, x, target_rate, 100)
    kept = (model.augmented_logits(x).predictions(result.chosen_bias) < model.num_known).mean()
    assert result.achieved_known_rate == kept
    assert result.target_met == (result.achieved_known_rate >= target_rate)
