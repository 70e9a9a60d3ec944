"""Split model: augmented logits, open-set prediction, scores, checkpoints."""

from __future__ import annotations

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import fixed_logit_model, gradients, json_paths, kernel_note, softmax_rows
from openset import network
from openset.calibration import logit_gaps
from openset.checkpoint import (
    CheckpointError,
    checkpoint_text,
    load_checkpoint,
    save_checkpoint,
)
from openset.datastore import Standardization
from openset.gradcore import DenseLayer
from openset.network import (
    SCORE_ALIGN,
    SCORE_CHUNK,
    AugmentedLogits,
    SplitMlp,
    backward_layers,
    baseline_confidence,
    forward_layers,
    knownness_score,
    predict_open,
    split_combined_grad,
)
from openset.trainer import TrainConfig

BLOBS6_CHECKPOINT = Path(__file__).resolve().parent.parent / "out" / "blobs6" / "checkpoint.json"


_json_values = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 2, 3, 32, 64, 0.0, -0.0, 1.5, -1.0, 1e308, 10 ** 400,
                     math.nan, math.inf, "", "2", "1.5", "relu", "tanh", [], {}, [0.0], [[1.0]]]),
    st.integers(-5, 100), st.floats(allow_nan=True, allow_infinity=True),
)

_special_logits = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 2.0,
                                             1e308, -1e308, 5e-324, -5e-324]),
                            st.floats(-3.0, 3.0))


# few values, so that rows tie, between -0.0 and 0.0 too
_tied_logits = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 2.0])


class TestEmbedding:
    def test_empty_pre_layers_are_identity(self):
        rng = np.random.default_rng(0)
        model = SplitMlp.create(3, 2, 1, rng, pre_widths=(), post_widths=(4,))
        x = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(forward_layers(model.body[:model.split_index], x), x)

    def test_identity_layer_passthrough(self):
        rng = np.random.default_rng(0)
        model = SplitMlp.create(3, 2, 1, rng, pre_widths=(3,), post_widths=(4,))
        model.body[0] = DenseLayer(np.eye(3), np.zeros(3), "linear")
        x = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(forward_layers(model.body[:model.split_index], x), x)

    def test_seeded_construction_is_bytes_stable(self):
        x = np.random.default_rng(99).standard_normal((4, 3))
        outs = []
        for _ in range(2):
            model = SplitMlp.create(3, 2, 2, np.random.default_rng(7), pre_widths=(8, 8),
                                    post_widths=(4,))
            outs.append(forward_layers(model.body, x))
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_pack_makes_layers_views_of_two_flat_buffers(self):
        model = SplitMlp.create(3, 2, 2, np.random.default_rng(7), pre_widths=(8,), post_widths=(4,))
        for layer in model.layers():
            layer.grad_weights += 1.0
        before = [p.copy() for p in model.parameters()]
        params, grads = model.pack()
        assert params.size == grads.size == sum(p.size for p in before)
        for p, old in zip(model.parameters(), before):
            assert p.shape == old.shape and p.tobytes() == old.tobytes()
        assert not grads.any()
        params += 1.0
        grads += 2.0
        for p, old, g in zip(model.parameters(), before, gradients(model)):
            np.testing.assert_array_equal(p, old + 1.0)
            np.testing.assert_array_equal(g, 2.0)

    def test_backward_layers_without_input_grad_returns_none(self):
        model = SplitMlp.create(3, 2, 1, np.random.default_rng(0), pre_widths=(4, 4))
        pre = model.body[:model.split_index]
        tape = [np.ones((2, 3))]
        h = forward_layers(pre, tape[0], tape)
        assert backward_layers(pre, np.ones_like(h), tape, input_grad=False) is None
        assert len(tape) == 1
        assert all(layer.grad_weights.any() for layer in pre)

    def test_shape_mismatch(self):
        model = SplitMlp.create(3, 2, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward_layers(model.body[:model.split_index], np.zeros((1, 4)))

    def test_empty_post_widths_are_refused(self):
        # without the check, the pre-layers' output would silently become the embedding
        with pytest.raises(ValueError, match="post_widths must contain at least the embedding width"):
            SplitMlp.create(3, 2, 1, np.random.default_rng(0), post_widths=())

    @pytest.mark.parametrize("split_index,message", [(-1, "split_index must be an integer of at least 0, got -1"),
                                                     (3, "split_index must be at most 2, got 3")])
    def test_a_split_index_outside_the_body_is_refused(self, split_index, message):
        model = SplitMlp.create(3, 2, 1, np.random.default_rng(0), pre_widths=(4,), post_widths=(4,))
        with pytest.raises(ValueError, match=re.escape(message)):
            SplitMlp(model.body, split_index, model.closed_head, model.dummy_head, model.input_dim)

    def test_scoring_input_of_another_width_is_refused_naming_both(self):
        model = SplitMlp.create(3, 2, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match=re.escape("input shape (4, 5) does not match input dimension 3")):
            model.augmented_logits(np.zeros((4, 5)))


def _heads(model, x):
    """The training forward's heads on `x`, which keep every dummy logit."""
    return model.heads_from_embedding(forward_layers(model.body, x))


class TestAugmentedLogits:
    def test_single_dummy_column(self):
        model = fixed_logit_model([[1.0, 2.0, 3.0]], [[1.5]])
        aug = model.augmented_logits(np.eye(1))
        np.testing.assert_array_equal(aug.combined, [[1.0, 2.0, 3.0, 1.5]])

    def test_max_selection(self):
        model = fixed_logit_model([[1.0, 2.0, 3.0]], [[0.5, 1.5]])
        aug = model.augmented_logits(np.eye(1))
        np.testing.assert_array_equal(aug.combined, [[1.0, 2.0, 3.0, 1.5]])
        assert _heads(model, np.eye(1)).dummy_argmax[0] == 1

    def test_duplicate_max_takes_lowest_index(self):
        model = fixed_logit_model([[0.0, 0.0]], [[2.0, 2.0, 1.0]])
        assert _heads(model, np.eye(1)).dummy_argmax[0] == 0

    def test_combined_always_k_plus_one_columns(self):
        rng = np.random.default_rng(1)
        for c in (1, 2, 5):
            model = SplitMlp.create(3, 4, c, rng, pre_widths=(4,), post_widths=(4,))
            aug = model.augmented_logits(rng.standard_normal((2, 3)))
            assert aug.combined.shape == (2, 5)
            np.testing.assert_array_equal(aug.combined[:, :4], aug.closed)

    def test_combined_grad_routes_to_argmax_column_only(self):
        model = fixed_logit_model([[1.0, 2.0]], [[0.5, 1.5, -1.0]])
        heads = _heads(model, np.eye(1))
        d_closed, d_dummy = split_combined_grad(heads, np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(d_closed, [[1.0, 2.0]])
        np.testing.assert_array_equal(d_dummy, [[0.0, 3.0, 0.0]])

    def test_scored_result_holds_k_plus_one_numbers_per_row(self):
        rng = np.random.default_rng(2)
        model = SplitMlp.create(3, 4, 5, rng, pre_widths=(6,), post_widths=(5,))
        n = SCORE_CHUNK * 2 + 3
        aug = model.augmented_logits(rng.standard_normal((n, 3)))
        assert sum(a.nbytes for a in vars(aug).values()) == n * (4 + 1) * 8

    def test_scoring_equals_the_training_heads(self):
        rng = np.random.default_rng(3)
        model = SplitMlp.create(3, 4, 5, rng, pre_widths=(6,), post_widths=(5,))
        x = rng.standard_normal((30, 3))
        aug, heads = model.augmented_logits(x), _heads(model, x)
        for name, scored in vars(aug).items():
            assert scored.tobytes() == getattr(heads, name).tobytes()
        assert aug.combined.tobytes() == heads.combined.tobytes()


class TestPredictOpen:
    def test_bias_pushes_to_unknown(self):
        model = fixed_logit_model([[1.0, 2.0, 3.0]], [[1.5]])
        model.calibration_bias = 2.0
        assert predict_open(model, np.eye(1))[0] == 3  # 3.5 > 3

    def test_negative_bias_keeps_known(self):
        model = fixed_logit_model([[1.0, 2.0, 3.0]], [[1.5]])
        model.calibration_bias = -10.0
        assert predict_open(model, np.eye(1))[0] == 2

    def test_exact_tie_resolves_to_known(self):
        model = fixed_logit_model([[3.0, 1.0]], [[3.0]])
        assert predict_open(model, np.eye(1), bias=0.0)[0] == 0

    def test_extreme_negative_bias_reduces_to_closed_argmax(self):
        rng = np.random.default_rng(2)
        model = SplitMlp.create(3, 4, 3, rng, pre_widths=(6,), post_widths=(5,))
        x = rng.standard_normal((50, 3))
        preds = predict_open(model, x, bias=-1e9)
        np.testing.assert_array_equal(preds, model.augmented_logits(x).closed.argmax(axis=1))

    def test_extreme_positive_bias_rejects_everything(self):
        rng = np.random.default_rng(2)
        model = SplitMlp.create(3, 4, 3, rng, pre_widths=(6,), post_widths=(5,))
        x = rng.standard_normal((50, 3))
        assert (predict_open(model, x, bias=1e9) == 4).all()

    def test_known_fraction_non_increasing_in_bias(self):
        rng = np.random.default_rng(3)
        model = SplitMlp.create(2, 3, 2, rng, pre_widths=(8,), post_widths=(4,))
        x = rng.standard_normal((200, 2))
        fractions = [
            float((predict_open(model, x, bias=b) < 3).mean())
            for b in np.linspace(-5.0, 5.0, 101)
        ]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    @settings(max_examples=500, deadline=None)
    @given(logits=hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(3, 5)), elements=_tied_logits),
           bias=st.one_of(_tied_logits, st.sampled_from([0.5, -0.5, 1.5, -1.5])))
    @example(np.array([[1.0, 1.0, 1.0], [np.nan, 2.0, np.inf], [-np.inf, -np.inf, -np.inf],
                       [0.0, -0.0, -0.0], [-0.0, 0.0, 0.0], [1.0, np.nan, np.nan]]), 0.0)
    @example(np.array([[np.inf, 1.0, np.inf], [2.0, 1.0, np.inf]]), -np.inf)
    @example(np.array([[2.0, 1.0, 1.0], [0.0, -0.0, 1.0], [-1.0, 2.0, 0.0]]), 1.0)
    def test_equals_the_argmax_of_the_concatenation(self, logits, bias):
        # the last column is the dummy maximum. Where every sum is exact (small
        # integers and halves, signed zeros, infinite or NaN bias), `gap >= b`
        # and the argmax over [closed, dummy_max + b] decide alike, ties known;
        # a non-finite gap raises instead
        closed, dummy_max = logits[:, :-1], logits[:, -1]
        aug = AugmentedLogits(closed, dummy_max)
        with np.errstate(invalid="ignore", over="ignore"):
            if not np.isfinite(closed.max(axis=1, initial=-np.inf) - dummy_max).all():
                with pytest.raises(ValueError, match="non-finite"):
                    aug.predictions(bias)
                return
            for b in (bias, -bias):  # a second read must find the cached gap as it was
                want = np.concatenate([closed, (dummy_max + b)[:, None]], axis=1).argmax(axis=1)
                got = aug.predictions(b)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestScores:
    def test_knownness_value(self):
        model = fixed_logit_model([[1.0, 2.0, 3.0]], [[1.5]])
        assert knownness_score(model, np.eye(1), bias=0.0)[0] == pytest.approx(1.5)

    def test_bias_shifts_scores_exactly(self):
        rng = np.random.default_rng(4)
        model = SplitMlp.create(2, 3, 2, rng)
        x = rng.standard_normal((10, 2))
        base = knownness_score(model, x, bias=0.0)
        shifted = knownness_score(model, x, bias=0.7)
        np.testing.assert_allclose(shifted, base - 0.7, atol=1e-12)

    def test_closed_only_shift_changes_scores(self):
        # shifting closed logits without the dummy moves the score: not shift-invariant
        model = fixed_logit_model([[1.0, 2.0, 3.0]], [[1.5]])
        shifted = fixed_logit_model([[2.0, 3.0, 4.0]], [[1.5]])
        a = knownness_score(model, np.eye(1), bias=0.0)[0]
        b = knownness_score(shifted, np.eye(1), bias=0.0)[0]
        assert a != b

    def test_baseline_confidence_uniform(self):
        model = fixed_logit_model([[0.0, 0.0, 0.0, 0.0]], [[5.0]])
        assert baseline_confidence(model, np.eye(1))[0] == pytest.approx(0.25)

    def test_baseline_confidence_extreme(self):
        model = fixed_logit_model([[10.0, -10.0]], [[0.0]])
        expected = 1.0 / (1.0 + math.exp(-20.0))
        assert baseline_confidence(model, np.eye(1))[0] == pytest.approx(expected, rel=1e-12)

    def test_baseline_confidence_in_unit_interval(self):
        rng = np.random.default_rng(5)
        model = SplitMlp.create(3, 4, 2, rng)
        conf = baseline_confidence(model, rng.standard_normal((100, 3)))
        assert np.all(conf > 0.0) and np.all(conf <= 1.0)

    @pytest.mark.parametrize("bias", [None, -0.4])
    def test_wrappers_equal_the_augmented_logits_methods_bit_for_bit(self, bias):
        rng = np.random.default_rng(6)
        model = SplitMlp.create(3, 4, 3, rng, pre_widths=(6,), post_widths=(5,))
        model.calibration_bias = 0.25
        x = rng.standard_normal((40, 3))
        aug = model.augmented_logits(x)
        b = model.calibration_bias if bias is None else bias
        kwargs = {} if bias is None else {"bias": bias}
        assert predict_open(model, x, **kwargs).tobytes() == aug.predictions(b).tobytes()
        assert knownness_score(model, x, **kwargs).tobytes() == aug.knownness(b).tobytes()
        assert baseline_confidence(model, x).tobytes() == aug.max_softmax().tobytes()
        assert logit_gaps(model, x).tobytes() == aug.gap.tobytes()

    @settings(max_examples=500, deadline=None)
    @given(closed=hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(1, 5)),
                             elements=_special_logits))
    @example(np.array([[0.0, -0.0], [-0.0, 0.0], [1e308, -1e308], [5e-324, -5e-324], [2.0, 2.0]]))
    @example(np.array([[np.inf, 1.0], [-np.inf, -np.inf], [np.nan, 1.0], [np.inf, np.inf]]))
    def test_max_softmax_equals_the_row_max_of_the_softmax_matrix(self, closed):
        aug = AugmentedLogits(closed, np.zeros(len(closed)))
        with np.errstate(all="ignore"):
            want = softmax_rows(closed).max(axis=1)
            if np.isfinite(want).all():
                assert aug.max_softmax().tobytes() == want.tobytes()
            else:
                with pytest.raises(ValueError, match="non-finite"):
                    aug.max_softmax()

    @pytest.mark.parametrize("rows", [[[0.0, -1.0], [-0.0, 0.0], [0.0, -0.0]],
                                      [[-0.0, -1.0], [-0.0, -0.0], [-np.inf, -0.0]],
                                      [[np.nan, 1.0], [1.0, np.nan], [-np.inf, np.nan]], [[-np.inf, -np.inf]]],
                             ids=["max +0.0", "max -0.0", "max NaN", "max -inf"])
    def test_max_softmax_keeps_the_bytes_of_the_short_axis_max(self, rows, monkeypatch):
        # the reference shifts by the short-axis `closed.max`; raw bytes, before the non-finite check
        closed = np.array(rows)
        monkeypatch.setattr("openset.network._finite", lambda scores: scores)
        with np.errstate(invalid="ignore"):
            want = 1.0 / np.exp(closed - closed.max(axis=1, keepdims=True)).sum(axis=1)
            assert AugmentedLogits(closed, np.zeros(len(closed))).max_softmax().tobytes() == want.tobytes()

    @settings(max_examples=500, deadline=None)
    @given(logits=hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(2, 6)),
                             elements=st.one_of(_tied_logits, _special_logits)),
           bias=_special_logits)
    @example(np.array([[1.0, 1.0, 1.0], [np.nan, 2.0, np.inf], [-np.inf, -np.inf, -np.inf],
                       [0.0, -0.0, -0.0], [-0.0, 0.0, 0.0], [1.0, np.nan, np.nan]]), 0.0)
    @example(np.array([[np.inf, 1.0, np.inf], [2.0, 1.0, np.inf]]), -np.inf)
    @example(np.array([[-0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, 0.0], [2.0, 2.0, 1.0]]), 0.0)
    @example(np.array([[-1.0, -0.0, 0.0, -0.0], [np.nan, 0.0, -0.0, 0.0], [-np.inf, -0.0, 0.0, 0.0]]), -0.0)
    def test_knownness_and_predictions_equal_the_gap_rule_byte_for_byte(self, logits, bias):
        # the last column is the dummy max. The gap is the closed logit at the
        # first argmax (the first NaN, if any) minus the dummy max; at bias b
        # the knownness is gap - b, and a row keeps its argmax where gap >= b,
        # else gets K. Ties, signed zeros, infinities and NaN in any column or
        # in the bias; a non-finite gap raises in every reader
        closed, dummy_max = logits[:, :-1], logits[:, -1]
        aug = AugmentedLogits(closed, dummy_max)
        labels = closed.argmax(axis=1)
        with np.errstate(invalid="ignore", over="ignore"):
            gap = closed[np.arange(len(closed)), labels] - dummy_max
            if not np.isfinite(gap).all():
                for read in (lambda: aug.gap, lambda: aug.knownness(bias), lambda: aug.predictions(bias)):
                    with pytest.raises(ValueError, match="non-finite"):
                        read()
                return
            assert aug.gap.tobytes() == gap.tobytes()
            for b in (bias, -bias):  # a second read must find the cached gap as it was
                want = np.where(gap >= b, labels, closed.shape[1])
                got = aug.predictions(b)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                assert aug.knownness(b).tobytes() == (gap - b).tobytes()

    @settings(max_examples=500, deadline=None)
    @given(logits=hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(2, 6)), elements=_tied_logits),
           bias=_tied_logits)
    @example(np.array([[-0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, 0.0], [2.0, 2.0, 1.0]]), 0.0)
    @example(np.array([[-1.0, -0.0, 0.0, -0.0], [np.nan, 0.0, -0.0, 0.0], [-np.inf, -0.0, 0.0, 0.0]]), -0.0)
    def test_knownness_equals_the_row_max_minus_the_biased_dummy(self, logits, bias):
        # on exact values the knownness is the row max minus the biased dummy;
        # the sign of a zero score follows the first argmax, which the gap-rule
        # test pins byte for byte, so values are compared here, NaN equal to NaN.
        # A non-finite gap raises; an infinite or NaN bias passes through
        closed, dummy_max = logits[:, :-1], logits[:, -1]
        aug = AugmentedLogits(closed, dummy_max)
        with np.errstate(invalid="ignore"):
            if not np.isfinite(closed.max(axis=1) - dummy_max).all():
                with pytest.raises(ValueError, match="non-finite"):
                    aug.knownness(bias)
                return
            want = closed.max(axis=1) - (dummy_max + bias)
            got = aug.knownness(bias)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_non_finite_scores_raise_with_their_count(self):
        model = fixed_logit_model([[1.0, 0.0], [1.0, 2.0], [3.0, 0.0]], [[0.5], [1.5], [0.0]])
        x = np.eye(3)
        x[0, 0], x[2, 2] = np.nan, np.inf  # rows 0 and 2 turn non-finite
        with np.errstate(invalid="ignore"):
            aug = model.augmented_logits(x)
        for read in (aug.knownness, aug.predictions):
            with pytest.raises(ValueError, match="2 of 3 scores are non-finite"):
                read(0.0)
        with pytest.raises(ValueError, match="2 of 3 scores are non-finite"):
            aug.max_softmax()


def _one_pass(model, x):
    """Reference scoring: one gemm per layer over all rows at once."""
    def affine(layer, h):
        out = h @ layer.weights + layer.biases
        return np.maximum(out, 0.0) if layer.activation == "relu" else out

    h = x
    for layer in model.body:
        h = affine(layer, h)
    return AugmentedLogits(affine(model.closed_head, h), affine(model.dummy_head, h).max(axis=1))


def _assert_same_bytes(aug, reference, note=""):
    """Every field of the scoring result, and the combined logits, byte for
    byte; `note` is added to the failure message."""
    assert vars(aug).keys() == vars(reference).keys()
    for name, value in vars(aug).items():
        assert value.tobytes() == getattr(reference, name).tobytes(), f"{name} {note}"
    assert aug.combined.tobytes() == reference.combined.tobytes(), f"combined {note}"


def _blobs6_grid(resolution=300):
    """The inputs of `boundary-grid --resolution 300 --range -7 7 -7 7` on
    the committed blobs6 checkpoint: 90k rows."""
    model, _, stats = load_checkpoint(BLOBS6_CHECKPOINT)
    axis = np.linspace(-7.0, 7.0, resolution)
    gx, gy = np.meshgrid(axis, axis)
    return model, stats.apply(np.column_stack([gx.ravel(), gy.ravel()]))


class TestStatelessScoring:
    def test_scoring_leaves_every_layer_as_it_was(self):
        model = SplitMlp.create(3, 4, 2, np.random.default_rng(0), pre_widths=(6,), post_widths=(5,))
        before = [dict(vars(layer)) for layer in model.layers()]
        model.augmented_logits(np.random.default_rng(1).standard_normal((SCORE_CHUNK * 2, 3)))
        for layer, old in zip(model.layers(), before):
            assert vars(layer).keys() == old.keys()
            assert all(vars(layer)[key] is value for key, value in old.items())

    @pytest.mark.parametrize("rows", [SCORE_CHUNK + 5, SCORE_CHUNK + 1])
    def test_chunked_scoring_matches_one_pass_on_a_wide_input_layer(self, rows):
        # BLAS rounds a 784-input gemm of under ~20 rows differently from the
        # same rows inside a big batch, so a short tail chunk would show here
        rng = np.random.default_rng(8)
        model = SplitMlp.create(784, 6, 5, rng)
        x = rng.standard_normal((rows, 784))
        _assert_same_bytes(model.augmented_logits(x), _one_pass(model, x))

    @pytest.mark.parametrize("rows", [2 * SCORE_CHUNK - 1, SCORE_CHUNK + 1, 90_000])
    def test_no_scoring_pass_holds_more_than_score_chunk_rows(self, monkeypatch, rows):
        passes = []
        walk = network.forward_layers

        def spied(layers, h, tape=None):
            passes.append(len(h))
            return walk(layers, h, tape)

        monkeypatch.setattr(network, "forward_layers", spied)
        model = SplitMlp.create(2, 3, 2, np.random.default_rng(4), pre_widths=(4,), post_widths=(3,))
        model.augmented_logits(np.random.default_rng(5).standard_normal((rows, 2)))
        assert sum(passes) == rows
        assert max(passes) <= SCORE_CHUNK, passes
        # each pass starts at a multiple of SCORE_ALIGN, and none is short
        assert all(n % SCORE_ALIGN == 0 for n in passes[:-1]), passes
        assert min(passes) > SCORE_CHUNK // 2 - SCORE_ALIGN, passes

    def test_chunked_scoring_matches_one_pass_on_the_blobs6_checkpoint(self):
        model, grid = _blobs6_grid()
        x = grid[:2 * SCORE_CHUNK + 1]
        _assert_same_bytes(model.augmented_logits(x), _one_pass(model, x), kernel_note())

    @staticmethod
    def _scoring_peak() -> float:
        """Traced bytes at the peak of scoring the 90k-row blobs6 grid."""
        model, grid = _blobs6_grid()
        tracemalloc.start()
        try:
            aug = model.augmented_logits(grid)
            aug.knownness(model.calibration_bias)
            aug.predictions(model.calibration_bias)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) == 90_000
        return peak

    def test_scoring_90k_rows_holds_bounded_memory(self):
        peak = self._scoring_peak()
        assert peak < 40e6, f"scoring peaked at {peak / 1e6:.1f} MB"

    def test_scoring_fills_one_result_without_a_second_copy(self):
        # concatenating chunk results held the result twice and peaked at 28.8 MB
        peak = self._scoring_peak()
        assert peak < 24e6, f"scoring peaked at {peak / 1e6:.1f} MB"

    def test_scoring_holds_only_the_closed_logits_and_the_dummy_max(self):
        # 90k rows x (K+1) = 7 float64 columns are 5.04 MB; a result that also
        # held every dummy logit, their argmax and the combined logits took
        # 14.4 MB and peaked at 19.6 MB
        peak = self._scoring_peak()
        assert peak < 12e6, f"scoring peaked at {peak / 1e6:.1f} MB"


def _as_format_1(doc):
    """Rewrite a format-2 checkpoint document in format 1, which split the
    body at the mix index into pre_layers and post_layers, declared the
    widths in an architecture block and each layer's in and out."""
    body = [{"in": len(layer["weights"]), "out": len(layer["biases"]), **layer}
            for layer in doc.pop("body")]
    split = doc.pop("split_index")
    heads = {key: {"in": len(doc[key]["weights"]), "out": len(doc[key]["biases"]), **doc.pop(key)}
             for key in ("closed_head", "dummy_head")}
    arch = {"input_dim": doc.pop("input_dim"), "split_index": split,
            "num_known": heads["closed_head"]["out"], "num_dummy": heads["dummy_head"]["out"]}
    doc.update({"format_version": 1, "architecture": arch, "pre_layers": body[:split],
                "post_layers": body[split:], **heads})


class TestCheckpoint:
    def _model_and_config(self, pre_widths=(5,)):
        rng = np.random.default_rng(17)
        model = SplitMlp.create(3, 3, 2, rng, pre_widths=pre_widths, post_widths=(4,))
        model.calibration_bias = 0.321
        stats = Standardization(np.array([0.5, -1.0, 2.0]), np.array([1.0, 0.25, 3.0]))
        return model, TrainConfig(seed=17), stats

    @pytest.mark.parametrize("pre_widths", [(), (5,)], ids=["split_0", "split_1"])
    def test_round_trip_logits_bit_exact(self, tmp_path, pre_widths):
        model, config, stats = self._model_and_config(pre_widths)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, config, stats)
        loaded, loaded_config, loaded_stats = load_checkpoint(path)
        x = np.random.default_rng(0).standard_normal((10, 3))
        assert model.augmented_logits(x).combined.tobytes() == \
            loaded.augmented_logits(x).combined.tobytes()
        assert loaded.split_index == model.split_index == len(pre_widths)
        assert loaded.calibration_bias == model.calibration_bias
        assert loaded_config == config
        assert loaded_stats.mean.tobytes() == stats.mean.tobytes()
        assert loaded_stats.std.tobytes() == stats.std.tobytes()

    def test_wide_checkpoint_save_load_save_is_byte_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        model = SplitMlp.create(784, 6, 5, rng)
        model.calibration_bias = float(rng.standard_normal())
        stats = Standardization(rng.standard_normal(784), rng.uniform(0.1, 3.0, 784))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_checkpoint(first, model, TrainConfig(seed=5), stats)
        save_checkpoint(second, *load_checkpoint(first))
        text = first.read_text()
        assert second.read_text() == text
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_serialisation_is_deterministic(self):
        a = checkpoint_text(*self._model_and_config())
        b = checkpoint_text(*self._model_and_config())
        assert a == b

    def test_version_mismatch_names_versions(self, tmp_path):
        path = tmp_path / "model.json"
        for edit, version in ((lambda doc: doc.update(format_version=99), 99), (_as_format_1, 1)):
            doc = json.loads(checkpoint_text(*self._model_and_config()))
            assert doc["format_version"] == 2
            edit(doc)
            path.write_text(json.dumps(doc))
            with pytest.raises(CheckpointError, match=f"version {version}, this build reads version 2"):
                load_checkpoint(path)

    def test_corrupt_checkpoint(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json at all {")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_mutated_value_loads_a_working_model_or_raises_checkpoint_error(self, tmp_path, data):
        doc = json.loads(checkpoint_text(*self._model_and_config()))
        paths = list(json_paths(doc))
        *parents, key = data.draw(st.sampled_from(paths))
        container = doc
        for step in parents:
            container = container[step]
        if isinstance(container, dict) and data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(_json_values)
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
        try:
            loaded, _, loaded_stats = load_checkpoint(path)
        except CheckpointError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        x = np.zeros((3, loaded.input_dim))
        with np.errstate(all="ignore"):
            aug = loaded.augmented_logits(loaded_stats.apply(x))
        assert aug.closed.shape == (3, loaded.num_known)

    def test_non_finite_weights_are_refused_and_nothing_is_written(self, tmp_path):
        model, config, stats = self._model_and_config()
        model.closed_head.biases[0] = np.nan
        path = tmp_path / "model.json"
        with pytest.raises(ValueError):
            save_checkpoint(path, model, config, stats)
        assert not path.exists()
