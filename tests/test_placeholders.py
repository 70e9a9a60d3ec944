"""Placeholder losses: ground-truth masking, mixup pairing, gradient checks of
the pure losses and of the fine-tuning step that takes them."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    SPECIAL_VALUES,
    classifier_placeholder_oracle,
    cross_entropy_row_oracle,
    data_placeholder_oracle,
    finite_difference_gradients,
    gradients,
    rel_error,
    softmax_row_oracle,
    softmax_rows,
    zero_grads,
)
from openset.gradcore import cross_entropy_from_logits
from openset.network import SplitMlp
from openset.placeholders import (
    build_mix_pairs,
    loss_classifier_placeholder,
    loss_data_placeholder,
    masked_logits,
    MixPairs,
)
from openset.trainer import finetune_step


# combined logits (K + 1 columns, K >= 2) with NaN, signed zeros,
# infinities and ties drawn often
combined_logits = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 70), st.integers(3, 8)),
    elements=st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(-1e3, 1e3)),
)


def _same_bytes(result, expected) -> bool:
    (loss, grad), (expected_loss, expected_grad) = result, expected
    return (np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
            and grad.tobytes() == expected_grad.tobytes())


def _tiny_model(input_dim=3, num_known=3, num_dummy=2, seed=0, pre_widths=(4,), post_widths=(3,)):
    """Small net in general position: uniform random weights keep dummy
    columns and relu pre-activations away from finite-difference kinks."""
    rng = np.random.default_rng(seed)
    model = SplitMlp.create(input_dim, num_known, num_dummy, rng,
                            pre_widths=pre_widths, post_widths=post_widths)
    for layer in model.layers():
        layer.weights[:] = rng.uniform(-1.0, 1.0, size=layer.weights.shape)
        layer.biases[:] = rng.uniform(-0.5, 0.5, size=layer.biases.shape)
    return model


class TestMaskedLogits:
    def test_ground_truth_probability_vanishes(self):
        rng = np.random.default_rng(0)
        combined = rng.standard_normal((6, 4)) * 5
        targets = rng.integers(0, 3, size=6)
        probs = softmax_rows(masked_logits(combined, targets))
        assert np.all(probs[np.arange(6), targets] < 1e-300)

    def test_masked_softmax_matches_scalar_oracle(self):
        masked = masked_logits([[2.0, 1.0, 0.5]], [0])
        probs = softmax_rows(masked)[0]
        expected = softmax_row_oracle([1.0, 0.5])
        assert probs[0] < 1e-300
        np.testing.assert_allclose(probs[1:], expected, atol=1e-12)
        # frozen oracle values
        np.testing.assert_allclose(probs[1:], [0.6224593312018546, 0.3775406687981454], atol=1e-12)

    def test_masking_is_idempotent(self):
        combined = np.array([[2.0, 1.0, 0.5], [0.0, 3.0, 1.0]])
        targets = [0, 1]
        once = masked_logits(combined, targets)
        np.testing.assert_array_equal(masked_logits(once, targets), once)


class TestClassifierPlaceholderLoss:
    def test_beta_zero_is_plain_cross_entropy_bitwise(self):
        rng = np.random.default_rng(1)
        combined = rng.standard_normal((8, 4)) * 3
        y = rng.integers(0, 3, size=8)
        expected, expected_grad = cross_entropy_from_logits(combined, y)
        loss, grad = loss_classifier_placeholder(combined, y, beta=0.0)
        assert loss == expected
        assert grad.tobytes() == expected_grad.tobytes()

    def test_scalar_oracle_value(self):
        # K=2, combined [2, 1, 0.5], y=0, beta=1:
        # CE([2,1,0.5], 0) + CE([-inf,1,0.5], 2) = 0.46447 + 0.97407 = 1.43854
        term1 = cross_entropy_row_oracle([2.0, 1.0, 0.5], 0)
        term2 = cross_entropy_row_oracle([1.0, 0.5], 1)
        assert term1 == pytest.approx(0.4644, abs=1e-4)
        assert term2 == pytest.approx(0.9741, abs=1e-4)
        loss = loss_classifier_placeholder([[2.0, 1.0, 0.5]], [0], beta=1.0)[0]
        assert loss == pytest.approx(term1 + term2, rel=1e-12)
        assert loss == pytest.approx(1.4385, abs=1e-4)

    @given(combined=combined_logits, beta=st.sampled_from([0.0, 1.0, 0.3, 2.5]), data=st.data())
    @settings(max_examples=300)
    def test_keeps_the_bytes_of_two_cross_entropies(self, combined, beta, data):
        # one log-softmax over the rows stacked on their masked copy gives
        # the loss and gradient of the two-call composition, byte for byte
        num_known = combined.shape[1] - 1
        labels = data.draw(hnp.arrays(np.int64, combined.shape[0], elements=st.integers(0, num_known - 1)))
        with np.errstate(all="ignore"):
            assert _same_bytes(loss_classifier_placeholder(combined, labels, beta),
                               classifier_placeholder_oracle(combined, labels, beta))

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_gradients_match_finite_differences(self, beta):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            combined = rng.uniform(-2, 2, size=(6, 4))
            y = rng.integers(0, 3, size=6)
            fd = finite_difference_gradients(
                lambda: loss_classifier_placeholder(combined, y, beta)[0], [combined], h=1e-5,
            )[0]
            assert rel_error(loss_classifier_placeholder(combined, y, beta)[1], fd) <= 1e-4

    def test_perturbing_unselected_dummy_column_leaves_loss_unchanged(self):
        model = _tiny_model(num_dummy=2)
        # pin column 1 far below any reachable logit so it is never the max
        model.dummy_head.weights[:, 1] = 0.0
        model.dummy_head.biases[1] = -1000.0
        x = np.random.default_rng(3).uniform(-1, 1, size=(6, 3))
        y = np.random.default_rng(4).integers(0, 3, size=6)
        before = finetune_step(model, x, y, None, 1.0, 0.0, "hidden")[0]
        model.dummy_head.weights[:, 1] += 1e-3
        after = finetune_step(model, x, y, None, 1.0, 0.0, "hidden")[0]
        assert before == after


class _FixedRng:
    """Stands in for the generator `build_mix_pairs` draws from: a fixed
    permutation, then a fixed lambda."""

    def __init__(self, perm, lam=0.5):
        self.perm, self.lam = np.asarray(perm), lam

    def permutation(self, n):
        assert n == len(self.perm)
        return self.perm

    def beta(self, a, b):
        return self.lam


class TestMixPairs:
    def test_spec_enumeration(self):
        pairs = build_mix_pairs([0, 0, 1, 1], _FixedRng([2, 3, 0, 1], 0.25), 2.0)
        assert len(pairs) == 4
        np.testing.assert_array_equal(pairs.left, [0, 1, 2, 3])
        np.testing.assert_array_equal(pairs.right, [2, 3, 0, 1])
        assert pairs.lam == 0.25

    def test_identity_shuffle_gives_no_pairs(self):
        assert len(build_mix_pairs([0, 1, 2], _FixedRng([0, 1, 2]), 2.0)) == 0

    def test_all_labels_equal_gives_no_pairs(self):
        pairs = build_mix_pairs([3, 3, 3, 3], np.random.default_rng(0), 2.0)
        assert len(pairs) == 0

    def test_lambda_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pairs = build_mix_pairs([0, 1, 0, 1], rng, 2.0)
            assert 0.0 <= pairs.lam <= 1.0

    @given(labels=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=32),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200)
    def test_no_same_class_pair_survives(self, labels, seed):
        pairs = build_mix_pairs(labels, np.random.default_rng(seed), 2.0)
        labels = np.asarray(labels)
        assert np.all(labels[pairs.left] != labels[pairs.right])
        assert len(pairs) <= len(labels)

    @given(labels=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=64),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200)
    def test_no_index_repeats_within_left_or_right(self, labels, seed):
        # `unmix` scatters with fancy +=, which equals np.add.at only
        # without repeats
        rng = np.random.default_rng(seed)
        pairs = build_mix_pairs(labels, rng, 2.0)
        assert np.all(np.diff(pairs.left) > 0)
        assert len(np.unique(pairs.right)) == len(pairs.right)
        d_mixed = rng.standard_normal((len(pairs), 2))
        at = np.zeros((len(labels), 2))
        np.add.at(at, pairs.left, pairs.lam * d_mixed)
        np.add.at(at, pairs.right, (1.0 - pairs.lam) * d_mixed)
        assert pairs.unmix(d_mixed, len(labels)).tobytes() == at.tobytes()


class TestMixHidden:
    """`MixPairs.mix`, which mixes the pre-embeddings (hidden mode) or the
    raw rows (input mode), and the pair sets it accepts."""

    def _pairs(self, lam):
        return MixPairs(np.arange(3), np.arange(3, 6), lam)

    def test_lambda_one_returns_left_exactly(self):
        rows = np.random.default_rng(0).standard_normal((6, 4))
        np.testing.assert_array_equal(self._pairs(1.0).mix(rows), rows[:3])

    def test_lambda_zero_returns_right_exactly(self):
        rows = np.random.default_rng(1).standard_normal((6, 4))
        np.testing.assert_array_equal(self._pairs(0.0).mix(rows), rows[3:])

    def test_midpoint(self):
        mixed = MixPairs(np.array([0]), np.array([1]), 0.5).mix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        np.testing.assert_allclose(mixed, [[1.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("lam", [-0.1, 1.1, math.nan])
    def test_lambda_out_of_range(self, lam):
        with pytest.raises(ValueError, match="lambda must be in"):
            self._pairs(lam)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="2 left indices for 1 right indices"):
            MixPairs(np.array([0, 1]), np.array([2]), 0.5)


def step_loss(model, x, y, pairs, beta, gamma, mode) -> float:
    """The loss whose gradient one `finetune_step` writes: l1 + gamma * l2."""
    l1, l2, _, _ = finetune_step(model, x, y, pairs, beta, gamma, mode)
    return l1 + gamma * l2


class TestDataPlaceholderLoss:
    def test_empty_pairs_contribute_zero(self):
        # a batch whose second half is one class draws no pairs; its step
        # is the no-mix step, byte for byte, in either mix mode
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 3))
        y = np.array([0, 1, 2, 0, 1, 1, 1, 1])
        pairs = build_mix_pairs(y[4:], rng, 2.0)
        assert len(pairs) == 0
        reference = _tiny_model()
        zero_grads(reference)
        expected = finetune_step(reference, x, y, None, 1.0, 0.0, "hidden")
        for mode in ("hidden", "input"):
            model = _tiny_model()
            zero_grads(model)
            l1, l2, closed, _ = finetune_step(model, x, y, pairs, 1.0, 0.5, mode)
            assert (l1, l2) == (expected[0], 0.0)
            assert closed.tobytes() == expected[2].tobytes()
            assert [g.tobytes() for g in gradients(model)] == [g.tobytes() for g in gradients(reference)]

    @given(combined=combined_logits)
    @settings(max_examples=300)
    def test_keeps_the_bytes_of_one_cross_entropy(self, combined):
        with np.errstate(all="ignore"):
            assert _same_bytes(loss_data_placeholder(combined), data_placeholder_oracle(combined))

    def test_uniform_combined_logits_give_log_k_plus_one(self):
        loss, _ = loss_data_placeholder(np.zeros((2, 4)))
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_d_combined_matches_finite_differences(self):
        for seed in range(5):
            combined = np.random.default_rng(300 + seed).uniform(-2, 2, size=(5, 4))
            fd = finite_difference_gradients(lambda: loss_data_placeholder(combined)[0], [combined], h=1e-5)[0]
            assert rel_error(loss_data_placeholder(combined)[1], fd) <= 1e-4

    @pytest.mark.parametrize("mode", ["hidden", "input"])
    def test_gradients_match_finite_differences(self, mode):
        # the whole step: both losses, one forward, one backward
        for beta in (0.0, 1.0):
            for seed in range(5):
                model = _tiny_model(seed=seed)
                rng = np.random.default_rng(200 + seed)
                x = rng.uniform(-1, 1, size=(6, 3))
                y = rng.integers(0, 3, size=6)
                pairs = MixPairs(np.array([0, 1, 2]), np.array([2, 0, 1]), 0.3)
                fd = finite_difference_gradients(
                    lambda: step_loss(model, x, y, pairs, beta, 0.5, mode), model.parameters(), h=1e-5,
                )
                # the step writes every layer's gradients: NaN left in the
                # buffers must not survive it
                for grad in gradients(model):
                    grad.fill(np.nan)
                finetune_step(model, x, y, pairs, beta, 0.5, mode)
                for analytic, numeric in zip(gradients(model), fd):
                    assert rel_error(analytic, numeric) <= 1e-4

    def test_left_branch_gradient_scales_with_lambda(self):
        # with an identity pre-embedding, d l2 / d x_left = lam * d l2 / d mixed
        model = _tiny_model(pre_widths=(), post_widths=(3,))
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(4, 3))
        y = np.array([0, 1, 0, 1])
        lam = 0.3
        pairs = MixPairs(np.array([0]), np.array([1]), lam)

        fd_x = finite_difference_gradients(
            lambda: finetune_step(model, x, y, pairs, 1.0, 1.0, "hidden")[1], [x], h=1e-5
        )[0]

        mixed = (lam * x[2] + (1.0 - lam) * x[3])[None, :]

        def loss_of_mixed():
            aug = model.heads_from_embedding(model.embed_post(mixed))
            return cross_entropy_from_logits(aug.combined, [model.num_known])[0]

        fd_mixed = finite_difference_gradients(loss_of_mixed, [mixed], h=1e-5)[0]
        assert not fd_x[:2].any()
        assert rel_error(fd_x[2], lam * fd_mixed[0]) <= 1e-4
        assert rel_error(fd_x[3], (1.0 - lam) * fd_mixed[0]) <= 1e-4
