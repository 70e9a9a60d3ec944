"""The two placeholder losses and the within-batch mixup of the data placeholder.

Both losses map float64 (K+1)-column combined logits and int64 labels to
(loss, gradient of the logits), know nothing of the network, and check
nothing: the training step hands them what `LabeledSet` and the network
made. The classifier-placeholder loss trains the dummy column to rank
second on known instances by masking the ground-truth logit out of the
softmax. The data-placeholder loss trains the logits of mixed
different-class instances as the unknown class K. Each loss takes one
log-softmax and hands each block of it to `nll_from_log_probs`, the one
copy of the cross-entropy gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradcore import Array, cross_entropy_from_logits, log_softmax_rows, nll_from_log_probs

# large enough that exp(logit - max) underflows to exactly 0 in float64
MASK_SENTINEL = -1e30


@dataclass
class MixPairs:
    """Index pairs into the rows of one half-batch and the lambda they share:
    the one owner of the data placeholder's mixing. `mix` mixes the rows and
    `unmix` routes the gradient of the mixes back to them. `build_mix_pairs`
    makes every instance, so nothing here is checked."""

    left: Array   # int indices, strictly increasing
    right: Array  # int indices, distinct, label[right[p]] != label[left[p]]
    lam: float    # in [0, 1]

    def __len__(self) -> int:
        return len(self.left)

    def mix(self, rows: Array) -> Array:
        """Row p is lam * rows[left[p]] + (1 - lam) * rows[right[p]]."""
        return self.lam * rows[self.left] + (1.0 - self.lam) * rows[self.right]

    def unmix(self, d_mixed: Array, n: int) -> Array:
        """The gradient for the `n` rows `mix` read, given `d_mixed`, the
        gradient of its output."""
        # neither index array repeats an index (`build_mix_pairs` draws one
        # permutation), so buffered fancy += on zeros is an exact scatter-add,
        # equal to np.add.at (and it turns -0.0 into 0.0)
        d_rows = np.zeros((n, d_mixed.shape[1]))
        d_rows[self.left] += self.lam * d_mixed
        d_rows[self.right] += (1.0 - self.lam) * d_mixed
        return d_rows


def build_mix_pairs(labels: Array, rng: np.random.Generator, alpha: float) -> MixPairs:
    """One uniform shuffle of the batch, pair (i, perm[i]) kept iff the two
    labels differ, and one lambda ~ Beta(alpha, alpha) shared by every
    surviving pair (`TrainConfig` checks alpha). Both index arrays come from
    one mask, so they have one length, and a Beta draw lies in [0, 1]."""
    perm = rng.permutation(labels.size)
    keep = labels != labels[perm]
    return MixPairs(np.nonzero(keep)[0], perm[keep], float(rng.beta(alpha, alpha)))


def masked_logits(combined: Array, targets: Array) -> Array:
    """Copy of the combined logits with the ground-truth entry excluded
    from the softmax (sentinel, so its probability underflows to 0). The
    targets are known classes, below K: `finetune_placeholders` checks them."""
    out = combined.copy()
    out[np.arange(out.shape[0]), targets] = MASK_SENTINEL
    return out


def loss_classifier_placeholder(combined: Array, labels: Array, beta: float) -> tuple[float, Array]:
    """Cross-entropy of the combined logits against the true label, plus
    beta times cross-entropy of the masked logits against the dummy class K.

    Returns (loss, d_combined), the gradient of the loss with respect to
    `combined`. With beta == 0 this is exactly plain (K+1)-way cross-entropy.
    """
    if beta == 0.0:
        return cross_entropy_from_logits(combined, labels)
    # one log-softmax over the rows stacked on their masked copy; rows are
    # independent, so each block gives the bytes of its own cross-entropy
    n, k = combined.shape[0], combined.shape[1] - 1
    logp = log_softmax_rows(np.concatenate([combined, masked_logits(combined, labels)]))
    l1, g1 = nll_from_log_probs(logp[:n], labels)
    l2, g2 = nll_from_log_probs(logp[n:], np.full(n, k))
    # the sentinel entry is a constant, no gradient flows through it
    g2[np.arange(n), labels] = 0.0
    return l1 + beta * l2, g1 + beta * g2


def loss_data_placeholder(combined: Array) -> tuple[float, Array]:
    """Mean cross-entropy of the combined logits of mixed instances against
    the dummy class K; returns (loss, d_combined)."""
    return cross_entropy_from_logits(combined, np.full(combined.shape[0], combined.shape[1] - 1))
