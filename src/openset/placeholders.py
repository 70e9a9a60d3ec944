"""The two placeholder losses and within-batch mixup pair construction.

The classifier-placeholder loss trains the dummy head to rank second on
known instances by masking the ground-truth logit out of the softmax. The
data-placeholder loss mixes hidden representations of different-class
instances and trains the result as the unknown class K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradcore import Array, as_matrix, beta_sample, cross_entropy_from_logits
from .network import HeadLogits, SplitMlp

# large enough that exp(logit - max) underflows to exactly 0 in float64
MASK_SENTINEL = -1e30

MIX_MODES = ("hidden", "input")


@dataclass
class MixPairs:
    """Index pairs into one batch plus the shared mixing coefficient.

    `left` is strictly increasing and `right` holds no index twice, so a
    gradient can be scattered back with fancy `+=` instead of `np.add.at`.
    """

    left: Array   # int indices, strictly increasing
    right: Array  # int indices, distinct, label[right[p]] != label[left[p]]
    lam: float

    def __len__(self) -> int:
        return len(self.left)


def masked_pairs(labels, perm) -> tuple[Array, Array]:
    """Keep pair (i, perm[i]) iff the two labels differ."""
    labels = np.asarray(labels)
    perm = np.asarray(perm)
    keep = labels != labels[perm]
    return np.nonzero(keep)[0], perm[keep]


def build_mix_pairs(labels, rng: np.random.Generator, alpha: float = 2.0) -> MixPairs:
    """One uniform shuffle of the batch, same-class pairs masked out,
    one lambda ~ Beta(alpha, alpha) shared by every surviving pair."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empty batch")
    perm = rng.permutation(labels.size)
    left, right = masked_pairs(labels, perm)
    lam = beta_sample(alpha, rng)
    return MixPairs(left, right, lam)


def mix_hidden(h_left, h_right, lam: float) -> Array:
    """Elementwise convex combination lam*left + (1-lam)*right."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    h_left = as_matrix(h_left)
    h_right = as_matrix(h_right)
    if h_left.shape != h_right.shape:
        raise ValueError(f"shape mismatch: {h_left.shape} vs {h_right.shape}")
    return lam * h_left + (1.0 - lam) * h_right


def masked_logits(combined, targets) -> Array:
    """Copy of the combined logits with the ground-truth entry excluded
    from the softmax (sentinel, so its probability underflows to 0)."""
    z = as_matrix(combined)
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    num_known = z.shape[1] - 1
    if t.shape[0] != z.shape[0]:
        raise ValueError(f"{t.shape[0]} targets for {z.shape[0]} rows")
    if t.size and (t.min() < 0 or t.max() >= num_known):
        raise ValueError(f"ground truth must be a known class in [0, {num_known})")
    out = z.copy()
    out[np.arange(out.shape[0]), t] = MASK_SENTINEL
    return out


def loss_classifier_placeholder(model: SplitMlp, features, labels, beta: float) -> tuple[float, HeadLogits]:
    """Cross-entropy of the combined logits against the true label, plus
    beta times cross-entropy of the masked logits against the dummy class.

    Accumulates gradients into the model's layers and returns (loss, logits).
    With beta == 0 this is exactly plain (K+1)-way cross-entropy.
    """
    features = as_matrix(features)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if features.shape[0] == 0:
        raise ValueError("empty batch")
    tape = [features]
    aug = model.heads_from_embedding(model.embed_post(model.embed_pre(features, tape), tape))
    k = model.num_known
    combined = aug.combined
    loss, d_combined = cross_entropy_from_logits(combined, labels)
    if beta != 0.0:
        masked = masked_logits(combined, labels)
        dummy_targets = np.full(labels.shape, k, dtype=np.int64)
        mask_loss, d_masked = cross_entropy_from_logits(masked, dummy_targets)
        # the sentinel entry is a constant, no gradient flows through it
        d_masked[np.arange(labels.size), labels] = 0.0
        loss += beta * mask_loss
        d_combined = d_combined + beta * d_masked
    model.backward_pre(model.backward_post(model.backward_heads(d_combined, aug, tape), tape), tape)
    return loss, aug


def loss_data_placeholder(model: SplitMlp, features, pairs: MixPairs, mode: str = "hidden",
                          grad_scale: float = 1.0) -> float:
    """Mean cross-entropy of mixed instances against the dummy class K.

    mode="hidden" mixes pre-embeddings and forwards through the post-layers
    only; mode="input" mixes raw feature rows and forwards through the whole
    network. Parameter gradients (times `grad_scale`) accumulate into the
    model; both mixed branches receive gradient, scaled by lam and 1-lam.
    Empty pairs contribute loss 0 and touch nothing.
    """
    if mode not in MIX_MODES:
        raise ValueError(f"unknown mix mode {mode!r}")
    if len(pairs) == 0:
        return 0.0
    features = as_matrix(features)
    k = model.num_known
    dummy_targets = np.full(len(pairs), k, dtype=np.int64)

    if mode == "hidden":
        pre_tape = [features]
        h = model.embed_pre(features, pre_tape)
        mixed = mix_hidden(h[pairs.left], h[pairs.right], pairs.lam)
        tape = [mixed]
        aug = model.heads_from_embedding(model.embed_post(mixed, tape))
        loss, d_combined = cross_entropy_from_logits(aug.combined, dummy_targets)
        d_mixed = model.backward_post(model.backward_heads(grad_scale * d_combined, aug, tape), tape)
        # neither index array repeats an index (see MixPairs), so buffered
        # fancy += is an exact scatter-add; += on zeros, unlike =, also
        # turns a -0.0 product into +0.0
        d_h = np.zeros_like(h)
        d_h[pairs.left] += pairs.lam * d_mixed
        d_h[pairs.right] += (1.0 - pairs.lam) * d_mixed
        model.backward_pre(d_h, pre_tape)
    else:
        mixed = mix_hidden(features[pairs.left], features[pairs.right], pairs.lam)
        tape = [mixed]
        aug = model.heads_from_embedding(model.embed_post(model.embed_pre(mixed, tape), tape))
        loss, d_combined = cross_entropy_from_logits(aug.combined, dummy_targets)
        d_mixed = model.backward_post(model.backward_heads(grad_scale * d_combined, aug, tape), tape)
        model.backward_pre(d_mixed, tape)
    return loss
