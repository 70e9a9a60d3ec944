"""Split MLP with a closed-set head and a dummy rejection head.

The embedding is split into pre-layers and post-layers so hidden
representations can be mixed at the split point. Both heads read the same
final embedding; the dummy head's per-row max joins the closed logits as
column K of the combined logit matrix, with gradients routed only through
the selected dummy column.

Layers keep no activations. A training step keeps them on a tape: a list
that starts with the forward's input and gets each layer's output from
`embed_pre` and `embed_post`; the backward helpers pop them off again, last
layer first; a hidden-mode fine-tuning step keeps a second tape from its
mixed pre-embeddings on. Scoring keeps no tape, runs in row chunks and keeps
K+1 numbers per row: the closed logits and the dummy max.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .datastore import check_int
from .gradcore import Array, DenseLayer, as_matrix

DEFAULT_PRE_WIDTHS = (64, 64)
DEFAULT_POST_WIDTHS = (32, 16)
DUMMY_INIT_STD = 0.01
# Minimum rows per scoring pass; chunks hold SCORE_CHUNK to 2 * SCORE_CHUNK - 1
# rows, so a 1024 x 64 float64 activation (512 KB) stays in a core's 2 MB L2
# cache. Scoring 116k blobs6 rows took 67 ms, against 72 ms at 4096 rows,
# 70 ms at 2048 and 70 ms at 512 (min of 7, one BLAS thread, Xeon). Chunks
# stay bit-identical to one pass, because BLAS rounds only short passes
# differently: 1 row on the blobs6 shapes, under 20 rows on a 784-wide layer.
SCORE_CHUNK = 1024


@dataclass
class AugmentedLogits:
    """What the open-set rule reads of each row: the K closed logits and the
    winning dummy logit. Scoring (`SplitMlp.augmented_logits`) holds only these,
    and the first score read adds `_closed_max`."""

    closed: Array     # B x K
    dummy_max: Array  # B

    @property
    def combined(self) -> Array:
        """B x (K+1): the closed logits with `dummy_max` as column K, built
        anew on each access."""
        return np.concatenate([self.closed, self.dummy_max[:, None]], axis=1)

    @functools.cached_property
    def _closed_max(self) -> tuple[Array, Array]:
        """Per row: the closed argmax and max, taken once for the three scores.
        The max is gathered at the argmax (NaN where the row has one), much
        cheaper than a max along the short axis; at a zero max, `max` decides the sign."""
        labels = self.closed.argmax(axis=1)
        best = np.take_along_axis(self.closed, labels[:, None], axis=1)[:, 0]
        zero = best == 0
        best[zero] = self.closed[zero].max(axis=1)
        return labels, best

    def score(self, train_mode: str, bias: float) -> Array:
        """The score a model trained in `train_mode` ranks rows by, higher =
        more known: max-softmax confidence for the baseline, whose dummy head
        is untrained, and the knownness at `bias` for every placeholder mode."""
        return self.max_softmax() if train_mode == "baseline" else self.knownness(bias)

    def knownness(self, bias: float) -> Array:
        """Best closed logit minus the calibrated dummy logit; higher = more known."""
        return _finite(self._closed_max[1] - (self.dummy_max + bias))

    def predictions(self, bias: float) -> Array:
        """Per row: argmax over [closed logits, dummy_max + bias]. Label K means
        "unknown"; ties go to the known class, so rejection needs strictly
        higher dummy evidence."""
        # the argmax of the (K+1)-column concatenation, without building it:
        # a NaN closed logit wins where it stands, a NaN dummy logit wins
        # over finite ones, as np.argmax lets the first NaN win
        labels, closed_max = self._closed_max
        unknown = ~(self.dummy_max + bias <= closed_max) & ~np.isnan(closed_max)
        return np.where(unknown, self.closed.shape[1], labels)

    def max_softmax(self) -> Array:
        """Max softmax probability over the K closed logits (dummy head ignored).
        The exponential at the row max is exactly 1, and division is
        monotone, so 1 / (row sum) is the row max of `softmax_rows`, bit for
        bit, without the (B, K) probability matrix."""
        shifted = self.closed - self._closed_max[1][:, None]
        return _finite(1.0 / np.exp(shifted, out=shifted).sum(axis=1))


@dataclass
class HeadLogits(AugmentedLogits):
    """A training forward's heads: every dummy logit and the per-row argmax
    dummy, which route the gradient of column K back to one dummy column."""

    dummy_all: Array     # B x C
    dummy_argmax: Array  # B, lowest index on ties


def _finite(scores: Array) -> Array:
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise ValueError(f"{bad} of {scores.size} scores are non-finite (NaN or inf)")
    return scores


class SplitMlp:
    def __init__(self, pre_layers: list[DenseLayer], post_layers: list[DenseLayer],
                 closed_head: DenseLayer, dummy_head: DenseLayer,
                 input_dim: int, calibration_bias: float = 0.0):
        if closed_head.out_dim < 2:
            raise ValueError(f"need at least 2 known classes, got {closed_head.out_dim}")
        if dummy_head.out_dim < 1:
            raise ValueError("need at least 1 dummy classifier")
        check_int("input_dim", input_dim, 1)
        width = input_dim
        for i, layer in enumerate([*pre_layers, *post_layers]):
            if layer.in_dim != width:
                raise ValueError(f"layer {i} reads {layer.in_dim} inputs, but gets {width}")
            width = layer.out_dim
        for name, head in (("closed", closed_head), ("dummy", dummy_head)):
            if head.in_dim != width:
                raise ValueError(f"the {name} head reads {head.in_dim} inputs, but the embedding is {width} wide")
        self.pre_layers = pre_layers
        self.post_layers = post_layers
        self.closed_head = closed_head
        self.dummy_head = dummy_head
        self.input_dim = input_dim
        self.calibration_bias = calibration_bias

    @classmethod
    def create(cls, input_dim: int, num_known: int, num_dummy: int, rng: np.random.Generator,
               pre_widths: tuple[int, ...] = DEFAULT_PRE_WIDTHS,
               post_widths: tuple[int, ...] = DEFAULT_POST_WIDTHS) -> SplitMlp:
        """Build the default architecture: relu pre-layers, relu post-layers
        with a final linear embedding, linear heads. `pre_widths` may be empty,
        which makes the pre-embedding the identity (mixing then happens on raw
        inputs). `post_widths` must end with the embedding width."""
        if not post_widths:
            raise ValueError("post_widths must contain at least the embedding width")
        pre_layers = []
        width = input_dim
        for w in pre_widths:
            pre_layers.append(DenseLayer.create(width, w, "relu", rng))
            width = w
        post_layers = []
        for i, w in enumerate(post_widths):
            act = "linear" if i == len(post_widths) - 1 else "relu"
            post_layers.append(DenseLayer.create(width, w, act, rng))
            width = w
        closed_head = DenseLayer.create(width, num_known, "linear", rng)
        dummy_head = DenseLayer.create(width, num_dummy, "linear", rng, weight_std=DUMMY_INIT_STD)
        return cls(pre_layers, post_layers, closed_head, dummy_head, input_dim)

    @property
    def num_known(self) -> int:
        return self.closed_head.out_dim

    @property
    def num_dummy(self) -> int:
        return self.dummy_head.out_dim

    # -- forward ----------------------------------------------------------

    def embed_pre(self, x: Array, tape: list[Array] | None = None) -> Array:
        return _forward(self.pre_layers, x, tape)

    def embed_post(self, h: Array, tape: list[Array] | None = None) -> Array:
        return _forward(self.post_layers, h, tape)

    def heads_from_embedding(self, embedding: Array) -> HeadLogits:
        closed = self.closed_head.forward(embedding)
        dummy_all = self.dummy_head.forward(embedding)
        dummy_argmax = dummy_all.argmax(axis=1)
        dummy_max = dummy_all[np.arange(dummy_all.shape[0]), dummy_argmax]
        return HeadLogits(closed, dummy_max, dummy_all, dummy_argmax)

    def augmented_logits(self, x) -> AugmentedLogits:
        """Score `x` in chunks of SCORE_CHUNK or more rows, bit-identical to one
        pass. The result holds K+1 numbers per row, the closed logits and the
        dummy max; it is allocated once and filled chunk by chunk. This is
        where the input width is checked, once per scored set."""
        x = as_matrix(x)
        if x.shape[1] != self.input_dim:
            raise ValueError(f"input shape {x.shape} does not match input dimension {self.input_dim}")
        out = AugmentedLogits(np.empty((len(x), self.num_known)), np.empty(len(x)))
        start = 0
        for chunk in np.array_split(x, max(1, len(x) // SCORE_CHUNK)):
            heads = self.heads_from_embedding(self.embed_post(self.embed_pre(chunk)))
            rows = slice(start, start + len(chunk))
            out.closed[rows], out.dummy_max[rows] = heads.closed, heads.dummy_max
            start = rows.stop
        return out

    # -- backward ---------------------------------------------------------

    def backward_heads(self, d_combined: Array, aug: HeadLogits, tape: list[Array]) -> Array:
        """Gradient into the embedding (the end of `tape`) from that of `aug.combined`."""
        d_closed, d_dummy_all = split_combined_grad(aug, d_combined)
        embedding = tape[-1]
        return (self.closed_head.backward(d_closed, embedding, aug.closed)
                + self.dummy_head.backward(d_dummy_all, embedding, aug.dummy_all))

    def backward_post(self, d, tape: list[Array]) -> Array:
        """Backpropagate through the post-layers, popping their outputs off `tape`."""
        for layer in reversed(self.post_layers):
            d = layer.backward(d, tape[-2], tape.pop())  # (input, output), left to right
        return d

    def backward_pre(self, d, tape: list[Array]) -> None:
        """Backpropagate through the pre-layers, popping their outputs off `tape`.
        Nothing reads the gradient of the raw input, so the input layer skips it."""
        for i in range(len(self.pre_layers) - 1, -1, -1):
            d = self.pre_layers[i].backward(d, tape[-2], tape.pop(), input_grad=i > 0)

    # -- parameter plumbing ------------------------------------------------

    def layers(self) -> list[DenseLayer]:
        return [*self.pre_layers, *self.post_layers, self.closed_head, self.dummy_head]

    def parameters(self) -> list[Array]:
        return [p for layer in self.layers() for p in layer.parameters()]

    def pack(self) -> tuple[Array, Array]:
        """Copy every parameter into one flat float64 array, give the
        gradients a second, zeroed one, and make each layer's four arrays
        reshaped views of them; returns (params, grads). Whole-model updates
        then take one numpy call. `copy.deepcopy` turns the views into
        separate arrays, so pack again before each training run."""
        params = np.concatenate([p.ravel() for p in self.parameters()])
        grads = np.zeros_like(params)
        start = 0
        for layer in self.layers():
            shape = layer.weights.shape
            mid = start + layer.weights.size
            end = mid + layer.biases.size
            layer.weights = params[start:mid].reshape(shape)
            layer.grad_weights = grads[start:mid].reshape(shape)
            layer.biases, layer.grad_biases = params[mid:end], grads[mid:end]
            start = end
        return params, grads


def _forward(layers: list[DenseLayer], h: Array, tape: list[Array] | None) -> Array:
    for layer in layers:
        h = layer.forward(h)
        if tape is not None:
            tape.append(h)
    return h


def split_combined_grad(aug: HeadLogits, d_combined: Array) -> tuple[Array, Array]:
    """Route the gradient of the combined logits back to the two heads.

    Column K flows only into the per-row argmax dummy column; the other
    dummy columns receive exactly zero.
    """
    n, k = aug.closed.shape
    d_closed = d_combined[:, :k].copy()
    d_dummy_all = np.zeros_like(aug.dummy_all)
    d_dummy_all[np.arange(n), aug.dummy_argmax] = d_combined[:, k]
    return d_closed, d_dummy_all


def predict_open(model: SplitMlp, x, bias: float | None = None) -> Array:
    """Open-set labels (K = unknown) at `bias`, by default the model's own."""
    return model.augmented_logits(x).predictions(model.calibration_bias if bias is None else bias)


def knownness_score(model: SplitMlp, x, bias: float | None = None) -> Array:
    """Knownness at `bias`, by default the model's own; higher = more known."""
    return model.augmented_logits(x).knownness(model.calibration_bias if bias is None else bias)


def baseline_confidence(model: SplitMlp, x) -> Array:
    """Max softmax probability over the K closed logits (dummy head ignored)."""
    return model.augmented_logits(x).max_softmax()
