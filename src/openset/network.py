"""Split MLP with a closed-set head and a dummy rejection head.

The hidden layers run in one list, `body`, and rows can be mixed at one
index into it, `split_index`: after that many layers, or at the input when
it is 0. Both heads read the same final embedding; the dummy head's per-row
max joins the closed logits as column K of the combined logit matrix, with
gradients routed only through the selected dummy column.

Layers keep no activations. Two functions walk a list of layers: a
training step hands `forward_layers` a tape, a list that starts with the
forward's input and gets each layer's output, and `backward_layers` pops
them off again, last layer first. A fine-tuning step mixes at one layer
index, `split_index` or the input, and starts a second tape at the mixed
rows. Scoring keeps no tape, runs in row chunks and keeps K+1 numbers
per row: the closed logits and the dummy max.
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
# Maximum rows per scoring pass. A set of n rows is scored in
# ceil(n / SCORE_CHUNK) chunks, so no pass holds more than SCORE_CHUNK rows,
# and a 1024 x 64 float64 activation (512 KB) stays in a core's 2 MB L2
# cache; blobs6's 1740 test rows go in two passes, not one that lifts the
# run's peak RSS. Scoring 116k blobs6 rows took 71 ms, against 74 ms with
# passes of at most 2048 rows and 88 ms at 4096 (min of 15, one BLAS thread,
# Xeon). A set above SCORE_CHUNK rows gets passes of at least 497 rows, far
# above the short passes OpenBLAS's SkylakeX kernel rounds differently (1 row
# on the blobs6 shapes, under 20 rows on a 784-wide layer).
SCORE_CHUNK = 1024
# Every chunk starts at a multiple of SCORE_ALIGN rows. A gemm kernel works
# through rows in blocks of a few (4 on Haswell), and a row that falls in a
# shorter tail block is rounded differently. With aligned starts and one
# BLAS thread, chunked scoring of the blobs6 grid and of a 784-wide layer was
# bit-identical to one pass under every kernel this numpy's OpenBLAS loads
# for OPENBLAS_CORETYPE (SkylakeX, Haswell, Sandybridge, Nehalem, Prescott,
# Katmai); with unaligned starts, it differed under four of them. With two
# threads it still differs under those four, as OpenBLAS splits the rows
# between its threads by its own rule.
SCORE_ALIGN = 16


@dataclass
class AugmentedLogits:
    """What the open-set rule reads of each row: the K closed logits and the
    winning dummy logit. Scoring (`SplitMlp.augmented_logits`) holds only these,
    and the first score read adds `_closed_max` and `gap`."""

    closed: Array     # B x K
    dummy_max: Array  # B

    @property
    def combined(self) -> Array:
        """B x (K+1): the closed logits with `dummy_max` as column K, built
        anew on each access."""
        return np.concatenate([self.closed, self.dummy_max[:, None]], axis=1)

    @functools.cached_property
    def _closed_max(self) -> tuple[Array, Array]:
        """Per row: the closed argmax and the logit there, taken once for the
        gap and the max-softmax; much cheaper than a max along the short axis."""
        labels = self.closed.argmax(axis=1)
        return labels, np.take_along_axis(self.closed, labels[:, None], axis=1)[:, 0]

    @functools.cached_property
    def gap(self) -> Array:
        """Per row: the best closed logit minus the dummy max. The one open-set
        rule reads it: a row is known at `bias` exactly when `gap >= bias`.
        A non-finite gap raises, whichever score or prediction reads it first."""
        return _finite(self._closed_max[1] - self.dummy_max)

    def score(self, train_mode: str, bias: float) -> Array:
        """The score a model trained in `train_mode` ranks rows by, higher =
        more known: max-softmax confidence for the baseline, whose dummy head
        is untrained, and the knownness at `bias` for every placeholder mode."""
        return self.max_softmax() if train_mode == "baseline" else self.knownness(bias)

    def knownness(self, bias: float) -> Array:
        """The gap less the bias; at or above 0 exactly where `predictions` keeps
        the row known. Higher = more known."""
        return self.gap - bias

    def predictions(self, bias: float) -> Array:
        """Per row: the closed argmax where `gap >= bias`, else K ("unknown").
        A tie stays known, so rejection needs strictly higher dummy evidence."""
        return np.where(self.gap >= bias, self._closed_max[0], self.closed.shape[1])

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
    def __init__(self, body: list[DenseLayer], split_index: int,
                 closed_head: DenseLayer, dummy_head: DenseLayer,
                 input_dim: int, calibration_bias: float = 0.0):
        if closed_head.out_dim < 2:
            raise ValueError(f"need at least 2 known classes, got {closed_head.out_dim}")
        check_int("input_dim", input_dim, 1)
        check_int("split_index", split_index, 0, len(body))
        width = input_dim
        for i, layer in enumerate(body):
            if layer.in_dim != width:
                raise ValueError(f"layer {i} reads {layer.in_dim} inputs, but gets {width}")
            width = layer.out_dim
        for name, head in (("closed", closed_head), ("dummy", dummy_head)):
            if head.in_dim != width:
                raise ValueError(f"the {name} head reads {head.in_dim} inputs, but the embedding is {width} wide")
        self.body = body
        self.split_index = split_index
        self.closed_head = closed_head
        self.dummy_head = dummy_head
        self.input_dim = input_dim
        self.calibration_bias = calibration_bias

    @classmethod
    def create(cls, input_dim: int, num_known: int, num_dummy: int, rng: np.random.Generator,
               pre_widths: tuple[int, ...] = DEFAULT_PRE_WIDTHS,
               post_widths: tuple[int, ...] = DEFAULT_POST_WIDTHS) -> SplitMlp:
        """Build the default architecture: relu hidden layers of `pre_widths`
        then `post_widths`, the last one a linear embedding, and linear heads;
        rows are mixed after the `pre_widths` layers. `pre_widths` may be
        empty, which mixes raw inputs. `post_widths` must end with the
        embedding width."""
        if not post_widths:
            raise ValueError("post_widths must contain at least the embedding width")
        widths = (input_dim, *pre_widths, *post_widths)
        body = [DenseLayer.create(n_in, n_out, "relu" if i < len(widths) - 2 else "linear", rng)
                for i, (n_in, n_out) in enumerate(zip(widths, widths[1:]))]
        closed_head = DenseLayer.create(widths[-1], num_known, "linear", rng)
        dummy_head = DenseLayer.create(widths[-1], num_dummy, "linear", rng, weight_std=DUMMY_INIT_STD)
        return cls(body, len(pre_widths), closed_head, dummy_head, input_dim)

    @property
    def num_known(self) -> int:
        return self.closed_head.out_dim

    @property
    def num_dummy(self) -> int:
        return self.dummy_head.out_dim

    # -- forward ----------------------------------------------------------

    def heads_from_embedding(self, embedding: Array) -> HeadLogits:
        closed = self.closed_head.forward(embedding)
        dummy_all = self.dummy_head.forward(embedding)
        dummy_argmax = dummy_all.argmax(axis=1)
        dummy_max = dummy_all[np.arange(dummy_all.shape[0]), dummy_argmax]
        return HeadLogits(closed, dummy_max, dummy_all, dummy_argmax)

    def augmented_logits(self, x) -> AugmentedLogits:
        """Score `x` in chunks of at most SCORE_CHUNK rows that start at
        multiples of SCORE_ALIGN, bit-identical to one pass with one BLAS
        thread on every OpenBLAS kernel measured. The result holds K+1
        numbers per row, the closed logits and the dummy max; it is allocated
        once and filled chunk by chunk. This is where the input width is
        checked, once per scored set."""
        x = as_matrix(x)
        if x.shape[1] != self.input_dim:
            raise ValueError(f"input shape {x.shape} does not match input dimension {self.input_dim}")
        n = len(x)
        out = AugmentedLogits(np.empty((n, self.num_known)), np.empty(n))
        chunks = max(1, -(-n // SCORE_CHUNK))
        # chunk i starts at i * n / chunks, rounded up to a multiple of SCORE_ALIGN
        bounds = [-(-i * n // (chunks * SCORE_ALIGN)) * SCORE_ALIGN for i in range(chunks)] + [n]
        for start, stop in zip(bounds, bounds[1:]):
            heads = self.heads_from_embedding(forward_layers(self.body, x[start:stop]))
            out.closed[start:stop], out.dummy_max[start:stop] = heads.closed, heads.dummy_max
        return out

    # -- backward ---------------------------------------------------------

    def backward_heads(self, d_combined: Array, aug: HeadLogits, tape: list[Array]) -> Array:
        """Gradient into the embedding (the end of `tape`) from that of `aug.combined`."""
        d_closed, d_dummy_all = split_combined_grad(aug, d_combined)
        embedding = tape[-1]
        return (self.closed_head.backward(d_closed, embedding, aug.closed)
                + self.dummy_head.backward(d_dummy_all, embedding, aug.dummy_all))

    # -- parameter plumbing ------------------------------------------------

    def layers(self) -> list[DenseLayer]:
        return [*self.body, self.closed_head, self.dummy_head]

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


def forward_layers(layers: list[DenseLayer], h: Array, tape: list[Array] | None = None) -> Array:
    """Run `layers` in order on `h`, appending each output to `tape` if given."""
    for layer in layers:
        h = layer.forward(h)
        if tape is not None:
            tape.append(h)
    return h


def backward_layers(layers: list[DenseLayer], d: Array, tape: list[Array], input_grad: bool) -> Array | None:
    """Backpropagate `d` through `layers`, popping their outputs off `tape`,
    last layer first. Without `input_grad` the first layer skips the gradient
    of its input, which nothing reads, and None is returned."""
    for i in range(len(layers) - 1, -1, -1):
        # (input, output), left to right
        d = layers[i].backward(d, tape[-2], tape.pop(), input_grad=input_grad or i > 0)
    return d


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
