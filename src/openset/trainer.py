"""Closed-set pretraining and placeholder fine-tuning, over one epoch loop.

Every fine-tuning batch is split into two halves: the first feeds the
classifier-placeholder loss, the second is mixed within itself and feeds
the data-placeholder loss. One network pass and one optimizer step are
taken per batch, on the summed loss. All randomness flows from the config
seed; identical configs give bit-identical models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datastore import LabeledSet, check_int, check_real
from .gradcore import Array, SgdMomentum, cross_entropy_from_logits
from .network import SplitMlp, backward_layers, forward_layers
from .placeholders import MixPairs, build_mix_pairs, loss_classifier_placeholder, loss_data_placeholder

MIX_MODES = ("hidden", "input")
TRAIN_MODES = ("baseline", "dummy_only", "mixup_only", "full")
# the dummy head is embedding width x num_dummy; a count above this is
# refused with the config, before `run` makes its output directory
MAX_DUMMY = 10_000
# blobs6 trains an epoch in about 5 ms, so this many take about 8 minutes;
# a count above it (10**400 would never end) is refused with the config,
# before `run` makes its output directory
MAX_EPOCHS = 100_000


@dataclass
class TrainConfig:
    beta: float = 1.0
    gamma: float = 0.1
    num_dummy: int = 5
    alpha: float = 2.0
    learning_rate: float = 0.001
    momentum: float = 0.9
    batch_size: int = 128
    pretrain_epochs: int = 100
    finetune_epochs: int = 50
    mix_mode: str = "hidden"
    train_mode: str = "full"
    seed: int = 0

    def __post_init__(self):
        for name, interval in (("beta", "[0, inf)"), ("gamma", "[0, inf)"), ("alpha", "(0, inf)"),
                               ("learning_rate", "(0, inf)"), ("momentum", "[0, 1)")):
            check_real(name, getattr(self, name), interval)
        check_int("num_dummy", self.num_dummy, 1, MAX_DUMMY)
        check_int("batch_size", self.batch_size, 2)
        for name in ("pretrain_epochs", "finetune_epochs"):
            check_int(name, getattr(self, name), 0, MAX_EPOCHS)
        check_int("seed", self.seed, 0)
        if self.mix_mode not in MIX_MODES:
            raise ValueError(f"mix_mode must be one of {MIX_MODES}, got {self.mix_mode!r}")
        if self.train_mode not in TRAIN_MODES:
            raise ValueError(f"train_mode must be one of {TRAIN_MODES}, got {self.train_mode!r}")


def split_batch_halves(features: Array, labels: Array) -> tuple[tuple[Array, Array], tuple[Array, Array]]:
    """First ceil(B/2) rows and the remainder, order preserved."""
    cut = (features.shape[0] + 1) // 2
    return (features[:cut], labels[:cut]), (features[cut:], labels[cut:])


def _train_epochs(model: SplitMlp, dataset: LabeledSet, config: TrainConfig, rng: np.random.Generator,
                  stage: str, epochs: int, step, log_lines: list[str] | None) -> SplitMlp:
    """The epoch loop of both stages: shuffle with `rng`, then per batch run
    `step(features, labels)` and take one optimizer step. `step` returns None
    to skip the batch, else (l1, l2, closed logits, their labels); those
    logits give the log's accuracy column. The step runs each layer's backward
    at most once, and each backward overwrites its layer's gradients, so
    nothing is zeroed between steps; a layer the step never reaches (the dummy
    head in pretraining) keeps the zeros `pack` gives it. The model is packed
    into one flat parameter and one flat gradient buffer first, so the update
    and the finiteness check each act on one array. An epoch that skips every
    batch (a 1-row fine-tune set), or a non-finite mean loss or parameter
    after an epoch, raises ValueError naming stage and epoch."""
    params, grads = model.pack()
    optimizer = SgdMomentum(params, config.learning_rate, config.momentum)
    for epoch in range(epochs):
        losses, hits = [], []
        perm = rng.permutation(len(dataset))
        for start in range(0, len(dataset), config.batch_size):
            idx = perm[start:start + config.batch_size]
            result = step(dataset.rows(idx), dataset.labels[idx])
            if result is None:
                continue
            l1, l2, logits, labels = result
            optimizer.step(grads)
            losses.append((l1, l2))
            hits.append(logits.argmax(axis=1) == labels)
        if not losses:
            raise ValueError(f"{stage} epoch {epoch} took no step: a fine-tune step needs a batch of at least 2 rows")
        l1, l2 = (float(np.mean(values)) for values in zip(*losses))
        if not (math.isfinite(l1) and math.isfinite(l2) and np.isfinite(params).all()):
            raise ValueError(f"training diverged: {stage} epoch {epoch} has a non-finite loss or parameter")
        if log_lines is not None:
            log_lines.append(f"{epoch}\t{l1:.6f}\t{l2:.6f}\t{np.concatenate(hits).mean():.6f}")
    return model


def pretrain_step(model: SplitMlp, xb: Array, yb: Array) -> tuple[float, float, Array, Array]:
    """Backpropagate the K-way cross-entropy of the closed head on the batch
    into the model; returns (loss, 0.0, closed logits, labels), as `finetune_step` does."""
    tape = [xb]
    logits = model.closed_head.forward(forward_layers(model.body, xb, tape))
    loss, d_logits = cross_entropy_from_logits(logits, yb)
    backward_layers(model.body, model.closed_head.backward(d_logits, tape[-1], logits), tape, input_grad=False)
    return loss, 0.0, logits, yb


def pretrain_closed(dataset: LabeledSet, config: TrainConfig,
                    log_lines: list[str] | None = None) -> SplitMlp:
    """Train a fresh model with K-way cross-entropy on the closed head only.

    The dummy head is initialised but receives no gradient. K is the largest
    label + 1, and every class in [0, K) must have a row; `SplitMlp` refuses
    K below 2.
    """
    counts = np.bincount(dataset.labels)
    if not counts.all():
        raise ValueError(f"labels must cover [0, {len(counts)}), but class {int(counts.argmin())} has no rows")
    rng = np.random.default_rng(config.seed)
    model = SplitMlp.create(dataset.dim, len(counts), config.num_dummy, rng)
    return _train_epochs(model, dataset, config, rng, "pretrain", config.pretrain_epochs,
                         lambda xb, yb: pretrain_step(model, xb, yb), log_lines)


def finetune_step(model: SplitMlp, xb: Array, yb: Array, pairs: MixPairs | None, beta: float,
                  gamma: float, mix_mode: str) -> tuple[float, float, Array, Array]:
    """Run the network once on the first half's rows stacked over the mixes
    of `pairs` (indices into the second half), take both losses on row
    slices, and backpropagate l1 + gamma * l2 once into the model. The rows
    are mixed at one layer index: `model.split_index` in mix_mode "hidden",
    0 (the input) in "input". Without pairs only the first half is forwarded
    and l2 is 0. Returns (l1, l2, closed logits of the first half, its
    labels)."""
    (x1, y1), _ = split_batch_halves(xb, yb)
    cut = len(y1)
    body = model.body
    at = model.split_index if mix_mode == "hidden" else 0
    tape = [xb if pairs else x1]
    h = forward_layers(body[:at], tape[0], tape)
    if pairs:
        h = np.concatenate([h[:cut], pairs.mix(h[cut:])])
    mixed_tape = [h]
    aug = model.heads_from_embedding(forward_layers(body[at:], h, mixed_tape))
    combined = aug.combined
    l1, d_combined = loss_classifier_placeholder(combined[:cut], y1, beta)
    l2 = 0.0
    if pairs:
        l2, d_mixed = loss_data_placeholder(combined[cut:])
        d_combined = np.concatenate([d_combined, gamma * d_mixed])
    d = backward_layers(body[at:], model.backward_heads(d_combined, aug, mixed_tape), mixed_tape, input_grad=at > 0)
    if at:
        if pairs:
            d = np.concatenate([d[:cut], pairs.unmix(d[cut:], len(yb) - cut)])
        backward_layers(body[:at], d, tape, input_grad=False)
    return l1, l2, aug.closed[:cut], y1


def finetune_placeholders(model: SplitMlp, dataset: LabeledSet, config: TrainConfig,
                          log_lines: list[str] | None = None) -> SplitMlp:
    """Fine-tune a pretrained model with the placeholder losses.

    train_mode selects the objective: "baseline" returns the model untouched,
    "dummy_only" uses the classifier-placeholder loss alone, "mixup_only"
    uses plain combined cross-entropy plus gamma times the data-placeholder
    loss, and "full" uses both placeholder terms. The mixup term is skipped
    entirely (drawing nothing from the rng) when gamma == 0 or the mode does
    not use it, so full with gamma=0 is bit-identical to dummy_only.
    """
    if config.train_mode == "baseline":
        return model
    if dataset.labels.min() < 0 or dataset.labels.max() >= model.num_known:
        raise ValueError(f"labels must be in [0, {model.num_known}), got {dataset.labels.min()} "
                         f"to {dataset.labels.max()}")
    if dataset.dim != model.input_dim:
        raise ValueError(f"the set has {dataset.dim} features, but the model takes {model.input_dim}")
    beta = 0.0 if config.train_mode == "mixup_only" else config.beta
    use_mix = config.train_mode in ("mixup_only", "full") and config.gamma > 0
    rng = np.random.default_rng(config.seed)

    def step(xb: Array, yb: Array):
        if len(yb) < 2:
            return None  # a trailing single row cannot be split
        pairs = build_mix_pairs(split_batch_halves(xb, yb)[1][1], rng, config.alpha) if use_mix else None
        return finetune_step(model, xb, yb, pairs, beta, config.gamma, config.mix_mode)

    return _train_epochs(model, dataset, config, rng, "finetune", config.finetune_epochs, step, log_lines)
