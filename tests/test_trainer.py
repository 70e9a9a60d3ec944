"""Config validation, batch splitting, pretraining, fine-tuning modes."""

from __future__ import annotations

import copy
import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import gradients, kernel_note, zero_grads
from openset.checkpoint import checkpoint_text
from openset.datastore import LabeledSet, PixelSet, Standardization, fit_standardization, gen_gaussian_blobs
from openset import trainer
from openset.gradcore import DenseLayer, SgdMomentum
from openset.network import SplitMlp
from openset.trainer import TrainConfig, finetune_placeholders, pretrain_closed, split_batch_halves


def _standardized_blobs(num_classes, per_class, seed, spread=0.5):
    data = gen_gaussian_blobs(num_classes, per_class, dim=2, center_scale=4.0,
                              spread=spread, seed=seed)
    stats = fit_standardization(data.features)
    return LabeledSet(stats.apply(data.features), data.labels)


# the standardization a checkpoint of these 2-D models is written with
IDENTITY_2D = Standardization(np.zeros(2), np.ones(2))


class TestTrainConfig:
    def test_defaults_are_the_published_recipe(self):
        cfg = TrainConfig()
        assert cfg.beta == 1.0
        assert cfg.gamma == 0.1
        assert cfg.num_dummy == 5
        assert cfg.alpha == 2.0
        assert cfg.learning_rate == 0.001
        assert cfg.momentum == 0.9
        assert cfg.batch_size == 128

    @pytest.mark.parametrize("bad", [
        {"beta": -0.1},
        {"gamma": -1.0},
        {"num_dummy": 0},
        {"alpha": 0.0},
        {"learning_rate": 0.0},
        {"momentum": 1.0},
        {"batch_size": 1},
        {"mix_mode": "both"},
        {"train_mode": "everything"},
        {"pretrain_epochs": -1},
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"beta": math.nan},
        {"beta": math.inf},
        {"gamma": math.nan},
        {"gamma": math.inf},
        {"alpha": math.nan},
        {"alpha": math.inf},
        {"batch_size": 16.5},
        {"batch_size": 16.0},
        {"num_dummy": 2.5},
        {"seed": 1.5},
        {"seed": -1},
        {"pretrain_epochs": True},
        {"finetune_epochs": 2.5},
        {"learning_rate": -0.1},
        {"momentum": -0.1},
        {"momentum": math.nan},
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)


class TestSplitBatchHalves:
    @pytest.mark.parametrize("n,first,second", [(128, 64, 64), (5, 3, 2), (2, 1, 1)])
    def test_split_sizes(self, n, first, second):
        x = np.arange(n, dtype=np.float64)[:, None]
        y = np.arange(n)
        (x1, y1), (x2, y2) = split_batch_halves(x, y)
        assert len(x1) == len(y1) == first
        assert len(x2) == len(y2) == second
        np.testing.assert_array_equal(np.concatenate([x1, x2]), x)  # order preserved


class TestPretrainClosed:
    def test_zero_epochs_is_the_initialization(self):
        data = _standardized_blobs(3, 20, seed=0)
        cfg = TrainConfig(pretrain_epochs=0, seed=5)
        model = pretrain_closed(data, cfg)
        fresh = SplitMlp.create(2, 3, cfg.num_dummy, np.random.default_rng(5))
        for a, b in zip(model.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_separable_two_class_accuracy(self):
        data = _standardized_blobs(2, 100, seed=1)
        cfg = TrainConfig(pretrain_epochs=200, seed=1)
        log: list[str] = []
        model = pretrain_closed(data, cfg, log)
        final_acc = float(log[-1].split("\t")[3])
        assert final_acc >= 0.99

    def test_same_seed_gives_bit_identical_checkpoints(self):
        data = _standardized_blobs(3, 30, seed=2)
        cfg = TrainConfig(pretrain_epochs=5, seed=9)
        a = checkpoint_text(pretrain_closed(data, cfg), cfg, IDENTITY_2D)
        b = checkpoint_text(pretrain_closed(data, cfg), cfg, IDENTITY_2D)
        assert a == b

    def test_dummy_head_untouched(self):
        data = _standardized_blobs(3, 30, seed=2)
        cfg = TrainConfig(pretrain_epochs=5, seed=9)
        model = pretrain_closed(data, cfg)
        fresh = SplitMlp.create(2, 3, cfg.num_dummy, np.random.default_rng(9))
        np.testing.assert_array_equal(model.dummy_head.weights, fresh.dummy_head.weights)
        np.testing.assert_array_equal(model.dummy_head.biases, fresh.dummy_head.biases)

    def test_dummy_head_keeps_its_packed_zero_gradients(self):
        # nothing zeroes the gradients between steps, so the dummy head, which
        # pretraining never backpropagates into, must keep pack()'s +0.0 and
        # its initial parameters, byte for byte
        data = _standardized_blobs(3, 30, seed=2)
        cfg = TrainConfig(pretrain_epochs=5, batch_size=16, seed=9)
        model = pretrain_closed(data, cfg)
        fresh = SplitMlp.create(2, 3, cfg.num_dummy, np.random.default_rng(9))
        head = model.dummy_head
        for grad in (head.grad_weights, head.grad_biases):
            assert grad.tobytes() == np.zeros_like(grad).tobytes()
        assert head.weights.tobytes() == fresh.dummy_head.weights.tobytes()
        assert head.biases.tobytes() == fresh.dummy_head.biases.tobytes()

    def test_a_pixel_set_trains_as_its_float_features_do_without_building_them(self):
        rng = np.random.default_rng(4)
        labels = np.repeat(np.arange(3), 25)
        data = PixelSet(rng.integers(0, 256, (labels.size, 12), dtype=np.uint8), labels)
        cfg = TrainConfig(pretrain_epochs=4, finetune_epochs=3, batch_size=16, seed=4)
        identity = Standardization(np.zeros(12), np.ones(12))
        model = finetune_placeholders(pretrain_closed(data, cfg), data, cfg)
        assert "features" not in vars(data), "training built the whole float matrix"
        floats = LabeledSet(data.features, data.labels)
        want = finetune_placeholders(pretrain_closed(floats, cfg), floats, cfg)
        assert checkpoint_text(model, cfg, identity) == checkpoint_text(want, cfg, identity)

    def test_single_class_rejected(self):
        data = LabeledSet(np.zeros((4, 2)), np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            pretrain_closed(data, TrainConfig())

    def test_an_empty_set_is_refused_by_the_model(self):
        # no label gives K = 0, and SplitMlp refuses fewer than 2 known classes
        with pytest.raises(ValueError, match="need at least 2 known classes, got 0"):
            pretrain_closed(LabeledSet(np.zeros((0, 2)), []), TrainConfig())

    def test_a_negative_label_is_refused(self):
        with pytest.raises(ValueError, match="no negative elements"):
            pretrain_closed(LabeledSet(np.zeros((4, 2)), [0, 1, -1, 1]), TrainConfig())

    def test_labels_with_a_gap_rejected(self):
        # K is the largest label + 1, so labels {0, 2} would build a class 1 with no rows
        data = LabeledSet(np.zeros((4, 2)), np.array([0, 2, 0, 2]))
        with pytest.raises(ValueError, match=re.escape("labels must cover [0, 3), but class 1 has no rows")):
            pretrain_closed(data, TrainConfig())

    def test_smoothed_loss_trace_non_increasing(self):
        data = _standardized_blobs(2, 100, seed=1)
        log: list[str] = []
        pretrain_closed(data, TrainConfig(pretrain_epochs=80, seed=3), log)
        losses = [float(line.split("\t")[1]) for line in log]
        window = 10
        smoothed = [sum(losses[i:i + window]) / window for i in range(len(losses) - window + 1)]
        assert all(b <= a + 1e-6 for a, b in zip(smoothed, smoothed[1:]))


class TestFinetunePlaceholders:
    def _pretrained(self, seed=0, num_classes=3):
        data = _standardized_blobs(num_classes, 40, seed=seed)
        cfg = TrainConfig(pretrain_epochs=30, finetune_epochs=10, batch_size=32, seed=seed)
        return data, cfg, pretrain_closed(data, cfg)

    def test_baseline_mode_returns_model_unchanged(self):
        data, cfg, model = self._pretrained()
        before = copy.deepcopy(model.parameters())
        out = finetune_placeholders(model, data, TrainConfig(train_mode="baseline"))
        assert out is model
        for a, b in zip(out.parameters(), before):
            np.testing.assert_array_equal(a, b)

    def test_mixup_only_drops_the_masked_term(self):
        # mixup_only with gamma=0 reduces to plain combined CE: beta must be ignored
        data, cfg, model = self._pretrained()
        twin = copy.deepcopy(model)
        a_cfg = TrainConfig(train_mode="mixup_only", beta=1.0, gamma=0.0,
                            finetune_epochs=5, batch_size=32, seed=1)
        b_cfg = TrainConfig(train_mode="mixup_only", beta=7.0, gamma=0.0,
                            finetune_epochs=5, batch_size=32, seed=1)
        finetune_placeholders(model, data, a_cfg)
        finetune_placeholders(twin, data, b_cfg)
        for a, b in zip(model.parameters(), twin.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_deterministic_given_seed(self):
        data, cfg, model = self._pretrained()
        twin = copy.deepcopy(model)
        finetune_placeholders(model, data, cfg)
        finetune_placeholders(twin, data, cfg)
        assert checkpoint_text(model, cfg, IDENTITY_2D) == checkpoint_text(twin, cfg, IDENTITY_2D)

    def test_full_mode_trains_and_logs(self):
        data, cfg, model = self._pretrained()
        log: list[str] = []
        finetune_placeholders(model, data, cfg, log)
        assert len(log) == cfg.finetune_epochs
        for line in log:
            fields = line.split("\t")
            assert len(fields) == 4
            float(fields[1]), float(fields[2]), float(fields[3])
        # the mixup loss is actually being exercised
        assert any(float(line.split("\t")[2]) > 0 for line in log)

    def test_out_of_range_labels_rejected(self):
        data, cfg, model = self._pretrained(num_classes=3)
        bad = LabeledSet(data.features, np.full(len(data), 5, dtype=np.int64))
        with pytest.raises(ValueError):
            finetune_placeholders(model, bad, cfg)

    def test_a_negative_label_is_refused_naming_the_range(self):
        # without the check, label -1 would index the last logit column, with no error
        data, cfg, model = self._pretrained(num_classes=3)
        bad = LabeledSet(data.features, np.where(np.arange(len(data)) == 7, -1, data.labels))
        with pytest.raises(ValueError, match=re.escape("labels must be in [0, 3), got -1 to 2")):
            finetune_placeholders(model, bad, cfg)

    def test_a_one_row_set_names_the_epoch_without_a_step(self):
        # the split gives every known class a training row, so no command gets here
        data, cfg, model = self._pretrained()
        one_row = LabeledSet(data.features[:1], data.labels[:1])
        message = "finetune epoch 0 took no step: a fine-tune step needs a batch of at least 2 rows"
        with pytest.raises(ValueError, match=re.escape(message)):
            finetune_placeholders(model, one_row, cfg)

    def test_set_of_another_width_rejected(self):
        data, cfg, model = self._pretrained()
        wide = LabeledSet(np.zeros((len(data), 3)), data.labels)
        with pytest.raises(ValueError, match="the set has 3 features, but the model takes 2"):
            finetune_placeholders(model, wide, cfg)

    def test_dummy_training_targets_second_place(self):
        # after fine-tuning on separable data, the dummy column should sit
        # between best and worst closed logits for most training rows
        data = _standardized_blobs(3, 60, seed=4)
        cfg = TrainConfig(pretrain_epochs=150, finetune_epochs=150, batch_size=32,
                          train_mode="dummy_only", seed=4)
        model = pretrain_closed(data, cfg)
        finetune_placeholders(model, data, cfg)
        aug = model.augmented_logits(data.features)
        order = np.argsort(aug.combined, axis=1)[:, ::-1]
        ranks = np.nonzero(order == model.num_known)[1]
        assert (ranks == 1).mean() >= 0.9


def _count_forward_rows(monkeypatch):
    """Record (layer, rows) for every DenseLayer.forward call."""
    calls = []
    forward = DenseLayer.forward

    def counted(self, x):
        calls.append((self, len(x)))
        return forward(self, x)

    monkeypatch.setattr(DenseLayer, "forward", counted)
    return calls


class TestOneForwardPerRow:
    """The log's accuracy comes from the training logits: no extra pass."""

    def test_pretrain_forwards_each_row_once_per_epoch(self, monkeypatch):
        data = _standardized_blobs(3, 20, seed=0)
        cfg = TrainConfig(pretrain_epochs=4, batch_size=32, seed=0)
        calls = _count_forward_rows(monkeypatch)
        model = pretrain_closed(data, cfg, [])
        rows = sum(n for layer, n in calls if layer is model.body[0])
        assert rows == cfg.pretrain_epochs * len(data)

    def test_full_finetune_forwards_each_row_once_per_epoch(self, monkeypatch):
        data = _standardized_blobs(3, 20, seed=0)
        cfg = TrainConfig(pretrain_epochs=2, finetune_epochs=4, batch_size=32,
                          train_mode="full", mix_mode="hidden", seed=0)
        model = pretrain_closed(data, cfg)
        calls = _count_forward_rows(monkeypatch)
        finetune_placeholders(model, data, cfg, [])
        rows = sum(n for layer, n in calls if layer is model.body[0])
        assert rows == cfg.finetune_epochs * len(data)

    def test_full_finetune_skips_a_trailing_single_row(self, monkeypatch):
        # the last batch of 2 * batch_size + 1 rows holds one row, which cannot
        # be split into two halves: the step skips it before any forward
        cfg = TrainConfig(pretrain_epochs=2, finetune_epochs=3, batch_size=16,
                          train_mode="full", seed=0)
        data = _standardized_blobs(3, 11, seed=0)
        assert len(data) == 2 * cfg.batch_size + 1
        model = pretrain_closed(data, cfg)
        calls = _count_forward_rows(monkeypatch)
        steps = []
        step = SgdMomentum.step

        def counted(optimizer, grads):
            steps.append(grads)
            step(optimizer, grads)

        monkeypatch.setattr(SgdMomentum, "step", counted)
        finetune_placeholders(model, data, cfg, [])
        assert len(steps) == 2 * cfg.finetune_epochs
        rows = sum(n for layer, n in calls if layer is model.body[0])
        assert rows == 2 * cfg.batch_size * cfg.finetune_epochs

    @pytest.mark.parametrize("mix_mode", ["hidden", "input"])
    def test_full_finetune_runs_each_layer_once_per_step(self, monkeypatch, mix_mode):
        # one forward and one backward per layer and step: 6 and 6 on the
        # default net, where one pass per loss made 12 and 12
        data = _standardized_blobs(3, 20, seed=0)
        cfg = TrainConfig(pretrain_epochs=2, finetune_epochs=3, batch_size=32,
                          train_mode="full", mix_mode=mix_mode, seed=0)
        model = pretrain_closed(data, cfg)
        calls = {"forward": 0, "backward": 0, "step": 0}
        for owner, name in ((DenseLayer, "forward"), (DenseLayer, "backward"), (SgdMomentum, "step")):
            def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        finetune_placeholders(model, data, cfg, [])
        assert calls["step"] == cfg.finetune_epochs * 2
        assert calls["forward"] == calls["backward"] == 6 * calls["step"]


class TestGradientsWrittenOnce:
    """Each backward overwrites its layer's gradients and nothing zeroes them
    between steps, so a step may reach each layer's backward at most once."""

    @staticmethod
    def _backward_layers_per_step(monkeypatch) -> list[list]:
        steps = [[]]
        original_backward, original_step = DenseLayer.backward, SgdMomentum.step

        def backward(layer, *args, **kwargs):
            steps[-1].append(layer)
            return original_backward(layer, *args, **kwargs)

        def step(optimizer, grads):
            original_step(optimizer, grads)
            steps.append([])

        monkeypatch.setattr(DenseLayer, "backward", backward)
        monkeypatch.setattr(SgdMomentum, "step", step)
        return steps

    def test_pretrain_steps_skip_the_dummy_head(self, monkeypatch):
        data = _standardized_blobs(3, 20, seed=0)
        cfg = TrainConfig(pretrain_epochs=2, batch_size=16, seed=0)
        steps = self._backward_layers_per_step(monkeypatch)
        model = pretrain_closed(data, cfg)
        assert steps.pop() == []
        expected = [*model.body, model.closed_head]
        assert len(steps) == cfg.pretrain_epochs * math.ceil(len(data) / cfg.batch_size)
        for layers in steps:
            assert sorted(map(id, layers)) == sorted(map(id, expected))

    @pytest.mark.parametrize("mode", ["dummy_only", "mixup_only", "full"])
    def test_finetune_steps_reach_every_layer_once(self, monkeypatch, mode):
        data = _standardized_blobs(3, 20, seed=0)
        cfg = TrainConfig(pretrain_epochs=2, finetune_epochs=2, batch_size=16, train_mode=mode, seed=0)
        model = pretrain_closed(data, cfg)
        steps = self._backward_layers_per_step(monkeypatch)
        finetune_placeholders(model, data, cfg)
        assert steps.pop() == []
        assert len(steps) == cfg.finetune_epochs * math.ceil(len(data) / cfg.batch_size)
        for layers in steps:
            assert sorted(map(id, layers)) == sorted(map(id, model.layers()))


class TestDivergence:
    def test_pretrain_raises_at_the_first_non_finite_epoch(self):
        data = _standardized_blobs(3, 30, seed=2)
        cfg = TrainConfig(pretrain_epochs=40, learning_rate=1.0, batch_size=32, seed=9)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="pretrain epoch") as info:
            pretrain_closed(data, cfg)
        epoch = int(re.search(r"pretrain epoch (\d+)", str(info.value)).group(1))
        assert epoch > 0
        # every epoch before it is finite, so the check fired at the first bad one
        log: list[str] = []
        with np.errstate(all="ignore"):
            model = pretrain_closed(data, replace(cfg, pretrain_epochs=epoch), log)
        assert len(log) == epoch
        assert all(np.isfinite(p).all() for p in model.parameters())

    def test_finetune_names_its_stage(self):
        data = _standardized_blobs(3, 30, seed=2)
        cfg = TrainConfig(pretrain_epochs=5, finetune_epochs=5, batch_size=32, seed=9)
        model = pretrain_closed(data, cfg)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"finetune epoch \d+"):
            finetune_placeholders(model, data, replace(cfg, learning_rate=50.0))


def _per_layer_train_epochs(model, dataset, config, rng, stage, epochs, step, log_lines):
    """Reference for `trainer._train_epochs`: the same batches and steps,
    with per-layer gradient zeroing and one momentum update per parameter
    array, as before the model was packed into flat buffers."""
    optimizers = [SgdMomentum(p, config.learning_rate, config.momentum) for p in model.parameters()]
    for _ in range(epochs):
        perm = rng.permutation(len(dataset))
        for start in range(0, len(dataset), config.batch_size):
            idx = perm[start:start + config.batch_size]
            zero_grads(model)
            if step(dataset.features[idx], dataset.labels[idx]) is not None:
                for optimizer, g in zip(optimizers, gradients(model)):
                    optimizer.step(g)
    return model


def _param_bytes(model):
    return [p.tobytes() for p in model.parameters()]


class TestPackedTraining:
    """The flat-buffer loop trains bit-for-bit like the per-layer reference."""

    data = _standardized_blobs(3, 25, seed=6)
    cfg = TrainConfig(pretrain_epochs=3, finetune_epochs=3, batch_size=16, seed=6)

    def test_pretrain_matches_the_per_layer_reference(self, monkeypatch):
        packed = pretrain_closed(self.data, self.cfg)
        monkeypatch.setattr(trainer, "_train_epochs", _per_layer_train_epochs)
        reference = pretrain_closed(self.data, self.cfg)
        assert _param_bytes(packed) == _param_bytes(reference)

    @pytest.mark.parametrize("mix_mode", ["hidden", "input"])
    def test_full_finetune_matches_the_per_layer_reference(self, monkeypatch, mix_mode):
        cfg = replace(self.cfg, train_mode="full", mix_mode=mix_mode)
        start = SplitMlp.create(2, 3, cfg.num_dummy, np.random.default_rng(2))
        packed = finetune_placeholders(copy.deepcopy(start), self.data, cfg)
        monkeypatch.setattr(trainer, "_train_epochs", _per_layer_train_epochs)
        reference = finetune_placeholders(copy.deepcopy(start), self.data, cfg)
        assert _param_bytes(packed) == _param_bytes(reference)

    def test_finetuning_a_deep_copy_of_a_trained_model(self, monkeypatch):
        # the mode sweep's path: the copy holds separate arrays, not views
        # of the buffers its original was packed into
        cfg = replace(self.cfg, train_mode="full")
        pretrained = pretrain_closed(self.data, cfg)
        original = _param_bytes(pretrained)
        packed = finetune_placeholders(copy.deepcopy(pretrained), self.data, cfg)
        assert _param_bytes(pretrained) == original
        monkeypatch.setattr(trainer, "_train_epochs", _per_layer_train_epochs)
        reference = finetune_placeholders(copy.deepcopy(pretrained), self.data, cfg)
        assert _param_bytes(packed) == _param_bytes(reference)
        assert _param_bytes(packed) != original


# sha256 of each tiny training's packed parameters and both logs, frozen on
# the SkylakeX kernel; (train_mode, mix_mode) -> digest
MODE_DIGESTS = {
    ("dummy_only", "hidden"): "aeafd130dc4a209334ab9e83fb9ea7505f6760a9b9de8a6d3d54b25d67b30fcd",
    ("dummy_only", "input"): "aeafd130dc4a209334ab9e83fb9ea7505f6760a9b9de8a6d3d54b25d67b30fcd",
    ("mixup_only", "hidden"): "c5aaf16f7a8b20015c0ac5f4cfb70beaea3edc09580abde3dd94d2765d0a981b",
    ("mixup_only", "input"): "b9441daa64304701ef585728802d7a3f82167ad555f73c4b6a9c06bc13580f6b",
    ("full", "hidden"): "75b32b7e636b2b54ca5a043fc7ca0e1550ab595c70a3ae753f294a509c12d40a",
    ("full", "input"): "2f29baf2dc4aaeff8cfbc5e916e264745ea4f5d88e587328d7425c647a5c220f",
}


@pytest.mark.parametrize("train_mode, mix_mode", MODE_DIGESTS)
def test_every_mode_and_mix_mode_keeps_its_bytes(train_mode, mix_mode):
    # 36 rows in batches of 7 end in a 1-row batch, which fine-tuning skips,
    # and every other batch splits into halves of 4 and 3 rows
    data = _standardized_blobs(3, 12, seed=4)
    cfg = TrainConfig(pretrain_epochs=3, finetune_epochs=3, batch_size=7,
                      train_mode=train_mode, mix_mode=mix_mode, seed=4)
    log: list[str] = []
    model = finetune_placeholders(pretrain_closed(data, cfg, log), data, cfg, log)
    digest = hashlib.sha256(model.pack()[0].tobytes() + "\n".join(log).encode()).hexdigest()
    assert digest == MODE_DIGESTS[train_mode, mix_mode], kernel_note()
