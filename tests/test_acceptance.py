"""Acceptance suite: one test per criterion, one printed pass line each.

Criteria 6 and 7 share a 5-seed synthetic experiment (10-class 2-D blobs,
6 known / 4 unknown, 300 rows per class) built once per session. Observed
values from the first green run, frozen here as regression context:
mean AUC baseline 0.565, dummy_only 0.523, mixup_only 0.633, full 0.639
(margin over baseline +0.074, over best ablation +0.006); closed argmax
accuracy 0.969 pretrained vs 0.972 fine-tuned.
"""

from __future__ import annotations

import copy
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import finite_difference_gradients, rel_error
from openset.calibration import candidate_biases, known_rate, logit_gaps
from openset.cli import main
from openset.datastore import LabeledSet, OpenSplit, fit_standardization, gen_gaussian_blobs
from openset.gradcore import cross_entropy_from_logits
from openset.metrics import auc, macro_f1, openness
from openset.network import SplitMlp, predict_open
from openset.pipeline import mode_sweep, prepare
from openset.placeholders import (
    MixPairs,
    build_mix_pairs,
    loss_classifier_placeholder,
    loss_data_placeholder,
)
from openset.trainer import TrainConfig, finetune_placeholders, pretrain_closed
from test_metrics import auc_brute_force, macro_f1_by_hand

SEEDS = (0, 1, 2, 3, 4)
TASK = dict(num_classes=10, per_class=300, dim=2, center_scale=5.0, spread=0.35)
RECIPE = dict(pretrain_epochs=200, finetune_epochs=150)


def _passed(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS — {detail}")


@pytest.fixture(scope="session")
def experiment():
    """Per seed: pretrained closed model, plus each mode fine-tuned,
    calibrated, and evaluated on the open test set."""
    results = {}
    for seed in SEEDS:
        t0 = time.time()
        data = gen_gaussian_blobs(seed=seed, **TASK)
        split = OpenSplit(known_class_ids=list(range(6)), unknown_class_ids=list(range(6, 10)),
                          val_fraction=0.1, test_fraction=0.3, seed=seed)
        train, val, test, _ = prepare(data, split)

        config = TrainConfig(seed=seed, **RECIPE)
        pretrained = pretrain_closed(train, config)
        known = test.labels < 6

        def argmax_accuracy(model):
            preds = predict_open(model, test.features, bias=-1e9)
            return float((preds[known] == test.labels[known]).mean())

        per_mode = {
            mode: {
                "model": model,
                "report": report,
                "calibration": calib,
                "argmax_accuracy": argmax_accuracy(model),
            }
            for mode, (model, calib, report) in mode_sweep(pretrained, train, val, test, split,
                                                           config).items()
        }
        results[seed] = {
            "pretrained": pretrained,
            "pretrained_argmax_accuracy": argmax_accuracy(pretrained),
            "val": val,
            "test": test,
            "modes": per_mode,
            "seconds": time.time() - t0,
        }
    return results


def test_criterion_1_openness_reproduces_published_values():
    published = [((6, 10), 22.54), ((4, 14), 46.55), ((4, 54), 72.78), ((20, 200), 68.37)]
    for (n_train, n_test), expected in published:
        got = openness(n_train, n_test)
        assert abs(got - expected) < 0.01, f"openness{(n_train, n_test)} = {got}"
    _passed(1, "openness matches 22.54 / 46.55 / 72.78 / 68.37 within 0.01 pp")


def test_criterion_2_gradient_suite():
    start = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = SplitMlp.create(3, 3, 2, rng, pre_widths=(4,), post_widths=(3,))
        for layer in model.layers():
            layer.weights[:] = rng.uniform(-1.0, 1.0, size=layer.weights.shape)
            layer.biases[:] = rng.uniform(-0.5, 0.5, size=layer.biases.shape)
        x = rng.uniform(-1.0, 1.0, size=(6, 3))
        y = rng.integers(0, 3, size=6)
        pairs = MixPairs(np.array([0, 1, 2]), np.array([3, 4, 5]),
                         float(rng.uniform(0.1, 0.9)))

        def plain_ce():
            logits = model.closed_head.forward(model.embed_post(model.embed_pre(x)))
            loss, d = cross_entropy_from_logits(logits, y)
            model.backward_pre(model.backward_post(model.closed_head.backward(d)))
            return loss

        losses = [
            ("plain_ce", plain_ce),
            ("l1_beta0", lambda: loss_classifier_placeholder(model, x, y, 0.0)),
            ("l1_beta1", lambda: loss_classifier_placeholder(model, x, y, 1.0)),
            ("l2_hidden", lambda: loss_data_placeholder(model, x, pairs, "hidden")),
            ("l2_input", lambda: loss_data_placeholder(model, x, pairs, "input")),
        ]
        for name, loss_fn in losses:
            numeric = finite_difference_gradients(loss_fn, model.parameters(), h=1e-5)
            model.zero_grads()
            loss_fn()
            for analytic, fd in zip(model.gradients(), numeric):
                err = rel_error(analytic, fd)
                worst = max(worst, err)
                assert err <= 1e-4, f"{name} seed {seed}: rel err {err}"
    elapsed = time.time() - start
    assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"
    _passed(2, f"5 losses x 20 seeds, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n_k, n_u = rng.integers(1, 51, size=2)
        if trial % 2:
            known = rng.integers(0, 6, size=n_k).astype(float)
            unknown = rng.integers(0, 6, size=n_u).astype(float)
        else:
            known = rng.standard_normal(n_k)
            unknown = rng.standard_normal(n_u)
        assert auc(known, unknown) == auc_brute_force(list(known), list(unknown))
    for _ in range(50):
        num_classes = int(rng.integers(2, 8))
        n = int(rng.integers(1, 80))
        labels = rng.integers(0, num_classes, size=n)
        preds = rng.integers(0, num_classes, size=n)
        assert macro_f1(preds, labels, num_classes) == pytest.approx(
            macro_f1_by_hand(list(preds), list(labels), num_classes), abs=1e-12
        )
    _passed(3, "sorted AUC == O(n^2) enumeration on 100 cases; macro-F1 == hand oracle on 50")


def test_criterion_4_reduction_properties():
    rng = np.random.default_rng(77)
    model = SplitMlp.create(3, 4, 3, rng, pre_widths=(6,), post_widths=(5,))
    x = rng.standard_normal((64, 3))
    y = rng.integers(0, 4, size=64)

    # bias -1e9 reproduces closed-set argmax exactly
    np.testing.assert_array_equal(
        predict_open(model, x, bias=-1e9),
        model.augmented_logits(x).closed.argmax(axis=1),
    )

    # beta=0 reduces the classifier-placeholder loss to plain CE bit-exactly
    expected, _ = cross_entropy_from_logits(model.augmented_logits(x).combined, y)
    model.zero_grads()
    assert loss_classifier_placeholder(model, x, y, beta=0.0) == expected

    # gamma=0 full mode equals dummy_only: identical final weights, same seed
    data = gen_gaussian_blobs(3, 40, dim=2, center_scale=5.0, spread=0.4, seed=5)
    data = LabeledSet(fit_standardization(data.features).apply(data.features), data.labels)
    base_cfg = TrainConfig(pretrain_epochs=20, finetune_epochs=10, batch_size=32, seed=5)
    pretrained = pretrain_closed(data, base_cfg)
    a = finetune_placeholders(
        copy.deepcopy(pretrained), data,
        TrainConfig(train_mode="full", gamma=0.0, pretrain_epochs=20, finetune_epochs=10,
                    batch_size=32, seed=5))
    b = finetune_placeholders(
        copy.deepcopy(pretrained), data,
        TrainConfig(train_mode="dummy_only", pretrain_epochs=20, finetune_epochs=10,
                    batch_size=32, seed=5))
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.tobytes() == pb.tobytes()

    # empty pre-embedding makes hidden-mode mixup equal input-mode mixup
    flat = SplitMlp.create(3, 3, 2, np.random.default_rng(8), pre_widths=(), post_widths=(4,))
    twin = SplitMlp.create(3, 3, 2, np.random.default_rng(8), pre_widths=(), post_widths=(4,))
    xm = np.random.default_rng(9).uniform(-1, 1, size=(6, 3))
    pairs = MixPairs(np.array([0, 2, 4]), np.array([1, 3, 5]), 0.35)
    flat.zero_grads()
    twin.zero_grads()
    assert loss_data_placeholder(flat, xm, pairs, "hidden") == \
        loss_data_placeholder(twin, xm, pairs, "input")
    for ga, gb in zip(flat.gradients(), twin.gradients()):
        assert ga.tobytes() == gb.tobytes()

    _passed(4, "bias=-1e9 argmax, beta=0 CE, gamma=0 ≡ dummy_only, empty-pre mode equality")


def test_criterion_5_monotone_calibration(experiment):
    for seed, result in experiment.items():
        for mode, entry in result["modes"].items():
            model = entry["model"]
            val = result["val"]
            gaps = logit_gaps(model, val.features)
            sweep = np.linspace(gaps.min() - 1.0, gaps.max() + 1.0, 101)
            fractions = [
                float((predict_open(model, val.features, bias=b) < model.num_known).mean())
                for b in sweep
            ]
            assert all(a >= b for a, b in zip(fractions, fractions[1:])), \
                f"seed {seed} {mode}: known-rate not monotone"

            calib = entry["calibration"]
            candidates = candidate_biases(gaps, 100)
            any_qualifies = any(known_rate(gaps, b) >= 0.95 for b in candidates)
            if any_qualifies:
                assert calib.target_met
                assert calib.achieved_known_rate >= 0.95, \
                    f"seed {seed} {mode}: rate {calib.achieved_known_rate}"
    _passed(5, "known-rate non-increasing over 101-bias sweeps; 95% floor met on every model")


def test_criterion_6_synthetic_experiment_margins(experiment):
    full_auc = [experiment[s]["modes"]["full"]["report"].auc for s in SEEDS]
    base_auc = [experiment[s]["modes"]["baseline"]["report"].auc for s in SEEDS]
    margin = float(np.mean(full_auc)) - float(np.mean(base_auc))
    assert margin >= 0.02, f"full-baseline AUC margin {margin:.4f} < 0.02"

    pre_acc = float(np.mean([experiment[s]["pretrained_argmax_accuracy"] for s in SEEDS]))
    full_acc = float(np.mean([experiment[s]["modes"]["full"]["argmax_accuracy"] for s in SEEDS]))
    drop = pre_acc - full_acc
    assert drop <= 0.01, f"closed accuracy drop {drop:.4f} > 1 point"

    slowest = max(experiment[s]["seconds"] for s in SEEDS)
    assert slowest < 60.0, f"slowest seed took {slowest:.1f}s (all four modes included)"
    _passed(6, f"AUC margin {margin:+.4f} (full {np.mean(full_auc):.3f} vs baseline "
               f"{np.mean(base_auc):.3f}); closed drop {drop:+.4f}; slowest seed {slowest:.1f}s")


def test_criterion_7_ablation_ordering(experiment):
    means = {
        mode: float(np.mean([experiment[s]["modes"][mode]["report"].auc for s in SEEDS]))
        for mode in ("dummy_only", "mixup_only", "full")
    }
    floor = max(means["dummy_only"], means["mixup_only"]) - 0.01
    assert means["full"] >= floor, f"full {means['full']:.4f} dominated (floor {floor:.4f})"
    _passed(7, f"full {means['full']:.3f} vs dummy {means['dummy_only']:.3f} / "
               f"mixup {means['mixup_only']:.3f}")


def test_criterion_8_determinism_end_to_end(tmp_path):
    base = json.loads((Path(__file__).parent.parent / "configs" / "blobs6.json").read_text())
    # shrink the run: determinism is about equal configs, not scale
    base["train"].update({"pretrain_epochs": 20, "finetune_epochs": 15, "batch_size": 64})
    base["dataset"]["per_class"] = 80
    outputs = []
    for name in ("a", "b"):
        doc = json.loads(json.dumps(base))
        doc["output_dir"] = str(tmp_path / name)
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(doc, indent=2))
        assert main(["run", "--config", str(cfg_path)]) == 0
        outputs.append(tmp_path / name)
    for artifact in ("report.json", "checkpoint.json"):
        assert (outputs[0] / artifact).read_bytes() == (outputs[1] / artifact).read_bytes(), \
            f"{artifact} differs between identical runs"
    _passed(8, "two runs of one config: report and checkpoint byte-identical")


def test_criterion_9_mixup_pairing():
    rng = np.random.default_rng(555)
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 40))
        labels = rng.integers(0, rng.integers(1, 6), size=n)
        pairs = build_mix_pairs(labels, rng)
        assert np.all(labels[pairs.left] != labels[pairs.right])
        checked += len(pairs)

    a = np.random.default_rng(0).standard_normal((5, 3))
    b = np.random.default_rng(1).standard_normal((5, 3))
    from openset.placeholders import mix_hidden

    np.testing.assert_array_equal(mix_hidden(a, b, 1.0), a)
    np.testing.assert_array_equal(mix_hidden(a, b, 0.0), b)
    _passed(9, f"10^4 random batches, {checked} surviving pairs all cross-class; "
               "lambda 0/1 identities exact")
