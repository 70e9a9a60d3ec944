"""Acceptance suite: one test per criterion, one printed pass line each.

Criteria 5, 6 and 7 share a 5-seed experiment on the synthetic blob task
of `configs/blobs6.json` (every seed set by `RunConfig.at_seed`), built
once per session; its seed 0 is the golden `openset run`. Observed
values from the first green run, frozen here as regression context:
mean AUC baseline 0.565, dummy_only 0.523, mixup_only 0.633, full 0.639
(margin over baseline +0.074, over best ablation +0.006); closed argmax
accuracy 0.969 pretrained vs 0.972 fine-tuned.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import finite_difference_gradients, gradients, known_rate, rel_error, zero_grads
from openset.calibration import candidate_biases, logit_gaps
from openset.cli import load_run_config, main
from openset.datastore import LabeledSet, fit_standardization, gen_gaussian_blobs, json_text
from openset.gradcore import cross_entropy_from_logits
from openset.metrics import auc, macro_f1, openness
from openset.network import SplitMlp, predict_open
from openset.pipeline import closed_accuracy, experiment as run_experiment, prepare
from openset.placeholders import MixPairs, build_mix_pairs
from openset.trainer import TrainConfig, finetune_placeholders, finetune_step, pretrain_closed, pretrain_step
from test_metrics import auc_brute_force, macro_f1_by_hand
from test_placeholders import step_loss

ROOT = Path(__file__).resolve().parent.parent
BLOBS6 = ROOT / "configs" / "blobs6.json"
SEEDS = (0, 1, 2, 3, 4)


def _passed(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS — {detail}")


@pytest.fixture(scope="session")
def experiment():
    """Per seed: the blob task's experiment (pretrained model, validation and
    test parts, mode -> (model, calibration, report)) and its seconds."""
    base = load_run_config(BLOBS6, ("dataset", "split", "train"))
    runs = {}
    for seed in SEEDS:
        t0 = time.time()
        cfg = base.at_seed(seed)
        train, val, test, _ = prepare(cfg.dataset.load(), cfg.split)
        pretrained, modes = run_experiment(train, val, test, cfg.split, cfg.train, cfg.calibration)
        runs[seed] = ((pretrained, val, test, modes), time.time() - t0)
    return runs


def _mean_auc(experiment, mode: str) -> float:
    return float(np.mean([modes[mode][2].auc for (*_, modes), _ in experiment.values()]))


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
        # indices into the batch's second half, rows 3 to 5
        pairs = MixPairs(np.array([0, 1, 2]), np.array([2, 0, 1]),
                         float(rng.uniform(0.1, 0.9)))

        losses = [
            ("pretrain", lambda: pretrain_step(model, x, y)[0]),
            ("l1_beta0", lambda: step_loss(model, x, y, None, 0.0, 1.0, "hidden")),
            ("l1_beta1", lambda: step_loss(model, x, y, None, 1.0, 1.0, "hidden")),
            ("l2_hidden", lambda: step_loss(model, x, y, pairs, 1.0, 1.0, "hidden")),
            ("l2_input", lambda: step_loss(model, x, y, pairs, 1.0, 1.0, "input")),
        ]
        for name, loss_fn in losses:
            numeric = finite_difference_gradients(loss_fn, model.parameters(), h=1e-5)
            zero_grads(model)
            loss_fn()
            for analytic, fd in zip(gradients(model), numeric):
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
    expected, _ = cross_entropy_from_logits(model.augmented_logits(x[:32]).combined, y[:32])
    zero_grads(model)
    assert finetune_step(model, x, y, None, 0.0, 0.0, "hidden")[0] == expected

    # gamma=0 full mode equals dummy_only: identical final weights, same seed
    data = gen_gaussian_blobs(3, 40, dim=2, center_scale=5.0, spread=0.4, seed=5)
    data = LabeledSet(fit_standardization(data.features).apply(data.features), data.labels)
    base_cfg = TrainConfig(pretrain_epochs=20, finetune_epochs=10, batch_size=32, seed=5)
    pretrained = pretrain_closed(data, base_cfg)
    a = finetune_placeholders(copy.deepcopy(pretrained), data, replace(base_cfg, train_mode="full", gamma=0.0))
    b = finetune_placeholders(copy.deepcopy(pretrained), data, replace(base_cfg, train_mode="dummy_only"))
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.tobytes() == pb.tobytes()

    # empty pre-embedding makes hidden-mode mixup equal input-mode mixup
    flat = SplitMlp.create(3, 3, 2, np.random.default_rng(8), pre_widths=(), post_widths=(4,))
    twin = SplitMlp.create(3, 3, 2, np.random.default_rng(8), pre_widths=(), post_widths=(4,))
    xm = np.random.default_rng(9).uniform(-1, 1, size=(12, 3))
    ym = np.random.default_rng(10).integers(0, 3, size=12)
    pairs = MixPairs(np.array([0, 2, 4]), np.array([1, 3, 5]), 0.35)
    zero_grads(flat)
    zero_grads(twin)
    assert finetune_step(flat, xm, ym, pairs, 1.0, 0.1, "hidden")[:2] == \
        finetune_step(twin, xm, ym, pairs, 1.0, 0.1, "input")[:2]
    for ga, gb in zip(gradients(flat), gradients(twin)):
        assert ga.tobytes() == gb.tobytes()

    # a linear pre-layer commutes with mixing, so hidden-mode mixup, whose
    # gradient is scattered back to the mixed rows, equals input-mode mixup
    # up to rounding (an empty pre-embedding discards that scatter)
    linear = SplitMlp.create(3, 3, 2, np.random.default_rng(8), pre_widths=(5,), post_widths=(4,))
    linear.pre_layers[0].activation = "linear"
    twin = copy.deepcopy(linear)
    zero_grads(linear)
    zero_grads(twin)
    np.testing.assert_allclose(finetune_step(linear, xm, ym, pairs, 1.0, 0.1, "hidden")[:2],
                               finetune_step(twin, xm, ym, pairs, 1.0, 0.1, "input")[:2], rtol=1e-12)
    for ga, gb in zip(gradients(linear), gradients(twin)):
        np.testing.assert_allclose(ga, gb, rtol=1e-9, atol=1e-15)

    _passed(4, "bias=-1e9 argmax, beta=0 CE, gamma=0 ≡ dummy_only, hidden ≡ input mixing (empty or linear pre)")


def test_criterion_5_monotone_calibration(experiment):
    for seed, ((_, val, _, modes), _) in experiment.items():
        for mode, (model, calib, _) in modes.items():
            gaps = logit_gaps(model, val.features)
            sweep = np.linspace(gaps.min() - 1.0, gaps.max() + 1.0, 101)
            fractions = [
                float((predict_open(model, val.features, bias=b) < model.num_known).mean())
                for b in sweep
            ]
            assert all(a >= b for a, b in zip(fractions, fractions[1:])), \
                f"seed {seed} {mode}: known-rate not monotone"

            if any(known_rate(gaps, b) >= 0.95 for b in candidate_biases(gaps, 100)):
                assert calib.target_met
                assert calib.achieved_known_rate >= 0.95, \
                    f"seed {seed} {mode}: rate {calib.achieved_known_rate}"
    _passed(5, "known-rate non-increasing over 101-bias sweeps; 95% floor met on every model")


def test_criterion_6_synthetic_experiment_margins(experiment):
    full_auc, base_auc = _mean_auc(experiment, "full"), _mean_auc(experiment, "baseline")
    margin = full_auc - base_auc
    assert margin >= 0.02, f"full-baseline AUC margin {margin:.4f} < 0.02"

    runs = [run for run, _ in experiment.values()]
    pre_acc = float(np.mean([closed_accuracy(pretrained, test) for pretrained, _, test, _ in runs]))
    full_acc = float(np.mean([closed_accuracy(modes["full"][0], test) for _, _, test, modes in runs]))
    drop = pre_acc - full_acc
    assert drop <= 0.01, f"closed accuracy drop {drop:.4f} > 1 point"

    slowest = max(seconds for _, seconds in experiment.values())
    assert slowest < 60.0, f"slowest seed took {slowest:.1f}s (all four modes included)"
    _passed(6, f"AUC margin {margin:+.4f} (full {full_auc:.3f} vs baseline "
               f"{base_auc:.3f}); closed drop {drop:+.4f}; slowest seed {slowest:.1f}s")


def test_criterion_7_ablation_ordering(experiment):
    means = {mode: _mean_auc(experiment, mode) for mode in ("dummy_only", "mixup_only", "full")}
    floor = max(means["dummy_only"], means["mixup_only"]) - 0.01
    assert means["full"] >= floor, f"full {means['full']:.4f} dominated (floor {floor:.4f})"
    _passed(7, f"full {means['full']:.3f} vs dummy {means['dummy_only']:.3f} / "
               f"mixup {means['mixup_only']:.3f}")


def test_seed_0_full_mode_is_the_golden_run(experiment):
    (*_, modes), _ = experiment[0]
    _, calib, report = modes["full"]
    golden = ROOT / "out" / "blobs6"
    assert report.to_text().encode() == (golden / "report.json").read_bytes()
    assert (json_text(asdict(calib)) + "\n").encode() == (golden / "calibration.json").read_bytes()


def test_criterion_8_determinism_end_to_end(tmp_path):
    base = json.loads(BLOBS6.read_text())
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
        pairs = build_mix_pairs(labels, rng, 2.0)
        assert np.all(labels[pairs.left] != labels[pairs.right])
        checked += len(pairs)

    a = np.random.default_rng(0).standard_normal((5, 3))
    b = np.random.default_rng(1).standard_normal((5, 3))
    from openset.placeholders import mix_hidden

    np.testing.assert_array_equal(mix_hidden(a, b, 1.0), a)
    np.testing.assert_array_equal(mix_hidden(a, b, 0.0), b)
    _passed(9, f"10^4 random batches, {checked} surviving pairs all cross-class; "
               "lambda 0/1 identities exact")
