"""The internal fine-tune and scoring functions get what their callers promise.

The placeholder losses, `log_softmax_rows`, `cross_entropy_from_logits`,
`nll_from_log_probs`, `build_mix_pairs`, `roc_points`, `candidate_biases`,
`logit_gaps`, `fit_standardization` and `Standardization.apply` convert and
check nothing. Each rule on their inputs has one owner elsewhere: `LabeledSet`
makes int64 labels and float64 features, `pretrain_closed` and
`finetune_placeholders` keep labels in [0, K), the network makes float64
logits, `build_mix_pairs` every `MixPairs`, `evaluate` and `_finite` the ROC
scores, and `logit_gaps` and `_finite` the calibration gaps. One test spies on every
call those functions get in real runs and asserts that promise, so a lost
owner fails here rather than in a silently wrong number.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys

import numpy as np

from openset.checkpoint import load_checkpoint
from openset.cli import load_run_config, main
from openset.pipeline import prepare
from openset.trainer import finetune_placeholders

TINY_RUN = {
    "dataset": {"generator": "blobs", "num_classes": 5, "per_class": 40,
                "dim": 2, "center_scale": 5.0, "spread": 0.4, "seed": 3},
    "split": {"known_class_ids": [0, 1, 2], "unknown_class_ids": [3, 4],
              "val_fraction": 0.15, "test_fraction": 0.3, "seed": 3},
    "train": {"batch_size": 16, "pretrain_epochs": 3, "finetune_epochs": 3,
              "train_mode": "full", "mix_mode": "hidden", "seed": 3},
    "calibration": {"target_rate": 0.95, "intervals": 100},
}


def _matrix(z) -> None:
    assert isinstance(z, np.ndarray) and z.dtype == np.float64 and z.ndim == 2, (type(z), z.dtype, z.shape)


def _labels(t, rows: int) -> None:
    assert isinstance(t, np.ndarray) and t.dtype == np.int64 and t.shape == (rows,), (type(t), t.dtype, t.shape)


def _targets(t, logp) -> None:
    _labels(t, len(logp))
    assert 0 <= t.min() and t.max() < logp.shape[1], (t.min(), t.max(), logp.shape)


def _scores(s) -> None:
    assert isinstance(s, np.ndarray) and s.dtype == np.float64 and s.ndim == 1, (type(s), s.dtype, s.shape)
    assert s.size and np.isfinite(s).all()


def _mix_pairs(labels, rng, alpha, pairs) -> None:
    _labels(labels, len(labels))
    assert 0.0 <= pairs.lam <= 1.0
    assert len(pairs.left) == len(pairs.right)


# (module, function or Class.method) -> check(*args, result, **kwargs)
CHECKS = {
    ("openset.gradcore", "log_softmax_rows"): lambda z, out: _matrix(z),
    ("openset.gradcore", "cross_entropy_from_logits"): lambda z, t, out: (_matrix(z), _labels(t, len(z))),
    ("openset.gradcore", "nll_from_log_probs"): lambda logp, t, out: (_matrix(logp), _targets(t, logp)),
    ("openset.placeholders", "masked_logits"): lambda z, t, out: (_matrix(z), _labels(t, len(z))),
    ("openset.placeholders", "loss_classifier_placeholder"): lambda z, t, beta, out: (_matrix(z), _labels(t, len(z))),
    ("openset.placeholders", "loss_data_placeholder"): lambda z, out: _matrix(z),
    ("openset.placeholders", "build_mix_pairs"): _mix_pairs,
    ("openset.metrics", "roc_points"): lambda known, unknown, out: (_scores(known), _scores(unknown)),
    ("openset.calibration", "candidate_biases"): lambda gaps, intervals, out: _scores(gaps),
    ("openset.calibration", "logit_gaps"): lambda model, features, out: _matrix(features),
    ("openset.datastore", "fit_standardization"): lambda features, out: _matrix(features),
    ("openset.datastore", "Standardization.apply"): lambda stats, features, result, out=None: _matrix(features),
}


def _spy(monkeypatch, calls: list[str]) -> None:
    """Wrap every checked function in its home module and wherever another
    `openset` module bound it by name, as `perfbench/tracer.py` installs its
    spans, or on its class for a method; each call is checked and its name
    appended to `calls`."""
    modules = [m for n, m in sys.modules.items() if n == "openset" or n.startswith("openset.")]
    for (module_name, name), check in CHECKS.items():
        owner = importlib.import_module(module_name)
        *cls, name = name.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = getattr(owner, name)

        def spy(*args, _original=original, _name=name, _check=check, **kwargs):
            result = _original(*args, **kwargs)
            _check(*args, result, **kwargs)
            calls.append(_name)
            return result

        if cls:
            monkeypatch.setattr(owner, name, spy)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, spy)


def test_each_unchecked_function_gets_what_its_owner_promises(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_RUN, "output_dir": str(out)}), encoding="utf-8")
    calls: list[str] = []
    _spy(monkeypatch, calls)

    assert main(["run", "--config", str(config)]) == 0
    assert set(calls) == {name.split(".")[-1] for _, name in CHECKS}

    model, train_config, _ = load_checkpoint(out / "checkpoint.json")
    cfg = load_run_config(config)
    train, _, _, _ = prepare(cfg.dataset.load(), cfg.split)
    calls.clear()
    finetune_placeholders(model, train, dataclasses.replace(train_config, mix_mode="input"))
    assert set(calls) == {"log_softmax_rows", "masked_logits", "loss_classifier_placeholder",
                          "loss_data_placeholder", "cross_entropy_from_logits", "nll_from_log_probs",
                          "build_mix_pairs"}

    calls.clear()
    assert main(["evaluate", "--checkpoint", str(out / "checkpoint.json"), "--config", str(config)]) == 0
    assert calls == ["apply", "roc_points"]
    assert capsys.readouterr().out == (out / "report.json").read_text(encoding="utf-8")
