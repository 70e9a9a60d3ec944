"""Versioned text checkpoints: the model as `SplitMlp` holds it (input
width, split index, body layers, both heads, calibration bias), its
training config and its standardization.

Weights round-trip through decimal text exactly (repr of a float64 parses
back to the same bits), so a saved and reloaded model produces bit-identical
logits.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .datastore import Standardization, check_real, json_text
from .gradcore import DenseLayer
from .network import SplitMlp
from .trainer import TrainConfig

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


def _layer_doc(layer: DenseLayer) -> dict:
    return {"activation": layer.activation, "weights": layer.weights, "biases": layer.biases}


def _finite(field: str, value):
    if not np.isfinite(value).all():  # json.loads reads NaN, Infinity and 1e999 (inf)
        raise CheckpointError(f"non-finite number in {field}")
    return value


def _layer_from_doc(doc: dict, field: str) -> DenseLayer:
    return DenseLayer(_finite(f"{field}.weights", np.array(doc["weights"], dtype=np.float64)),
                      _finite(f"{field}.biases", np.array(doc["biases"], dtype=np.float64)),
                      doc["activation"])


def checkpoint_text(model: SplitMlp, config: TrainConfig, standardization: Standardization) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "input_dim": model.input_dim,
        "split_index": model.split_index,
        "body": [_layer_doc(layer) for layer in model.body],
        "closed_head": _layer_doc(model.closed_head),
        "dummy_head": _layer_doc(model.dummy_head),
        "calibration_bias": model.calibration_bias,
        "train_config": asdict(config),
        "standardization": {"mean": standardization.mean, "std": standardization.std},
    }
    return json_text(doc) + "\n"


def save_checkpoint(path, model: SplitMlp, config: TrainConfig, standardization: Standardization) -> None:
    text = checkpoint_text(model, config, standardization)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_checkpoint(path) -> tuple[SplitMlp, TrainConfig, Standardization]:
    """The model, its training config and its standardization.
    A file that is not a consistent checkpoint raises CheckpointError
    naming it: every number must be finite, `SplitMlp` must accept the
    model (its width chain, split index and head widths), and the
    standardization must be `input_dim` long with a positive std."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.loads(f.read())
    except (ValueError, RecursionError) as exc:  # invalid or too deeply nested JSON, bad UTF-8, an integer too long
        raise CheckpointError(f"{path}: not a valid checkpoint ({exc})") from None
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CheckpointError(f"{path}: missing format_version")
    version = doc["format_version"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format version {version!r}, this build reads version {FORMAT_VERSION}"
        )
    try:
        bias = doc["calibration_bias"]
        check_real("calibration_bias", bias)
        model = SplitMlp(
            body=[_layer_from_doc(d, f"body[{i}]") for i, d in enumerate(doc["body"])],
            split_index=doc["split_index"],
            closed_head=_layer_from_doc(doc["closed_head"], "closed_head"),
            dummy_head=_layer_from_doc(doc["dummy_head"], "dummy_head"),
            input_dim=doc["input_dim"],
            calibration_bias=_finite("calibration_bias", float(bias)),
        )
        config = TrainConfig(**doc["train_config"])
        std_doc = doc["standardization"]
        if not isinstance(std_doc, dict):
            raise CheckpointError(f"standardization must be an object with mean and std, got {std_doc!r}")
        standardization = Standardization(
            _finite("standardization.mean", np.array(std_doc["mean"], dtype=np.float64)),
            _finite("standardization.std", np.array(std_doc["std"], dtype=np.float64)),
        )
        for key, values in vars(standardization).items():
            if values.shape != (model.input_dim,):
                raise CheckpointError(f"standardization.{key} has shape {values.shape}, "
                                      f"expected ({model.input_dim},)")
        if not (standardization.std > 0).all():
            raise CheckpointError("standardization.std must be positive")
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint ({exc})") from None
    return model, config, standardization
