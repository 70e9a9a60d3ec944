"""Seeded workload inputs, written before any timed process starts.

Every function here is deterministic in its `seed` argument: the same seed
writes the same bytes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

BLOBS6_CONFIG = Path("configs") / "blobs6.json"
GOLDEN_DIR = Path("out") / "blobs6"

# wide_idx: MNIST-shaped images whose class structure lives in a small latent
# space, so the classes overlap and detection AUC stays well below 1.
IDX_SIDE = 28
IDX_CLASSES = 10
IDX_PER_CLASS = 700
IDX_LATENT_DIM = 8
IDX_CLASS_SPREAD = 2.2   # distance scale of class means in latent units
IDX_PIXEL_NOISE = 24.0   # grey levels
IDX_DESIGN_SEED = 784    # fixes the class means and the image basis for every run
IDX_EPOCHS = (20, 12)    # pretrain, finetune
# a larger validation split and a finer bias grid keep macro-F1 from jumping
# between seeds with the calibrated threshold
IDX_VAL_FRACTION = 0.25
IDX_CALIBRATION_INTERVALS = 1000

# open_eval: the committed blobs6 task at a larger size, split by the seed.
EVAL_PER_CLASS = 3000
EVAL_VAL_FRACTION = 0.3
EVAL_TEST_FRACTION = 0.5
GRID_RESOLUTION = 300
GRID_RANGE = (-7.0, 7.0, -7.0, 7.0)


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def blobs6_config(work: Path) -> Path:
    """The bundled config with only `output_dir` moved into `work`."""
    doc = json.loads(BLOBS6_CONFIG.read_text(encoding="utf-8"))
    doc["output_dir"] = str(work / "out")
    return _write_json(work / "blobs6.json", doc)


def _smooth_basis(rng: np.random.Generator) -> np.ndarray:
    """IDX_LATENT_DIM unit-norm images, each a sum of a few Gaussian strokes."""
    yy, xx = np.mgrid[0:IDX_SIDE, 0:IDX_SIDE].astype(np.float64)
    basis = np.zeros((IDX_LATENT_DIM, IDX_SIDE * IDX_SIDE))
    for b in range(IDX_LATENT_DIM):
        img = np.zeros((IDX_SIDE, IDX_SIDE))
        for _ in range(3):
            cy, cx = rng.uniform(5, IDX_SIDE - 5, size=2)
            width = rng.uniform(2.0, 4.5)
            img += rng.choice([-1.0, 1.0]) * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
        basis[b] = img.ravel() / np.linalg.norm(img)
    return basis


def idx_images(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(N x 28 x 28 uint8 images, N uint8 labels). Class means and the basis
    are fixed; `seed` draws the latent samples and the pixel noise."""
    design = np.random.default_rng(IDX_DESIGN_SEED)
    basis = _smooth_basis(design)
    means = IDX_CLASS_SPREAD * design.standard_normal((IDX_CLASSES, IDX_LATENT_DIM))
    rng = np.random.default_rng(seed)
    n = IDX_CLASSES * IDX_PER_CLASS
    labels = np.repeat(np.arange(IDX_CLASSES), IDX_PER_CLASS)
    latent = means[labels] + rng.standard_normal((n, IDX_LATENT_DIM))
    pixels = 110.0 + 60.0 * latent @ basis + IDX_PIXEL_NOISE * rng.standard_normal((n, IDX_SIDE * IDX_SIDE))
    order = rng.permutation(n)
    images = np.clip(np.rint(pixels[order]), 0, 255).astype(np.uint8)
    return images.reshape(n, IDX_SIDE, IDX_SIDE), labels[order].astype(np.uint8)


def write_idx_pair(images: np.ndarray, labels: np.ndarray, images_path: Path, labels_path: Path) -> None:
    """Big-endian IDX files as `openset.datastore.load_idx` reads them."""
    n, rows, cols = images.shape
    images_path.write_bytes(struct.pack(">4I", 0x00000803, n, rows, cols) + images.tobytes())
    labels_path.write_bytes(struct.pack(">2I", 0x00000801, n) + labels.tobytes())


def wide_idx_config(work: Path, seed: int) -> Path:
    images_path = work / "images.idx3-ubyte"
    labels_path = work / "labels.idx1-ubyte"
    write_idx_pair(*idx_images(seed), images_path, labels_path)
    doc = json.loads(BLOBS6_CONFIG.read_text(encoding="utf-8"))
    doc["dataset"] = {"idx_images": str(images_path), "idx_labels": str(labels_path)}
    doc["train"]["pretrain_epochs"], doc["train"]["finetune_epochs"] = IDX_EPOCHS
    doc["split"]["val_fraction"] = IDX_VAL_FRACTION
    doc["calibration"]["intervals"] = IDX_CALIBRATION_INTERVALS
    doc["output_dir"] = str(work / "out")
    return _write_json(work / "wide_idx.json", doc)


def open_eval_config(work: Path, seed: int) -> Path:
    """blobs6's dataset (generator seed kept at 0, so the classes match the
    committed checkpoint) at EVAL_PER_CLASS rows per class, split by `seed`."""
    doc = json.loads(BLOBS6_CONFIG.read_text(encoding="utf-8"))
    doc["dataset"]["per_class"] = EVAL_PER_CLASS
    doc["split"].update(val_fraction=EVAL_VAL_FRACTION, test_fraction=EVAL_TEST_FRACTION, seed=seed)
    doc["output_dir"] = str(work / "out")
    return _write_json(work / "open_eval.json", doc)
