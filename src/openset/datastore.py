"""Dataset container, synthetic generators, CSV/IDX loaders, open-set splitting."""

from __future__ import annotations

import codecs
import json
import math
import numbers
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .gradcore import Array

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def check_int(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Raise ValueError naming `name` unless `value` is an int of at least
    `minimum` and, if given, at most `maximum`; a bool, or an integral float
    such as 2.0, is not an int."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be at most {maximum}, got {value!r}")


def check_real(name: str, value) -> None:
    """Raise ValueError naming `name` unless `value` is a real number; a bool
    or a string is not. Callers check the range themselves."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def check_scale(name: str, value) -> None:
    """Raise ValueError naming `name` unless `value` is a finite real number
    of at least 0; a bool or a string is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number of at least 0, got {value!r}")


def check_class_ids(name: str, ids) -> list[int]:
    """`ids` as a new list, after checking that it is a list (or tuple) of
    distinct ints of at least 0; raises ValueError naming `name` otherwise."""
    if not isinstance(ids, (list, tuple)):
        raise ValueError(f"{name} must be a list of class ids, got {ids!r}")
    for i, value in enumerate(ids):
        check_int(f"{name}[{i}]", value, 0)
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate class ids in {name}: {list(ids)}")
    return list(ids)


def json_text(doc) -> str:
    """The text `json.dumps` writes for `doc` with a two-space indent and
    `allow_nan=False`, byte for byte, where `doc` may also hold numpy int
    and float arrays. Their numbers are formatted with `repr` in bulk: a
    1-D or 2-D array with one join. A non-finite number raises ValueError;
    an array of another dtype, such as bool, raises TypeError."""
    return _json(doc, "\n")


def _json(value, newline: str) -> str:
    inner = newline + "  "
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iuf":
            raise TypeError(f"cannot write a {value.dtype} array as JSON")
        if not np.isfinite(value).all():
            raise ValueError("cannot write a non-finite number as JSON")
        return _json_array(value, newline)
    if isinstance(value, dict):
        if any(not isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be strings")
        return _block("{}", [f"{json.dumps(key)}: {_json(v, inner)}" for key, v in value.items()], newline)
    if isinstance(value, (list, tuple)):
        return _block("[]", [_json(v, inner) for v in value], newline)
    return json.dumps(value, allow_nan=False)


def _json_array(a: Array, newline: str) -> str:
    if a.ndim == 0:
        return repr(a.item())
    inner = newline + "  "
    if a.ndim == 1:
        items = list(map(repr, a.tolist()))
    elif a.ndim == 2 and a.size:
        # the whole array in one join: each number's repr after its
        # separator, which opens the array, opens a row or just continues one
        cell = inner + "  "
        parts = ["," + cell] * (2 * a.size)
        parts[0::2 * a.shape[1]] = [inner + "]," + inner + "[" + cell] * a.shape[0]
        parts[0] = "[" + inner + "[" + cell
        parts[1::2] = map(repr, a.ravel().tolist())
        parts.append(inner + "]" + newline + "]")
        return "".join(parts)
    else:
        items = [_json_array(row, inner) for row in a]
    return _block("[]", items, newline)


def _block(brackets: str, items: list[str], newline: str) -> str:
    """`items` between `brackets`, one per line, laid out as `json.dumps`
    lays them out with a two-space indent."""
    if not items:
        return brackets
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


@dataclass
class LabeledSet:
    features: Array                       # N x D float64
    labels: Array                         # N int64

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[1] == 0:
            raise ValueError(f"features must be 2-D with at least 1 column, got shape {self.features.shape}")
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValueError(
                f"{self.labels.shape[0]} labels for {self.features.shape[0]} feature rows"
            )

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class OpenSplit:
    """Which classes are known/unknown and how known rows are partitioned."""

    known_class_ids: list[int]
    unknown_class_ids: list[int] = field(default_factory=list)
    val_fraction: float = 0.1
    test_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        self.known_class_ids = check_class_ids("known_class_ids", self.known_class_ids)
        self.unknown_class_ids = check_class_ids("unknown_class_ids", self.unknown_class_ids)
        if len(self.known_class_ids) < 2:
            raise ValueError("need at least 2 known classes")
        overlap = set(self.known_class_ids) & set(self.unknown_class_ids)
        if overlap:
            raise ValueError(f"classes cannot be both known and unknown: {sorted(overlap)}")
        check_real("val_fraction", self.val_fraction)
        check_real("test_fraction", self.test_fraction)
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.val_fraction + self.test_fraction >= 1.0:
            raise ValueError("val_fraction + test_fraction must leave room for training rows")
        check_int("seed", self.seed, 0)


@dataclass
class Standardization:
    """Per-dimension affine transform fitted on training rows only."""

    mean: Array
    std: Array

    def apply(self, features: Array, out: Array | None = None) -> Array:
        """`(features - mean) / std`, written into `out` when given (which may
        be `features` itself, to standardize in place), else into a new array."""
        z = np.subtract(features, self.mean, out=out)
        return np.divide(z, self.std, out=z)


def fit_standardization(features: Array) -> Standardization:
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return Standardization(mean, std)


def gen_gaussian_blobs(num_classes: int = 10, per_class: int = 300, dim: int = 2,
                       center_scale: float = 4.0, spread: float = 0.6,
                       seed: int = 0) -> LabeledSet:
    """Class centers uniform in [-center_scale, center_scale]^dim, points
    Gaussian around their center with standard deviation `spread`. Each
    field is checked first; a bad one raises ValueError naming it."""
    check_int("num_classes", num_classes, 1)
    check_int("per_class", per_class, 1)
    check_int("dim", dim, 1)
    check_scale("center_scale", center_scale)
    check_scale("spread", spread)
    check_int("seed", seed, 0)
    _check_size({"num_classes": num_classes, "per_class": per_class}, dim)
    if not math.isfinite(2.0 * center_scale):
        raise ValueError(f"center_scale {center_scale!r} is too large: the range of centers overflows")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-center_scale, center_scale, size=(num_classes, dim))
    labels = np.repeat(np.arange(num_classes), per_class)
    features = centers[labels] + spread * rng.standard_normal((num_classes * per_class, dim))
    _check_generated(features, f"center_scale {center_scale!r} and spread {spread!r}")
    return LabeledSet(features, labels)


def gen_rings(num_classes: int = 3, per_class: int = 300, noise: float = 0.05, seed: int = 0) -> LabeledSet:
    """Concentric 2-D circles, class c at radius c+1, with radial Gaussian
    noise. Each field is checked first; a bad one raises ValueError naming it."""
    check_int("num_classes", num_classes, 1)
    check_int("per_class", per_class, 1)
    check_scale("noise", noise)
    check_int("seed", seed, 0)
    _check_size({"num_classes": num_classes, "per_class": per_class}, 2)
    rng = np.random.default_rng(seed)
    features = np.empty((num_classes * per_class, 2))
    labels = np.repeat(np.arange(num_classes), per_class)
    for c in range(num_classes):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=per_class)
        radii = (c + 1.0) + noise * rng.standard_normal(per_class)
        block = slice(c * per_class, (c + 1) * per_class)
        features[block, 0] = radii * np.cos(angles)
        features[block, 1] = radii * np.sin(angles)
    _check_generated(features, f"noise {noise!r}")
    return LabeledSet(features, labels)


def _check_size(counts: dict[str, int], width: int) -> None:
    """Raise ValueError naming `counts` unless the product of their values,
    rows of `width` float64 features, is an array numpy can size: one whose
    byte count fits in an intp."""
    if math.prod(counts.values()) * width > np.iinfo(np.intp).max // 8:
        rows = " x ".join(f"{name} {value}" for name, value in counts.items())
        raise ValueError(f"{rows} rows of {width} features are too many for one array")


def _check_generated(features: Array, params: str) -> None:
    if not np.isfinite(features).all():
        raise ValueError(f"{params} give non-finite features")


def _finite_float(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite feature {cell!r}")
    return value


def load_csv(path) -> LabeledSet:
    """Each data line: D finite decimal features then a nonnegative integer
    label, comma-separated. The first nonblank line is skipped as a header
    unless every cell is a number. Every error is a ValueError naming the
    file, and for a bad line its 1-based line number."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        lines = data.decode("utf-8-sig").splitlines()  # a leading byte-order mark is not a cell
    except UnicodeDecodeError as exc:
        at = exc.start + 3 * data.startswith(codecs.BOM_UTF8)  # the decoder counts after a mark
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {at})") from None
    rows: list[list[float]] = []
    labels: list[int] = []
    width: int | None = None
    header_allowed = True
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if header_allowed:
            header_allowed = False
            try:
                [float(c) for c in cells]
            except ValueError:
                continue  # header
        where = f"{path}: line {lineno}"
        if len(cells) < 2:
            raise ValueError(f"{where}: need at least one feature and a label")
        if width is not None and len(cells) != width + 1:
            raise ValueError(f"{where}: expected {width} features, got {len(cells) - 1}")
        try:
            feats = [_finite_float(c) for c in cells[:-1]]
            label = int(cells[-1])
        except ValueError as exc:
            raise ValueError(f"{where}: non-numeric cell ({exc})") from None
        if not 0 <= label <= np.iinfo(np.int64).max:
            raise ValueError(f"{where}: label {label} is not in [0, 2**63)")
        if width is None:
            width = len(feats)
        rows.append(feats)
        labels.append(label)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return LabeledSet(np.array(rows), np.array(labels, dtype=np.int64))


def save_csv(dataset: LabeledSet, path) -> None:
    """A header, then one `f0,...,label` line per row. Every float is written
    as its `repr`, so it reads back exactly. Each column is converted with one
    `tolist`, and the whole text is joined once and written once."""
    header = ",".join([f"f{i}" for i in range(dataset.dim)] + ["label"])
    cells = [map(repr, column) for column in dataset.features.T.tolist()]
    lines = map(",".join, zip(*cells, map(str, dataset.labels.tolist())))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join([header, *lines, ""]))


def _read_idx_header(data: bytes, path, magic: int, num_dims: int) -> tuple[list[int], int]:
    header_len = 4 * (1 + num_dims)
    if len(data) < header_len:
        raise ValueError(f"{path}: truncated IDX header")
    fields = struct.unpack(f">{1 + num_dims}I", data[:header_len])
    if fields[0] != magic:
        raise ValueError(f"{path}: bad IDX magic 0x{fields[0]:08x}, expected 0x{magic:08x}")
    return list(fields[1:]), header_len


def load_idx(images_path, labels_path) -> LabeledSet:
    """MNIST-style big-endian IDX pair. Pixels are scaled to [0, 1] and
    flattened row-major."""
    with open(images_path, "rb") as f:
        image_data = f.read()
    with open(labels_path, "rb") as f:
        label_data = f.read()
    (n_img, rows, cols), offset = _read_idx_header(image_data, images_path, IDX_IMAGE_MAGIC, 3)
    (n_lab,), lab_offset = _read_idx_header(label_data, labels_path, IDX_LABEL_MAGIC, 1)
    if rows == 0 or cols == 0:
        raise ValueError(f"{images_path}: images of {rows}x{cols} pixels, need at least 1x1")
    if n_img != n_lab:
        raise ValueError(f"{images_path}, {labels_path}: count mismatch: {n_img} images vs {n_lab} labels")
    n_pixels = n_img * rows * cols
    if len(image_data) - offset != n_pixels:
        raise ValueError(
            f"{images_path}: expected {n_pixels} pixel bytes, got {len(image_data) - offset}"
        )
    if len(label_data) - lab_offset != n_lab:
        raise ValueError(
            f"{labels_path}: expected {n_lab} label bytes, got {len(label_data) - lab_offset}"
        )
    pixels = np.frombuffer(image_data, dtype=np.uint8, offset=offset)
    features = np.divide(pixels.reshape(n_img, rows * cols), 255.0, dtype=np.float64)
    labels = np.frombuffer(label_data, dtype=np.uint8, offset=lab_offset).astype(np.int64)
    return LabeledSet(features, labels)


def split_known_unknown(dataset: LabeledSet, split: OpenSplit) -> tuple[LabeledSet, LabeledSet, LabeledSet]:
    """Partition rows into (train, val, test).

    Known classes are relabeled to contiguous [0, K) by ascending original
    id. Each known class contributes val_fraction of its rows to val and
    test_fraction to test (both rounded down, at least 1), the rest to train.
    Every unknown-class row lands in test with label K. Train and val never
    contain unknown rows.
    """
    # one binary search per class in the sorted labels: no table sized by the
    # label range, and no numpy.ma import, which np.unique would make
    sorted_labels = np.sort(dataset.labels)
    for cls in [*split.known_class_ids, *split.unknown_class_ids]:
        at = sorted_labels.searchsorted(min(cls, np.iinfo(np.int64).max))
        if at == sorted_labels.size or int(sorted_labels[at]) != cls:
            raise ValueError(f"class {cls} not present in the dataset")
    known_sorted = np.sort(split.known_class_ids)

    rng = np.random.default_rng(split.seed)
    train_idx, val_idx, test_idx = [], [], []
    for orig in known_sorted.tolist():
        rows = np.nonzero(dataset.labels == orig)[0]
        n = rows.size
        if n < 2:
            raise ValueError(f"known class {orig} has {n} rows, need at least 2")
        rows = rows[rng.permutation(n)]
        n_val = max(1, int(split.val_fraction * n))
        n_test = max(1, int(split.test_fraction * n))
        if n_val + n_test >= n:
            raise ValueError(
                f"known class {orig} has {n} rows, too few for val_fraction "
                f"{split.val_fraction} and test_fraction {split.test_fraction}"
            )
        val_idx.append(rows[:n_val])
        test_idx.append(rows[n_val:n_val + n_test])
        train_idx.append(rows[n_val + n_test:])

    # one gather in the order train, val, known test, unknown; each part is
    # a contiguous row slice of it, so no part is copied a second time
    unknown_rows = np.flatnonzero(np.isin(dataset.labels, split.unknown_class_ids))
    order = np.concatenate([*train_idx, *val_idx, *test_idx, unknown_rows])
    features = dataset.features[order]
    labels = np.searchsorted(known_sorted, dataset.labels[order]).astype(np.int64)
    labels[order.size - unknown_rows.size:] = len(known_sorted)
    n_train = sum(map(len, train_idx))
    n_val = n_train + sum(map(len, val_idx))
    return (LabeledSet(features[:n_train], labels[:n_train]),
            LabeledSet(features[n_train:n_val], labels[n_train:n_val]),
            LabeledSet(features[n_val:], labels[n_val:]))
