"""Generators, CSV and IDX loaders, standardization, open-set splitting."""

from __future__ import annotations

import json
import math
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from openset.datastore import (
    LabeledSet,
    OpenSplit,
    check_int,
    check_real,
    fit_standardization,
    gen_gaussian_blobs,
    gen_rings,
    json_text,
    load_csv,
    load_idx,
    save_csv,
    split_known_unknown,
)
from conftest import gradients, write_idx_pair, zero_grads
from openset.gradcore import DenseLayer, SgdMomentum, cross_entropy_from_logits


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e300, -1e300, 2.0, 0.1, 1 / 3]
_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


class TestGaussianBlobs:
    def test_zero_spread_collapses_to_centers(self):
        data = gen_gaussian_blobs(3, 10, dim=2, spread=0.0, seed=0)
        for c in range(3):
            rows = data.features[data.labels == c]
            assert np.ptp(rows, axis=0).max() == 0.0

    def test_seeded_determinism(self):
        a = gen_gaussian_blobs(4, 25, dim=3, seed=9)
        b = gen_gaussian_blobs(4, 25, dim=3, seed=9)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_far_blobs_are_linearly_separable(self):
        # train a bare linear classifier with the package's own primitives
        data = gen_gaussian_blobs(2, 50, dim=2, center_scale=20.0, spread=0.1, seed=3)
        stats = fit_standardization(data.features)
        x = stats.apply(data.features)
        layer = DenseLayer(np.zeros((2, 2)), np.zeros(2), "linear")
        opts = [SgdMomentum(p, learning_rate=0.5, momentum=0.0) for p in layer.parameters()]
        for _ in range(200):
            zero_grads(layer)
            logits = layer.forward(x)
            loss, d = cross_entropy_from_logits(logits, data.labels)
            layer.backward(d, x, logits)
            for opt, g in zip(opts, gradients(layer)):
                opt.step(g)
        acc = (layer.forward(x).argmax(axis=1) == data.labels).mean()
        assert acc == 1.0

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            gen_gaussian_blobs(0, 10)

    @pytest.mark.parametrize("kwargs,named", [({"center_scale": 1e308}, "center_scale"),
                                              ({"spread": 1e308}, "spread")])
    def test_overflowing_parameters_are_named(self, kwargs, named):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=named):
            gen_gaussian_blobs(3, 10, **kwargs)


class TestRings:
    def test_zero_noise_lies_on_circles(self):
        data = gen_rings(3, 50, noise=0.0, seed=1)
        radii = np.linalg.norm(data.features, axis=1)
        for c in range(3):
            np.testing.assert_allclose(radii[data.labels == c], c + 1.0, atol=1e-9)

    def test_small_noise_keeps_rings_ordered(self):
        data = gen_rings(2, 100, noise=0.1, seed=2)
        radii = np.linalg.norm(data.features, axis=1)
        assert radii[data.labels == 0].max() < radii[data.labels == 1].min()

    def test_seeded_determinism(self):
        a = gen_rings(2, 30, seed=5)
        b = gen_rings(2, 30, seed=5)
        assert a.features.tobytes() == b.features.tobytes()

    def test_overflowing_noise_is_named(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="noise"):
            gen_rings(2, 30, noise=1e308)


_GENERATORS = {"blobs": gen_gaussian_blobs, "rings": gen_rings}
# every integer field of each generator with each bad value; 0 is a valid seed
_BAD_COUNTS = [(name, key, value)
               for name, keys in (("blobs", ("num_classes", "per_class", "dim", "seed")),
                                  ("rings", ("num_classes", "per_class", "seed")))
               for key in keys for value in (2.5, True, 0, -1) if not (key == "seed" and value == 0)]


class TestGeneratorFields:
    """Each generator checks its own fields, with the messages the CLI prints."""

    @pytest.mark.parametrize("name,key,value", _BAD_COUNTS)
    def test_bad_count_is_named(self, name, key, value):
        with pytest.raises(ValueError) as exc:
            _GENERATORS[name](**{"num_classes": 3, "per_class": 10, key: value})
        minimum = 0 if key == "seed" else 1
        assert str(exc.value) == f"{key} must be an integer of at least {minimum}, got {value!r}"

    def test_check_int_accepts_its_maximum_and_names_the_next(self):
        check_int("count", 7, 1, 7)
        with pytest.raises(ValueError) as exc:
            check_int("count", 8, 1, 7)
        assert str(exc.value) == "count must be at most 7, got 8"

    @pytest.mark.parametrize("interval,value", [
        ("[0, inf)", 0), ("[0, inf)", -0.0), ("[0, 1)", 0), ("(0, inf)", 5e-324), ("(0, 1]", 5e-324),
        ("[0, inf)", sys.float_info.max), ("(-inf, inf)", -sys.float_info.max), ("(0, 1]", 1),
        ("[0, 1)", 0.9999999999999999), ("(0, 1)", 0.9999999999999999),
    ])
    def test_check_real_accepts_each_end_it_keeps(self, interval, value):
        check_real("x", value, interval)

    @pytest.mark.parametrize("interval,value", [
        ("(0, inf)", 0), ("(0, 1)", 0), ("(0, 1]", -0.0), ("[0, 1)", 1), ("(0, 1)", 1),
        ("[0, inf)", -5e-324), ("(0, 1]", 1.0000000000000002),
        ("[0, inf)", math.inf), ("(-inf, inf)", math.inf), ("(-inf, inf)", -math.inf), ("[0, inf)", math.nan),
        ("(-inf, inf)", math.nan), ("(-inf, inf)", True), ("[0, 1)", False), ("(0, 1)", "0.5"),
        ("(-inf, inf)", None), ("[0, inf)", 10 ** 400), ("(-inf, inf)", -10 ** 400),
    ])
    def test_check_real_refuses_with_the_interval_named(self, interval, value):
        with pytest.raises(ValueError) as exc:
            check_real("x", value, interval)
        assert str(exc.value) == f"x must be a number in {interval}, got {value!r}"

    @pytest.mark.parametrize("name,key", [("blobs", "center_scale"), ("blobs", "spread"), ("rings", "noise")])
    @pytest.mark.parametrize("value", [-1, float("nan"), "x"])
    def test_bad_scale_is_named(self, name, key, value):
        with pytest.raises(ValueError) as exc:
            _GENERATORS[name](3, 10, **{key: value})
        assert str(exc.value) == f"{key} must be a number in [0, inf), got {value!r}"

    @pytest.mark.parametrize("name,fields,width", [
        ("blobs", {"num_classes": 3, "per_class": 10 ** 20}, 2),
        ("blobs", {"num_classes": 2 ** 40, "per_class": 2 ** 19}, 2),
        ("blobs", {"num_classes": 3, "per_class": 10, "dim": 2 ** 60}, 2 ** 60),
        ("rings", {"num_classes": 2 ** 60, "per_class": 1}, 2),
    ])
    def test_a_row_count_numpy_cannot_size_is_named(self, name, fields, width):
        # numpy sizes an array only if its byte count fits in an intp
        with pytest.raises(ValueError) as exc:
            _GENERATORS[name](**fields)
        rows = f"num_classes {fields['num_classes']} x per_class {fields['per_class']}"
        assert str(exc.value) == f"{rows} rows of {width} features are too many for one array"


class TestLabeledSet:
    @pytest.mark.parametrize("shape", [(4, 0), (0, 0)], ids=["4x0", "0x0"])
    def test_features_without_columns_are_refused(self, shape):
        # a model needs at least one input; 0 columns reached DenseLayer.create
        # and divided by zero
        with pytest.raises(ValueError, match=re.escape(f"at least 1 column, got shape {shape}")):
            LabeledSet(np.zeros(shape), np.zeros(shape[0], dtype=np.int64))

    def test_a_label_count_other_than_the_row_count_is_refused(self):
        # without the check, the split would drop the rows past the last label
        with pytest.raises(ValueError, match="2 labels for 3 feature rows"):
            LabeledSet(np.zeros((3, 2)), [0, 1])


# cell texts: numbers, near-numbers and arbitrary text without a comma or a
# line break, so a cell edit keeps the file's lines and widths
_csv_cells = st.one_of(
    st.sampled_from(["", " ", "x", "nan", "NaN", "inf", "-inf", "1e999", "1e-400", "-1", "1.5", "+2", "0x1",
                     "1_0", "-0", " 7 ", "9223372036854775807", "9223372036854775808", "\u0663"]),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters=",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
            max_size=6),
)


def _csv_shape(lines: list[list[str]]) -> tuple[int, int] | None:
    """The (rows, features) shape that `lines` of cells describe as CSV data
    rows, or None where they are malformed: ragged, no feature, a feature
    that is not a finite number, or a label that is not an int64 of at least 0."""
    widths = {len(cells) for cells in lines}
    if len(widths) != 1 or min(widths) < 2:
        return None
    for cells in lines:
        try:
            features = [float(c.strip()) for c in cells[:-1]]
            label = int(cells[-1].strip())
        except ValueError:
            return None
        if not all(map(math.isfinite, features)) or not 0 <= label < 2 ** 63:
            return None
    return len(lines), widths.pop() - 1


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n")
        data = load_csv(path)
        assert len(data) == 1

    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path):
        # "\ufeff1.0" is no number, so the mark once made the first data row a header
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,1\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(data.labels, [0, 1, 1])
        path.write_bytes(b"\xef\xbb\xbff0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n")
        np.testing.assert_array_equal(load_csv(path).labels, [0, 1])

    def test_save_load_identity(self, tmp_path):
        original = gen_gaussian_blobs(3, 7, dim=4, seed=11)
        path = tmp_path / "gen.csv"
        save_csv(original, path)
        loaded = load_csv(path)
        assert loaded.features.tobytes() == original.features.tobytes()
        np.testing.assert_array_equal(loaded.labels, original.labels)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(features=hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 4)), elements=_floats),
           data=st.data())
    def test_bulk_writer_keeps_the_bytes_of_the_per_row_writer(self, tmp_path, features, data):
        labels = data.draw(hnp.arrays(np.int64, len(features), elements=st.integers(0, 2**63 - 1)))
        dataset = LabeledSet(features, labels)
        save_csv(dataset, tmp_path / "bulk.csv")
        _save_csv_per_row(dataset, tmp_path / "rows.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1.0,2.0,0\n1.0,2.0,3.0,1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "n.csv"
        # nan and inf parse as floats but are no usable feature
        for text, line in (("1.0,2.0,0\nx,2.0,1\n", 2), ("1.0,2.0,0\n1,nan,0\n", 2),
                           ("inf,2,1\n1.0,2.0,0\n", 1)):
            path.write_text(text)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {line}: non-numeric cell"):
                load_csv(path)

    def test_only_the_first_line_can_be_a_header(self, tmp_path):
        # a broken first data row is an error, not a second header
        path = tmp_path / "h.csv"
        path.write_text("f0,f1,label\n1.0,x,0\n3.0,4.0,1\n")
        with pytest.raises(ValueError, match="line 2: non-numeric cell"):
            load_csv(path)

    @pytest.mark.parametrize("label", ["-1", "9223372036854775808"])
    def test_label_outside_int64_range_names_line(self, tmp_path, label):
        path = tmp_path / "l.csv"
        path.write_text(f"1.0,2.0,0\n3.0,4.0,{label}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: label {label} is not in"):
            load_csv(path)

    def test_label_cell_is_stripped_like_str_strip(self, tmp_path):
        # "\x1f" is whitespace to str.strip, but int() alone rejects "0\x1f"
        path = tmp_path / "s.csv"
        path.write_text("1.0,2.0,0\x1f\n3.0,4.0,1\n", encoding="utf-8")
        assert load_csv(path).labels.tolist() == [0, 1]

    def test_non_utf8_file_is_named(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"1.0,2.0,0\n\xff,4.0,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: not UTF-8 text (invalid start byte at byte 10)')}$"):
            load_csv(path)

    def test_bad_byte_after_a_byte_order_mark_is_named_by_its_file_offset(self, tmp_path):
        # the decoder counts from after the mark, the message from the file's start
        path = tmp_path / "b.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2.0,0\n\xff,4.0,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: not UTF-8 text (invalid start byte at byte 13)')}$"):
            load_csv(path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.integers(1, 3), dim=st.integers(1, 3), edit=st.sampled_from(["cell", "add", "drop"]),
           text=_csv_cells, data=st.data())
    def test_mutated_file_loads_to_its_shape_or_names_the_file(self, tmp_path, rows, dim, edit, text, data):
        lines = [[repr(0.25 * (r + c) - 1.0) for c in range(dim)] + [str(r)] for r in range(rows)]
        line = data.draw(st.integers(0, rows - 1))
        if edit == "cell":
            lines[line][data.draw(st.integers(0, dim))] = text
        elif edit == "add":
            lines[line].insert(data.draw(st.integers(0, dim + 1)), text)
        else:
            del lines[line][data.draw(st.integers(0, dim))]
        path = tmp_path / "m.csv"
        path.write_text("\n".join([",".join([*(f"f{i}" for i in range(dim)), "label"]),
                                   *(",".join(cells) for cells in lines)]) + "\n", encoding="utf-8")
        shape = _csv_shape(lines)
        if shape is None:
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_csv(path)
        else:
            loaded = load_csv(path)
            assert loaded.features.shape == shape
            assert loaded.labels.tolist() == [int(cells[-1].strip()) for cells in lines]


def _save_csv_per_row(dataset: LabeledSet, path) -> None:
    """Oracle for `save_csv`: the header, then each row formatted and written
    on its own, every float through `repr(float(v))`."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join([f"f{i}" for i in range(dataset.dim)] + ["label"]) + "\n")
        for row, label in zip(dataset.features, dataset.labels):
            f.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def _idx_fixture_bytes(images=True):
    if images:
        header = struct.pack(">IIII", 0x00000803, 2, 2, 2)
        pixels = bytes([0, 255, 128, 64, 255, 0, 32, 16])
        return header + pixels
    return struct.pack(">II", 0x00000801, 2) + bytes([1, 0])


def _idx_shape(images: bytes, labels: bytes) -> tuple[int, int] | None:
    """The (rows, pixels per row) shape that an IDX image and label pair
    describes, or None where the pair is malformed."""
    if len(images) < 16 or len(labels) < 8:
        return None
    magic, n, rows, cols = struct.unpack(">4I", images[:16])
    label_magic, n_labels = struct.unpack(">2I", labels[:8])
    if (magic, label_magic) != (0x00000803, 0x00000801) or n != n_labels:
        return None
    if len(images) != 16 + n * rows * cols or len(labels) != 8 + n:
        return None
    return n, rows * cols


class TestIdx:
    def test_hand_built_fixture(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(_idx_fixture_bytes(images=True))
        lab.write_bytes(_idx_fixture_bytes(images=False))
        data = load_idx(img, lab)
        assert data.features.shape == (2, 4)
        np.testing.assert_allclose(data.features[0], [0.0, 1.0, 128 / 255, 64 / 255])
        np.testing.assert_allclose(data.features[1], [1.0, 0.0, 32 / 255, 16 / 255])
        np.testing.assert_array_equal(data.labels, [1, 0])

    def test_wrong_magic_in_images(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(struct.pack(">IIII", 0x00000801, 2, 2, 2) + bytes(8))
        lab.write_bytes(_idx_fixture_bytes(images=False))
        with pytest.raises(ValueError, match="magic"):
            load_idx(img, lab)

    def test_count_mismatch_names_both(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(_idx_fixture_bytes(images=True))
        lab.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([1, 0, 1]))
        with pytest.raises(ValueError, match="2.*3"):
            load_idx(img, lab)

    def test_truncated_payload(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(_idx_fixture_bytes(images=True)[:-3])
        lab.write_bytes(_idx_fixture_bytes(images=False))
        with pytest.raises(ValueError):
            load_idx(img, lab)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(target=st.sampled_from(["images", "labels"]), cut=st.booleans(), data=st.data())
    def test_cut_or_mutated_pair_loads_to_its_shape_or_names_the_file(self, tmp_path, target, cut, data):
        files = {"images": _idx_fixture_bytes(images=True), "labels": _idx_fixture_bytes(images=False)}
        raw = files[target]
        if cut:
            raw = raw[:data.draw(st.integers(0, len(raw)))]
        else:
            at = data.draw(st.integers(0, len(raw) - 1))
            raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
        files[target] = raw
        paths = {name: tmp_path / f"{name}.idx" for name in files}
        for name, path in paths.items():
            path.write_bytes(files[name])
        shape = _idx_shape(files["images"], files["labels"])
        if shape is None:
            with pytest.raises(ValueError, match=re.escape(str(paths[target]))):
                load_idx(paths["images"], paths["labels"])
        else:
            loaded = load_idx(paths["images"], paths["labels"])
            assert loaded.features.shape == shape
            pixels = np.frombuffer(files["images"], np.uint8, offset=16).reshape(shape)
            assert loaded.features.tobytes() == (pixels / 255.0).tobytes()
            assert loaded.labels.tolist() == list(files["labels"][8:])

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(target=st.sampled_from(["images", "labels"]), cut=st.booleans(), data=st.data())
    def test_rows_equal_the_gathered_features_byte_for_byte(self, tmp_path, target, cut, data):
        files = {"images": _idx_fixture_bytes(images=True), "labels": _idx_fixture_bytes(images=False)}
        raw = files[target]
        if cut:
            raw = raw[:data.draw(st.integers(0, len(raw)))]
        else:
            at = data.draw(st.integers(0, len(raw) - 1))
            raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
        files[target] = raw
        paths = {name: tmp_path / f"{name}.idx" for name in files}
        for name, path in paths.items():
            path.write_bytes(files[name])
        shape = _idx_shape(files["images"], files["labels"])
        if shape is None:
            with pytest.raises(ValueError):
                load_idx(paths["images"], paths["labels"])
            return
        n = shape[0]
        order = np.array(data.draw(st.lists(st.integers(-n, n - 1)) if n else st.just([])), dtype=np.intp)
        loaded = load_idx(paths["images"], paths["labels"])
        rows = loaded.rows(order)
        assert "features" not in vars(loaded), "rows built the whole float matrix"
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        assert rows.shape == loaded.features[order].shape
        assert rows.tobytes() == loaded.features[order].tobytes()

    def test_repr_and_equality_leave_the_float_matrix_unbuilt(self, tmp_path):
        paths = [tmp_path / "img.idx", tmp_path / "lab.idx"]
        paths[0].write_bytes(_idx_fixture_bytes(images=True))
        paths[1].write_bytes(_idx_fixture_bytes(images=False))
        loaded, again = load_idx(*paths), load_idx(*paths)
        assert repr(loaded) == "PixelSet(2 images of 4 pixels)"
        assert loaded == loaded and loaded != again  # sets compare by identity
        assert "features" not in vars(loaded) and "features" not in vars(again)


class TestStandardization:
    def test_train_statistics(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, 3)) * 5 + 2
        stats = fit_standardization(x)
        z = stats.apply(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_dimension_guarded(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        z = fit_standardization(x).apply(x)
        assert np.isfinite(z).all()

    def test_in_place_equals_apply_bit_for_bit(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 6)) * 10.0 ** rng.integers(-100, 100, 6)
        x[:, 0] = 3.0  # constant: std guarded to 1
        x[::7, 1] = [-0.0, 0.0, 5e-324, -5e-324, 1e150, -1e150, 0.1, 1 / 3, 2.0]
        stats = fit_standardization(x[:40])
        original = x.copy()
        fresh = stats.apply(x)
        assert x.tobytes() == original.tobytes()
        assert fresh.tobytes() == ((x - stats.mean) / stats.std).tobytes()
        assert stats.apply(x, out=x) is x
        assert x.tobytes() == fresh.tobytes()


def _copying_split(dataset: LabeledSet, split: OpenSplit) -> tuple[LabeledSet, LabeledSet, LabeledSet]:
    """The split as it was built before it gathered each row once: a fancy
    index and a copy per part, the unknown rows appended to the known test
    rows with a feature concatenation. Kept as the oracle of
    `split_known_unknown`."""
    known_sorted = np.sort(split.known_class_ids)
    rng = np.random.default_rng(split.seed)
    train_idx, val_idx, test_idx = [], [], []
    for orig in known_sorted.tolist():
        rows = np.nonzero(dataset.labels == orig)[0]
        rows = rows[rng.permutation(rows.size)]
        n_val = max(1, int(split.val_fraction * rows.size))
        n_test = max(1, int(split.test_fraction * rows.size))
        val_idx.append(rows[:n_val])
        test_idx.append(rows[n_val:n_val + n_test])
        train_idx.append(rows[n_val + n_test:])

    def known_set(chunks):
        idx = np.concatenate(chunks)
        labels = np.searchsorted(known_sorted, dataset.labels[idx]).astype(np.int64)
        return LabeledSet(dataset.features[idx].copy(), labels)

    known_test = known_set(test_idx)
    unknown_rows = np.nonzero(np.isin(dataset.labels, split.unknown_class_ids))[0]
    unknown_labels = np.full(unknown_rows.size, len(known_sorted), dtype=np.int64)
    test = LabeledSet(np.concatenate([known_test.features, dataset.features[unknown_rows]]),
                      np.concatenate([known_test.labels, unknown_labels]))
    return known_set(train_idx), known_set(val_idx), test


class TestSplitKnownUnknown:
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_parts_are_byte_equal_to_the_copying_split(self, seed):
        rng = np.random.default_rng(seed)
        ids = rng.choice(50, size=int(rng.integers(3, 9)), replace=False)
        labels = rng.permutation(np.repeat(ids, rng.integers(10, 40, ids.size)))
        data = LabeledSet(rng.standard_normal((labels.size, int(rng.integers(1, 5)))), labels)
        shuffled = rng.permutation(ids).tolist()
        n_known = int(rng.integers(2, ids.size + 1))
        unknown = shuffled[n_known:][:int(rng.integers(0, ids.size - n_known + 1))]
        split = OpenSplit(shuffled[:n_known], unknown, val_fraction=float(rng.uniform(0.05, 0.3)),
                          test_fraction=float(rng.uniform(0.05, 0.4)), seed=seed)
        for got, want in zip(split_known_unknown(data, split), _copying_split(data, split)):
            assert got.features.flags.c_contiguous
            assert got.features.shape == want.features.shape
            assert got.features.tobytes() == want.features.tobytes()
            assert got.labels.dtype == want.labels.dtype
            assert got.labels.tobytes() == want.labels.tobytes()

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_an_idx_set_splits_as_its_float_features_do(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat(np.arange(6), rng.integers(8, 30, 6))).astype(np.uint8)
        pixels = rng.integers(0, 256, (labels.size, int(rng.integers(1, 40))), dtype=np.uint8)
        data = load_idx(*write_idx_pair(tmp_path, pixels, labels))
        split = OpenSplit([4, 0, 2, 5], [3], val_fraction=0.2, test_fraction=0.3, seed=seed)
        parts = split_known_unknown(data, split)
        assert "features" not in vars(data), "the split built the whole float matrix"
        for got, want in zip(parts, split_known_unknown(LabeledSet(data.features, data.labels), split)):
            assert type(got) is LabeledSet and got.features.flags.c_contiguous
            assert got.features.shape == want.features.shape
            assert got.features.tobytes() == want.features.tobytes()
            assert got.labels.tobytes() == want.labels.tobytes()

    def _data_and_split(self, per_class=100, seed=0):
        data = gen_gaussian_blobs(10, per_class, dim=2, seed=seed)
        split = OpenSplit(known_class_ids=[0, 1, 2, 3, 4, 5],
                          unknown_class_ids=[6, 7, 8, 9],
                          val_fraction=0.1, test_fraction=0.3, seed=seed)
        return data, split

    def test_partition_is_exact(self):
        data, split = self._data_and_split()
        train, val, test = split_known_unknown(data, split)
        assert len(train) + len(val) + len(test) == len(data)
        stacked = np.concatenate([train.features, val.features, test.features])
        # row identity: every original row appears exactly once
        original = {row.tobytes() for row in data.features}
        seen = [row.tobytes() for row in stacked]
        assert len(seen) == len(set(seen))
        assert set(seen) == original

    def test_no_unknown_leakage(self):
        data, split = self._data_and_split()
        train, val, _ = split_known_unknown(data, split)
        unknown_rows = {
            row.tobytes()
            for row in data.features[np.isin(data.labels, split.unknown_class_ids)]
        }
        for part in (train, val):
            assert all(row.tobytes() not in unknown_rows for row in part.features)

    def test_val_sizes(self):
        data, split = self._data_and_split(per_class=100)
        _, val, _ = split_known_unknown(data, split)
        for c in range(6):
            assert (val.labels == c).sum() == 10

    def test_relabeling_is_ascending_and_stable(self):
        data = gen_gaussian_blobs(6, 30, dim=2, seed=1)
        split = OpenSplit(known_class_ids=[5, 1, 3], unknown_class_ids=[0, 2],
                          val_fraction=0.2, test_fraction=0.3, seed=1)
        results = [split_known_unknown(data, split) for _ in range(2)]
        for (a, b) in zip(results[0], results[1]):
            assert a.features.tobytes() == b.features.tobytes()
            np.testing.assert_array_equal(a.labels, b.labels)
        train = results[0][0]
        # known ids {1,3,5} -> {0,1,2}; check the mapping via class centroids
        for orig, new in [(1, 0), (3, 1), (5, 2)]:
            orig_rows = data.features[data.labels == orig]
            new_rows = train.features[train.labels == new]
            assert all(row.tobytes() in {r.tobytes() for r in orig_rows} for row in new_rows)

    def test_unknown_rows_all_in_test_with_label_k(self):
        data, split = self._data_and_split()
        _, _, test = split_known_unknown(data, split)
        n_unknown = int(np.isin(data.labels, split.unknown_class_ids).sum())
        assert (test.labels == 6).sum() == n_unknown

    def test_no_unknown_classes_is_valid(self):
        data = gen_gaussian_blobs(3, 30, dim=2, seed=2)
        split = OpenSplit(known_class_ids=[0, 1, 2], unknown_class_ids=[],
                          val_fraction=0.2, test_fraction=0.2, seed=0)
        _, _, test = split_known_unknown(data, split)
        assert (test.labels == 3).sum() == 0

    def test_tiny_class_rejected(self):
        data = LabeledSet(np.zeros((3, 2)), np.array([0, 1, 1]))
        split = OpenSplit(known_class_ids=[0, 1], val_fraction=0.1, test_fraction=0.2)
        with pytest.raises(ValueError):
            split_known_unknown(data, split)

    def test_missing_class_rejected(self):
        data = gen_gaussian_blobs(3, 10, seed=0)
        split = OpenSplit(known_class_ids=[0, 7], val_fraction=0.2, test_fraction=0.2)
        with pytest.raises(ValueError):
            split_known_unknown(data, split)

    def test_a_label_of_2_to_the_62_is_found_without_a_table_over_the_label_range(self):
        # a presence table sized by the label range would take 2**62 entries here
        labels = np.repeat([0, 5, 2 ** 62], 10)
        data = LabeledSet(np.arange(30.0)[:, None], labels)
        train, val, test = split_known_unknown(data, OpenSplit([2 ** 62, 0], [5], 0.2, 0.2))
        assert sorted(set(train.labels.tolist())) == [0, 1]
        assert test.labels.tolist().count(2) == 10
        # known classes are checked first, then unknown, each in its listed order
        for known, unknown, missing in (([0, 2 ** 62 + 1], [7], 2 ** 62 + 1), ([0, 5], [2 ** 62 - 1, 6], 2 ** 62 - 1),
                                        ([0, 2 ** 62], [2 ** 70], 2 ** 70)):
            with pytest.raises(ValueError, match=f"^class {missing} not present in the dataset$"):
                split_known_unknown(data, OpenSplit(known, unknown, 0.2, 0.2))

    @pytest.mark.parametrize("seed", [1.5, -1, True])
    def test_non_integer_or_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            OpenSplit(known_class_ids=[0, 1], seed=seed)

    def test_overlapping_split_rejected(self):
        with pytest.raises(ValueError):
            OpenSplit(known_class_ids=[0, 1], unknown_class_ids=[1, 2])

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_partition_property_over_seeds(self, seed):
        data = gen_gaussian_blobs(5, 20, dim=2, seed=seed)
        split = OpenSplit(known_class_ids=[0, 2, 4], unknown_class_ids=[1, 3],
                          val_fraction=0.15, test_fraction=0.25, seed=seed)
        train, val, test = split_known_unknown(data, split)
        assert len(train) + len(val) + len(test) == len(data)
        assert train.labels.max() < 3 and val.labels.max() < 3
        assert set(np.unique(test.labels)) <= {0, 1, 2, 3}


_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_arrays = st.one_of(hnp.arrays(np.float64, _shapes, elements=_floats),
                    hnp.arrays(st.sampled_from([np.int64, np.uint8]), _shapes))
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), _floats, st.text(max_size=4))
_documents = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)


def _as_lists(doc):
    """`doc` with every numpy array turned into nested lists, for json.dumps."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: _as_lists(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_as_lists(value) for value in doc]
    return doc


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(_documents)
    @example({"roc": np.zeros((0, 2)), "empty": np.array([]), "rows": np.zeros((2, 0)), "none": [{}, []]})
    @example([np.array(SPECIAL_FLOATS), np.array(SPECIAL_FLOATS).reshape(1, -1, 1), *SPECIAL_FLOATS])
    # a ROC-shaped float array, and a square int array two levels deep
    @example({"roc": np.resize(SPECIAL_FLOATS, 100).reshape(50, 2) * np.arange(1, 51)[:, None]})
    @example({"model": {"weights": np.arange(49).reshape(7, 7) - 24}})
    def test_matches_json_dumps_on_the_same_lists(self, doc):
        assert json_text(doc) == json.dumps(_as_lists(doc), indent=2, allow_nan=False)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1.0, v], lambda v: {"a": {"b": v}},
                                      np.array, lambda v: {"a": np.array([[0.0], [v]])}])
    def test_non_finite_numbers_are_refused(self, bad, wrap):
        with pytest.raises(ValueError):
            json_text(wrap(bad))

    def test_a_key_that_is_not_a_string_is_refused(self):
        # json.dumps would write {"1": 2}; writing the key as it is would not be JSON
        with pytest.raises(TypeError, match="JSON object keys must be strings"):
            json_text({"a": {1: 2}})

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
    def test_bool_arrays_are_refused(self, shape):
        with pytest.raises(TypeError, match="bool"):
            json_text({"flags": np.ones(shape, dtype=bool)})
