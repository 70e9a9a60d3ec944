"""Generators, CSV and IDX loaders, standardization, open-set splitting."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from openset.datastore import (
    LabeledSet,
    OpenSplit,
    fit_standardization,
    gen_gaussian_blobs,
    gen_rings,
    json_text,
    load_csv,
    load_idx,
    save_csv,
    split_known_unknown,
)
from conftest import gradients, zero_grads
from openset.gradcore import DenseLayer, SgdMomentum, cross_entropy_from_logits


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

    def test_save_load_identity(self, tmp_path):
        original = gen_gaussian_blobs(3, 7, dim=4, seed=11)
        path = tmp_path / "gen.csv"
        save_csv(original, path)
        loaded = load_csv(path)
        assert loaded.features.tobytes() == original.features.tobytes()
        np.testing.assert_array_equal(loaded.labels, original.labels)

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
            with pytest.raises(ValueError, match=f"line {line}: non-numeric cell"):
                load_csv(path)


def _idx_fixture_bytes(images=True):
    if images:
        header = struct.pack(">IIII", 0x00000803, 2, 2, 2)
        pixels = bytes([0, 255, 128, 64, 255, 0, 32, 16])
        return header + pixels
    return struct.pack(">II", 0x00000801, 2) + bytes([1, 0])


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


class TestSplitKnownUnknown:
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


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e300, -1e300, 2.0, 0.1, 1 / 3]
_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
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
    def test_matches_json_dumps_on_the_same_lists(self, doc):
        assert json_text(doc) == json.dumps(_as_lists(doc), indent=2, allow_nan=False)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1.0, v], lambda v: {"a": {"b": v}},
                                      np.array, lambda v: {"a": np.array([[0.0], [v]])}])
    def test_non_finite_numbers_are_refused(self, bad, wrap):
        with pytest.raises(ValueError):
            json_text(wrap(bad))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
    def test_bool_arrays_are_refused(self, shape):
        with pytest.raises(TypeError, match="bool"):
            json_text({"flags": np.ones(shape, dtype=bool)})
