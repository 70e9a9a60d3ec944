"""Softmax, losses, layers, optimizer, the Beta draw of mixup, and the FD oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    SPECIAL_VALUES,
    cross_entropy_oracle,
    cross_entropy_row_oracle,
    finite_difference_gradients,
    gradients,
    log_softmax_rows_oracle,
    rel_error,
    softmax_rows,
    zero_grads,
)
from openset.gradcore import (
    DenseLayer,
    SgdMomentum,
    cross_entropy_from_logits,
    log_softmax_rows,
)
from openset.placeholders import build_mix_pairs

finite_rows = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8
)

# logit matrices of a few class columns, as the training step sees them, with
# NaN, signed zeros, infinities and ties drawn often
logit_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 40), st.integers(1, 8)),
    elements=st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(-1e3, 1e3)),
)


class TestSoftmax:
    def test_uniform_row(self):
        np.testing.assert_allclose(softmax_rows([[0.0, 0.0, 0.0]]), [[1 / 3] * 3], atol=1e-15)

    def test_large_inputs_stable(self):
        np.testing.assert_allclose(softmax_rows([[1000.0, 1000.0]]), [[0.5, 0.5]], atol=1e-15)

    def test_analytic_row(self):
        np.testing.assert_allclose(
            softmax_rows([[0.0, math.log(2.0)]]), [[1 / 3, 2 / 3]], atol=1e-15
        )

    @given(rows=st.lists(finite_rows.map(tuple), min_size=1, max_size=5, unique=True))
    def test_rows_sum_to_one(self, rows):
        width = len(rows[0])
        rows = [list(r[:width]) + [0.0] * (width - len(r)) for r in rows]
        p = softmax_rows(rows)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    @given(row=finite_rows, shift=st.floats(min_value=-100, max_value=100))
    def test_shift_invariance(self, row, shift):
        base = softmax_rows([row])
        shifted = softmax_rows([[v + shift for v in row]])
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_log_softmax_consistent(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 5)) * 10
        np.testing.assert_allclose(np.exp(log_softmax_rows(z)), softmax_rows(z), atol=1e-12)

    @given(z=logit_matrices)
    @settings(max_examples=300)
    def test_log_softmax_keeps_the_bytes_of_the_class_axis_max(self, z):
        # the row max is taken down a transposed copy; a max that ties +0.0
        # with -0.0, or meets a NaN, must come out as z.max(axis=1) gives it
        with np.errstate(all="ignore"):
            assert log_softmax_rows(z).tobytes() == log_softmax_rows_oracle(z).tobytes()


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy_from_logits(np.zeros((3, 4)), [0, 1, 3])
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_extreme_logits_high_precision(self):
        # scalar oracle: -log sigmoid(20) = log1p(exp(-20))
        loss, _ = cross_entropy_from_logits([[10.0, -10.0]], [0])
        assert loss == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)

    def test_gradient_uniform_two_classes(self):
        _, grad = cross_entropy_from_logits([[0.0, 0.0]], [0])
        np.testing.assert_allclose(grad, [[-0.5, 0.5]], atol=1e-15)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy_from_logits([[0.0, 0.0]], [2])

    def test_matches_row_oracle(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((6, 4)) * 5
        t = rng.integers(0, 4, size=6)
        loss, _ = cross_entropy_from_logits(z, t)
        expected = np.mean([cross_entropy_row_oracle(list(z[i]), t[i]) for i in range(6)])
        assert loss == pytest.approx(expected, rel=1e-12)

    @given(z=logit_matrices, data=st.data())
    @settings(max_examples=200)
    def test_keeps_the_bytes_of_the_mean_form(self, z, data):
        t = data.draw(hnp.arrays(np.int64, z.shape[0], elements=st.integers(0, z.shape[1] - 1)))
        with np.errstate(all="ignore"):
            loss, grad = cross_entropy_from_logits(z, t)
            expected, expected_grad = cross_entropy_oracle(z, t)
        assert np.float64(loss).tobytes() == np.float64(expected).tobytes()
        assert grad.tobytes() == expected_grad.tobytes()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-1, 1, size=(1, 4))
        _, grad = cross_entropy_from_logits(z, [2])
        fd = finite_difference_gradients(
            lambda: cross_entropy_from_logits(z, [2])[0], [z], h=1e-5
        )[0]
        assert rel_error(grad, fd) <= 1e-6


class TestDenseLayer:
    def test_identity_linear(self):
        layer = DenseLayer(np.eye(3), np.zeros(3), "linear")
        x = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_relu_gates_forward(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "relu")
        np.testing.assert_array_equal(layer.forward([[-1.0, 2.0]]), [[0.0, 2.0]])

    def test_hand_affine(self):
        layer = DenseLayer([[1.0], [1.0]], [1.0], "linear")
        np.testing.assert_array_equal(layer.forward([[2.0, 3.0]]), [[6.0]])

    def test_weight_gradient_definition(self):
        rng = np.random.default_rng(0)
        layer = DenseLayer(rng.standard_normal((3, 2)), np.zeros(2), "linear")
        x = rng.standard_normal((4, 3))
        g = np.ones((4, 2))
        layer.backward(g, x, layer.forward(x))
        np.testing.assert_allclose(layer.grad_weights, x.T @ g, atol=1e-12)

    @pytest.mark.parametrize("activation", ["linear", "relu"])
    def test_gradients_match_finite_differences(self, activation):
        rng = np.random.default_rng(42)
        layer = DenseLayer.create(3, 4, activation, rng)
        x = rng.uniform(-1, 1, size=(5, 3))
        d_out = rng.uniform(-1, 1, size=(5, 4))

        def loss():
            return float((layer.forward(x) * d_out).sum())

        fd = finite_difference_gradients(loss, layer.parameters(), h=1e-5)
        zero_grads(layer)
        layer.backward(d_out, x, layer.forward(x))
        assert rel_error(layer.grad_weights, fd[0]) <= 1e-6
        assert rel_error(layer.grad_biases, fd[1]) <= 1e-6

    @pytest.mark.parametrize("activation", ["linear", "relu"])
    def test_backward_overwrites_whatever_the_buffers_held(self, activation):
        # a step never zeroes the gradients: backward writes them, so NaN left
        # in the buffers must not reach the result
        rng = np.random.default_rng(42)
        layer = DenseLayer.create(3, 4, activation, rng)
        x = rng.uniform(-1, 1, size=(5, 3))
        d_out = rng.uniform(-1, 1, size=(5, 4))
        fd = finite_difference_gradients(lambda: float((layer.forward(x) * d_out).sum()),
                                         layer.parameters(), h=1e-5)
        for _ in range(2):
            for grad in gradients(layer):
                grad.fill(np.nan)
            layer.backward(d_out, x, layer.forward(x))
            for analytic, numeric in zip(gradients(layer), fd):
                assert rel_error(analytic, numeric) <= 1e-6

    @pytest.mark.parametrize("shape", [(64, 64), (64, 32), (32, 16)])
    @given(rows=st.integers(1, 128), seed=st.integers(0, 2**32 - 1),
           specials=st.lists(st.tuples(st.sampled_from(["x", "d", "w"]), st.integers(0, 2**16),
                                       st.sampled_from(SPECIAL_VALUES)), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_backward_keeps_the_bytes_of_the_plain_products(self, shape, rows, seed, specials):
        # the parameter gradients are written with out=, and the input gradient
        # keeps BLAS's transposed operand (a contiguous copy of W.T changes the
        # bytes on batches of up to 18 rows); all three must keep the bytes of
        # dz @ W.T, x.T @ dz and dz.sum(axis=0) at the default net's shapes
        rng = np.random.default_rng(seed)
        layer = DenseLayer(rng.standard_normal(shape), rng.standard_normal(shape[1]), "linear")
        x = rng.standard_normal((rows, shape[0]))
        d_out = rng.standard_normal((rows, shape[1]))
        for where, at, value in specials:
            target = {"x": x, "d": d_out, "w": layer.weights}[where]
            target.flat[at % target.size] = value
        with np.errstate(all="ignore"):
            d_x = layer.backward(d_out, x, layer.forward(x))
            assert d_x.tobytes() == (d_out @ layer.weights.T).tobytes()
            assert layer.grad_weights.tobytes() == (x.T @ d_out).tobytes()
            assert layer.grad_biases.tobytes() == d_out.sum(axis=0).tobytes()

    def test_relu_all_negative_blocks_gradient(self):
        layer = DenseLayer(np.eye(2), np.array([-5.0, -5.0]), "relu")
        x = np.array([[1.0, 1.0]])
        grad_in = layer.backward(np.ones((1, 2)), x, layer.forward(x))
        np.testing.assert_array_equal(grad_in, np.zeros((1, 2)))

    @pytest.mark.parametrize("activation", ["linear", "relu"])
    def test_forward_keeps_no_state(self, activation):
        layer = DenseLayer.create(3, 4, activation, np.random.default_rng(0))
        before = dict(vars(layer))
        layer.forward(np.ones((2, 3)))
        after = vars(layer)
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())

    def test_forward_shape_mismatch(self):
        layer = DenseLayer(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 3)))

    @pytest.mark.parametrize("activation", ["linear", "relu"])
    def test_skipping_the_input_gradient_leaves_parameter_gradients_alone(self, activation):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 3))
        d_out = rng.standard_normal((5, 4))
        full = DenseLayer.create(3, 4, activation, np.random.default_rng(1))
        lean = DenseLayer.create(3, 4, activation, np.random.default_rng(1))
        assert full.backward(d_out, x, full.forward(x)).shape == (5, 3)
        assert lean.backward(d_out, x, lean.forward(x), input_grad=False) is None
        for a, b in zip(gradients(full), gradients(lean)):
            assert a.tobytes() == b.tobytes()


class TestSgdMomentum:
    def test_zero_momentum_is_plain_descent(self):
        w = np.array([1.0, -2.0])
        g = np.array([0.5, 0.5])
        SgdMomentum(w, learning_rate=0.1, momentum=0.0).step(g)
        np.testing.assert_allclose(w, [0.95, -2.05], atol=1e-15)

    def test_two_step_hand_recurrence(self):
        # v1 = 1, w = 0.9; v2 = 0.9 + 1 = 1.9, w = 0.9 - 0.19 = 0.71
        w = np.array([1.0])
        opt = SgdMomentum(w, learning_rate=0.1, momentum=0.9)
        opt.step(np.array([1.0]))
        opt.step(np.array([1.0]))
        assert w[0] == pytest.approx(0.71, abs=1e-15)

    def test_zero_gradients_leave_weights_alone(self):
        w = np.array([3.0])
        opt = SgdMomentum(w, learning_rate=0.1, momentum=0.9)
        for _ in range(10):
            opt.step(np.array([0.0]))
        assert w[0] == 3.0

    def test_velocity_decays_geometrically_without_gradient(self):
        w = np.array([0.0])
        opt = SgdMomentum(w, learning_rate=0.1, momentum=0.5)
        opt.step(np.array([1.0]))
        for expected in (0.5, 0.25, 0.125):
            opt.step(np.array([0.0]))
            assert opt.velocity[0] == pytest.approx(expected, abs=1e-15)

    def test_shape_mismatch(self):
        opt = SgdMomentum(np.zeros(2), learning_rate=0.1, momentum=0.0)
        with pytest.raises(ValueError):
            opt.step(np.zeros(3))


def _lam(alpha: float, rng) -> float:
    """The lambda `build_mix_pairs` draws, on a two-row batch."""
    return build_mix_pairs([0, 1], rng, alpha).lam


class TestBetaSample:
    def test_samples_in_unit_interval(self):
        rng = np.random.default_rng(0)
        draws = [_lam(2.0, rng) for _ in range(1000)]
        assert all(0.0 <= d <= 1.0 for d in draws)

    @pytest.mark.parametrize("alpha", [0.4, 1.0, 2.0])
    def test_moments(self, alpha):
        rng = np.random.default_rng(123)
        draws = np.array([_lam(alpha, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01
        analytic_var = 1.0 / (4.0 * (2.0 * alpha + 1.0))
        assert abs(draws.var() - analytic_var) < 0.1 * analytic_var

    def test_deterministic_given_rng_state(self):
        a = _lam(2.0, np.random.default_rng(9))
        b = _lam(2.0, np.random.default_rng(9))
        assert a == b


class TestFiniteDifferenceOracle:
    def test_square_function(self):
        w = np.array([3.0])
        grads = finite_difference_gradients(lambda: float(w[0] ** 2), [w], h=1e-5)
        assert grads[0][0] == pytest.approx(6.0, abs=1e-8)
        assert w[0] == 3.0  # restored exactly

    def test_constant_function(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        grads = finite_difference_gradients(lambda: 7.5, [w], h=1e-5)
        np.testing.assert_allclose(grads[0], 0.0, atol=1e-10)
