"""Softmax, losses, layers, optimizer, Beta sampling, and the FD oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cross_entropy_row_oracle, finite_difference_gradients, rel_error
from openset.gradcore import (
    DenseLayer,
    SgdMomentum,
    beta_sample,
    cross_entropy_from_logits,
    log_softmax_rows,
    softmax_rows,
)

finite_rows = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8
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
        layer.forward(x)
        g = np.ones((4, 2))
        layer.backward(g)
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
        layer.zero_grad()
        layer.forward(x)
        layer.backward(d_out)
        assert rel_error(layer.grad_weights, fd[0]) <= 1e-6
        assert rel_error(layer.grad_biases, fd[1]) <= 1e-6

    def test_relu_all_negative_blocks_gradient(self):
        layer = DenseLayer(np.eye(2), np.array([-5.0, -5.0]), "relu")
        layer.forward(np.array([[1.0, 1.0]]))
        grad_in = layer.backward(np.ones((1, 2)))
        np.testing.assert_array_equal(grad_in, np.zeros((1, 2)))

    def test_backward_before_forward_is_an_error(self):
        layer = DenseLayer(np.eye(2), np.zeros(2))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_backward_consumes_the_cache(self):
        layer = DenseLayer(np.eye(2), np.zeros(2))
        layer.forward(np.ones((1, 2)))
        layer.backward(np.ones((1, 2)))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_forward_shape_mismatch(self):
        layer = DenseLayer(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 3)))


class TestSgdMomentum:
    def test_zero_momentum_is_plain_descent(self):
        w = np.array([1.0, -2.0])
        g = np.array([0.5, 0.5])
        SgdMomentum([w], learning_rate=0.1, momentum=0.0).step([g])
        np.testing.assert_allclose(w, [0.95, -2.05], atol=1e-15)

    def test_two_step_hand_recurrence(self):
        # v1 = 1, w = 0.9; v2 = 0.9 + 1 = 1.9, w = 0.9 - 0.19 = 0.71
        w = np.array([1.0])
        opt = SgdMomentum([w], learning_rate=0.1, momentum=0.9)
        opt.step([np.array([1.0])])
        opt.step([np.array([1.0])])
        assert w[0] == pytest.approx(0.71, abs=1e-15)

    def test_zero_gradients_leave_weights_alone(self):
        w = np.array([3.0])
        opt = SgdMomentum([w], learning_rate=0.1, momentum=0.9)
        for _ in range(10):
            opt.step([np.array([0.0])])
        assert w[0] == 3.0

    def test_velocity_decays_geometrically_without_gradient(self):
        w = np.array([0.0])
        opt = SgdMomentum([w], learning_rate=0.1, momentum=0.5)
        opt.step([np.array([1.0])])
        for expected in (0.5, 0.25, 0.125):
            opt.step([np.array([0.0])])
            assert opt.velocities[0][0] == pytest.approx(expected, abs=1e-15)

    def test_shape_mismatch(self):
        opt = SgdMomentum([np.zeros(2)], learning_rate=0.1, momentum=0.0)
        with pytest.raises(ValueError):
            opt.step([np.zeros(3)])


class TestBetaSample:
    def test_samples_in_unit_interval(self):
        rng = np.random.default_rng(0)
        draws = [beta_sample(2.0, rng) for _ in range(1000)]
        assert all(0.0 <= d <= 1.0 for d in draws)

    def test_alpha_must_be_positive(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            beta_sample(0.0, rng)
        with pytest.raises(ValueError):
            beta_sample(-1.0, rng)

    @pytest.mark.parametrize("alpha", [0.4, 1.0, 2.0])
    def test_moments(self, alpha):
        rng = np.random.default_rng(123)
        draws = np.array([beta_sample(alpha, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01
        analytic_var = 1.0 / (4.0 * (2.0 * alpha + 1.0))
        assert abs(draws.var() - analytic_var) < 0.1 * analytic_var

    def test_deterministic_given_rng_state(self):
        a = beta_sample(2.0, np.random.default_rng(9))
        b = beta_sample(2.0, np.random.default_rng(9))
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
