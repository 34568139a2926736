"""Quadratic smoother: exact values, exact gradients, boundary rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepseg.adjoint import terminal_multiplier
from stepseg.network import SelectionSet, forward
from stepseg.regularizer import (
    grad_cols,
    grad_cols_t,
    grad_rows,
    grad_rows_t,
    smoother_grad,
    smoother_value,
)
from stepseg.training import TrainConfig, init_params

from oracles import (
    central_fd,
    forward_diff_matrix_cols,
    forward_diff_matrix_rows,
    smoother_value_direct,
)


class TestSmootherValue:
    def test_three_pixel_column(self):
        # value 0.5((b-a)^2 + (c-b)^2), gradient (a-b, 2b-a-c, c-b)
        a, b, c = 2.0, -1.0, 4.0
        y = np.array([[[a], [b], [c]]])
        assert smoother_value(y) == pytest.approx(
            0.5 * ((b - a) ** 2 + (c - b) ** 2), abs=1e-15)
        np.testing.assert_allclose(
            smoother_grad(y),
            [[[a - b], [2 * b - a - c], [c - b]]], rtol=0, atol=1e-15)

    def test_unit_ramp_value(self):
        # y(i, j) = i on H x W: only vertical differences contribute,
        # (H-1) * W of them, each 1, so the value is (H-1) * W / 2
        height, width = 4, 4
        y = np.tile(np.arange(float(height))[:, None], (1, width))[None]
        assert smoother_value(y) == pytest.approx((height - 1) * width / 2,
                                                  abs=0)
        assert smoother_value(y) == 6.0

    def test_constant_field_is_flat(self):
        y = np.full((3, 5, 7), 2.75)
        assert smoother_value(y) == 0.0
        np.testing.assert_array_equal(smoother_grad(y), np.zeros_like(y))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((2, 5, 6))
        assert smoother_value(y) == pytest.approx(smoother_value_direct(y),
                                                  rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_difference_matrices(self, seed):
        rng = np.random.default_rng(100 + seed)
        height, width = 4, 5
        y = rng.standard_normal((2, height, width))
        d_r = forward_diff_matrix_rows(height, width)
        d_c = forward_diff_matrix_cols(height, width)
        want = 0.0
        grads = []
        for c in range(2):
            flat = y[c].reshape(-1)
            want += 0.5 * float(d_r @ flat @ (d_r @ flat))
            want += 0.5 * float(d_c @ flat @ (d_c @ flat))
            grads.append((d_r.T @ d_r @ flat + d_c.T @ d_c @ flat)
                         .reshape(height, width))
        assert smoother_value(y) == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(smoother_grad(y), np.stack(grads),
                                   rtol=1e-12, atol=1e-12)

    def test_channel_additive(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((3, 4, 4))
        total = sum(smoother_value(y[c:c + 1]) for c in range(3))
        assert smoother_value(y) == pytest.approx(total, rel=1e-12)


class TestSmootherGradient:
    @pytest.mark.parametrize("seed", range(100))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((1, 5, 5))
        fd = central_fd(lambda f: smoother_value(f.reshape(1, 5, 5)),
                        y.reshape(-1), 1e-6).reshape(y.shape)
        got = smoother_grad(y)
        scale = max(1.0, float(np.abs(got).max()))
        assert float(np.abs(got - fd).max()) / scale < 1e-8

    def test_difference_transposes_are_adjoint(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((2, 6, 5))
        u = rng.standard_normal((2, 5, 5))
        lhs = float(np.sum(grad_rows(y) * u))
        rhs = float(np.sum(y * grad_rows_t(u, 6)))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        v = rng.standard_normal((2, 6, 4))
        lhs = float(np.sum(grad_cols(y) * v))
        rhs = float(np.sum(y * grad_cols_t(v, 5)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gradient_zero_only_on_connected_constants(self, seed):
        # the smoother's null space over a connected grid is per-channel
        # constants: grad(constant) == 0 and value > 0 otherwise
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((1, 4, 4))
        if np.ptp(y) > 1e-9:
            assert smoother_value(y) > 0.0
        c = np.full((1, 4, 4), float(rng.standard_normal()))
        np.testing.assert_array_equal(smoother_grad(c), np.zeros_like(c))


class TestAlpha:
    """alpha is the whole regularizer interface: alpha = 0 means none."""

    @staticmethod
    def trace_and_labels():
        rng = np.random.default_rng(4)
        params = init_params(bands=2, num_classes=2, width=3, steps=2,
                             activation="tanh", h=1.0, seed=4)
        q = SelectionSet(rows=[0, 3], cols=[1, 2], classes=[0, 1])
        return forward(params, rng.standard_normal((2, 4, 4))), q

    def test_alpha_scales_the_smoother_gradient(self):
        trace, q = self.trace_and_labels()
        plain = terminal_multiplier(trace, q, alpha=0.0)
        scaled = terminal_multiplier(trace, q, alpha=2.5)
        assert plain.reg_value == scaled.reg_value == smoother_value(trace.output)
        np.testing.assert_allclose(
            scaled.output_cotangent - plain.output_cotangent,
            2.5 * smoother_grad(trace.output), rtol=1e-12, atol=1e-14)

    def test_invalid_alpha_rejected(self):
        trace, q = self.trace_and_labels()
        for alpha in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                TrainConfig(alpha=alpha)
            with pytest.raises(ValueError, match="alpha"):
                terminal_multiplier(trace, q, alpha=alpha)
        assert TrainConfig(alpha=0.0).alpha == 0.0
