"""Distillation loss, gradient oracle, adaptive temperature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgnn import distill
from bgnn.distill import (
    TemperatureModule,
    adaptive_temperature,
    init_temperature_module,
    kd_gradient_reference,
    kd_loss,
    teacher_confidence,
)
from bgnn.errors import ConfigError, ContractError, ShapeError
from bgnn.optim import Adam
from bgnn.tensor import Tape, Tensor, backward


def fail_if_called(*args, **kwargs):
    raise AssertionError("a softmax was computed")


def entropy(p):
    p = np.asarray(p)
    return float(-(p * np.log(p)).sum())


class TestTeacherConfidence:
    def test_near_one_hot_is_near_zero(self):
        h = teacher_confidence(np.array([[1e6, 0.0, 0.0]]))
        np.testing.assert_allclose(h, 0.0, atol=1e-9)

    def test_equal_logits_give_log_c(self):
        for c in (2, 5, 9):
            h = teacher_confidence(np.zeros((1, c)))
            np.testing.assert_allclose(h, np.log(c), atol=1e-12)

    def test_half_half(self):
        # logits chosen so softmax gives exactly [0.5, 0.5]
        h = teacher_confidence(np.array([[3.0, 3.0]]))
        np.testing.assert_allclose(h, 0.6931, atol=1e-4)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((5, 4))
        a = teacher_confidence(t)
        b = teacher_confidence(t + 123.4)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_range(self):
        t = np.random.default_rng(1).standard_normal((20, 6)) * 5
        h = teacher_confidence(t)
        assert np.all(h >= 0.0) and np.all(h <= np.log(6) + 1e-12)


class TestTemperatureModule:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            TemperatureModule("gumbel", 3)

    def test_zero_init_starts_at_midpoint(self):
        mod = init_temperature_module("entropy_only", 4, seed=0)
        t = np.random.default_rng(2).standard_normal((6, 4))
        tau = adaptive_temperature(mod, t).data
        np.testing.assert_allclose(tau, 2.5, atol=1e-12)

    def test_saturated_output_clamps_to_bounds(self):
        mod = init_temperature_module("entropy_only", 3, seed=0)
        t = np.random.default_rng(3).standard_normal((4, 3))
        mod.params["b2"].data[...] = -1e6
        np.testing.assert_allclose(adaptive_temperature(mod, t).data, 1.0, atol=1e-9)
        mod.params["b2"].data[...] = 1e6
        np.testing.assert_allclose(adaptive_temperature(mod, t).data, 4.0, atol=1e-9)

    def test_concat_variant_input_dim(self):
        mod = init_temperature_module("concat", 5, seed=1)
        assert mod.in_dim == 6
        tau = adaptive_temperature(mod, np.zeros((3, 5))).data
        assert tau.shape == (3,)

    def test_class_count_mismatch(self):
        mod = init_temperature_module("concat", 5, seed=1)
        with pytest.raises(ShapeError):
            adaptive_temperature(mod, np.zeros((3, 4)))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_output_always_in_range(self, seed):
        rng = np.random.default_rng(seed)
        mod = init_temperature_module("concat", 3, seed=seed, tau_min=1.5, tau_max=3.5)
        for p in mod.params.values():
            p.data += rng.standard_normal(p.shape) * 10  # arbitrary trained state
        tau = adaptive_temperature(mod, rng.standard_normal((8, 3)) * 20).data
        assert np.all(tau >= 1.5) and np.all(tau <= 3.5)

    def test_gradients_reach_mlp_not_teacher(self):
        mod = init_temperature_module("concat", 3, seed=4)
        t = Tensor(np.random.default_rng(5).standard_normal((4, 3)), requires_grad=True)
        z = Tensor(np.random.default_rng(6).standard_normal((4, 3)), requires_grad=True)
        with Tape() as tape:
            tau = adaptive_temperature(mod, t.data)
            loss = kd_loss(z, t.data, tau)
        backward(loss, tape)
        assert t.grad is None  # constant input
        assert mod.params["W2"].grad is not None
        assert np.abs(mod.params["W2"].grad).max() > 0

    def test_temperature_training_moves_tau(self):
        # one Adam step on the MLP shifts the emitted temperatures
        mod = init_temperature_module("entropy_only", 3, seed=7)
        rng = np.random.default_rng(8)
        t = rng.standard_normal((6, 3))
        z = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        opt = Adam(mod.params, lr=0.05)
        before = adaptive_temperature(mod, t).data.copy()
        with Tape() as tape:
            tau = adaptive_temperature(mod, t)
            loss = kd_loss(z, t, tau)
        backward(loss, tape)
        opt.step()
        after = adaptive_temperature(mod, t).data
        assert np.abs(after - before).max() > 1e-6


class TestKdLoss:
    def test_perfect_imitation_value_and_stationarity(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((5, 4))
        tau = rng.uniform(1.0, 4.0, 5)
        z = Tensor(t.copy(), requires_grad=True)
        with Tape() as tape:
            loss = kd_loss(z, t, tau)
        backward(loss, tape)
        soft = np.exp(t / tau[:, None] - (t / tau[:, None]).max(axis=1, keepdims=True))
        soft = soft / soft.sum(axis=1, keepdims=True)
        expected = sum(entropy(row) for row in soft)
        np.testing.assert_allclose(loss.data, expected, atol=1e-10)
        np.testing.assert_allclose(z.grad, 0.0, atol=1e-10)

    def test_hand_value(self):
        z = Tensor(np.array([[0.0, 0.0]]), requires_grad=True)
        t = np.array([[np.log(3.0), 0.0]])
        loss = kd_loss(z, t, 1.0)
        np.testing.assert_allclose(loss.data, np.log(2.0), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            kd_loss(Tensor(np.zeros((2, 3))), np.zeros((2, 4)), 1.0)

    def test_nonpositive_tau(self):
        with pytest.raises(ContractError):
            kd_loss(Tensor(np.zeros((2, 3))), np.zeros((2, 3)), 0.0)

    @pytest.mark.parametrize("tau", [np.full(3, 2.0), Tensor(np.full(1, 2.0), True)])
    def test_tau_length_not_row_count_raises_before_any_softmax(self, monkeypatch, tau):
        monkeypatch.setattr(distill, "softmax_np", fail_if_called)
        monkeypatch.setattr(np, "exp", fail_if_called)
        with pytest.raises(ShapeError, match="tau shape"):
            kd_loss(Tensor(np.zeros((2, 3)), True), np.zeros((2, 3)), tau)

    def test_cross_entropy_at_least_entropy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            z = rng.standard_normal((6, 5))
            t = rng.standard_normal((6, 5))
            tau = rng.uniform(1.0, 4.0, 6)
            loss = kd_loss(Tensor(z), t, tau).data
            soft = np.exp(t / tau[:, None] - (t / tau[:, None]).max(axis=1, keepdims=True))
            soft = soft / soft.sum(axis=1, keepdims=True)
            floor = sum(entropy(row) for row in soft)
            assert loss >= floor - 1e-10

class TestGradientOracle:
    def test_zero_at_equality(self):
        t = np.random.default_rng(12).standard_normal((3, 4))
        np.testing.assert_allclose(kd_gradient_reference(t, t, 2.0), 0.0, atol=1e-15)

    def test_hand_value(self):
        g = kd_gradient_reference(np.array([[0.0, 0.0]]), np.array([[np.log(3.0), 0.0]]), 1.0)
        np.testing.assert_allclose(g, [[-0.25, 0.25]], atol=1e-12)

    def test_inverse_tau_prefactor(self):
        # doubling tau at fixed softened distributions halves the gradient:
        # evaluate at logits pre-scaled so the softmax arguments match
        z, t = np.array([[1.0, -0.5]]), np.array([[0.3, 0.9]])
        g1 = kd_gradient_reference(z, t, 1.0)
        g2 = kd_gradient_reference(2.0 * z, 2.0 * t, 2.0)
        np.testing.assert_allclose(g2, g1 / 2.0, atol=1e-12)

    @given(
        m=st.integers(1, 8),
        c=st.integers(2, 10),
        seed=st.integers(0, 10**6),
        per_sample=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_autodiff_matches_oracle(self, m, c, seed, per_sample):
        rng = np.random.default_rng(seed)
        z = Tensor(rng.standard_normal((m, c)), requires_grad=True)
        t = rng.standard_normal((m, c))
        tau = rng.uniform(1.0, 4.0, m) if per_sample else float(rng.uniform(1.0, 4.0))
        with Tape() as tape:
            loss = kd_loss(z, t, tau)
        backward(loss, tape)
        np.testing.assert_allclose(z.grad, kd_gradient_reference(z, t, tau), atol=1e-10)

    def test_autodiff_matches_oracle_through_tensor_tau(self):
        rng = np.random.default_rng(13)
        z = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        t = rng.standard_normal((4, 3))
        tau = Tensor(rng.uniform(1.5, 3.5, 4), requires_grad=True)
        with Tape() as tape:
            loss = kd_loss(z, t, tau)
        backward(loss, tape)
        np.testing.assert_allclose(z.grad, kd_gradient_reference(z, t, tau), atol=1e-10)
        assert tau.grad is not None  # student branch feeds the temperature

    def test_scalar_tensor_tau_matches_shared_per_row_tau(self):
        rng = np.random.default_rng(14)
        z0 = rng.standard_normal((4, 3))
        t = rng.standard_normal((4, 3))
        grads = []
        for tau in (Tensor(np.array(2.5), True), Tensor(np.full(4, 2.5), True)):
            z = Tensor(z0.copy(), requires_grad=True)
            with Tape() as tape:
                loss = kd_loss(z, t, tau)
            backward(loss, tape)
            grads.append((loss.data, z.grad, tau.grad))
        (loss_s, z_s, tau_s), (loss_r, z_r, tau_r) = grads
        np.testing.assert_allclose(loss_s, loss_r, rtol=1e-14)
        np.testing.assert_allclose(z_s, z_r, rtol=1e-14)
        assert tau_s.shape == ()
        np.testing.assert_allclose(tau_s, tau_r.sum(), rtol=1e-12)
