"""Adam optimizer behavior."""

import numpy as np
import pytest

from bgnn.errors import ConfigError
from bgnn.optim import Adam
from bgnn.tensor import Tensor


def make_param(value):
    t = Tensor(np.array(value), requires_grad=True)
    return t


class TestAdam:
    def test_first_step_moves_by_about_lr(self):
        p = make_param([1.0])
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step()
        # bias correction makes m_hat = g, v_hat = g^2, so the step is lr * g/(|g|+eps)
        np.testing.assert_allclose(p.data, [0.9], atol=1e-6)

    def test_zero_grad_zero_moments_moves_only_by_decay(self):
        p = make_param([2.0])
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.1)
        p.grad = np.array([0.0])
        before = p.data.copy()
        opt.step()
        assert p.data[0] < before[0]  # shrinks toward zero
        p2 = make_param([2.0])
        opt2 = Adam({"p": p2}, lr=0.1, weight_decay=0.0)
        p2.grad = np.array([0.0])
        opt2.step()
        np.testing.assert_allclose(p2.data, [2.0])  # no decay, no movement

    def test_determinism(self):
        def run():
            p = make_param([[1.0, -2.0], [0.5, 3.0]])
            opt = Adam({"p": p}, lr=0.05, weight_decay=1e-3)
            g = np.random.default_rng(42)
            for _ in range(5):
                p.grad = g.standard_normal(p.shape)
                opt.step()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_step_counter_increments(self):
        p = make_param([1.0])
        opt = Adam({"p": p})
        for i in range(3):
            p.grad = np.array([0.1])
            opt.step()
            assert opt.t == i + 1

    def test_skips_params_without_grad(self):
        p, q = make_param([1.0]), make_param([1.0])
        opt = Adam({"p": p, "q": q}, lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(q.data, [1.0])
        assert p.data[0] != 1.0

    def test_zero_grad_clears(self):
        p = make_param([1.0])
        opt = Adam({"p": p})
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            Adam({"p": make_param([1.0])}, lr=0.0)
        with pytest.raises(ConfigError):
            Adam({"p": make_param([1.0])}, weight_decay=-0.1)
        for bad in ({"lr": np.inf}, {"lr": np.nan}, {"weight_decay": np.inf},
                    {"weight_decay": np.nan}):
            with pytest.raises(ConfigError, match="finite"):
                Adam({"p": make_param([1.0])}, **bad)

    def test_convergence_on_quadratic(self):
        p = make_param([5.0, -3.0])
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(500):
            p.grad = 2.0 * p.data  # d/dp sum(p^2)
            opt.step()
        np.testing.assert_allclose(p.data, [0.0, 0.0], atol=1e-3)
