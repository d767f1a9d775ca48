"""Shared test utilities: finite-difference gradient checking and the
scatter reference the bincount kernel is checked against."""

from __future__ import annotations

import numpy as np

from bgnn.tensor import Tape, Tensor, backward


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function f at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def tape_grad(build_loss, *arrays) -> list[np.ndarray]:
    """Autodiff gradients of build_loss(*tensors) w.r.t. each input array."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build_loss(*tensors)
    backward(loss, tape)
    return [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]


def check_grads(build_loss, *arrays, rtol: float = 1e-4, atol: float = 1e-7) -> None:
    """Assert autodiff and finite-difference gradients agree for every input."""
    analytic = tape_grad(build_loss, *arrays)
    for i, a in enumerate(arrays):
        a = np.asarray(a, dtype=np.float64)

        def scalar_f(x, i=i):
            args = [np.asarray(b, dtype=np.float64) for b in arrays]
            args[i] = x
            tensors = [Tensor(b) for b in args]
            return float(build_loss(*tensors).data)

        numeric = numeric_grad(scalar_f, a.copy())
        np.testing.assert_allclose(
            analytic[i], numeric, rtol=rtol, atol=atol, err_msg=f"gradient mismatch on input {i}"
        )


def add_at_reference(ids, x, n: int) -> np.ndarray:
    """The unbuffered ufunc scatter (np.add.at into zeros) that every
    scatter kernel must match bit for bit."""
    out = np.zeros((n,) + np.shape(x)[1:])
    np.add.at(out, ids, x)
    return out


def wide_range(g: np.random.Generator, shape) -> np.ndarray:
    """Normal values scaled over 16 decades, so that summing them in a
    different order changes the bits."""
    return g.standard_normal(shape) * 10.0 ** g.integers(-8, 9, shape)
