"""Adam optimizer over named parameter collections.

Bias-corrected first and second moments; weight decay is coupled (L2):
wd*param is added to the gradient before the moment updates.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999  # decay rates of the first and second moments
EPS = 1e-8  # added to the root of the second moment before dividing


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float = 0.01, weight_decay: float = 0.0):
        if not (np.isfinite(lr) and lr > 0.0):
            raise ConfigError(f"learning rate must be a finite positive number, got {lr}")
        if not (np.isfinite(weight_decay) and weight_decay >= 0.0):
            raise ConfigError(
                f"weight decay must be a finite non-negative number, got {weight_decay}"
            )
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> None:
        """Update every parameter whose grad is set; missing grads are skipped."""
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
