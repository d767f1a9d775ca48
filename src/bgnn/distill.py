"""Knowledge distillation: soft cross-entropy loss, per-sample adaptive
temperature, and a closed-form gradient oracle.

The teacher's softened distribution softmax(t/tau), from
``tensor.softmax_np``, is a constant: no gradient reaches the teacher
logits or, through that branch, the temperature. The student branch
softmax(z/tau) stays on the tape, so the temperature module trains
jointly with the student; ``tensor.cross_entropy`` compares the two.
The teacher's entropy is ``tensor.cross_entropy_np`` of its
distribution against itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor, cross_entropy_np, softmax_np

TEMP_HIDDEN = 64  # hidden units of the temperature module's MLP


@dataclass
class TemperatureModule:
    """Small MLP mapping teacher outputs to per-sample temperatures.

    variant "entropy_only" consumes just the teacher's predictive entropy;
    "concat" consumes [teacher logits, entropy]. The sigmoid-affine output
    map keeps every temperature inside [tau_min, tau_max] by construction.
    """

    variant: str
    n_classes: int
    tau_min: float = 1.0
    tau_max: float = 4.0
    params: dict[str, Tensor] = field(default_factory=dict)

    def __post_init__(self):
        if self.variant not in ("entropy_only", "concat"):
            raise ConfigError(f"unknown temperature variant {self.variant!r}")

    @property
    def in_dim(self) -> int:
        return 1 if self.variant == "entropy_only" else self.n_classes + 1


def init_temperature_module(
    variant: str,
    n_classes: int,
    seed: int,
    tau_min: float = 1.0,
    tau_max: float = 4.0,
) -> TemperatureModule:
    """Glorot hidden layer of TEMP_HIDDEN units; zero output layer, so
    training starts at the midpoint of the temperature range."""
    mod = TemperatureModule(variant, n_classes, tau_min, tau_max)
    rng = np.random.default_rng(seed)
    d = mod.in_dim
    bound = np.sqrt(6.0 / (d + TEMP_HIDDEN))
    mod.params = {
        "W1": Tensor(rng.uniform(-bound, bound, (d, TEMP_HIDDEN)), True),
        "b1": Tensor(np.zeros(TEMP_HIDDEN), True),
        "W2": Tensor(np.zeros((TEMP_HIDDEN, 1)), True),
        "b2": Tensor(np.zeros(1), True),
    }
    return mod


def teacher_confidence(t: np.ndarray) -> np.ndarray:
    """Per-sample entropy of the teacher's predictive distribution.

    Softmax at temperature 1, then -sum p log p; lies in [0, log C].
    Constant with respect to every model parameter.
    """
    p = softmax_np(np.asarray(t, dtype=np.float64))
    return cross_entropy_np(p, p)


def adaptive_temperature(module: TemperatureModule, t: np.ndarray) -> Tensor:
    """Map teacher logits to temperatures in [tau_min, tau_max].

    sigmoid(MLP(x)) * (tau_max - tau_min) + tau_min, where x is the
    entropy alone or [logits, entropy] depending on the variant. The
    teacher input is a constant; gradients reach only the MLP parameters.
    """
    data = np.asarray(t, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != module.n_classes:
        raise ShapeError(
            f"teacher logits {data.shape} do not match {module.n_classes} classes"
        )
    conf = teacher_confidence(data)[:, None]
    x = Tensor(conf if module.variant == "entropy_only" else np.concatenate([data, conf], 1))
    h = T.relu(T.add_bias(T.matmul(x, module.params["W1"]), module.params["b1"]))
    out = T.add_bias(T.matmul(h, module.params["W2"]), module.params["b2"])
    unit = T.sigmoid(T.reshape(out, (data.shape[0],)))
    return T.add_scalar(T.scale(unit, module.tau_max - module.tau_min), module.tau_min)


def kd_loss(z: Tensor, t: np.ndarray, tau) -> Tensor:
    """Soft cross-entropy between softened teacher and student predictions.

    Sums -softmax(t/tau) . log softmax(z/tau) over all rows. The softened
    teacher is constant; tau may be a scalar, an array, or a per-sample
    Tensor (gradients then flow to whatever produced it).
    """
    t = np.asarray(t, dtype=np.float64)
    if z.shape != t.shape or z.ndim != 2:
        raise ContractError(f"student {z.shape} and teacher {t.shape} logits differ")
    tau = tau if isinstance(tau, Tensor) else Tensor(tau)
    if np.any(tau.data <= 0.0):
        raise ContractError("temperatures must be positive")
    # softmax_rows checks tau's shape, so it runs before the teacher's softmax
    p = T.softmax_rows(z, tau)
    return T.cross_entropy(p, softmax_np(t, tau.data.reshape(-1, 1)))


def kd_gradient_reference(z, t, tau) -> np.ndarray:
    """Closed-form d(kd_loss)/dz: (softmax(z/tau) - softmax(t/tau)) / tau.

    Tape-free oracle for checking the autodiff path.
    """
    z = z.data if isinstance(z, Tensor) else np.asarray(z, dtype=np.float64)
    t = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64)
    tau = tau.data if isinstance(tau, Tensor) else np.asarray(tau, dtype=np.float64)
    col = tau.reshape(-1, 1) if tau.ndim == 1 else tau
    return (softmax_np(z, col) - softmax_np(t, col)) / col
