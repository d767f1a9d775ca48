"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap float64 numpy arrays. Each operation computes its value and
hands ``_record`` one (input, gradient map) pair per tensor operand: the
map takes the output's gradient to that input's gradient. While a
:class:`Tape` is active, ``_record`` decides which inputs are tracked and
appends the output, its inputs and one backward closure, which calls only
the tracked inputs' maps, to the tape in execution order. :func:`backward`
replays the tape in reverse and accumulates gradients into
``Tensor.grad``. Leaves (``requires_grad=True``) keep their gradients; an
intermediate's gradient is dropped once it has been propagated, so a
repeated ``backward`` adds exactly one more pass. The tape is rebuilt on
every forward pass, so there is no graph reuse between iterations.

Outside a tape (evaluation mode) every operation is a plain numpy
computation with no recording overhead.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError
from .sparse import SparseMatrix, row_sums, scaled_rows, scatter_add

PROB_FLOOR = 1e-10  # lower clamp applied before taking logs of probabilities
LEAKY_SLOPE = 0.2  # leaky_relu's slope below zero, as in GAT's attention scores
ELU_ALPHA = 1.0  # elu's saturation value below zero is -ELU_ALPHA
BN_MOMENTUM = 0.1  # weight of a training batch's statistics in the running ones
BN_EPS = 1e-5  # added to the variance before batch_norm's square root


class Tensor:
    """A dense float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad", "_src_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._src_tape: "Tape | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations from one forward pass.

    Entries are appended in execution order, which for define-by-run
    execution is automatically a topological order of the graph.
    Usable as a context manager::

        with Tape() as tape:
            loss = ...
        backward(loss, tape)
    """

    def __init__(self):
        self.entries: list[tuple[Tensor, tuple[Tensor, ...], Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.remove(self)


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _tracked(t: Tensor, tape: Tape) -> bool:
    return t.requires_grad or t._src_tape is tape


def _record(
    out: Tensor, rules: Sequence[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]]
) -> Tensor:
    """Record ``out`` on the active tape, if any of its inputs is tracked.

    ``rules`` pairs each input with a map from ``out``'s gradient to that
    input's gradient, in the order the gradients accumulate. Tracking is
    decided here, once per input: backward calls only the maps of tracked
    inputs, so an op never forms the gradient of a constant operand.
    """
    tape = active_tape()
    if tape is None:
        return out
    live = [(t, grad) for t, grad in rules if _tracked(t, tape)]
    if live:

        def back(g: np.ndarray) -> None:
            for t, grad in live:
                _accum(t, grad(g))

        out._src_tape = tape
        tape.entries.append((out, tuple([t for t, _ in rules]), back))
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``. A first gradient is stored as g + 0.0 in a
    new array of g's dtype and layout: bit for bit the sum into zeros, with
    no zero-filled buffer; a 0-d gradient stays an array."""
    if np.shape(g) != t.shape:
        raise ContractError(f"gradient of shape {np.shape(g)} for a tensor of shape {t.shape}")
    if t.grad is None:
        t.grad = np.add(g, 0.0, out=np.empty_like(g))
    else:
        t.grad += g


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate gradients of every tracked tensor reachable from ``loss``.

    Gradients accumulate additively across multiple uses of a tensor
    within the tape. Leaves (``requires_grad=True``) keep theirs; an
    intermediate output's gradient is set back to None as soon as its
    closure has propagated it, so each repeated backward call adds exactly
    one more pass to the leaves. A rerun from the same forward state after
    every leaf's ``grad`` is reset to None reproduces the first result
    exactly.
    """
    if loss.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    _accum(loss, np.array(1.0))
    for out, _inputs, back in reversed(tape.entries):
        if out.grad is None:
            continue  # not on any path to the loss
        back(out.grad)
        if not out.requires_grad:
            out.grad = None


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# arithmetic


def add(*xs: Tensor) -> Tensor:
    """Elementwise sum of same-shape tensors, added left to right."""
    total = xs[0].data.copy()
    for x in xs[1:]:
        _require_same_shape(xs[0], x, "add")
        total += x.data
    return _record(Tensor(total), [(x, lambda g: g) for x in xs])


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    _require_same_shape(a, b, "mul")
    return _record(
        Tensor(a.data * b.data), [(a, lambda g: g * b.data), (b, lambda g: g * a.data)]
    )


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)
    return _record(Tensor(x.data * c), [(x, lambda g: g * c)])


def add_scalar(x: Tensor, c: float) -> Tensor:
    return _record(Tensor(x.data + float(c)), [(x, lambda g: g)])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with backward dA = G Bᵀ, dB = Aᵀ G."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    return _record(
        Tensor(a.data @ b.data), [(a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g)]
    )


def spmm(s: SparseMatrix, d: Tensor) -> Tensor:
    """Sparse-dense product s @ d. The sparse operand is a constant."""
    if d.ndim != 2 or s.n_cols != d.shape[0]:
        raise ShapeError(
            f"spmm: sparse {s.n_rows}x{s.n_cols} incompatible with dense {d.shape}"
        )
    return _record(
        Tensor(s.matmul_dense(d.data)), [(d, lambda g: s.transpose().matmul_dense(g))]
    )


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a row vector to every row of a matrix (the one allowed broadcast)."""
    if x.ndim != 2 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias: shapes {x.shape} and {b.shape} are incompatible")
    return _record(Tensor(x.data + b.data), [(x, lambda g: g), (b, lambda g: g.sum(axis=0))])


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    return _record(Tensor(np.maximum(x.data, 0.0)), [(x, lambda g: g * mask)])


def leaky_relu(x: Tensor) -> Tensor:
    """max(x, LEAKY_SLOPE·x): for 0 < slope < 1 that is x above zero and
    slope·x otherwise, bit for bit (±0, ±inf and NaN included), without
    np.where's slower select. The backward keeps only the bool mask."""
    mask = x.data > 0.0
    return _record(
        Tensor(np.maximum(x.data, LEAKY_SLOPE * x.data)),
        [(x, lambda g: g * np.maximum(mask, LEAKY_SLOPE))],
    )


def elu(x: Tensor) -> Tensor:
    neg_part = ELU_ALPHA * np.expm1(np.minimum(x.data, 0.0))
    return _record(
        Tensor(np.where(x.data > 0.0, x.data, neg_part)),
        [(x, lambda g: g * np.where(x.data > 0.0, 1.0, neg_part + ELU_ALPHA))],
    )


def sigmoid(x: Tensor) -> Tensor:
    # Split by sign to avoid overflow in exp.
    e = np.exp(-np.abs(x.data))
    v = np.where(x.data >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _record(Tensor(v), [(x, lambda g: g * v * (1.0 - v))])


# ---------------------------------------------------------------------------
# softmax, cross-entropy and structured reductions


def softmax_np(z: np.ndarray, tau=1.0) -> np.ndarray:
    """Row-wise softmax of z/τ with max-subtraction; τ is a scalar or a column."""
    s = z / tau
    s = s - s.max(axis=1, keepdims=True)
    e = np.exp(s)
    return e / row_sums(e)[:, None]


def cross_entropy_np(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-row soft cross-entropy -Σ_c q_ic log max(p_ic, PROB_FLOOR)."""
    return -row_sums(q * np.log(np.maximum(p, PROB_FLOOR)))


def _as_tau_column(tau, m: int) -> tuple[np.ndarray, Tensor | None]:
    """Return (column of τ values broadcastable over rows, source tensor or None)."""
    if isinstance(tau, Tensor):
        if tau.shape not in ((), (m,)):
            raise ShapeError(f"tau shape {tau.shape} does not match {m} rows")
        return tau.data.reshape(-1, 1), tau
    col = np.full((1, 1), float(tau))
    return col, None


def softmax_rows(z: Tensor, tau=1.0) -> Tensor:
    """Row-wise softmax of z/τ with max-subtraction for stability.

    ``tau`` may be a python scalar, a scalar Tensor, or a length-m Tensor
    of per-row temperatures; every entry must be positive. Gradients flow
    into both ``z`` and a tracked ``tau``.
    """
    if z.ndim != 2:
        raise ShapeError(f"softmax_rows expects a matrix, got shape {z.shape}")
    m = z.shape[0]
    tau_col, tau_t = _as_tau_column(tau, m)
    if np.any(tau_col <= 0.0):
        raise DomainError("softmax temperature must be positive")
    y = softmax_np(z.data, tau_col)

    def d_s(g):  # the gradient with respect to z / τ
        return y * (g - row_sums(g * y)[:, None])

    rules = [(z, lambda g: d_s(g) / tau_col)]
    if tau_t is not None:

        def d_tau(g):
            dtau = -row_sums(d_s(g) * z.data)[:, None] / (tau_col**2)
            # a scalar tau scales every row, so its gradient sums the rows' terms
            return dtau.reshape(tau_t.shape) if tau_t.ndim else dtau.sum()

        rules.append((tau_t, d_tau))
    return _record(Tensor(y), rules)


def cross_entropy(p: Tensor, q: np.ndarray, w: np.ndarray | None = None) -> Tensor:
    """Σ_i w_i · cross_entropy_np(p, q)_i: the soft cross-entropy of
    probabilities p against constant targets q, each row weighted by the
    constant w_i (1 when ``w`` is omitted; a product by 1 is exact).

    The gradient is -w_i q_ic / max(p_ic, PROB_FLOOR), zero where p was
    floored; only p receives one.
    """
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 2 or q.shape != p.shape:
        raise ShapeError(f"cross_entropy: probabilities {p.shape} and targets {q.shape} differ")
    w = np.ones(p.shape[0]) if w is None else np.asarray(w, dtype=np.float64)
    if w.shape != (p.shape[0],):
        raise ShapeError(f"cross_entropy: weights {w.shape} for {p.shape[0]} rows")

    def d_p(g):
        return -(g * w)[:, None] * q / np.maximum(p.data, PROB_FLOOR) * (p.data >= PROB_FLOOR)

    return _record(Tensor((cross_entropy_np(p.data, q) * w).sum()), [(p, d_p)])


def segment_sum(x: Tensor, segment_ids: Sequence[int], n_segments: int) -> Tensor:
    """Sum rows of x into segments; empty segments yield zero rows."""
    if x.ndim != 2:
        raise ShapeError(f"segment_sum expects a matrix, got shape {x.shape}")
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.shape != (x.shape[0],):
        raise ShapeError(f"segment_ids length {ids.shape} does not match {x.shape[0]} rows")
    if ids.size and (ids.min() < 0 or ids.max() >= n_segments):
        raise IndexError(f"segment id out of range [0, {n_segments})")
    return _record(
        Tensor(scatter_add(ids, x.data, n_segments)), [(x, lambda g: np.take(g, ids, axis=0))]
    )


def segment_softmax(e: Tensor, segment_ids: Sequence[int], n_segments: int) -> Tensor:
    """Softmax of a vector within each segment (stable; segments may be empty)."""
    if e.ndim != 1:
        raise ShapeError(f"segment_softmax expects a vector, got shape {e.shape}")
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.shape != e.shape:
        raise ShapeError("segment_ids length does not match input length")
    if ids.size and (ids.min() < 0 or ids.max() >= n_segments):
        raise IndexError(f"segment id out of range [0, {n_segments})")
    seg_max = np.full(n_segments, -np.inf)
    np.maximum.at(seg_max, ids, e.data)
    shifted = np.exp(e.data - seg_max[ids])
    denom = scatter_add(ids, shifted, n_segments)
    y = shifted / denom[ids]
    return _record(
        Tensor(y), [(e, lambda g: y * (g - scatter_add(ids, g * y, n_segments)[ids]))]
    )


def concat_cols(*xs: Tensor) -> Tensor:
    """The columns of each operand in turn."""
    if any(x.ndim != 2 or x.shape[0] != xs[0].shape[0] for x in xs):
        raise ShapeError(f"concat_cols: row counts {[x.shape for x in xs]} differ")
    rules, lo = [], 0
    for x in xs:
        hi = lo + x.shape[1]
        rules.append((x, lambda g, lo=lo, hi=hi: g[:, lo:hi]))
        lo = hi
    return _record(Tensor(np.concatenate([x.data for x in xs], axis=1)), rules)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of a matrix or a vector by a 1-d index; backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or x.ndim > 2:
        raise ShapeError(f"gather_rows: index {idx.shape} into {x.shape}, want 1-d into rank 1-2")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"row index out of range [0, {x.shape[0]})")

    def d_x(g):
        # the scatter sums into zeros before adding to an existing x.grad
        return scatter_add(idx, g, x.shape[0])

    # np.take copies 24,310 rows of an (n, 2) array in 0.02 ms, x.data[idx] in 0.29 ms (Xeon)
    return _record(Tensor(np.take(x.data, idx, axis=0)), [(x, d_x)])


def reshape(x: Tensor, shape) -> Tensor:
    return _record(Tensor(x.data.reshape(shape)), [(x, lambda g: g.reshape(x.shape))])


def sum_all(x: Tensor) -> Tensor:
    return _record(Tensor(x.data.sum()), [(x, lambda g: np.full_like(x.data, float(g)))])


def scale_rows(x: Tensor, v: Tensor) -> Tensor:
    """Multiply row i of x by v[i]. The value and x's gradient come from
    ``sparse.scaled_rows``, column by column and Fortran-ordered, and v's
    gradient from ``sparse.row_sums``. The values equal the broadcast
    product's bit for bit, but their layout is Fortran: they give the
    C-ordered broadcast's bits downstream only through layout-blind steps,
    elementwise ops and ``scatter_add`` (``segment_sum``, the
    ``gather_rows`` backward), which is where ``gat_layer`` sends them. An
    axis-0 sum (``add_bias``, ``batch_norm``) or an axis-1 sum from
    ``SHORT_ROW`` columns up may round them differently."""
    if x.ndim != 2 or v.shape != (x.shape[0],):
        raise ShapeError(f"scale_rows: shapes {x.shape} and {v.shape} are incompatible")
    return _record(
        Tensor(scaled_rows(x.data, v.data)),
        [(x, lambda g: scaled_rows(g, v.data)), (v, lambda g: row_sums(g * x.data))],
    )


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability p and scale survivors by 1/(1-p).

    Identity in eval mode or at p=0, so inference never depends on the rng.
    """
    if not 0.0 <= p < 1.0:
        raise DomainError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ContractError("dropout in training mode requires an rng")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return _record(Tensor(x.data * mask), [(x, lambda g: g * mask)])


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """Batch normalization over axis 0 with running statistics.

    Training normalizes by batch mean and (biased) variance and updates the
    running statistics in place (unbiased variance, weighted by BN_MOMENTUM).
    Eval, and a training batch of a single row, normalize by the running
    statistics instead; the single-row case emits a warning.
    """
    if x.ndim != 2 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeError(
            f"batch_norm: x {x.shape}, gamma {gamma.shape}, beta {beta.shape} are incompatible"
        )
    m = x.shape[0]
    use_batch_stats = training and m > 1
    if training and m == 1:
        import warnings

        warnings.warn("batch_norm: batch of size 1 in training, using running stats")
    if use_batch_stats:
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * x.data.var(axis=0, ddof=1)
    else:
        mean = running_mean.copy()
        var = running_var.copy()
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = (x.data - mean) * inv_std

    def d_x(g):
        if not use_batch_stats:
            return g * gamma.data * inv_std
        gx = g * gamma.data
        return inv_std / m * (m * gx - gx.sum(axis=0) - x_hat * (gx * x_hat).sum(axis=0))

    return _record(
        Tensor(gamma.data * x_hat + beta.data),
        [(gamma, lambda g: (g * x_hat).sum(axis=0)), (beta, lambda g: g.sum(axis=0)), (x, d_x)],
    )
