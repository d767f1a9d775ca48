"""Autodiff core: forward values, backward rules, tape semantics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgnn.errors import ContractError, DomainError, ShapeError
from bgnn.sparse import SHORT_ROW, SparseMatrix
from bgnn import tensor as T
from bgnn.tensor import Tape, Tensor, backward

from helpers import (
    add_at_reference,
    assert_bits,
    check_grads,
    leaky_relu_grad_reference,
    leaky_relu_reference,
    row_sum_reference,
    scale_rows_reference,
    seeded_grad_reference,
    tape_grad,
    wide_range,
    with_specials,
)


def rng(seed=0):
    return np.random.default_rng(seed)


small = st.integers(min_value=1, max_value=4)


def forward_and_grad(op, x, seed):
    """op(x) and the gradient reaching x when the op's output gradient is
    a fixed random array w (loss = sum(op(x) * w) passes w on exactly)."""
    t = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = op(t)
        w = wide_range(np.random.default_rng(seed), out.shape)
        loss = T.sum_all(T.mul(out, Tensor(w)))
    backward(loss, tape)
    return out.data, w, t.grad if t.grad is not None else np.zeros_like(x)


scatter_cases = dict(
    m=st.integers(0, 40),
    n=st.integers(1, 10),
    k=st.sampled_from([0, 1, 16]),
    seed=st.integers(0, 10**6),
)


def _multi_input_ops():
    g = rng(40)
    m = g.standard_normal
    return {
        "add": (T.add, [m((3, 2)), m((3, 2)), m((3, 2))]),
        "mul": (T.mul, [m((3, 2)), m((3, 2))]),
        "matmul": (T.matmul, [m((3, 4)), m((4, 2))]),
        "add_bias": (T.add_bias, [m((3, 2)), m(2)]),
        "concat_cols": (T.concat_cols, [m((3, 2)), m((3, 1)), m((3, 3))]),
        "scale_rows": (T.scale_rows, [m((3, 2)), m(3)]),
        "softmax_rows": (T.softmax_rows, [m((3, 4)), 0.5 + g.random(3)]),
        "batch_norm": (
            lambda x, gamma, beta: T.batch_norm(
                x, gamma, beta, np.zeros(2), np.ones(2), training=True
            ),
            [m((4, 2)), m(2), m(2)],
        ),
    }


# every op with more than one tensor operand, with operands to try it on
MULTI_INPUT_OPS = _multi_input_ops()


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(T.matmul(a, b).data, b.data)

    def test_zeros_annihilate(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        z = Tensor(np.zeros((2, 3)))
        np.testing.assert_allclose(T.matmul(a, z).data, np.zeros((2, 3)))

    def test_hand_value(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradients(self):
        g = rng(1)
        check_grads(
            lambda a, b: T.sum_all(T.matmul(a, b)),
            g.standard_normal((3, 4)),
            g.standard_normal((4, 2)),
        )


class TestSpmm:
    def test_sparse_identity(self):
        s = SparseMatrix.from_coo(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
        x = Tensor(rng(2).standard_normal((3, 4)))
        np.testing.assert_allclose(T.spmm(s, x).data, x.data)

    def test_empty_rows_give_zeros(self):
        s = SparseMatrix.from_coo(3, 3, [1], [0], [2.0])
        x = Tensor(np.ones((3, 2)))
        out = T.spmm(s, x).data
        np.testing.assert_allclose(out[0], 0.0)
        np.testing.assert_allclose(out[2], 0.0)
        np.testing.assert_allclose(out[1], 2.0)

    def test_matches_dense_oracle(self):
        g = rng(3)
        s = SparseMatrix.from_coo(
            5, 5, g.integers(0, 5, 8), g.integers(0, 5, 8), g.standard_normal(8)
        )
        d = g.standard_normal((5, 3))
        np.testing.assert_allclose(s.to_dense() @ d, T.spmm(s, Tensor(d)).data, atol=1e-12)

    def test_shape_error(self):
        s = SparseMatrix.from_coo(2, 3, [0], [0], [1.0])
        with pytest.raises(ShapeError):
            T.spmm(s, Tensor(np.ones((2, 2))))

    def test_gradient_through_dense_operand(self):
        g = rng(4)
        s = SparseMatrix.from_coo(
            4, 4, g.integers(0, 4, 6), g.integers(0, 4, 6), g.standard_normal(6)
        )
        check_grads(lambda d: T.sum_all(T.mul(T.spmm(s, d), T.spmm(s, d))), g.standard_normal((4, 3)))


class TestSoftmaxRows:
    def test_equal_logits_uniform(self):
        out = T.softmax_rows(Tensor([[3.0, 3.0, 3.0, 3.0]]))
        np.testing.assert_allclose(out.data, 0.25)

    def test_hand_value(self):
        out = T.softmax_rows(Tensor([[2.0, 0.0]]), tau=1.0)
        np.testing.assert_allclose(out.data, [[0.8808, 0.1192]], atol=1e-4)

    def test_high_temperature_flattens(self):
        out = T.softmax_rows(Tensor([[2.0, 0.0]]), tau=1e6)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-5)

    def test_rows_sum_to_one_and_stay_in_unit_interval(self):
        y = T.softmax_rows(Tensor(rng(5).standard_normal((6, 4)) * 3)).data
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_huge_logits_stay_finite_and_normalized(self):
        y = T.softmax_rows(Tensor(rng(5).standard_normal((6, 4)) * 500)).data
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(DomainError):
            T.softmax_rows(Tensor([[1.0, 2.0]]), tau=0.0)
        with pytest.raises(DomainError):
            T.softmax_rows(Tensor([[1.0, 2.0]]), tau=Tensor(np.array([-1.0])))

    def test_gradient_wrt_logits(self):
        g = rng(6)
        w = g.standard_normal((3, 4))
        check_grads(
            lambda z: T.sum_all(T.mul(T.softmax_rows(z, tau=2.0), Tensor(w))),
            g.standard_normal((3, 4)),
        )

    def test_gradient_wrt_per_row_tau(self):
        g = rng(7)
        z = g.standard_normal((3, 4))
        w = g.standard_normal((3, 4))
        check_grads(
            lambda tau: T.sum_all(T.mul(T.softmax_rows(Tensor(z), tau=tau), Tensor(w))),
            np.array([1.5, 2.0, 3.0]),
        )

    def test_gradient_wrt_scalar_tau(self):
        g = rng(9)
        z = g.standard_normal((3, 2))
        w = g.standard_normal((3, 2))
        check_grads(
            lambda tau: T.sum_all(T.mul(T.softmax_rows(Tensor(z), tau=tau), Tensor(w))),
            np.array(2.0),
        )

    def test_gradient_wrt_logits_and_tau_jointly(self):
        g = rng(8)
        w = g.standard_normal((2, 3))

        def loss(z, tau):
            return T.sum_all(T.mul(T.softmax_rows(z, tau=tau), Tensor(w)))

        check_grads(loss, g.standard_normal((2, 3)), np.array([1.2, 2.7]))

    @given(
        m=st.integers(1, 20),
        k=st.integers(1, 12),
        per_row=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    @example(m=2, k=2, per_row=True, seed=0)
    @example(m=2, k=SHORT_ROW, per_row=False, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_the_axis_sum_formulas(self, m, k, per_row, seed):
        """softmax_np, cross_entropy_np and both gradients of softmax_rows
        equal their numpy axis-1 sum forms, on either side of SHORT_ROW."""
        g = np.random.default_rng(seed)
        z = 3.0 * g.standard_normal((m, k))
        w = wide_range(g, (m, k))
        tau_data = 0.5 + g.random(m if per_row else ())
        zt, tau = Tensor(z, requires_grad=True), Tensor(tau_data, requires_grad=True)
        with Tape() as tape:
            y = T.softmax_rows(zt, tau)
            loss = T.sum_all(T.mul(y, Tensor(w)))
        backward(loss, tape)
        col = tau_data.reshape(-1, 1)
        s = z / col
        e = np.exp(s - s.max(axis=1, keepdims=True))
        want_y = e / row_sum_reference(e)[:, None]
        d_s = want_y * (w - row_sum_reference(w * want_y)[:, None])
        dtau = -row_sum_reference(d_s * z)[:, None] / col**2
        assert_bits(y.data, want_y)
        assert_bits(zt.grad, seeded_grad_reference(z, d_s / col))
        assert_bits(tau.grad, seeded_grad_reference(
            tau_data, dtau.reshape(m) if per_row else dtau.sum()))
        q = np.abs(wide_range(g, (m, k)))
        assert_bits(T.cross_entropy_np(want_y, q),
                    -row_sum_reference(q * np.log(np.maximum(want_y, T.PROB_FLOOR))))


class TestElementwise:
    def test_relu(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        np.testing.assert_allclose(T.sigmoid(Tensor(0.0)).data, 0.5)

    def test_sigmoid_extreme_inputs_finite(self):
        out = T.sigmoid(Tensor([-1000.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_elu_closed_form(self):
        np.testing.assert_allclose(T.elu(Tensor(-1.0)).data, np.exp(-1.0) - 1.0)

    def test_leaky_relu_slope(self):
        out = T.leaky_relu(Tensor([-2.0, 3.0]))
        np.testing.assert_allclose(out.data, [-0.4, 3.0])

    @given(
        shape=st.sampled_from([(0,), (1,), (17,), (0, 3), (5, 2), (9, 3)]),
        seed=st.integers(0, 10**6),
    )
    @example(shape=(5, 2), seed=0)
    @settings(max_examples=60, deadline=None)
    def test_leaky_relu_bitwise_equals_the_where_form(self, shape, seed):
        """max(x, 0.2x) and the bool-mask backward equal np.where's select,
        -0.0, ±inf and NaN included, in the value and in the gradient."""
        g = np.random.default_rng(seed)
        x = with_specials(g, wide_range(g, shape))
        w = with_specials(g, wide_range(g, shape))
        t = Tensor(x, requires_grad=True)
        with np.errstate(invalid="ignore"), Tape() as tape:
            out = T.leaky_relu(t)
            loss = T.sum_all(T.mul(out, Tensor(w)))  # passes w on exactly
        backward(loss, tape)
        assert_bits(out.data, leaky_relu_reference(x))
        assert_bits(t.grad, seeded_grad_reference(x, leaky_relu_grad_reference(w, x)))

    def test_sigmoid_bitwise_equals_the_split_form(self):
        x = with_specials(rng(47), wide_range(rng(48), 40))
        want = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        assert_bits(T.sigmoid(Tensor(x)).data, want)

    def test_gradients(self):
        g = rng(9)
        x = g.standard_normal((3, 3)) + 0.05  # keep away from relu kink
        x[np.abs(x) < 0.01] = 0.5
        for op in (T.relu, T.elu, T.sigmoid, T.leaky_relu):
            check_grads(lambda t, op=op: T.sum_all(T.mul(op(t), op(t))), x)


class TestCrossEntropy:
    @pytest.mark.parametrize("weighted", [True, False], ids=["w", "no w"])
    @given(seed=st.integers(0, 10**6), m=st.integers(1, 6), c=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_value_and_gradient_bitwise_equal_the_closed_form(self, weighted, seed, m, c):
        """Probabilities over 14 decades, some below PROB_FLOOR, against
        targets with zero entries, under a wide upstream gradient k: the
        loss is the weighted sum of cross_entropy_np's rows, and the
        gradient -k w_i q_ic / max(p_ic, PROB_FLOOR) is zero where p was
        floored. An omitted w weighs every row 1."""
        g = np.random.default_rng(seed)
        p = 10.0 ** g.uniform(-14.0, 0.0, (m, c))
        p[0, 0] = 0.5 * T.PROB_FLOOR
        q = np.abs(wide_range(g, (m, c))) * (g.random((m, c)) > 0.3)
        w = np.abs(wide_range(g, m)) if weighted else None
        k = float(wide_range(g, ()))
        t = Tensor(p, requires_grad=True)
        with Tape() as tape:
            loss = T.cross_entropy(t, q, w)
            out = T.scale(loss, k)
        backward(out, tape)
        w_eff = w if weighted else np.ones(m)
        assert_bits(loss.data, (T.cross_entropy_np(p, q) * w_eff).sum())
        want = np.zeros_like(p)  # backward accumulates into zeros, so -0 reads +0
        want += -(k * w_eff)[:, None] * q / np.maximum(p, T.PROB_FLOOR) * (p >= T.PROB_FLOOR)
        assert_bits(t.grad, want)

    def test_gradient_masks_floored_region(self):
        p = np.array([[0.1 * T.PROB_FLOOR, T.PROB_FLOOR, 0.5]])
        grads = tape_grad(lambda x: T.cross_entropy(x, np.ones((1, 3))), p)
        np.testing.assert_allclose(grads[0], [[0.0, -1.0 / T.PROB_FLOOR, -2.0]])

    def test_shape_errors(self):
        p = Tensor(np.full((2, 3), 1.0 / 3.0))
        with pytest.raises(ShapeError, match="targets"):
            T.cross_entropy(p, np.ones((2, 4)))
        with pytest.raises(ShapeError, match="weights"):
            T.cross_entropy(p, np.ones((2, 3)), np.ones(3))


class TestSegmentOps:
    def test_segment_sum_single_segment(self):
        x = rng(10).standard_normal((5, 3))
        out = T.segment_sum(Tensor(x), [0] * 5, 1)
        np.testing.assert_allclose(out.data, x.sum(axis=0, keepdims=True))

    def test_segment_sum_identity_partition(self):
        x = rng(11).standard_normal((4, 2))
        out = T.segment_sum(Tensor(x), [0, 1, 2, 3], 4)
        np.testing.assert_allclose(out.data, x)

    def test_segment_sum_hand_value(self):
        out = T.segment_sum(Tensor([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), [0, 0, 1], 2)
        np.testing.assert_allclose(out.data, [[3.0, 3.0], [3.0, 3.0]])

    def test_segment_sum_empty_segment_is_zero(self):
        out = T.segment_sum(Tensor([[1.0]]), [2], 3)
        np.testing.assert_allclose(out.data, [[0.0], [0.0], [1.0]])

    def test_segment_sum_out_of_range(self):
        for ids in ([1], [-1]):
            with pytest.raises(IndexError):
                T.segment_sum(Tensor([[1.0]]), ids, 1)

    def test_segment_softmax_out_of_range(self):
        for ids in ([0, 2], [-1, 0]):
            with pytest.raises(IndexError):
                T.segment_softmax(Tensor([1.0, 2.0]), ids, 2)

    @given(**scatter_cases)
    @example(m=0, n=3, k=16, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_segment_sum_bitwise_equals_add_at(self, m, n, k, seed):
        g = np.random.default_rng(seed)
        ids = g.integers(0, int(g.integers(1, n + 1)), m)  # trailing segments empty
        x = wide_range(g, (m, k))
        out, w, grad = forward_and_grad(lambda t: T.segment_sum(t, ids, n), x, seed)
        assert np.array_equal(out, add_at_reference(ids, x, n))
        assert np.array_equal(grad, w[ids])

    @given(
        m=st.integers(0, 40),
        n=st.integers(1, 10),
        k=st.sampled_from([1, 2, 3, 16]),
        seed=st.integers(0, 10**6),
    )
    @example(m=0, n=3, k=2, seed=0)
    @example(m=8, n=1, k=3, seed=0)  # every id repeated
    @settings(max_examples=60, deadline=None)
    def test_segment_sum_backward_bitwise_equals_fancy_index(self, m, n, k, seed):
        g = np.random.default_rng(seed)
        ids = g.integers(0, n, m)
        x = wide_range(g, (m, k))
        _, w, grad = forward_and_grad(lambda t: T.segment_sum(t, ids, n), x, seed)
        assert_bits(grad, w[ids])

    @given(**scatter_cases)
    @example(m=0, n=3, k=0, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_segment_softmax_bitwise_equals_add_at(self, m, n, k, seed):
        g = np.random.default_rng(seed)
        ids = g.integers(0, int(g.integers(1, n + 1)), m)
        e = g.standard_normal(m) * 10.0 ** g.integers(-3, 3, m)
        out, w, grad = forward_and_grad(lambda t: T.segment_softmax(t, ids, n), e, seed)
        seg_max = np.full(n, -np.inf)
        np.maximum.at(seg_max, ids, e)
        shifted = np.exp(e - seg_max[ids])
        y = shifted / add_at_reference(ids, shifted, n)[ids]
        assert np.array_equal(out, y)
        assert np.array_equal(grad, y * (w - add_at_reference(ids, w * y, n)[ids]))

    @given(n=st.integers(2, 12), d=small, seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_segment_sum_conserves_mass(self, n, d, seed):
        g = np.random.default_rng(seed)
        x = g.standard_normal((n, d))
        k = int(g.integers(1, 5))
        ids = g.integers(0, k, n)
        out = T.segment_sum(Tensor(x), ids, k)
        np.testing.assert_allclose(out.data.sum(axis=0), x.sum(axis=0), atol=1e-12)

    def test_segment_sum_gradient(self):
        g = rng(12)
        check_grads(
            lambda x: T.sum_all(T.mul(T.segment_sum(x, [0, 1, 0, 2], 3), T.segment_sum(x, [0, 1, 0, 2], 3))),
            g.standard_normal((4, 3)),
        )

    def test_segment_softmax_sums_to_one_per_segment(self):
        e = Tensor(rng(13).standard_normal(7) * 10)
        ids = [0, 0, 1, 1, 1, 2, 2]
        y = T.segment_softmax(e, ids, 3).data
        for s in range(3):
            np.testing.assert_allclose(y[np.asarray(ids) == s].sum(), 1.0, atol=1e-12)

    def test_segment_softmax_singleton_segment_is_one(self):
        y = T.segment_softmax(Tensor([5.0, -3.0]), [0, 1], 2).data
        np.testing.assert_allclose(y, [1.0, 1.0])

    def test_segment_softmax_gradient(self):
        g = rng(14)
        w = g.standard_normal(6)
        ids = [0, 0, 0, 1, 1, 2]
        check_grads(
            lambda e: T.sum_all(T.mul(T.segment_softmax(e, ids, 3), Tensor(w))),
            g.standard_normal(6),
        )


class TestConcatGatherReshape:
    def test_concat_hand_value(self):
        out = T.concat_cols(Tensor([[1.0]]), Tensor([[2.0]]))
        np.testing.assert_allclose(out.data, [[1.0, 2.0]])

    def test_concat_with_empty(self):
        x = rng(15).standard_normal((3, 2))
        out = T.concat_cols(Tensor(x), Tensor(np.zeros((3, 0))))
        np.testing.assert_allclose(out.data, x)

    def test_concat_row_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat_cols(Tensor(np.ones((2, 1))), Tensor(np.ones((3, 1))))

    def test_concat_gradient_splits(self):
        ga, gb = tape_grad(
            lambda a, b: T.sum_all(T.concat_cols(a, b)),
            np.ones((2, 3)),
            np.ones((2, 2)),
        )
        np.testing.assert_allclose(ga, np.ones((2, 3)))
        np.testing.assert_allclose(gb, np.ones((2, 2)))

    def test_concat_three_operands_gradient(self):
        g = rng(41)
        w = g.standard_normal((3, 6))
        check_grads(
            lambda a, b, c: T.sum_all(T.mul(T.concat_cols(a, b, c), Tensor(w))),
            g.standard_normal((3, 2)),
            g.standard_normal((3, 1)),
            g.standard_normal((3, 3)),
        )

    def test_gather_rows_and_scatter_gradient(self):
        g = rng(16)
        x = g.standard_normal((5, 2))
        idx = [0, 3, 0]
        out = T.gather_rows(Tensor(x), idx)
        np.testing.assert_allclose(out.data, x[idx])
        (grad,) = tape_grad(lambda t: T.sum_all(T.gather_rows(t, idx)), x)
        expect = np.zeros_like(x)
        expect[0] = 2.0  # row 0 gathered twice
        expect[3] = 1.0
        np.testing.assert_allclose(grad, expect)

    def test_gather_out_of_range(self):
        for idx in ([2], [0, -1]):
            with pytest.raises(IndexError):
                T.gather_rows(Tensor(np.ones((2, 2))), idx)
            with pytest.raises(IndexError):
                T.gather_rows(Tensor(np.ones(2)), idx)

    @given(rank=st.sampled_from([1, 2]), **scatter_cases)
    @example(rank=2, m=0, n=3, k=16, seed=0)
    @example(rank=2, m=0, n=3, k=0, seed=0)
    @example(rank=2, m=12, n=3, k=2, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_gather_rows_bitwise_equals_add_at(self, rank, m, n, k, seed):
        """Rows never gathered (isolated nodes) get zero gradient."""
        g = np.random.default_rng(seed)
        x = g.standard_normal(((n,), (n, k))[rank - 1])
        idx = g.integers(0, int(g.integers(1, n + 1)), m)
        out, w, grad = forward_and_grad(lambda t: T.gather_rows(t, idx), x, seed)
        assert np.array_equal(out, x[idx])
        assert np.array_equal(grad, add_at_reference(idx, w, n))

    def test_gather_backward_onto_existing_grad(self):
        """With x.grad already set and a repeated index, the backward sums
        the gathered gradients first, then adds them to x.grad; adding each
        straight into x.grad rounds differently (here 1 + 2e-16 vs 1)."""
        x = Tensor(np.zeros(2), requires_grad=True)
        w = np.array([1e-16, 1e-16])
        with Tape() as tape:
            picked = T.gather_rows(x, [0, 0])  # its backward runs last
            loss = T.add(T.sum_all(T.mul(picked, Tensor(w))), T.sum_all(x))
        backward(loss, tape)
        straight = np.ones(2)
        np.add.at(straight, [0, 0], w)
        assert np.array_equal(x.grad, np.ones(2) + add_at_reference(np.array([0, 0]), w, 2))
        np.testing.assert_allclose(x.grad, straight, rtol=1e-15)
        assert x.grad[0] != straight[0]

    @given(
        rank=st.sampled_from([1, 2]),
        m=st.integers(0, 12),
        n=st.integers(1, 6),
        k=st.sampled_from([1, 2, 3, 16]),
        seed=st.integers(0, 10**6),
    )
    @example(rank=2, m=0, n=3, k=2, seed=0)
    @example(rank=2, m=5, n=1, k=16, seed=0)  # every index repeated
    @settings(max_examples=60, deadline=None)
    def test_gather_rows_forward_bitwise_equals_fancy_index(self, rank, m, n, k, seed):
        g = np.random.default_rng(seed)
        x = wide_range(g, ((n,), (n, k))[rank - 1])
        idx = g.integers(0, n, m)
        assert_bits(T.gather_rows(Tensor(x), idx).data, x[idx])

    @pytest.mark.parametrize("x_shape, idx", [((3, 2), [[0, 1]]), ((3, 2), 0),
                                              ((3, 2, 2), [0, 1])])
    def test_gather_rows_takes_a_1d_index_into_a_vector_or_matrix(self, x_shape, idx):
        with pytest.raises(ShapeError, match="gather_rows"):
            T.gather_rows(Tensor(np.ones(x_shape)), idx)

    def test_reshape_roundtrip_gradient(self):
        g = rng(17)
        check_grads(
            lambda x: T.sum_all(T.mul(T.reshape(x, (6,)), T.reshape(x, (6,)))),
            g.standard_normal((2, 3)),
        )


class TestDropout:
    def test_p_zero_is_identity(self):
        x = Tensor(rng(18).standard_normal((3, 3)))
        assert T.dropout(x, 0.0, training=True, rng=rng(0)) is x

    def test_eval_mode_is_identity(self):
        x = Tensor(rng(19).standard_normal((3, 3)))
        assert T.dropout(x, 0.9, training=False) is x

    def test_survivor_scaling_preserves_mean(self):
        x = Tensor(np.ones((100, 1000)))
        out = T.dropout(x, 0.5, training=True, rng=rng(20))
        assert 0.98 <= out.data.mean() <= 1.02

    def test_invalid_p(self):
        with pytest.raises(DomainError):
            T.dropout(Tensor([1.0]), 1.0, training=True, rng=rng(0))

    def test_gradient_matches_mask(self):
        x = np.ones((4, 4))
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = T.dropout(t, 0.5, training=True, rng=rng(21))
            loss = T.sum_all(out)
        backward(loss, tape)
        np.testing.assert_allclose(t.grad, out.data)  # mask times 1/(1-p), same as output here


class TestBackwardSemantics:
    def test_sum_gradient_is_ones(self):
        (g,) = tape_grad(lambda x: T.sum_all(x), rng(22).standard_normal((3, 2)))
        np.testing.assert_allclose(g, np.ones((3, 2)))

    def test_square_gradient_is_2x(self):
        x = rng(23).standard_normal((3, 2))
        (g,) = tape_grad(lambda t: T.sum_all(T.mul(t, t)), x)
        np.testing.assert_allclose(g, 2 * x)

    def test_multiple_uses_accumulate(self):
        x = np.array([3.0])
        (g,) = tape_grad(lambda t: T.sum_all(T.add(t, t)), x)
        np.testing.assert_allclose(g, [2.0])

    def test_first_gradient_bitwise_equals_a_sum_into_zeros(self):
        """A tensor's first gradient reads zeros + g bit for bit (-0.0 as
        +0.0), in a float64 array of g's memory layout, not g itself."""
        g = rng(45)
        given_grad = np.asfortranarray(with_specials(g, wide_range(g, (6, 3))))
        given_grad[0] = -0.0
        x = Tensor(g.standard_normal((6, 3)), requires_grad=True)
        with Tape() as tape:
            out = T._record(Tensor(x.data.copy()), [(x, lambda _: given_grad)])
            loss = T.sum_all(out)
        backward(loss, tape)
        assert_bits(x.grad, seeded_grad_reference(x.data, given_grad))
        assert x.grad.flags.f_contiguous and x.grad is not given_grad

    def test_zero_d_gradient_stays_an_array(self):
        z = Tensor(rng(46).standard_normal((3, 2)))
        tau = Tensor(1.5, requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(T.softmax_rows(z, tau), Tensor(np.ones((3, 2)))))
        backward(loss, tape)
        assert isinstance(tau.grad, np.ndarray) and tau.grad.shape == ()

    def test_gradient_of_another_shape_rejected(self):
        """A gradient map that broadcasts (here to one row) is an error that
        names both shapes, not a gradient silently spread over the rows."""
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        with Tape() as tape:
            out = T._record(Tensor(x.data.copy()),
                            [(x, lambda g: g.sum(axis=0, keepdims=True))])
            loss = T.sum_all(out)
        with pytest.raises(ContractError, match=r"\(1, 2\).*\(3, 2\)"):
            backward(loss, tape)

    def test_non_scalar_loss_rejected(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            out = T.mul(t, t)
        with pytest.raises(ContractError):
            backward(out, tape)

    def test_rerun_after_reset_is_identical(self):
        x = Tensor(rng(24).standard_normal((3, 3)), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(T.relu(x), x))
        backward(loss, tape)
        first = x.grad.copy()
        for out, inputs, _ in tape.entries:
            for t in (out, *inputs):
                t.grad = None
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, first)

    def test_rerun_without_reset_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
        backward(loss, tape)
        first = x.grad.copy()
        backward(loss, tape)
        assert x.grad[0] > first[0]  # adds on top, never overwrites

    def test_backward_drops_intermediate_grads_and_keeps_leaf_grads(self):
        g = rng(44)
        x = Tensor(g.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(g.standard_normal((3, 2)), requires_grad=True)
        c = Tensor(g.standard_normal((3, 2)))
        with Tape() as tape:
            h = T.relu(T.matmul(x, w))
            flagged = T.matmul(x, c)
            flagged.requires_grad = True  # an op output marked as a leaf keeps its gradient
            picked = T.add(T.gather_rows(h, [0, 2, 2]), T.gather_rows(flagged, [1, 1, 3]))
            loss = T.sum_all(picked)
        backward(loss, tape)
        assert all(out.grad is None for out, _, _ in tape.entries if out is not flagged)
        assert x.grad is not None and w.grad is not None and flagged.grad is not None
        assert c.grad is None

    def test_second_backward_adds_exactly_one_pass(self):
        """Only the leaf keeps its gradient between calls, so a second call
        adds the first pass again; propagating stale intermediate gradients
        as well would give 4x the first here."""
        x = Tensor(np.array([2.0, -3.0, 0.5]), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
        backward(loss, tape)
        first = x.grad.copy()
        backward(loss, tape)
        assert_bits(x.grad, 2.0 * first)

    def test_no_tape_records_nothing(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        out = T.mul(x, x)
        assert out._src_tape is None

    @pytest.mark.parametrize("op", sorted(MULTI_INPUT_OPS))
    def test_untracked_tensor_gets_no_grad(self, op):
        """With any one operand constant, it gets no gradient and every
        other operand gets the gradient of the all-tracked run."""
        fn, arrays = MULTI_INPUT_OPS[op]
        w = rng(43).standard_normal(fn(*map(Tensor, arrays)).shape)

        def grads(constant):
            ts = [Tensor(a, requires_grad=i != constant) for i, a in enumerate(arrays)]
            with Tape() as tape:
                loss = T.sum_all(T.mul(fn(*ts), Tensor(w)))
            backward(loss, tape)
            return [t.grad for t in ts]

        full = grads(None)
        assert all(np.any(g != 0.0) for g in full)
        for i in range(len(arrays)):
            part = grads(i)
            assert part[i] is None
            for j in set(range(len(arrays))) - {i}:
                assert_bits(part[j], full[j])

    @given(seed=st.integers(0, 10**6), m=small, n=small)
    @settings(max_examples=25, deadline=None)
    def test_composite_graph_finite_difference(self, seed, m, n):
        g = np.random.default_rng(seed)
        a = g.standard_normal((m, n))
        b = g.standard_normal((n, m))

        def loss(ta, tb):
            h = T.matmul(ta, tb)
            y = T.softmax_rows(T.sigmoid(h), tau=1.5)
            return T.sum_all(T.mul(y, y))

        check_grads(loss, a, b)


class TestScaleAndBias:
    def test_add_bias_gradient(self):
        g = rng(25)
        check_grads(
            lambda x, b: T.sum_all(T.mul(T.add_bias(x, b), T.add_bias(x, b))),
            g.standard_normal((3, 4)),
            g.standard_normal(4),
        )

    @given(
        m=st.integers(0, 20),
        k=st.integers(0, 12),
        seed=st.integers(0, 10**6),
    )
    @example(m=3, k=2, seed=0)
    @example(m=3, k=SHORT_ROW, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_scale_rows_bitwise_equals_the_broadcast_forms(self, m, k, seed):
        """The value and both gradients equal x * v[:, None], g * v[:, None]
        and (g * x).sum(axis=1) bit for bit, with a row of -0.0 and
        entries of ±inf and NaN."""
        g = np.random.default_rng(seed)
        x = with_specials(g, wide_range(g, (m, k)))
        v = with_specials(g, wide_range(g, m))
        w = with_specials(g, wide_range(g, (m, k)))
        if m:
            x[0] = -0.0
        xt, vt = Tensor(x, requires_grad=True), Tensor(v, requires_grad=True)
        with np.errstate(invalid="ignore"):  # inf * 0
            with Tape() as tape:
                out = T.scale_rows(xt, vt)
                loss = T.sum_all(T.mul(out, Tensor(w)))
            backward(loss, tape)
            want = scale_rows_reference(x, v), scale_rows_reference(w, v), row_sum_reference(w * x)
        assert_bits(out.data, want[0])
        assert_bits(xt.grad, seeded_grad_reference(x, want[1]))
        assert_bits(vt.grad, seeded_grad_reference(v, want[2]))

    def test_scale_rows_gradient(self):
        g = rng(26)
        check_grads(
            lambda x, v: T.sum_all(T.mul(T.scale_rows(x, v), T.scale_rows(x, v))),
            g.standard_normal((3, 4)),
            g.standard_normal(3),
        )

    def test_add_three_operands_left_to_right(self):
        g = rng(42)
        x, y, z = (wide_range(g, (3, 2)) for _ in range(3))
        assert_bits(T.add(Tensor(x), Tensor(y), Tensor(z)).data, (x + y) + z)
        w = g.standard_normal((3, 2))
        check_grads(lambda a, b, c: T.sum_all(T.mul(T.add(a, b, c), Tensor(w))), x, y, z)

    def test_scale_add_scalar(self):
        x = rng(28).standard_normal((2, 2))
        check_grads(lambda a: T.sum_all(T.scale(T.add_scalar(a, 3.0), -2.0)), x)


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        g = rng(29)
        x = g.standard_normal((32, 5)) * 4 + 7
        rm, rv = np.zeros(5), np.ones(5)
        out = T.batch_norm(
            Tensor(x), Tensor(np.ones(5)), Tensor(np.zeros(5)), rm, rv, training=True
        )
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-2)
        assert not np.allclose(rm, 0.0)  # running stats updated

    def test_eval_uses_running_stats(self):
        rm, rv = np.array([1.0, 2.0]), np.array([4.0, 9.0])
        x = np.array([[3.0, 8.0]])
        out = T.batch_norm(
            Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=False
        )
        np.testing.assert_allclose(out.data, [[2.0 / np.sqrt(4 + 1e-5), 6.0 / np.sqrt(9 + 1e-5)]])
        np.testing.assert_array_equal(rm, [1.0, 2.0])  # untouched in eval

    def test_single_row_training_warns_and_uses_running_stats(self):
        rm, rv = np.zeros(2), np.ones(2)
        with pytest.warns(UserWarning):
            out = T.batch_norm(
                Tensor([[1.0, 2.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True
            )
        np.testing.assert_allclose(out.data, [[1.0, 2.0]], atol=1e-4)

    def test_gradients(self):
        g = rng(30)
        x = g.standard_normal((6, 3))
        gamma = g.standard_normal(3) + 2.0
        beta = g.standard_normal(3)

        def loss(tx, tg, tb):
            rm, rv = np.zeros(3), np.ones(3)
            out = T.batch_norm(tx, tg, tb, rm, rv, training=True)
            return T.sum_all(T.mul(out, out))

        check_grads(loss, x, gamma, beta)
