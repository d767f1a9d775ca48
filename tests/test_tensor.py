"""Autodiff core: forward values, backward rules, tape semantics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgnn.errors import ContractError, DomainError, ShapeError
from bgnn.sparse import SparseMatrix
from bgnn import tensor as T
from bgnn.tensor import Tape, Tensor, backward

from helpers import add_at_reference, assert_bits, check_grads, tape_grad, wide_range


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
        "sub": (T.sub, [m((3, 2)), m((3, 2))]),
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
        out = T.leaky_relu(Tensor([-2.0, 3.0]), slope=0.2)
        np.testing.assert_allclose(out.data, [-0.4, 3.0])

    def test_log_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            T.log(Tensor([1.0, 0.0]))

    def test_gradients(self):
        g = rng(9)
        x = g.standard_normal((3, 3)) + 0.05  # keep away from relu kink
        x[np.abs(x) < 0.01] = 0.5
        for op in (T.relu, T.elu, T.sigmoid, T.exp, lambda t: T.leaky_relu(t, 0.2)):
            check_grads(lambda t, op=op: T.sum_all(T.mul(op(t), op(t))), x)
        check_grads(lambda t: T.sum_all(T.log(t)), np.abs(x) + 0.5)

    def test_clamp_min_gradient_masks_clamped_region(self):
        grads = tape_grad(lambda x: T.sum_all(T.clamp_min(x, 0.5)), np.array([0.1, 0.5, 2.0]))
        np.testing.assert_allclose(grads[0], [0.0, 1.0, 1.0])


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

    @given(rank=st.sampled_from([1, 2, 3]), **scatter_cases)
    @example(rank=2, m=0, n=3, k=16, seed=0)
    @example(rank=3, m=0, n=3, k=0, seed=0)
    @example(rank=3, m=12, n=3, k=2, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_gather_rows_bitwise_equals_add_at(self, rank, m, n, k, seed):
        """Rows never gathered (isolated nodes) get zero gradient; a rank-3
        x scatters its gradient back as well as a matrix does."""
        g = np.random.default_rng(seed)
        x = g.standard_normal(((n,), (n, k), (n, k, 2))[rank - 1])
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
        rank=st.sampled_from([1, 2, 3]),
        idx_2d=st.booleans(),
        m=st.integers(0, 12),
        n=st.integers(1, 6),
        k=st.sampled_from([1, 2, 3, 16]),
        seed=st.integers(0, 10**6),
    )
    @example(rank=2, idx_2d=True, m=0, n=3, k=2, seed=0)
    @example(rank=3, idx_2d=False, m=5, n=1, k=16, seed=0)  # every index repeated
    @settings(max_examples=60, deadline=None)
    def test_gather_rows_forward_bitwise_equals_fancy_index(self, rank, idx_2d, m, n, k, seed):
        g = np.random.default_rng(seed)
        x = wide_range(g, ((n,), (n, k), (n, k, 2))[rank - 1])
        idx = g.integers(0, n, (m, 2) if idx_2d else m)
        assert_bits(T.gather_rows(Tensor(x), idx).data, x[idx])

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

    def test_scale_rows_gradient(self):
        g = rng(26)
        check_grads(
            lambda x, v: T.sum_all(T.mul(T.scale_rows(x, v), T.scale_rows(x, v))),
            g.standard_normal((3, 4)),
            g.standard_normal(3),
        )

    def test_sum_rows_value_and_gradient(self):
        x = rng(27).standard_normal((3, 4))
        np.testing.assert_allclose(T.sum_rows(Tensor(x)).data, x.sum(axis=1))
        check_grads(lambda t: T.sum_all(T.mul(T.sum_rows(t), T.sum_rows(t))), x)

    def test_add_three_operands_left_to_right(self):
        g = rng(42)
        x, y, z = (wide_range(g, (3, 2)) for _ in range(3))
        assert_bits(T.add(Tensor(x), Tensor(y), Tensor(z)).data, (x + y) + z)
        w = g.standard_normal((3, 2))
        check_grads(lambda a, b, c: T.sum_all(T.mul(T.add(a, b, c), Tensor(w))), x, y, z)

    def test_sub_neg_scale_add_scalar(self):
        g = rng(28)
        x, y = g.standard_normal((2, 2)), g.standard_normal((2, 2))
        check_grads(lambda a, b: T.sum_all(T.mul(T.sub(a, b), T.sub(a, b))), x, y)
        check_grads(lambda a: T.sum_all(T.neg(T.scale(T.add_scalar(a, 3.0), 2.0))), x)


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
