"""CSR sparse matrix construction, validation, and products."""

import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgnn.errors import FormatError, ShapeError
from bgnn.sparse import SHORT_ROW, SparseMatrix, row_sums, scaled_rows, scatter_add

from helpers import (
    add_at_reference,
    assert_bits,
    assert_same_csr,
    row_sum_reference,
    same_nans,
    scale_rows_reference,
    wide_range,
    with_specials,
)


class TestScatterAdd:
    @given(
        m=st.integers(0, 60),
        n=st.integers(1, 12),
        k=st.sampled_from([None, 0, 1, 16]),  # None: a vector
        seed=st.integers(0, 10**6),
    )
    @example(m=0, n=3, k=None, seed=0)
    @example(m=0, n=3, k=16, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equals_add_at(self, m, n, k, seed):
        g = np.random.default_rng(seed)
        used = int(g.integers(1, n + 1))  # buckets from `used` on stay empty
        ids = g.integers(0, used, m)
        x = wide_range(g, m if k is None else (m, k))
        out = scatter_add(ids, x, n)
        assert out.shape == add_at_reference(ids, x, n).shape
        assert out.dtype == np.float64
        assert np.array_equal(out, add_at_reference(ids, x, n))

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_ids_give_float64_zeros(self, shape):
        """np.bincount counts in int64 when it has no ids; the sum does not."""
        out = scatter_add(np.zeros(0, dtype=np.int64), np.zeros(shape), 4)
        assert out.dtype == np.float64
        assert_bits(out, np.zeros((4,) + shape[1:]))


short_rows = dict(
    m=st.integers(0, 40),
    k=st.integers(0, 12),
    zero_row=st.booleans(),  # the first row all -0.0
    seed=st.integers(0, 10**6),
)


def short_row_matrix(m, k, zero_row, seed):
    """An (m, k) matrix over 16 decades with -0.0, ±inf and NaN entries."""
    g = np.random.default_rng(seed)
    x = with_specials(g, wide_range(g, (m, k)))
    if zero_row and m:
        x[0] = -0.0
    return g, x


class TestShortRows:
    """The row sum and row scaling equal numpy's axis-1 sum and broadcast
    product bit for bit, sign bits and NaNs included, on either side of
    SHORT_ROW and in either memory order."""

    @given(**short_rows)
    @example(m=2, k=1, zero_row=True, seed=0)
    @example(m=2, k=2, zero_row=True, seed=0)
    @example(m=2, k=3, zero_row=True, seed=0)
    @example(m=3, k=SHORT_ROW, zero_row=True, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_row_sums_bitwise_equal_numpy(self, m, k, zero_row, seed):
        _, x = short_row_matrix(m, k, zero_row, seed)
        with np.errstate(invalid="ignore"):  # inf - inf
            for layout in (x, np.asfortranarray(x)):
                assert_bits(row_sums(layout), row_sum_reference(layout))

    @given(**short_rows)
    @example(m=1, k=2, zero_row=True, seed=0)
    @example(m=3, k=SHORT_ROW + 4, zero_row=True, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_scaled_rows_bitwise_equal_the_broadcast(self, m, k, zero_row, seed):
        g, x = short_row_matrix(m, k, zero_row, seed)
        v = with_specials(g, wide_range(g, m))
        with np.errstate(invalid="ignore"):  # inf * 0
            out = scaled_rows(x, v)
            assert_bits(out, scale_rows_reference(x, v))
        assert np.asfortranarray(out) is out  # scatter_add reads it without a copy

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_the_first_of_two_nans_kept(self, m):
        """numpy's sum keeps the earlier of two NaNs in a row, here -NaN."""
        x = np.tile([-np.nan, np.nan, 1.0], (m, 1))
        assert_bits(row_sums(x), row_sum_reference(x))
        assert np.signbit(row_sums(x)).all()


class TestConstruction:
    def test_valid_csr(self):
        s = SparseMatrix(2, 3, [0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(s.to_dense(), [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        assert s.nnz == 3

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(FormatError):
            SparseMatrix(2, 2, [1, 1, 2], [0, 1], [1.0, 1.0])

    def test_offsets_must_end_at_nnz(self):
        with pytest.raises(FormatError):
            SparseMatrix(2, 2, [0, 1, 3], [0, 1], [1.0, 1.0])

    def test_offsets_must_be_nondecreasing(self):
        with pytest.raises(FormatError):
            SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_column_out_of_range(self):
        with pytest.raises(FormatError):
            SparseMatrix(1, 2, [0, 1], [2], [1.0])

    def test_columns_strictly_increase_within_row(self):
        with pytest.raises(FormatError):
            SparseMatrix(1, 3, [0, 2], [1, 1], [1.0, 1.0])
        with pytest.raises(FormatError):
            SparseMatrix(1, 3, [0, 2], [2, 0], [1.0, 1.0])

    def test_decreasing_across_row_boundary_is_fine(self):
        s = SparseMatrix(2, 3, [0, 1, 2], [2, 0], [1.0, 1.0])
        np.testing.assert_allclose(s.to_dense(), [[0, 0, 1], [1, 0, 0]])

    def test_trailing_empty_rows(self):
        s = SparseMatrix(4, 2, [0, 1, 2, 2, 2], [0, 1], [1.0, 2.0])
        assert s.to_dense()[2:].sum() == 0.0


class TestFromCoo:
    def test_unsorted_input(self):
        s = SparseMatrix.from_coo(2, 2, [1, 0], [0, 1], [5.0, 7.0])
        np.testing.assert_allclose(s.to_dense(), [[0.0, 7.0], [5.0, 0.0]])

    def test_duplicates_sum(self):
        s = SparseMatrix.from_coo(1, 1, [0, 0], [0, 0], [1.5, 2.5])
        np.testing.assert_allclose(s.to_dense(), [[4.0]])
        assert s.nnz == 1

    def test_empty(self):
        s = SparseMatrix.from_coo(3, 3, [], [], [])
        assert s.nnz == 0
        np.testing.assert_allclose(s.to_dense(), np.zeros((3, 3)))

    def test_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            SparseMatrix.from_coo(2, 2, [2], [0], [1.0])

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_matches_dense_scatter(self, seed):
        g = np.random.default_rng(seed)
        m, n = int(g.integers(1, 20)), int(g.integers(1, 20))
        k = int(g.integers(0, 30))
        r, c, v = g.integers(0, m, k), g.integers(0, n, k), g.standard_normal(k)
        dense = np.zeros((m, n))
        np.add.at(dense, (r, c), v)
        s = SparseMatrix.from_coo(m, n, r, c, v)
        np.testing.assert_allclose(s.to_dense(), dense, atol=1e-12)


def nonzero_csr_reference(x: np.ndarray) -> SparseMatrix:
    """CSR straight from ``np.nonzero``'s row-major listing, no sort."""
    rows, cols = np.nonzero(x)
    row_offsets = np.zeros(x.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=x.shape[0]), out=row_offsets[1:])
    return SparseMatrix(x.shape[0], x.shape[1], row_offsets, cols, x[rows, cols])


class TestFromDense:
    @given(seed=st.integers(0, 10**6), n=st.integers(0, 9), d=st.integers(0, 9))
    @example(seed=0, n=0, d=4)  # no rows
    @example(seed=0, n=4, d=0)  # no columns
    @example(seed=1, n=6, d=6)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_nonzero_listing(self, seed, n, d):
        g = np.random.default_rng(seed)
        x = wide_range(g, (n, d))
        kind = g.integers(0, 3, (n, d))  # a value, 0.0 or -0.0
        x[kind == 1] = 0.0
        x[kind == 2] = -0.0
        if n:
            x[g.integers(0, n)] = -0.0  # at least one empty row
        assert_same_csr(SparseMatrix.from_dense(x), nonzero_csr_reference(x))


def product_reference(a: SparseMatrix, d: np.ndarray) -> np.ndarray:
    """a @ d as an in-order scatter of each entry's product into zeros."""
    row_of = np.repeat(np.arange(a.n_rows), np.diff(a.row_offsets))
    return add_at_reference(row_of, a.values[:, None] * d[a.col_indices], a.n_rows)


class TestProducts:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matmul_dense_matches_densified(self, seed):
        g = np.random.default_rng(seed)
        m, n, k = int(g.integers(1, 20)), int(g.integers(1, 20)), int(g.integers(1, 5))
        nnz = int(g.integers(0, 40))
        s = SparseMatrix.from_coo(
            m, n, g.integers(0, m, nnz), g.integers(0, n, nnz), g.standard_normal(nnz)
        )
        d = g.standard_normal((n, k))
        np.testing.assert_allclose(s.matmul_dense(d), s.to_dense() @ d, atol=1e-12)

    @given(
        n_rows=st.integers(0, 15),
        n_cols=st.integers(1, 60),
        nnz=st.integers(0, 400),
        k=st.sampled_from([0, 1, 3, 7, 16]),
        specials=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    @example(n_rows=4, n_cols=3, nnz=0, k=16, specials=False, seed=0)  # every row empty
    @example(n_rows=0, n_cols=3, nnz=0, k=16, specials=False, seed=0)  # no rows
    @example(n_rows=2, n_cols=60, nnz=400, k=3, specials=False, seed=0)  # rows far longer than 8
    @example(n_rows=2, n_cols=60, nnz=400, k=3, specials=True, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_matmul_dense_bitwise_equals_add_at(self, n_rows, n_cols, nnz, k, specials, seed):
        """Trailing empty rows (rows past `used`) and isolated columns
        (columns never drawn) included; both products of the pair. Rows up
        to 60 entries long make many position steps. With ``specials``,
        values and d also hold -0.0, ±inf and NaN: -0.0 and ±inf are
        compared by their bits, a NaN as a NaN. Without, no row sum is a
        NaN, so a long row added in another order shows."""
        g = np.random.default_rng(seed)

        def draw(shape):
            x = wide_range(g, shape)
            return with_specials(g, x) if specials else x

        used = int(g.integers(1, n_rows + 1)) if n_rows else 0
        nnz = nnz if n_rows else 0
        s = SparseMatrix.from_coo(
            n_rows, n_cols, g.integers(0, used, nnz), g.integers(0, n_cols, nnz), draw(nnz)
        )
        for a in (s, s.transpose()):
            d = draw((a.n_cols, k))
            with np.errstate(invalid="ignore"):  # inf * 0, inf - inf
                ref = product_reference(a, d)
                out = a.matmul_dense(d)
            assert_bits(same_nans(out), same_nans(ref))
            assert out.dtype == np.float64 and out.flags.c_contiguous

    def test_matmul_shape_error(self):
        s = SparseMatrix.from_coo(2, 3, [0], [0], [1.0])
        with pytest.raises(ShapeError):
            s.matmul_dense(np.ones((4, 2)))

    def test_transpose_values(self):
        g = np.random.default_rng(7)
        s = SparseMatrix.from_coo(
            4, 6, g.integers(0, 4, 9), g.integers(0, 6, 9), g.standard_normal(9)
        )
        np.testing.assert_allclose(s.transpose().to_dense(), s.to_dense().T, atol=1e-12)

    def test_transpose_cached_both_ways(self):
        s = SparseMatrix.from_coo(3, 2, [0, 1], [1, 0], [1.0, 2.0])
        t = s.transpose()
        assert s.transpose() is t
        assert t.transpose() is s


def block_diagonal(g: np.random.Generator, sizes) -> SparseMatrix:
    """A random block-diagonal matrix with one block per entry of ``sizes``;
    blocks may be empty or hold repeated (summed) coordinates."""
    starts = np.cumsum([0] + list(sizes))
    rows, cols = [], []
    for a, b in zip(starts[:-1], starts[1:]):
        k = int(g.integers(0, 2 * (b - a) + 1))
        rows.append(g.integers(a, b, k))
        cols.append(g.integers(a, b, k))
    r, c = np.concatenate(rows), np.concatenate(cols)
    return SparseMatrix.from_coo(starts[-1], starts[-1], r, c, wide_range(g, r.size))


class TestSubmatrix:
    @given(
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_cut_matches_dense_and_keeps_transpose(self, sizes, seed):
        g = np.random.default_rng(seed)
        s = block_diagonal(g, sizes)
        starts = np.cumsum([0] + sizes)
        blocks = g.permutation(len(sizes))[: int(g.integers(1, len(sizes) + 1))]
        nodes = np.concatenate([np.arange(starts[b], starts[b + 1]) for b in blocks])
        cut = s.submatrix(nodes, nodes)
        assert np.array_equal(cut.to_dense(), s.to_dense()[np.ix_(nodes, nodes)])
        assert np.array_equal(cut.transpose().to_dense(), cut.to_dense().T)

    def test_dropped_cut_needs_no_cyclic_gc(self):
        s = block_diagonal(np.random.default_rng(0), [3, 2, 4])
        s.transpose()
        gc.collect()
        gc.disable()
        try:
            s.submatrix([3, 4, 0, 1, 2], [3, 4, 0, 1, 2]).transpose()
            cyclic = gc.collect()
        finally:
            gc.enable()
        assert cyclic == 0

    def test_cut_sums_by_a_layout_of_its_own(self):
        """A cut has other rows, of other lengths, than its parent, so its
        product must not reuse the parent's position layout, built here
        first by the parent's own products."""
        g = np.random.default_rng(5)
        s = block_diagonal(g, [6, 1, 9, 3])
        nodes = np.concatenate([np.arange(16, 19), np.arange(0, 6)])
        d = wide_range(g, (s.n_cols, 4))
        parent = s.matmul_dense(d), s.transpose().matmul_dense(d)
        block_cut = s.submatrix(nodes, nodes)
        for cut in (block_cut, block_cut.transpose(), s.submatrix(nodes[::-1])):
            x = wide_range(g, (cut.n_cols, 4))
            assert_bits(cut.matmul_dense(x), product_reference(cut, x))
        assert_bits(s.matmul_dense(d), parent[0])
        assert_bits(s.transpose().matmul_dense(d), parent[1])

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_row_cut_matches_dense(self, seed):
        g = np.random.default_rng(seed)
        m, n, nnz = int(g.integers(1, 12)), int(g.integers(1, 12)), int(g.integers(0, 40))
        s = SparseMatrix.from_coo(
            m, n, g.integers(0, m, nnz), g.integers(0, n, nnz), wide_range(g, nnz)
        )
        rows = g.integers(0, m, int(g.integers(0, 2 * m)))  # any order, repeats allowed
        cut = s.submatrix(rows)
        assert (cut.n_rows, cut.n_cols) == (rows.size, n)
        assert np.array_equal(cut.to_dense(), s.to_dense()[rows])

    def test_cut_across_blocks_rejected(self):
        s = SparseMatrix.from_coo(3, 3, [0, 0, 2], [0, 2, 1], [1.0, 2.0, 3.0])
        with pytest.raises(FormatError):
            s.submatrix([0, 1], [0, 1])  # row 0 has an entry in column 2
        with pytest.raises(FormatError):
            s.submatrix([2, 0, 1], [2, 0, 1])  # row 0's columns would fall
