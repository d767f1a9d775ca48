"""Compressed sparse row matrices for graph operators and sparse features.

Only the handful of operations the models need: construction from COO
triples or a dense array, dense conversion, dropping stored zeros, sparse
@ dense, cutting out rows or diagonal blocks, and transposition (cached,
since the backward pass of every product needs it). Values are float64;
indices are int64. No scipy.

:meth:`SparseMatrix.from_coo` is the one place that sorts (row, col)
pairs and merges repeated ones: the dense conversion, the transpose, the
GCN adjacency and a bundle's undirected edge pairs all go through it.

:meth:`SparseMatrix.matmul_dense` sums each product row by entry
position: step p adds the p-th entry of every row that has one, so each
output entry is 0.0 plus its row's products in CSR order, the order of
an in-order scatter into zeros. :func:`scatter_add` is the scatter kernel
for ids in no order: the segment reductions, the gather backward and
:meth:`SparseMatrix.from_coo`'s merge of repeated pairs sum rows into
buckets through it. :func:`row_sums` and :func:`scaled_rows` are the
row sum and row scaling of the tape ops, bit for bit numpy's own: the sum
column by column on rows narrower than ``SHORT_ROW``, the scaling column
by column into a Fortran-ordered array at every width.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, ShapeError

# numpy sums a row narrower than this one entry at a time, left to right
# from +0.0; from this width up it keeps 8 partial sums (pairwise summation)
SHORT_ROW = 8


def row_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)`` of a matrix, bit for bit.

    Below ``SHORT_ROW`` columns numpy's summation order is plain left to
    right from +0.0, so adding whole columns in that order gives the same
    bits (an all -0.0 row sums to +0.0) without numpy's per-row reduction
    loop, several times slower on narrow rows.
    """
    k = x.shape[1]
    # on a single row numpy runs += as a reduction, which keeps the later
    # of two NaNs where the sum keeps the earlier
    if k == 0 or k >= SHORT_ROW or x.shape[0] == 1:
        return x.sum(axis=1)
    out = x[:, 0] + 0.0
    for j in range(1, k):
        out += x[:, j]
    return out


def scaled_rows(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``x * v[:, None]``, bit for bit in value (a product is elementwise).

    It scales column by column into a Fortran-ordered array, which
    :func:`scatter_add` reads without a copy. The layout matters to a
    layout-sensitive reduction (an axis-0 sum, or an axis-1 sum from
    ``SHORT_ROW`` columns up), which may round it differently from the
    C-ordered broadcast.
    """
    out = np.empty(x.shape, order="F")
    for j in range(x.shape[1]):
        np.multiply(x[:, j], v, out=out[:, j])
    return out


def scatter_add(ids: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of x into n buckets: ``out[b] = sum of x[j] with ids[j] == b``.

    x is a vector or a matrix with m rows, and ids an int64 vector of
    length m; the result is float64, also when m is 0. ``np.bincount``
    adds each column's entries into a zeroed bucket one at a time in index
    order, so the result is bitwise equal to an unbuffered in-place
    scatter (the ``at`` method of ``np.add``) into zeros. Callers check
    ``0 <= ids < n`` first, since ``np.bincount`` raises on a negative id
    and silently grows past ``minlength``. The sparse product does not
    come through here: its ids are CSR rows, already sorted, which
    :meth:`SparseMatrix.matmul_dense` sums by entry position.
    """
    if x.ndim == 1:
        # with no ids np.bincount ignores the weights and counts in int64
        return np.bincount(ids, weights=x, minlength=n).astype(np.float64, copy=False)
    cols = np.asfortranarray(x)  # columns contiguous for np.bincount
    out = np.empty((n, x.shape[1]))
    for j in range(x.shape[1]):
        out[:, j] = np.bincount(ids, weights=cols[:, j], minlength=n)
    return out


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i], ..., starts[i] + lengths[i] - 1`` for each i, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if ends.size else 0)


class SparseMatrix:
    """CSR matrix: within each row, column indices strictly increase."""

    __slots__ = (
        "n_rows", "n_cols", "row_offsets", "col_indices", "values", "_transpose", "_layout"
    )

    def __init__(self, n_rows: int, n_cols: int, row_offsets, col_indices, values):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self._transpose: "SparseMatrix | None" = None
        self._layout: tuple[np.ndarray, list[tuple[int, int]], np.ndarray] | None = None
        self._validate()

    def _validate(self) -> None:
        ro, ci = self.row_offsets, self.col_indices
        if self.n_rows < 0 or self.n_cols < 0:
            raise FormatError("negative matrix dimension")
        if ro.shape != (self.n_rows + 1,):
            raise FormatError(f"row_offsets length {ro.shape[0]} != n_rows+1 = {self.n_rows + 1}")
        if ro[0] != 0 or ro[-1] != ci.shape[0]:
            raise FormatError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(ro) < 0):
            raise FormatError("row_offsets must be non-decreasing")
        if ci.shape != self.values.shape:
            raise FormatError("col_indices and values lengths differ")
        if ci.size:
            if ci.min() < 0 or ci.max() >= self.n_cols:
                raise FormatError(f"column index out of range [0, {self.n_cols})")
            # strictly increasing within each row <=> an index may fail to
            # exceed the one before it only where a row starts
            falls = np.flatnonzero(ci[1:] <= ci[:-1]) + 1
            if falls.size and np.any(ro[np.searchsorted(ro, falls)] != falls):
                raise FormatError("column indices must strictly increase within each row")

    @property
    def nnz(self) -> int:
        return self.col_indices.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.n_cols

    @property
    def row_ids(self) -> np.ndarray:
        """Row of each stored entry (length nnz). Not cached: the product
        does not use it, and its callers (the transpose, the dense
        conversion, a bundle's saved pairs) each read it once."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.row_offsets))

    @classmethod
    def from_coo(cls, n_rows: int, n_cols: int, rows, cols, values) -> "SparseMatrix":
        """Build from coordinate triples, sorted by row, then column;
        duplicate (row, col) entries are summed. The pattern
        (``row_ids``, ``col_indices``) is the rows of ``np.unique`` over the
        (row, col) pairs, in the same order. Without duplicates every value
        is kept bit for bit, so a stored -0.0 stays -0.0 (a sum into a
        zeroed bucket would give 0.0)."""
        r = np.asarray(rows, dtype=np.int64)
        c = np.asarray(cols, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        if not (r.shape == c.shape == v.shape) or r.ndim != 1:
            raise FormatError("rows, cols, values must be equal-length vectors")
        if r.size:
            if r.min() < 0 or r.max() >= n_rows:
                raise FormatError(f"row index out of range [0, {n_rows})")
            if c.min() < 0 or c.max() >= n_cols:
                raise FormatError(f"column index out of range [0, {n_cols})")
        order = np.lexsort((c, r))
        r, c, v = r[order], c[order], v[order]
        new_group = np.ones(r.size, dtype=bool)
        new_group[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        if not new_group.all():
            # collapse duplicates by summing their values
            group_id = np.cumsum(new_group) - 1
            summed = scatter_add(group_id, v, group_id[-1] + 1)
            r, c, v = r[new_group], c[new_group], summed
        row_offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=n_rows), out=row_offsets[1:])
        return cls(n_rows, n_cols, row_offsets, c, v)

    @classmethod
    def from_dense(cls, x: np.ndarray) -> "SparseMatrix":
        """The nonzero entries of a 2-d array (-0.0 counts as zero)."""
        rows, cols = np.nonzero(x)
        return cls.from_coo(x.shape[0], x.shape[1], rows, cols, x[rows, cols])

    def drop_zeros(self) -> "SparseMatrix":
        """The stored entries whose value is nonzero (-0.0 counts as zero),
        the matrix ``from_dense(self.to_dense())`` gives; this matrix
        itself, not a copy, when it stores no zero."""
        keep = self.values != 0
        if keep.all():
            return self
        kept_before = np.zeros(self.nnz + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        return SparseMatrix(self.n_rows, self.n_cols, kept_before[self.row_offsets],
                            self.col_indices[keep], self.values[keep])

    def to_dense(self) -> np.ndarray:
        d = np.zeros((self.n_rows, self.n_cols))
        d[self.row_ids, self.col_indices] = self.values
        return d

    def matmul_dense(self, d: np.ndarray) -> np.ndarray:
        """self @ d for a dense matrix d of shape (n_cols, k), C-ordered.

        Summed by entry position over the rows sorted longest first
        (:meth:`_position_layout`): one gather of the products in that
        order, then step p adds the products of each row's entry p, one
        contiguous block, into the first rows of a zeroed output, then one
        gather puts the rows back in order. Each output entry is 0.0 plus
        its row's products in CSR order, the order in which an in-order
        scatter into zeros adds them, so the result is bit for bit that
        scatter's, -0.0 and ±inf included. A NaN stays a NaN, but which of
        two NaNs an add keeps is numpy's choice, by loop and by place.
        """
        d = np.asarray(d, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != self.n_cols:
            raise ShapeError(
                f"matmul_dense: sparse {self.n_rows}x{self.n_cols} incompatible with {d.shape}"
            )
        entries, steps, inverse = self._position_layout()
        prods = np.take(d, np.take(self.col_indices, entries), axis=0)
        prods *= np.take(self.values, entries)[:, None]
        out = np.zeros((self.n_rows, d.shape[1]))
        start = 0
        for count, end in steps:
            rows = out[:count]
            np.add(rows, prods[start:end], out=rows)
            start = end
        del prods  # free the nnz x k products before the unpermuted copy is made
        return np.take(out, inverse, axis=0)

    def _position_layout(self) -> tuple[np.ndarray, list[tuple[int, int]], np.ndarray]:
        """The entry order of the position-major product; built once and
        cached.

        With the rows sorted longest first (``order``), ``entries`` lists
        entry 0 of every nonempty sorted row, then entry 1 of every row
        that has one, and so on: entry p of sorted row i is
        ``row_offsets[order[i]] + p``. Step p holds ``count`` rows, the
        first ``count`` sorted rows, and ends at ``end`` in ``entries``.
        ``inverse`` is the place of each row in ``order``.
        """
        if self._layout is None:
            lengths = np.diff(self.row_offsets)
            order = np.argsort(-lengths, kind="stable")
            sorted_lengths = lengths[order]
            n_steps = int(sorted_lengths[0]) if self.n_rows else 0
            # rows with an entry p: those longer than p, a prefix of `order`
            counts = np.searchsorted(-sorted_lengths, -np.arange(n_steps))
            ends = np.cumsum(counts)
            step = np.repeat(np.arange(n_steps), counts)
            place = np.arange(self.nnz) - (ends - counts)[step]
            entries = self.row_offsets[order][place] + step
            inverse = np.empty_like(order)
            inverse[order] = np.arange(self.n_rows)
            self._layout = entries, list(zip(counts.tolist(), ends.tolist())), inverse
        return self._layout

    def submatrix(self, rows, cols=None) -> "SparseMatrix":
        """Rows ``rows`` in that order and, when ``cols`` is given, the
        columns ``cols``, renumbered by their place in it. Every entry of the
        kept rows must lie in ``cols``, and column indices must still
        increase within each row: both hold when ``rows`` and ``cols`` list
        whole diagonal blocks of a block-diagonal matrix, each block's
        indices in increasing order. Anything else is a FormatError.

        With ``cols``, the result carries its transpose, cut the same way
        from this matrix's (built once and cached), so that no product's
        backward builds one. The transpose does not point back: without a
        reference cycle, a dropped cut is freed at once, not at the next
        cyclic garbage collection (per-batch cuts left waiting for it
        raised the peak RSS of a 600-graph training job from 61 to 86 MiB).
        """
        rows = np.asarray(rows, dtype=np.int64)
        if cols is None:
            return self._cut(rows, None)
        cols = np.asarray(cols, dtype=np.int64)
        out = self._cut(rows, cols)
        out._transpose = self.transpose()._cut(cols, rows)
        return out

    def _cut(self, rows: np.ndarray, cols: np.ndarray | None) -> "SparseMatrix":
        starts = self.row_offsets[rows]
        counts = self.row_offsets[rows + 1] - starts
        row_offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=row_offsets[1:])
        entries = concat_ranges(starts, counts)
        col_indices = self.col_indices[entries]
        if cols is not None:
            new_col = np.full(self.n_cols, -1, dtype=np.int64)  # -1 fails validation
            new_col[cols] = np.arange(cols.size)
            col_indices = new_col[col_indices]
        n_cols = self.n_cols if cols is None else cols.size
        return SparseMatrix(rows.size, n_cols, row_offsets, col_indices, self.values[entries])

    def transpose(self) -> "SparseMatrix":
        """Transposed copy; computed once and cached on both matrices."""
        if self._transpose is None:
            t = SparseMatrix.from_coo(
                self.n_cols, self.n_rows, self.col_indices, self.row_ids, self.values
            )
            t._transpose = self
            self._transpose = t
        return self._transpose

    def __repr__(self) -> str:
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"
