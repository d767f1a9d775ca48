"""Compressed sparse row matrices for graph operators and sparse features.

Only the handful of operations the models need: construction from COO
triples or a dense array, dense conversion, sparse @ dense, cutting out
rows or diagonal blocks, and transposition (cached, since the backward
pass of every product needs it). Values are float64; indices are int64.
No scipy.

:func:`scatter_add` is the one scatter kernel of the package: the sparse
product, the segment reductions and the gather backward all sum rows
into buckets through it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FormatError, ShapeError


def scatter_add(ids: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of x into n buckets: ``out[b] = sum of x[j] with ids[j] == b``.

    x is an array of any rank with m rows, and ids an int64 vector of
    length m; an x of rank three or more is summed as an (m, k) matrix of
    its flattened rows. ``np.bincount`` adds each column's entries into a
    zeroed bucket one at a time in index order, so the result is bitwise
    equal to an unbuffered in-place scatter (the ``at`` method of
    ``np.add``) into zeros. Callers check ``0 <= ids < n`` first, since
    ``np.bincount`` raises on a negative id and silently grows past
    ``minlength``.
    """
    if x.ndim == 1:
        return np.bincount(ids, weights=x, minlength=n)
    # columns contiguous for np.bincount; a -1 width would fail on an empty x
    cols = np.asfortranarray(x.reshape(x.shape[0], math.prod(x.shape[1:])))
    out = np.empty((n, cols.shape[1]))
    for j in range(cols.shape[1]):
        out[:, j] = np.bincount(ids, weights=cols[:, j], minlength=n)
    return out.reshape((n,) + x.shape[1:])


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i], ..., starts[i] + lengths[i] - 1`` for each i, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if ends.size else 0)


class SparseMatrix:
    """CSR matrix: within each row, column indices strictly increase."""

    __slots__ = (
        "n_rows", "n_cols", "row_offsets", "col_indices", "values", "_transpose", "_row_ids"
    )

    def __init__(self, n_rows: int, n_cols: int, row_offsets, col_indices, values):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self._transpose: "SparseMatrix | None" = None
        self._row_ids: np.ndarray | None = None
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
    def row_ids(self) -> np.ndarray:
        """Row of each stored entry (length nnz); computed once and cached."""
        if self._row_ids is None:
            self._row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.row_offsets))
        return self._row_ids

    @classmethod
    def from_coo(cls, n_rows: int, n_cols: int, rows, cols, values) -> "SparseMatrix":
        """Build from coordinate triples; duplicate (row, col) entries are summed."""
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
        if r.size:
            # collapse duplicates by summing their values
            new_group = np.empty(r.size, dtype=bool)
            new_group[0] = True
            new_group[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            group_id = np.cumsum(new_group) - 1
            summed = scatter_add(group_id, v, group_id[-1] + 1)
            r, c, v = r[new_group], c[new_group], summed
        row_offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=n_rows), out=row_offsets[1:])
        return cls(n_rows, n_cols, row_offsets, c, v)

    @classmethod
    def from_dense(cls, x: np.ndarray) -> "SparseMatrix":
        """The nonzero entries of a 2-d array. ``np.nonzero`` lists them in
        row-major order, which is already CSR order, so nothing is sorted."""
        rows, cols = np.nonzero(x)
        row_offsets = np.zeros(x.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=x.shape[0]), out=row_offsets[1:])
        return cls(x.shape[0], x.shape[1], row_offsets, cols, x[rows, cols])

    def to_dense(self) -> np.ndarray:
        d = np.zeros((self.n_rows, self.n_cols))
        d[self.row_ids, self.col_indices] = self.values
        return d

    def matmul_dense(self, d: np.ndarray) -> np.ndarray:
        """self @ d for a dense matrix d of shape (n_cols, k)."""
        d = np.asarray(d, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != self.n_cols:
            raise ShapeError(
                f"matmul_dense: sparse {self.n_rows}x{self.n_cols} incompatible with {d.shape}"
            )
        # one (k, nnz) product array, scaled in place: row j holds
        # values * d[col_indices, j], contiguous for the scatter
        prods = np.take(np.ascontiguousarray(d.T), self.col_indices, axis=1)
        prods *= self.values
        return scatter_add(self.row_ids, prods.T, self.n_rows)

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
