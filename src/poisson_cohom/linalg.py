"""Exact sparse rational matrices with rank and kernel computation.

A matrix is stored as its columns, integers over one positive
denominator: cols[c] is a dict row -> nonzero int, and the value at
(r, c) is cols[c][r] / denom.  Builders write one column at a time and
hand the list over to the SparseMatrix constructor; the d o d check, the
products and elimination read the columns directly, since scaling by a
positive constant changes no rank, no kernel and no zero test.  Column
dicts may be shared between matrices (a kernel basis and the maps built
on it, a map and its cleared view), so nothing mutates them in place.

Rank/kernel run fraction-free: rows are kept gcd-reduced through
elimination, so no integer blow-up occurs on the larger cochain matrices.
Pivots are chosen by a Markowitz-style fill estimate with deterministic
tie-breaking, which keeps results identical across runs.  Each rank step
also records its pivot, a row index of the matrix, that is a coordinate
of the target space, and the column it retires.  The rows retired at
those pivots span the image and are triangular on them, so the
coordinates outside the pivots span a complement of the image; the
report pipeline uses this to rank the next differential of a complex on
fewer columns (clearing).  The retired columns alone span the image, so
the pipeline's exact d o d = 0 check multiplies the next differential
by those rank-many columns instead of the whole map.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm


def clear_denominators(values: list) -> tuple:
    """Rationals as (list of ints, denom) over one positive lcm denominator."""
    vals = [v if type(v) is int else Fraction(v) for v in values]
    denom = lcm(1, *(v.denominator for v in vals))
    return [v.numerator * (denom // v.denominator) for v in vals], denom


class SparseMatrix:
    """Immutable-by-convention sparse matrix of integers over one positive
    denominator, stored as its columns: cols[c] maps row -> nonzero int.
    Two matrices are equal when their values are."""

    __slots__ = ("n_rows", "cols", "denom")

    def __init__(self, n_rows: int, cols: list, denom: int = 1):
        """The list cols is taken over, not copied, so a column dict may
        be shared with other matrices."""
        if denom < 1:
            raise ValueError("denominator must be positive")
        self.n_rows, self.cols, self.denom = n_rows, cols, denom

    @property
    def n_cols(self) -> int:
        return len(self.cols)

    @property
    def entries(self) -> dict:
        """The integer entries as a fresh (r, c) -> int dict, built column
        by column: a read-only view, since writing to it changes nothing."""
        return {(r, c): v for c, col in enumerate(self.cols) for r, v in col.items()}

    def nnz(self) -> int:
        return sum(map(len, self.cols))

    def __eq__(self, other) -> bool:
        if not (isinstance(other, SparseMatrix) and self.n_rows == other.n_rows
                and self.n_cols == other.n_cols):
            return False
        if self.denom == other.denom:
            return self.cols == other.cols
        d1, d2 = self.denom, other.denom
        return all(mine.keys() == theirs.keys()
                   and all(v * d2 == theirs[r] * d1 for r, v in mine.items())
                   for mine, theirs in zip(self.cols, other.cols))


@dataclass
class RankResult:
    rank: int
    kernel_dim: int
    kernel: list | None = None  # list of dict col -> int, primitive
    # the pivot row index of m at each rank step, in step order
    pivots: list = field(default_factory=list, repr=False, compare=False)
    # the column of m retired at each rank step, in step order
    spanning: list = field(default_factory=list, repr=False, compare=False)


def _gcd_reduce(row: dict, tail: dict | None = None) -> None:
    """Divide row, and tail when given, by the one gcd of all their values."""
    g = gcd(*row.values()) if tail is None else gcd(*row.values(), *tail.values())
    if g > 1:
        for p in (row,) if tail is None else (row, tail):
            for k in p:
                p[k] //= g


def rank_kernel(m: SparseMatrix, want_basis: bool = False) -> RankResult:
    """Exact rank over Q and kernel dimension, optionally a kernel basis.

    Works on the transpose: rows[j] starts as the integer column j, and
    each rank step picks a pivot row, applies row <- pval * row - v * prow
    to every other row nonzero in the pivot column and retires the pivot
    row.  With want_basis a tail tails[j], starting as {j: m.denom}, takes
    the same operations and gcd reductions, so rows[j] = sum_k tails[j][k]
    * (column k of m) throughout; the rows left active have reduced to
    zero, so their tails span the kernel.  Kernel vectors come out as
    primitive integer dicts, sorted.

    pivots lists the pivot column c of each rank step, a row index of m.
    A row retired later is zero at every earlier pivot, so the retired
    rows span the column space of m and are triangular on the pivots:
    the rows of m at the pivots alone have rank `rank`, and the unit
    vectors outside the pivots span a complement of the column space.
    spanning lists the row pr retired at each step, a column index of m.
    Each row is a nonzero multiple of its own column of m plus a
    combination of rows retired before it, so the columns of m at
    spanning alone span the column space of m.
    """
    rows = [dict(col) for col in m.cols]  # copies: the columns may be shared
    tails = [{j: m.denom} for j in range(m.n_cols)] if want_basis else None
    col_rows: dict = {}  # column -> the rows nonzero in it
    for j, row in enumerate(rows):
        _gcd_reduce(row, tails[j] if want_basis else None)
        for c in row:
            col_rows.setdefault(c, set()).add(j)

    heap = [(len(rs), c) for c, rs in col_rows.items()]
    heapq.heapify(heap)
    pivots, spanning = [], []

    while heap:
        cnt, c = heapq.heappop(heap)
        rs = col_rows.get(c)
        if not rs:
            continue
        if cnt != len(rs):
            heapq.heappush(heap, (len(rs), c))
            continue
        if cnt == 1:  # the column's one row is the pivot row, with nothing to clear
            (pr,) = rs
            clear = ()
        else:
            # pivot row in this column: fewest entries, smallest value, lowest id
            pr = min(rs, key=lambda r: (len(rows[r]), abs(rows[r][c]), r))
            clear = sorted(rs)
        prow = rows[pr]
        pval = prow[c]
        for r in clear:
            if r == pr:
                continue
            row = rows[r]
            v = row.pop(c)
            col_rows[c].discard(r)
            # row <- pval * row - v * prow, tracking the column index
            if pval != 1:
                row = rows[r] = {k: x * pval for k, x in row.items()}
            for k, y in prow.items():
                if k == c:
                    continue
                a = row.get(k, 0) - v * y
                if a:
                    if k not in row:
                        rs2 = col_rows.setdefault(k, set())
                        rs2.add(r)
                        heapq.heappush(heap, (len(rs2), k))
                    row[k] = a
                elif k in row:
                    del row[k]
                    col_rows[k].discard(r)
            if tails is None:
                _gcd_reduce(row)
                continue
            tail = tails[r] = {k: x * pval for k, x in tails[r].items()}
            for k, y in tails[pr].items():
                a = tail.get(k, 0) - v * y
                if a:
                    tail[k] = a
                else:
                    tail.pop(k, None)
            _gcd_reduce(row, tail)
        # retire the pivot row
        for k in prow:
            if k != c:
                col_rows[k].discard(pr)
        col_rows.pop(c, None)
        pivots.append(c)
        spanning.append(pr)

    kernel = None
    if want_basis:
        # an active tail holds its own index j: only retired rows entered it
        retired = set(spanning)
        kernel = sorted((tails[j] for j in range(m.n_cols) if j not in retired),
                        key=lambda v: sorted(v.items()))
    return RankResult(rank=len(pivots), kernel_dim=m.n_cols - len(pivots),
                      kernel=kernel, pivots=pivots, spanning=spanning)


def _product_columns(a: SparseMatrix, b: SparseMatrix):
    """The integer columns of a @ b one at a time, as dicts row -> int
    that may hold zeros."""
    if a.n_cols != b.n_rows:
        raise ValueError("inner dimensions do not match")
    a_cols = a.cols
    for col in b.cols:
        acc: dict = {}
        for k, v in col.items():
            for r, w in a_cols[k].items():
                acc[r] = acc.get(r, 0) + w * v
        yield acc


def compose_is_zero(a: SparseMatrix, b: SparseMatrix) -> bool:
    """True iff a @ b is exactly the zero matrix (checked on the integers,
    one column at a time, stopping at the first nonzero one)."""
    return not any(any(col.values()) for col in _product_columns(a, b))


def matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Exact product; its denominator is a.denom * b.denom."""
    cols = [{r: x for r, x in col.items() if x} for col in _product_columns(a, b)]
    return SparseMatrix(a.n_rows, cols, a.denom * b.denom)


def in_span_coordinates(k: SparseMatrix, v: SparseMatrix) -> SparseMatrix:
    """The exact Y with k @ Y == v, read off in one pass over v at each
    column's private row of smallest entry (a row where no other column
    of k is nonzero; a rank_kernel basis vector has one at its surviving
    row), then checked exactly.  AssertionError when a column of k has no
    private row or a column of v lies outside the span of k."""
    per_row = Counter(r for col in k.cols for r in col)
    private: dict = {}  # column -> (|entry|, row, entry), its smallest private entry
    for c, col in enumerate(k.cols):
        for r, p in col.items():
            if per_row[r] == 1:
                private[c] = min(private.get(c, (abs(p), r, p)), (abs(p), r, p))
    if len(private) != k.n_cols:
        raise AssertionError("%d of %d spanning columns have no private row"
                             % (k.n_cols - len(private), k.n_cols))
    scale = lcm(1, *(p for _, _, p in private.values()))
    # private row -> (column of k, the factor that carries v's entry to y's)
    put = {r: (c, k.denom * (scale // p)) for c, (_, r, p) in private.items()}
    cols = [{put[r][0]: x * put[r][1] for r, x in col.items() if r in put}
            for col in v.cols]
    y = SparseMatrix(k.n_cols, cols, v.denom * scale)
    if matmul(k, y) != v:
        raise AssertionError("a column lies outside the span")
    return y
