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
The pivot order is that of a lazily updated heap of (count, coordinate),
a Markowitz-style fill estimate with deterministic tie-breaking, which
keeps results identical across runs.  Elimination reads the shared
columns as its rows and copies a row, gcd-reduced, only when a step that
clears rows first touches it; the rows nonzero in a coordinate are kept
as their count and the xor of their ids, so a step with one row retires
it without listing any.  The coordinates of count 1 at the start come
off a stack, in the heap's order, before the heap, and every step ends
in the one block that retires its pivot row.  Each rank step also
records its pivot, a row index of the matrix, that is a coordinate of
the target space, and the column it retires.  The rows retired at
those pivots span the image and are triangular on them, so the
coordinates outside the pivots span a complement of the image; the
report pipeline uses this to rank the next differential of a complex
on fewer columns (clearing).  The retired columns alone span the image,
so the pipeline's exact d o d = 0 check multiplies the next
differential by those rank-many columns instead of the whole map.  That
check adds each product column into one dense accumulator and tests
only the rows the column touched.
"""

from __future__ import annotations

import heapq
from collections import Counter
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


class Record:
    """A plain record with __slots__: repr and == read the fields named in
    _shown, in order, with a dataclass's output and semantics (== only
    between instances of one class, comparing the fields as a tuple), and
    instances are unhashable.  A dataclass would do the same, but
    importing dataclasses pulls in inspect, ast, dis and tokenize, which
    every short-lived process would then pay for at start-up."""

    __slots__ = ()
    _shown: tuple = ()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._shown))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (tuple(getattr(self, f) for f in self._shown)
                == tuple(getattr(other, f) for f in self._shown))


class RankResult(Record):
    """kernel is a list of dict col -> int, primitive, or None; pivots
    holds the pivot row index of m at each rank step and spanning the
    column of m retired there, in step order.  repr and == ignore pivots
    and spanning."""

    __slots__ = ("rank", "kernel_dim", "kernel", "pivots", "spanning")
    _shown = ("rank", "kernel_dim", "kernel")

    def __init__(self, rank: int, kernel_dim: int, kernel: list | None = None,
                 pivots: list | None = None, spanning: list | None = None):
        self.rank, self.kernel_dim, self.kernel = rank, kernel_dim, kernel
        self.pivots = [] if pivots is None else pivots
        self.spanning = [] if spanning is None else spanning


def rank_kernel(m: SparseMatrix, want_basis: bool = False) -> RankResult:
    """Exact rank over Q and kernel dimension, optionally a kernel basis.

    Works on the transpose: row j starts as the integer column j, and
    each rank step picks a pivot coordinate c and a pivot row nonzero in
    it, applies row <- pval * row - v * prow to every other row nonzero
    in c and retires the pivot row.  The pivot coordinate is the one a
    heap of (count, coordinate) pops, where count is the number of
    active rows nonzero in it and a popped key whose count has since
    changed goes back in with the current count (a lazily updated heap);
    the pivot row is, of those rows, the one with the fewest entries,
    then the smallest |value| at c, then the lowest index.  With
    want_basis each row carries a tail, starting as {j: m.denom}, that
    takes the same operations and gcd reductions, so row j = sum_k
    tail[k] * (column k of m) throughout; the rows left active have
    reduced to zero, so their tails span the kernel.  Kernel vectors
    come out as primitive integer dicts, sorted.

    Most steps retire a row with nothing to clear, so the bookkeeping
    does per-entry work only where arithmetic happens.  Each coordinate
    keeps its count and the xor of its active rows' ids in flat lists,
    so the one row of a count-1 coordinate is its xor, and the rows of
    a coordinate are listed only for a step that clears some.  A row is
    the shared column of m itself until such a step first touches it
    and copies it, gcd-reduced (with its tail), so no column of m is
    written.  The heap key of (count, c) is the one int
    count * (n_rows + 1) + c.  The keys of count 1 at the start would be
    its first pops, and retiring their rows pushes nothing, so they sit
    on a stack in the heap's order instead and the one loop takes them
    first, each through the same retire block; elimination stops once no
    active row has an entry.

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
    cols, denom, base = m.cols, m.denom, m.n_rows + 1
    count = [0] * m.n_rows  # coordinate -> its number of active rows
    xor = [0] * m.n_rows  # coordinate -> the xor of its active rows' ids
    for j, col in enumerate(cols):
        for c in col:
            count[c] += 1
            xor[c] ^= j
    live = sum(count)  # the entries of the active rows
    # rows[j] is the column cols[j] until a step clearing rows first
    # touches it, then its own gcd-reduced copy, and None once retired
    rows = list(cols)
    tails: dict = {}  # row -> its tail, from the first touch on
    rows_at = None  # coordinate -> rows that may be nonzero in it, built when first needed
    # the count-1 keys at the start, the heap's first pops, stacked in its order
    singles = [base + c for c in range(m.n_rows - 1, -1, -1) if count[c] == 1]
    heap = [k * base + c for c, k in enumerate(count) if k > 1]
    heapq.heapify(heap)
    pivots, spanning = [], []

    while live:  # what is left on the heap would only be skipped
        key = singles.pop() if singles else heapq.heappop(heap)
        c = key % base
        cnt = count[c]
        if not cnt:
            continue
        if key != cnt * base + c:
            heapq.heappush(heap, cnt * base + c)
            continue
        if cnt == 1:  # the coordinate's one row is the pivot row, with nothing to clear
            pr = xor[c]
            prow = rows[pr]
        else:
            if rows_at is None:  # the first step that clears rows: index the active ones
                rows_at = {}
                for j, row in enumerate(rows):
                    if row is not None:
                        for k in row:
                            rows_at.setdefault(k, []).append(j)
            rs = sorted({r for r in rows_at[c] if rows[r] is not None and c in rows[r]})
            for r in rs:
                row = rows[r]
                if row is cols[r]:  # first touch: a gcd-reduced copy, and its tail
                    if want_basis:
                        g = gcd(*row.values(), denom)
                        tails[r] = {r: denom // g}
                    else:
                        g = gcd(*row.values())
                    rows[r] = {k: x // g for k, x in row.items()} if g > 1 else dict(row)
            # pivot row at this coordinate: fewest entries, smallest value, lowest id
            pr = min(rs, key=lambda r: (len(rows[r]), abs(rows[r][c]), r))
            prow = rows[pr]
            pval = prow[c]
            for r in rs:
                if r == pr:
                    continue
                row = rows[r]
                v = row.pop(c)
                count[c] -= 1
                xor[c] ^= r
                live -= 1
                # row <- pval * row - v * prow, tracking the coordinates' rows
                if pval != 1:
                    row = rows[r] = {k: x * pval for k, x in row.items()}
                for k, y in prow.items():
                    if k == c:
                        continue
                    a = row.get(k, 0) - v * y
                    if a:
                        if k not in row:
                            count[k] += 1
                            xor[k] ^= r
                            live += 1
                            rows_at.setdefault(k, []).append(r)
                            heapq.heappush(heap, count[k] * base + k)
                        row[k] = a
                    elif k in row:
                        del row[k]
                        count[k] -= 1
                        xor[k] ^= r
                        live -= 1
                if want_basis:
                    tail = tails[r] = {k: x * pval for k, x in tails[r].items()}
                    for k, y in tails[pr].items():
                        a = tail.get(k, 0) - v * y
                        if a:
                            tail[k] = a
                        else:
                            tail.pop(k, None)
                    g = gcd(*row.values(), *tail.values())
                    if g > 1:
                        for k in tail:
                            tail[k] //= g
                else:
                    g = gcd(*row.values())
                if g > 1:
                    for k in row:
                        row[k] //= g
        # retire the pivot row
        for k in prow:
            count[k] -= 1
            xor[k] ^= pr
        live -= len(prow)
        rows[pr] = None
        pivots.append(c)
        spanning.append(pr)

    kernel = None
    if want_basis:
        # an active row is zero; one never touched is a zero column, whose
        # tail {j: m.denom} reduces to {j: 1}
        kernel = sorted((tails.get(j, {j: 1}) for j, row in enumerate(rows) if row is not None),
                        key=lambda v: sorted(v.items()))
    return RankResult(rank=len(pivots), kernel_dim=m.n_cols - len(pivots),
                      kernel=kernel, pivots=pivots, spanning=spanning)


def compose_is_zero(a: SparseMatrix, b: SparseMatrix) -> bool:
    """True iff a @ b is exactly the zero matrix, checked on the integers
    one column at a time, stopping at the first nonzero one.  Every
    product column is added into one dense list of a.n_rows zeros and
    only the rows it touched are tested, so a zero column leaves the
    list all zero for the next one, with nothing to reset."""
    if a.n_cols != b.n_rows:
        raise ValueError("inner dimensions do not match")
    a_cols = a.cols
    acc = [0] * a.n_rows
    for col in b.cols:
        for k, v in col.items():
            for r, w in a_cols[k].items():
                acc[r] += w * v
        for k in col:
            for r in a_cols[k]:
                if acc[r]:
                    return False
    return True


def matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Exact product; its denominator is a.denom * b.denom."""
    if a.n_cols != b.n_rows:
        raise ValueError("inner dimensions do not match")
    a_cols = a.cols
    cols = []
    for col in b.cols:
        acc: dict = {}
        for k, v in col.items():
            for r, w in a_cols[k].items():
                acc[r] = acc.get(r, 0) + w * v
        cols.append({r: x for r, x in acc.items() if x})
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
