import hashlib
import heapq
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from poisson_cohom import engine
from poisson_cohom import fixtures as fx
from poisson_cohom.cli import _golden_paths, parse_golden
from poisson_cohom.linalg import (RankResult, SparseMatrix, clear_denominators,
                                  compose_is_zero, in_span_coordinates, matmul,
                                  rank_kernel)


def cells_matrix(n_rows: int, n_cols: int, cells: dict | None = None) -> SparseMatrix:
    """The matrix of cells (r, c) -> value, the values rationals cleared
    over one lcm denominator and zero values dropped; ValueError for a
    cell outside the shape."""
    cells = cells or {}
    if not all(0 <= r < n_rows and 0 <= c < n_cols for r, c in cells):
        raise ValueError("index out of range")
    nonzero = {k: v for k, v in cells.items() if v}
    ints, denom = clear_denominators(list(nonzero.values()))
    cols: list = [{} for _ in range(n_cols)]
    for (r, c), v in zip(nonzero, ints):
        cols[c][r] = v
    return SparseMatrix(n_rows, cols, denom)


def transpose(m: SparseMatrix) -> SparseMatrix:
    """The transpose, read column by column, so each of its columns is
    keyed in ascending row order."""
    out: list = [{} for _ in range(m.n_rows)]
    for c, col in enumerate(m.cols):
        for r, v in col.items():
            out[r][c] = v
    return SparseMatrix(m.n_cols, out, m.denom)


def dense_rank(entries, n_rows, n_cols):
    """Plain Gaussian elimination over Fraction, the slow oracle."""
    rows = [[Fraction(entries.get((i, j), 0)) for j in range(n_cols)]
            for i in range(n_rows)]
    rank = 0
    for c in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        for r in range(n_rows):
            if r != rank and rows[r][c]:
                f = rows[r][c] / pv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def random_matrix(rng, max_size=30, density=0.4):
    n_rows = rng.randint(1, max_size)
    n_cols = rng.randint(1, max_size)
    entries = {}
    for i in range(n_rows):
        for j in range(n_cols):
            if rng.random() < density:
                v = rng.randint(-9, 9)
                if v:
                    entries[(i, j)] = Fraction(v)
    return cells_matrix(n_rows, n_cols, entries)


# ----------------------------------------------------------------------
# the elimination with a set of rows per coordinate and a heap of
# (count, coordinate) tuples, kept as the oracle of rank_kernel: the same
# pivot order, so every field of the result is bit-identical
# ----------------------------------------------------------------------

def _gcd_reduce(row: dict, tail: dict | None = None) -> None:
    """Divide row, and tail when given, by the one gcd of all their values."""
    g = gcd(*row.values()) if tail is None else gcd(*row.values(), *tail.values())
    if g > 1:
        for p in (row,) if tail is None else (row, tail):
            for k in p:
                p[k] //= g


def oracle_rank_kernel(m: SparseMatrix, want_basis: bool = False) -> RankResult:
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


def same_result(got: RankResult, want: RankResult) -> bool:
    """Rank, kernel dimension, pivots, spanning columns and the kernel
    vectors with their key order all equal."""
    def fields(res):
        kernel = None if res.kernel is None else [list(v.items()) for v in res.kernel]
        return res.rank, res.kernel_dim, res.pivots, res.spanning, kernel
    return fields(got) == fields(want)


CHAIN_SWEEP = [("builtin:solvable22", "poly-with-constants", w, "chain") for w in range(6)]


def fast_corpus() -> list:
    """(structure, mode, weight, direction) of every fast golden."""
    tasks = []
    for path in _golden_paths(None):
        with open(path) as fh:
            spec = parse_golden(fh.read())
        if not spec["slow"]:
            tasks.append((spec["structure"], spec["mode"], spec["weight"],
                          spec.get("direction", "cochain")))
    return tasks


def engine_rank_inputs(tasks: list) -> list:
    """(matrix, snapshot of its columns) for every matrix build_report
    hands to rank_kernel over the (structure, mode, weight, direction)
    tasks: each map of a complex as _complex_rows ranks it, cleared view
    included, and each wedge map whose kernel basis the annihilator
    complex takes."""
    seen = []

    def spy(m, want_basis=False):
        seen.append((m, snapshot(m)))
        return rank_kernel(m, want_basis)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "rank_kernel", spy)
        for spec, mode, w, direction in tasks:
            engine.build_report(fx.load_structure(spec), mode, w, direction)
    return seen


def test_rank_kernel_matches_oracle_on_engine_maps():
    """On every map the fast corpus and the chain sweep w = 0..5 rank,
    in both modes, rank_kernel returns what the oracle returns, and no
    input column changes, neither while the reports are built nor
    after."""
    inputs = engine_rank_inputs(fast_corpus() + CHAIN_SWEEP)
    assert len(inputs) > 400 and any(m.n_cols > 1000 for m, _ in inputs)
    assert any(not col for m, _ in inputs for col in m.cols)  # cleared views
    for m, before in inputs:
        assert snapshot(m) == before
        for want_basis in (False, True):
            assert same_result(rank_kernel(m, want_basis), oracle_rank_kernel(m, want_basis))
        assert snapshot(m) == before


@st.composite
def shared_column_matrices(draw):
    """A sparse rational matrix whose columns are zero columns and picks,
    with repeats, from the columns of another: a repeated column is the
    same dict twice."""
    n_rows, n_cols, cells = draw(matrix_cells(max_size=10))
    m = cells_matrix(n_rows, n_cols, cells)
    picks = draw(st.lists(st.one_of(st.none(), st.integers(0, n_cols - 1)), max_size=14))
    return SparseMatrix(n_rows, [{} if p is None else m.cols[p] for p in picks], m.denom)


@settings(max_examples=300, deadline=None, database=None)
@given(shared_column_matrices())
def test_property_rank_kernel_matches_oracle(m):
    """Zero columns and one column dict at several indices give the
    oracle's result in both modes, and the columns stay unwritten."""
    before = snapshot(m)
    for want_basis in (False, True):
        assert same_result(rank_kernel(m, want_basis), oracle_rank_kernel(m, want_basis))
        assert snapshot(m) == before


def test_rank_kernel_pivot_order_pinned():
    """The pivots and spanning columns, in step order, of the 80 seeded
    matrices of test_rank_kernel_output_pinned and of every map the chain
    sweep ranks at w = 5, in both modes, pinned bit for bit: clearing,
    the d o d check and the kernel bases all follow this order."""
    rng = random.Random(20261018)
    h = hashlib.sha256()
    for _ in range(80):
        n_rows, n_cols = rng.randint(1, 14), rng.randint(1, 14)
        cells = {(r, c): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for r in range(n_rows) for c in range(n_cols) if rng.random() < 0.35}
        res = rank_kernel(cells_matrix(n_rows, n_cols, cells), want_basis=True)
        h.update(repr((res.pivots, res.spanning)).encode())
    inputs = engine_rank_inputs(CHAIN_SWEEP[5:])
    assert len(inputs) == 10
    for m, _ in inputs:
        for want_basis in (False, True):
            res = rank_kernel(m, want_basis)
            h.update(repr((res.pivots, res.spanning)).encode())
    assert h.hexdigest() == \
        "133359b77b3e1632f3ea673ba4e9bb6759f61d35d8ddb1d2cec48fd0b3845f4e"


def test_rank_against_dense_oracle_200_random():
    rng = random.Random(20240917)
    for _ in range(200):
        m = random_matrix(rng)
        expect = dense_rank(m.entries, m.n_rows, m.n_cols)
        res = rank_kernel(m, want_basis=True)
        assert res.rank == expect
        assert res.kernel_dim == m.n_cols - expect
        assert len(res.kernel) == res.kernel_dim
        for vec in res.kernel:
            assert compose_is_zero(m, SparseMatrix(m.n_cols, [vec])), \
                "kernel vector not annihilated"


def test_rank_kernel_output_pinned():
    """Rank, kernel dimension and kernel basis of 80 seeded random
    matrices with mixed denominators, pinned bit for bit: the pivot
    choice decides each kernel vector's scaling and key order."""
    rng = random.Random(20261018)
    h = hashlib.sha256()
    for _ in range(80):
        n_rows, n_cols = rng.randint(1, 14), rng.randint(1, 14)
        cells = {(r, c): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for r in range(n_rows) for c in range(n_cols) if rng.random() < 0.35}
        h.update(repr(rank_kernel(cells_matrix(n_rows, n_cols, cells),
                                  want_basis=True)).encode())
    assert h.hexdigest() == \
        "e9eed67a3c7c81f45236a9b8bb3b35ddc958461b1f688f652d67b5d596ffbd9f"


def test_rank_result_keeps_the_dataclass_behaviour():
    """RankResult is a plain slotted class that keeps the repr, defaults
    and == it had as a dataclass, both ignoring pivots and spanning, and
    has no hash."""
    res = RankResult(2, 1, [{0: 1, 2: -3}], pivots=[0, 1], spanning=[1, 0])
    assert repr(res) == "RankResult(rank=2, kernel_dim=1, kernel=[{0: 1, 2: -3}])"
    bare = RankResult(2, 1)
    assert repr(bare) == "RankResult(rank=2, kernel_dim=1, kernel=None)"
    assert (bare.kernel, bare.pivots, bare.spanning) == (None, [], [])
    assert RankResult(2, 1).pivots is not bare.pivots
    assert RankResult(2, 1).spanning is not bare.spanning
    assert res == RankResult(2, 1, [{0: 1, 2: -3}]) and res != bare
    assert res != RankResult(1, 1, [{0: 1, 2: -3}]) and res != (2, 1, [{0: 1, 2: -3}])
    with pytest.raises(TypeError):
        hash(res)
    assert not hasattr(res, "__dict__")


def test_rank_kernel_pivots_contract():
    """One pivot and one spanning column per rank step, each a distinct
    row or column index of m; the rows of m at the pivots alone keep the
    whole rank (the triangularity that clearing relies on), and so do the
    columns of m at the spanning indices alone (what the d o d check
    relies on); repr and == ignore both fields."""
    rng = random.Random(20261019)
    for _ in range(120):
        m = random_matrix(rng, max_size=14, density=rng.choice((0.1, 0.3, 0.6)))
        res = rank_kernel(m)
        assert len(res.pivots) == res.rank == len(set(res.pivots))
        assert all(0 <= r < m.n_rows for r in res.pivots)
        kept = {k: v for k, v in m.entries.items() if k[0] in set(res.pivots)}
        assert dense_rank(kept, m.n_rows, m.n_cols) == res.rank
        assert len(res.spanning) == res.rank == len(set(res.spanning))
        assert all(0 <= c < m.n_cols for c in res.spanning)
        kept = {k: v for k, v in m.entries.items() if k[1] in set(res.spanning)}
        assert dense_rank(kept, m.n_rows, m.n_cols) == res.rank
    res = rank_kernel(cells_matrix(2, 2, {(0, 0): 1, (1, 1): 1}), want_basis=True)
    bare = RankResult(res.rank, res.kernel_dim, res.kernel)
    assert res.pivots and res.spanning and res == bare and repr(res) == repr(bare)


def test_rank_transpose_invariant():
    rng = random.Random(5)
    for _ in range(40):
        m = random_matrix(rng, max_size=12)
        assert rank_kernel(m).rank == rank_kernel(transpose(m)).rank


def test_zero_matrix():
    m = cells_matrix(4, 5)
    res = rank_kernel(m, want_basis=True)
    assert res.rank == 0 and res.kernel_dim == 5
    assert len(res.kernel) == 5


def test_constructor_rejects_nonpositive_denominator():
    for denom in (0, -1, -6):
        with pytest.raises(ValueError, match="positive"):
            SparseMatrix(2, [{}], denom)


def test_compose_is_zero():
    ident = cells_matrix(3, 3, {(i, i): 1 for i in range(3)})
    assert not compose_is_zero(ident, ident)
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, max_size=10)
        res = rank_kernel(m, want_basis=True)
        if not res.kernel:
            continue
        kmat = SparseMatrix(m.n_cols, res.kernel)
        assert compose_is_zero(m, kmat)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_is_zero(cells_matrix(2, 3), cells_matrix(2, 3))


def test_compose_zero_column_with_cancelling_partial_sums():
    """Column 0 of a @ b cancels to zero only after its second term, on
    the rows that the nonzero column 1 then touches; a nonzero column
    followed by its negative, or by zero columns, is caught at the first
    one, and so is a column nonzero only on the rows of its last term.
    A compose that skips a column's zero test, tests only the last
    column, or tests only some of a column's rows answers wrongly."""
    a = cells_matrix(4, 3, {(0, 0): 1, (2, 0): 3, (0, 1): 2, (2, 1): 6, (3, 2): 1})
    cancel, shared = {(0, 0): 2, (1, 0): -1}, {(1, 1): 1}
    assert compose_is_zero(a, cells_matrix(3, 1, cancel))
    assert compose_is_zero(a, cells_matrix(3, 2, {**cancel, (0, 1): 2, (1, 1): -1}))
    assert not compose_is_zero(a, cells_matrix(3, 2, {**cancel, **shared}))
    assert not compose_is_zero(a, cells_matrix(3, 2, {(0, 0): 1, (0, 1): -1}))
    assert not compose_is_zero(a, cells_matrix(3, 3, {(0, 0): 1, (0, 2): 2, (1, 2): -1}))
    assert not compose_is_zero(a, cells_matrix(3, 1, {**cancel, (2, 0): 1}))


def test_compose_nonzero_column_after_many_zero_columns():
    """Forty zero product columns, each with cancelling partial sums, and
    then one nonzero column: False, and True without the last one.  A
    nonzero column before forty zero ones on other rows is False too."""
    a = cells_matrix(4, 3, {(0, 0): 1, (1, 0): -2, (0, 1): -1, (1, 1): 2,
                            (2, 2): 5, (3, 2): 1})
    zero = {(0, c): 1 for c in range(40)} | {(1, c): 1 for c in range(40)}
    assert compose_is_zero(a, cells_matrix(3, 40, zero))
    assert not compose_is_zero(a, cells_matrix(3, 41, {**zero, (2, 40): 1}))
    assert not compose_is_zero(a, cells_matrix(3, 41, {**zero, (0, 40): 1, (1, 40): 2}))
    after = {(r, c + 1): v for (r, c), v in zero.items()}
    assert not compose_is_zero(a, cells_matrix(3, 41, {(2, 0): 1, **after}))


def test_compose_with_empty_columns():
    """Empty columns of b give zero product columns, and so do columns of
    b that reach only empty columns of a; a nonzero column among them,
    first, in the middle or last, is still found, and an a with no rows
    composes to zero."""
    a = cells_matrix(2, 3, {(0, 0): 1, (1, 2): -1})
    assert compose_is_zero(a, cells_matrix(3, 4))
    assert compose_is_zero(a, cells_matrix(3, 3, {(1, 1): 7}))
    assert not compose_is_zero(a, cells_matrix(3, 3, {(0, 0): 1}))
    assert not compose_is_zero(a, cells_matrix(3, 3, {(1, 0): 7, (2, 1): 1}))
    assert not compose_is_zero(a, cells_matrix(3, 3, {(1, 1): 7, (0, 2): 1}))
    assert compose_is_zero(cells_matrix(0, 3), cells_matrix(3, 2, {(0, 0): 1, (2, 1): 4}))
    assert compose_is_zero(a, cells_matrix(3, 0))


def test_matmul_small():
    a = cells_matrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 1): 3})
    b = cells_matrix(2, 1, {(0, 0): 5, (1, 0): -1})
    ab = matmul(a, b)
    assert ab.entries == {(0, 0): Fraction(3), (1, 0): Fraction(-3)}


def test_rational_entries():
    m = cells_matrix(2, 3, {(0, 0): Fraction(1, 2), (0, 2): Fraction(-3, 4),
                            (1, 1): Fraction(2, 7)})
    res = rank_kernel(m, want_basis=True)
    assert res.rank == 2 and res.kernel_dim == 1
    assert compose_is_zero(m, SparseMatrix(m.n_cols, [res.kernel[0]]))


# ----------------------------------------------------------------------
# property tests: integer storage over one denominator against Fraction
# ----------------------------------------------------------------------

RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 8))


@st.composite
def rational_cells(draw, n_rows, n_cols):
    """Sparse {(r, c): Fraction} with denominators 1-8, signs and zeros."""
    keys = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
    return draw(st.dictionaries(keys, RATIONALS, max_size=n_rows * n_cols))


@st.composite
def matrix_cells(draw, max_size=8):
    n_rows = draw(st.integers(1, max_size))
    n_cols = draw(st.integers(1, max_size))
    return n_rows, n_cols, draw(rational_cells(n_rows, n_cols))


def values(m):
    return {k: Fraction(v, m.denom) for k, v in m.entries.items()}


def reference_product(a_cells, b_cells):
    out = {}
    for (r, k), x in a_cells.items():
        for (k2, c), y in b_cells.items():
            if k == k2:
                out[(r, c)] = out.get((r, c), Fraction(0)) + x * y
    return {key: v for key, v in out.items() if v}


@settings(max_examples=150, deadline=None, database=None)
@given(matrix_cells())
def test_property_rank_and_kernel(cells):
    n_rows, n_cols, entries = cells
    m = cells_matrix(n_rows, n_cols, entries)
    assert values(m) == {k: v for k, v in entries.items() if v}
    assert all(type(v) is int for v in m.entries.values()) and m.denom >= 1
    res = rank_kernel(m, want_basis=True)
    assert res.rank == dense_rank(entries, n_rows, n_cols)
    assert res.kernel_dim == n_cols - res.rank == len(res.kernel)
    for vec in res.kernel:
        assert vec and all(type(v) is int for v in vec.values())
        assert gcd(*vec.values()) == 1
        for r in range(n_rows):
            assert sum(entries.get((r, c), 0) * v for c, v in vec.items()) == 0
    assert rank_kernel(m).rank == res.rank


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_property_products_match_fraction_reference(data):
    n, k, p = (data.draw(st.integers(1, 7)) for _ in range(3))
    a_cells = data.draw(rational_cells(n, k))
    b_cells = data.draw(rational_cells(k, p))
    a, b = cells_matrix(n, k, a_cells), cells_matrix(k, p, b_cells)
    ref = reference_product(a_cells, b_cells)
    ab = matmul(a, b)
    assert (ab.n_rows, ab.n_cols) == (n, p)
    assert values(ab) == ref
    assert ab == cells_matrix(n, p, ref)
    assert compose_is_zero(a, b) == (not ref)
    # a genuinely zero product: a times its own kernel basis
    kernel = rank_kernel(a, want_basis=True).kernel
    if kernel:
        assert compose_is_zero(a, SparseMatrix(k, kernel))
        assert matmul(a, SparseMatrix(k, kernel)).nnz() == 0


@settings(max_examples=150, deadline=None, database=None)
@given(matrix_cells(), st.integers(2, 6))
def test_property_equality_compares_values(cells, scale):
    n_rows, n_cols, entries = cells
    m = cells_matrix(n_rows, n_cols, entries)
    scaled = SparseMatrix(n_rows, [{r: v * scale for r, v in col.items()}
                                   for col in m.cols], m.denom * scale)
    assert scaled.denom != m.denom
    assert scaled == m and m == scaled
    assert transpose(m) == transpose(scaled)
    # elimination sees only values: same pivots, so the same kernel basis
    assert (rank_kernel(scaled, want_basis=True).kernel
            == rank_kernel(m, want_basis=True).kernel)
    if m.entries:
        r, c = min(m.entries)
        bumped = [dict(col) for col in scaled.cols]
        bumped[c][r] += 1
        if bumped[c][r] == 0:
            del bumped[c][r]
        assert SparseMatrix(n_rows, bumped, scaled.denom) != m


@settings(max_examples=150, deadline=None, database=None)
@given(matrix_cells(), st.data())
def test_property_in_span_coordinates(cells, data):
    """A kernel basis K of rank_kernel has a private row per vector, so
    the coordinates Y of K @ Y come back exactly, whatever the
    denominators; a column outside the span is refused."""
    n_rows, n_cols, entries = cells
    m = cells_matrix(n_rows, n_cols, entries)
    k = SparseMatrix(n_cols, rank_kernel(m, want_basis=True).kernel)
    p = data.draw(st.integers(1, 5))
    y = cells_matrix(k.n_cols, p, data.draw(rational_cells(k.n_cols, p)) if k.n_cols else {})
    got = in_span_coordinates(k, matmul(k, y))
    assert (got.n_rows, got.n_cols) == (k.n_cols, p)
    assert got == y
    # a nonzero row of m is orthogonal to the kernel, so outside its span
    if m.entries:
        r0 = min(m.entries)[0]
        row = {c: v for (r, c), v in m.entries.items() if r == r0}
        with pytest.raises(AssertionError):
            in_span_coordinates(k, SparseMatrix(n_cols, [row]))


# ----------------------------------------------------------------------
# the column layout: cols[c] maps row -> nonzero int over one denom
# ----------------------------------------------------------------------

def snapshot(m):
    """The columns of m as plain data, key order included."""
    return [list(col.items()) for col in m.cols]


@settings(max_examples=150, deadline=None, database=None)
@given(matrix_cells())
def test_property_column_layout_round_trips(cells):
    """Cells go into columns and come back through the entries view; the
    transpose of the transpose is the matrix, column for column."""
    n_rows, n_cols, entries = cells
    m = cells_matrix(n_rows, n_cols, entries)
    assert m.n_cols == len(m.cols) == n_cols and m.nnz() == len(m.entries)
    assert all(v and 0 <= r < n_rows for col in m.cols for r, v in col.items())
    assert all(m.cols[c][r] == v for (r, c), v in m.entries.items())
    again = cells_matrix(n_rows, n_cols, values(m))
    assert (again.denom, again.entries) == (m.denom, m.entries)
    t = transpose(m)
    assert (t.n_rows, t.n_cols, t.denom) == (n_cols, n_rows, m.denom)
    assert t.entries == {(c, r): v for (r, c), v in m.entries.items()}
    assert transpose(t) == m and transpose(t).cols == m.cols


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_property_operations_leave_operand_columns_unchanged(data):
    """A map, its cleared view and a kernel basis built on rank_kernel's
    vectors share column dicts, so rank_kernel, compose_is_zero, matmul
    and in_span_coordinates must not write to their operands."""
    n, k, p = (data.draw(st.integers(1, 7)) for _ in range(3))
    a = cells_matrix(n, k, data.draw(rational_cells(n, k)))
    b = cells_matrix(k, p, data.draw(rational_cells(k, p)))
    drop = data.draw(st.sets(st.integers(0, k - 1)))
    cleared = SparseMatrix(n, [{} if c in drop else col for c, col in enumerate(a.cols)],
                           a.denom)
    before = snapshot(a), snapshot(b)
    res = rank_kernel(a, want_basis=True)
    kmat = SparseMatrix(k, res.kernel)
    kernel_before = snapshot(kmat)
    rank_kernel(cleared, want_basis=True)
    rank_kernel(b)
    compose_is_zero(a, b)
    compose_is_zero(a, kmat)
    matmul(a, b)
    if kmat.n_cols:
        in_span_coordinates(kmat, matmul(kmat, cells_matrix(kmat.n_cols, 1, {(0, 0): 1})))
    rank_kernel(kmat, want_basis=True)
    assert (snapshot(a), snapshot(b)) == before
    assert snapshot(kmat) == kernel_before
    assert all(cleared.cols[c] is a.cols[c] for c in range(k) if c not in drop)
