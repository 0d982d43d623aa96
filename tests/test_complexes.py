import hashlib
import weakref
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from poisson_cohom import fixtures as fx
from poisson_cohom.algebra import RatPoly, mono_index
from poisson_cohom.casimir import normal_form, quotient_basis
from poisson_cohom.cli import _golden_paths, parse_golden
from poisson_cohom.complexes import (GeneratorBits, PolyContext, PoissonLikeContext,
                                     basis_dimension_check, boundary_matrix,
                                     build_basis, cochain_matrix,
                                     constant_two_cochain, wedge_cochain_matrix,
                                     weight_degree_range, with_constants_split)
from poisson_cohom.diagrams import enumerate_signatures
from poisson_cohom.engine import build_report, homology_vs_cohomology_check
from poisson_cohom.linalg import (SparseMatrix, clear_denominators, compose_is_zero,
                                  matmul, rank_kernel)

from test_linalg import cells_matrix, transpose


# ----------------------------------------------------------------------
# reference oracle: the basis as ascending tuples of gids
# ----------------------------------------------------------------------

def oracle_build_basis(ctx, m: int, w: int) -> list:
    """The degree-m, weight-w basis as ascending tuples of gids: the
    words of a signature are its blocks' combinations joined in product
    order, the last block varying fastest."""
    basis = []
    if m or ctx.include_m0:
        for sig in enumerate_signatures(m, w, ctx.shift, ctx.cap, ctx.start):
            words = [()]
            for j, k in sig:
                pool = list(combinations([(j, p) for p in range(ctx.cap(j))], k))
                words = [word + block for word in words for block in pool]
            basis += words
    return basis


def _mask(ctx, word: tuple) -> int:
    """A tuple word as the OR of its generators' bits."""
    out = 0
    for g in word:
        out |= ctx.bit(g)
    return out


def _decoded(ctx, basis: list) -> list:
    """The tuple words of a basis of masks."""
    return [tuple(ctx.gids(mask)) for mask in basis]


# ----------------------------------------------------------------------
# reference oracle: the boundary assembled independently of the
# coboundary, by pairwise bracket insertion on the chain side
# ----------------------------------------------------------------------

_BRACKETS = weakref.WeakKeyDictionary()  # context -> {(g1, g2): bracket1 value}


def bracket1(ctx, g1, g2) -> tuple:
    """[u_{g1}, u_{g2}] expanded over generators (chain direction), as
    (list of (gid, int), denom): the public Poisson bracket of the two
    generator monomials, in normal form in 'hamiltonian' mode, cached per
    pair."""
    if g1 == g2:
        return [], 1
    if g1 > g2:
        out, denom = bracket1(ctx, g2, g1)
        return [(g, -c) for g, c in out], denom
    table = _BRACKETS.setdefault(ctx, {})
    if (g1, g2) not in table:
        deg = g1[0] + g2[0] + ctx.h - 2
        br = ctx.pi.bracket(RatPoly.monomial(ctx.gens(g1[0])[g1[1]]),
                            RatPoly.monomial(ctx.gens(g2[0])[g2[1]]))
        if deg < ctx.start:  # constants quotiented away in 'bar' mode
            br = RatPoly.zero(ctx.n)
        elif ctx.mode == "hamiltonian":
            br = normal_form(ctx.casimirs(deg), br)
        index = {lab: pos for pos, lab in enumerate(ctx.gens(deg))} if br.terms else {}
        ints, denom = clear_denominators(list(br.terms.values()))
        table[(g1, g2)] = ([((deg, index[a]), c) for a, c in zip(br.terms, ints)], denom)
    return table[(g1, g2)]


def _insert_front(rest: tuple, gc):
    """Wedge gc onto a sorted tuple from the left; (new_tuple, sign) or None."""
    pos = bisect_left(rest, gc)
    if pos < len(rest) and rest[pos] == gc:
        return None
    newt = rest[:pos] + (gc,) + rest[pos:]
    return newt, (-1 if pos % 2 else 1)


def _nonzero(cols: list) -> list:
    """The oracles' accumulated columns with their cancelled entries dropped."""
    return [{r: v for r, v in col.items() if v} for col in cols]


def oracle_boundary_matrix(ctx, src: list, tgt: list) -> SparseMatrix:
    """Exact matrix of the boundary operator from src (degree m) to tgt (m-1):
    sum over slot pairs of (-1)^{i+j} [u_i, u_j] wedged in front, accumulated
    in integers over the lcm of the bracket denominators met so far."""
    index = {t: row for row, t in enumerate(tgt)}
    cols: list = [{} for _ in src]
    denom = 1
    for col, tup in enumerate(src):
        mlen = len(tup)
        for k in range(mlen):
            for l in range(k + 1, mlen):
                expansion, d = bracket1(ctx, tup[k], tup[l])
                if not expansion:
                    continue
                if denom % d:
                    grow = lcm(denom, d) // denom
                    cols = [{r: v * grow for r, v in part.items()} for part in cols]
                    denom *= grow
                f = denom // d
                if (k + l) % 2:  # (-1)^{(k+1)+(l+1)}
                    f = -f
                rest = tup[:k] + tup[k + 1:l] + tup[l + 1:]
                for gc, c in expansion:
                    placed = _insert_front(rest, gc)
                    if placed is None:
                        continue
                    newt, sign = placed
                    row = index.get(newt)
                    if row is None:
                        raise AssertionError("boundary left the weight-graded basis")
                    cols[col][row] = cols[col].get(row, 0) + sign * f * c
    return SparseMatrix(len(tgt), _nonzero(cols), denom)


# ----------------------------------------------------------------------
# reference oracles for the bitmask assembly: the coboundary and the
# wedge built on sorted gid tuples, with bisect inversion counts
# ----------------------------------------------------------------------

def _insert_pair(rest: tuple, ga, gb):
    """Wedge ga^gb (ga < gb) onto a sorted tuple from the left;
    (new_tuple, sign) or None.  A 2-form commutes with every factor, so
    this is also the sign of putting ga^gb in any slot of rest."""
    ia = bisect_left(rest, ga)
    if ia < len(rest) and rest[ia] == ga:
        return None
    ib = bisect_left(rest, gb, ia)
    if ib < len(rest) and rest[ib] == gb:
        return None
    newt = rest[:ia] + (ga,) + rest[ia:ib] + (gb,) + rest[ib:]
    return newt, (-1 if (ia + ib) % 2 else 1)


def oracle_cochain_matrix(ctx, src: list, tgt: list) -> SparseMatrix:
    """Exact matrix of the coboundary from src (degree m) to tgt (m+1),
    accumulated in integers over the lcm of the image2 denominators of the
    generator degrees in src."""
    denoms = {j: ctx.image2_denom(j) for j in {g[0] for tup in src for g in tup}}
    denom = lcm(1, *denoms.values())
    scale = {j: denom // d for j, d in denoms.items()}
    index = {t: row for row, t in enumerate(tgt)}
    cols: list = [{} for _ in src]
    for col, tup in enumerate(src):
        for slot, gid in enumerate(tup):
            f = -scale[gid[0]] if slot % 2 else scale[gid[0]]
            rest = tup[:slot] + tup[slot + 1:]
            for ga, gb, c in ctx.image2(gid):
                placed = _insert_pair(rest, ga, gb)
                if placed is None:
                    continue
                newt, sign = placed
                row = index.get(newt)
                if row is None:
                    raise AssertionError("differential left the weight-graded basis")
                cols[col][row] = cols[col].get(row, 0) + sign * f * c
    return SparseMatrix(len(tgt), _nonzero(cols), denom)


def oracle_wedge_cochain_matrix(two_cochain: tuple, src: list, tgt: list) -> SparseMatrix:
    """Matrix of sigma -> (2-cochain) ^ sigma, for a 2-cochain given as
    (terms, denom) by constant_two_cochain."""
    terms, denom = two_cochain
    index = {t: row for row, t in enumerate(tgt)}
    cols: list = [{} for _ in src]
    for col, tup in enumerate(src):
        for ga, gb, c in terms:
            placed = _insert_pair(tup, ga, gb)
            if placed is None:
                continue
            newt, sign = placed
            row = index.get(newt)
            if row is None:
                raise AssertionError("wedge left the weight-graded basis")
            cols[col][row] = cols[col].get(row, 0) + sign * c
    return SparseMatrix(len(tgt), _nonzero(cols), denom)


def _same_matrix(a: SparseMatrix, b: SparseMatrix) -> bool:
    """Equal shape, denominator and entries, keys in the same order."""
    return ((a.n_rows, a.n_cols, a.denom, list(a.entries.items()))
            == (b.n_rows, b.n_cols, b.denom, list(b.entries.items())))


def _polynomial_golden_contexts():
    """(label, context, weight) for every fast golden in poly-bar or
    hamiltonian mode, plus the with-constants context of each poly-bar
    golden (the chain sweep's path)."""
    kinds = {"poly-bar": ("bar", "full"), "hamiltonian": ("hamiltonian",)}
    out = []
    for path in _golden_paths(None):
        with open(path) as fh:
            spec = parse_golden(fh.read())
        if spec["slow"] or spec["mode"] not in kinds:
            continue
        pi = fx.load_structure(spec["structure"])
        for kind in kinds[spec["mode"]]:
            label = "%s[%s]" % (path.rsplit("/", 1)[-1], kind)
            out.append((label, PolyContext(pi, kind), spec["weight"]))
    return out


def test_basis_sizes_match_tables():
    ctx = PolyContext(fx.sl2(), "bar")
    assert len(build_basis(ctx, 1, 1)) == 6
    assert len(build_basis(ctx, 3, 3)) == 245
    assert len(build_basis(ctx, 0, 0)) == 1
    assert len(build_basis(ctx, 0, 1)) == 0
    ham = PolyContext(fx.heisenberg(), "hamiltonian")
    assert len(build_basis(ham, 4, 1)) == 0
    assert len(build_basis(ham, 2, 1)) == 10


def test_basis_deterministic_and_distinct():
    ctx = PolyContext(fx.sl2(), "bar")
    b1 = build_basis(ctx, 2, 2)
    b2 = build_basis(PolyContext(fx.sl2(), "bar"), 2, 2)
    assert b1 == b2
    assert len(set(b1)) == len(b1)
    assert all(word.bit_count() == 2 for word in b1)


def _basis_jobs():
    """(label, context, weight) of every fast golden context (bar, full
    and hamiltonian) and of poisson_like_h2 at weight -2."""
    jobs = _polynomial_golden_contexts()
    jobs.append(("poisson_like_h2", PoissonLikeContext(fx.poisson_like_h2()), -2))
    return jobs


def test_basis_masks_match_oracle_words():
    """build_basis is the OR of the context's bits over each tuple word of
    the oracle, in the oracle's order, and decodes back to it."""
    count = 0
    for label, ctx, w in _basis_jobs():
        for m in range(weight_degree_range(ctx, w) + 2):
            words = oracle_build_basis(ctx, m, w)
            basis = build_basis(ctx, m, w)
            assert basis == [_mask(ctx, word) for word in words], (label, m)
            assert _decoded(ctx, basis) == words, (label, m)
            count += len(words)
    assert count > 10000


def test_generator_bits_follow_gid_order():
    """In every context kind the bits run in gid order, consecutive from
    the lowest degree, so a word's mask order is its tuple order and the
    popcount below a bit is the tuple position: no sign can move."""
    contexts = [PolyContext(fx.sl2(), mode) for mode in ("bar", "full", "hamiltonian")]
    contexts += [PoissonLikeContext(fx.poisson_like_h2()), _StubContext({}, {}, [2, 1, 3])]
    for ctx in contexts:
        gids = [(j, p) for j in range(ctx.start, ctx.start + 4) for p in range(ctx.cap(j))]
        assert [ctx.bit(g) for g in gids] == [1 << i for i in range(len(gids))]
        assert ctx.gids(sum(ctx.bit(g) for g in gids)) == gids


def test_signature_dimension_cross_check():
    for s, mode in ((fx.sl2(), "bar"), (fx.heisenberg(), "hamiltonian"),
                    (fx.symplectic_r2(), "bar")):
        ctx = PolyContext(s, mode)
        for w in range(0, 3):
            hi = weight_degree_range(ctx, w)
            for m in range(hi + 1):
                basis_dimension_check(ctx, m, w, build_basis(ctx, m, w))


def test_sl2_one_cochain_images():
    """The three coboundary values of the linear dual generators."""
    ctx = PolyContext(fx.sl2(), "bar")
    # generators of degree 1 are ordered x1, x2, x3
    img = {i: ctx.image2((1, i)) for i in range(3)}
    # d z1 = -2 z3 ^ z1 = +2 z1 ^ z3
    assert img[0] == [((1, 0), (1, 2), 2)]
    # d z2 = 2 z3 ^ z2 = -2 z2 ^ z3
    assert img[1] == [((1, 1), (1, 2), -2)]
    # d z3 = z2 ^ z1 = -z1 ^ z2
    assert img[2] == [((1, 0), (1, 1), -1)]


def test_sl2_two_cochain_images():
    """Spot-check two of the published degree-2 coboundary expansions.
    Degree-2 generators sit in the order x1^2, x1x2, x2^2, x1x3, x2x3, x3^2."""
    ctx = PolyContext(fx.sl2(), "bar")
    # d z_{200} = -4 z_{001}^z_{200} + 2 z_{100}^z_{101}
    assert ctx.image2((2, 0)) == [((1, 0), (2, 3), 2), ((1, 2), (2, 0), -4)]
    # d z_{110} = -2 z_{010}^z_{101} - 2 z_{011}^z_{100}
    assert ctx.image2((2, 1)) == [((1, 0), (2, 4), 2), ((1, 1), (2, 3), -2)]


def test_degree_zero_dual_images():
    # h > 0: the degree-0 dual is closed; h = 0: it maps to minus the
    # structure 2-cochain
    full_h1 = PolyContext(fx.sl2(), "full")
    assert full_h1.image2((0, 0)) == []
    full_h0 = PolyContext(fx.symplectic_r2(), "full")
    assert full_h0.image2((0, 0)) == [((1, 0), (1, 1), -1)]


def test_poisson_like_images_hand_worked():
    """Coboundaries of single Poisson-like generators, worked by hand from
    [u1 ^ u2, v] = [u1, v] ^ u2 - [u2, v] ^ u1.  Generator ids are
    (|A|, position of A * n + axis); degree 1 lists x1, x2, x3."""
    h0 = PoissonLikeContext(fx.poisson_like_h0())  # d1 ^ d2
    # [d1, x1 d3] = d3 and [d2, x1 d3] = 0, so the image is d3 ^ d2 = -d2 ^ d3
    assert h0.image2((1, 2)) == [((0, 1), (0, 2), -1)]
    # [d1, x1 d1] = d1 gives d1 ^ d2
    assert h0.image2((1, 0)) == [((0, 0), (0, 1), 1)]
    assert h0.image2_denom(1) == 1
    # (d1 - d3) ^ (x1 d3 + x3 d3) against x1 d1: the d1 ^ x1 d3 term
    # cancels and d1 ^ x3 d3 + d3 ^ x1 d3 is left
    h1 = PoissonLikeContext(fx.poisson_like_h1())
    assert h1.image2((1, 0)) == [((0, 0), (1, 8), 1), ((0, 2), (1, 2), 1)]


def test_d_squared_zero_many_modes():
    jobs = [
        (PolyContext(fx.sl2(), "bar"), (0, 1, 2)),
        (PolyContext(fx.heisenberg(), "full"), (0, 1)),
        (PolyContext(fx.solvable22(), "hamiltonian"), (0, 1, 2)),
        (PolyContext(fx.symplectic_r2(), "bar"), (-2, -1, 0)),
        (PoissonLikeContext(fx.poisson_like_h1()), (0, 1)),
        (PoissonLikeContext(fx.poisson_like_h2()), (-3,)),
    ]
    for ctx, weights in jobs:
        for w in weights:
            hi = weight_degree_range(ctx, w)
            bases = {m: build_basis(ctx, m, w) for m in range(hi + 2)}
            mats = {m: cochain_matrix(ctx, bases[m], bases[m + 1])
                    for m in range(hi + 1)}
            for m in range(hi):
                assert compose_is_zero(mats[m + 1], mats[m])


def test_boundary_squared_zero():
    for s, mode in ((fx.sl2(), "bar"), (fx.heisenberg(), "hamiltonian")):
        ctx = PolyContext(s, mode)
        for w in (0, 1, 2):
            hi = weight_degree_range(ctx, w)
            bases = {m: oracle_build_basis(ctx, m, w) for m in range(hi + 2)}
            mats = {m: oracle_boundary_matrix(ctx, bases[m], bases[m - 1])
                    for m in range(1, hi + 1)}
            for m in range(2, hi + 1):
                assert compose_is_zero(mats[m - 1], mats[m])


def test_so3_matches_sl2_betti():
    """so(3) and sl(2) are isomorphic as Lie algebras, so the polynomial
    cohomology tables must agree even though the structures differ."""
    for w in (0, 1, 2):
        a = build_report(fx.so3(), "poly-bar", w)
        b = build_report(fx.sl2(), "poly-bar", w)
        assert a.dim_list() == b.dim_list()
        assert a.betti_list() == b.betti_list()


def test_coboundary_is_transpose_of_boundary():
    """The engine's chain boundary is the transpose of the coboundary; the
    oracle assembles the boundary independently (pairwise bracket
    insertion instead of reverse-index slot replacement), and the dual
    pairing of the wedge bases forces the two to agree entry for entry on
    every matrix of the polynomial-mode goldens."""
    nonzero = 0
    for label, ctx, w in _polynomial_golden_contexts():
        hi = weight_degree_range(ctx, w)
        bases = {m: build_basis(ctx, m, w) for m in range(hi + 2)}
        words = {m: _decoded(ctx, basis) for m, basis in bases.items()}
        for m in range(hi + 1):
            d = cochain_matrix(ctx, bases[m], bases[m + 1])
            bd = oracle_boundary_matrix(ctx, words[m + 1], words[m])
            assert transpose(d) == bd, (label, m)
            nonzero += d.nnz() > 0
    assert nonzero > 0


def test_homology_equals_cohomology():
    assert homology_vs_cohomology_check(fx.sl2(), "poly-bar", 1)
    assert homology_vs_cohomology_check(fx.sl2(), "poly-bar", 2)
    assert homology_vs_cohomology_check(fx.heisenberg(), "poly-bar", 2)
    assert homology_vs_cohomology_check(fx.heisenberg(), "hamiltonian", 2)
    assert homology_vs_cohomology_check(fx.heisenberg(), "hamiltonian", 3)


def test_heisenberg_homology_weight_one():
    ho = build_report(fx.heisenberg(), "hamiltonian", 1, direction="chain")
    co = build_report(fx.heisenberg(), "hamiltonian", 1)
    assert ho.dim_list() == co.dim_list() == [5, 10, 5]
    assert ho.betti_list() == co.betti_list() == [3, 5, 2]
    # pairing duality: the outgoing chain rank at m+1 is the cochain rank at m
    for m in (1, 2):
        assert ho.row_at(m + 1).rank == co.row_at(m).rank


def test_with_constants_split_additivity():
    for s in (fx.sl2(), fx.heisenberg(), fx.h2_case1()):
        bar = PolyContext(s, "bar")
        for w in range(0, 3):
            for m in range(0, 8):
                without, with_delta = with_constants_split(s, m, w)
                assert without == len(build_basis(bar, m, w))
                assert with_delta == len(build_basis(bar, m - 1, w + 2 - s.h))


def test_with_constants_split_rejects_h0():
    with pytest.raises(ValueError):
        with_constants_split(fx.symplectic_r2(), 2, 0)


def test_full_mode_betti_additivity_sl2():
    """Cohomology of the with-constants algebra splits as the direct sum
    of the plain part and the degree-shifted part."""
    s = fx.sl2()
    for w in (0, 1, 2):
        full = build_report(s, "poly-with-constants", w)
        bar_w = build_report(s, "poly-bar", w)
        bar_shift = build_report(s, "poly-bar", w + 2 - s.h)
        ms = {r.m for r in full.rows} | {r.m for r in bar_w.rows} | \
             {r.m + 1 for r in bar_shift.rows}
        for m in ms:
            expect = bar_w.row_at(m).betti + bar_shift.row_at(m - 1).betti
            assert full.row_at(m).betti == expect, (w, m)


def test_annihilator_mode_tables():
    sp = fx.symplectic_r2()
    rep0 = build_report(sp, "pi-annihilator", 0)
    assert rep0.row_at(0).dim == 0  # scalars removed
    assert [rep0.row_at(m).betti for m in range(8)] == [0, 0, 0, 0, 1, 0, 0, 1]
    repm2 = build_report(sp, "pi-annihilator", -2)
    bar = build_report(sp, "poly-bar", -2)
    assert repm2.dim_list() == bar.dim_list()
    assert repm2.betti_list() == bar.betti_list()


def test_kernel_dimension_identity_h0():
    """When the next plain cohomology vanishes, the kernel on the full
    complex is the sum of the plain kernel and the shifted kernel."""
    s = fx.symplectic_r2()
    for w in (-2, -1, 0):
        full = build_report(s, "poly-with-constants", w)
        bar_w = build_report(s, "poly-bar", w)
        bar_shift = build_report(s, "poly-bar", w + 2)
        for r in full.rows:
            m = r.m
            if bar_w.row_at(m + 1).betti != 0:
                continue
            expect = bar_w.row_at(m).kernel_dim + bar_shift.row_at(m - 1).kernel_dim
            assert r.kernel_dim == expect, (w, m)


def _embedding_matrix(pi, ham_basis, bar_basis):
    """Expand wedges of quotient dual functionals in the monomial dual
    wedge basis of the plain complex."""
    duals = {}

    def dual_as_gids(gid):
        if gid not in duals:
            j = gid[0]
            qb = quotient_basis(pi, j)
            func = qb.dual[gid[1]]
            idx = mono_index(pi.n, j)
            duals[gid] = [((j, idx[a]), c) for a, c in func.items()]
        return duals[gid]

    index = {t: row for row, t in enumerate(bar_basis)}
    entries = {}
    for col, tup in enumerate(ham_basis):
        expansions = [dual_as_gids(g) for g in tup]

        def rec(k, factors, coeff):
            if k == len(expansions):
                order = sorted(range(len(factors)), key=lambda i: factors[i])
                word = tuple(factors[i] for i in order)
                if len(set(word)) < len(word):
                    return
                inv = sum(1 for a in range(len(order)) for b in range(a + 1, len(order))
                          if order[a] > order[b])
                row = index[word]
                key = (row, col)
                s = entries.get(key, Fraction(0)) + coeff * (-1 if inv % 2 else 1)
                if s:
                    entries[key] = s
                else:
                    del entries[key]
                return
            for gid, c in expansions[k]:
                rec(k + 1, factors + [gid], coeff * c)

        rec(0, [], Fraction(1))
    return cells_matrix(len(bar_basis), len(ham_basis), entries)


def test_hamiltonian_complex_embeds_in_plain_complex():
    """Independent validation of the quotient-mode differential: wedges of
    the dual functionals form a subcomplex of the plain complex, and the
    plain coboundary restricted to it equals the pushed-forward quotient
    coboundary (the two differentials intertwine with the embedding)."""
    for pi, weights in ((fx.heisenberg(), (1, 2)), (fx.sl2(), (2,)),
                        (fx.solvable22(), (1, 2))):
        ham = PolyContext(pi, "hamiltonian")
        bar = PolyContext(pi, "bar")
        for w in weights:
            hi = weight_degree_range(ham, w)
            for m in range(hi + 1):
                ham_src = build_basis(ham, m, w)
                ham_tgt = build_basis(ham, m + 1, w)
                bar_src = build_basis(bar, m, w)
                bar_tgt = build_basis(bar, m + 1, w)
                if not len(ham_src):
                    continue
                e_src = _embedding_matrix(pi, _decoded(ham, ham_src), _decoded(bar, bar_src))
                e_tgt = _embedding_matrix(pi, _decoded(ham, ham_tgt), _decoded(bar, bar_tgt))
                d_ham = cochain_matrix(ham, ham_src, ham_tgt)
                d_bar = cochain_matrix(bar, bar_src, bar_tgt)
                assert matmul(d_bar, e_src) == matmul(e_tgt, d_ham), (pi.name, w, m)


def test_wedge_matrix_against_basis_filter():
    """For the plane structure the annihilator kernel is spanned by the
    basis words containing a linear slot."""
    sp = fx.symplectic_r2()
    ctx = PolyContext(sp, "bar")
    two = constant_two_cochain(sp)
    for (m, w) in ((2, 0), (3, 0), (3, 1)):
        src = build_basis(ctx, m, w)
        tgt = build_basis(ctx, m + 2, w - 2)
        wedge = wedge_cochain_matrix(ctx, two, src, tgt)
        res = rank_kernel(wedge, want_basis=True)
        expect = sum(1 for tup in _decoded(ctx, src) if any(g[0] == 1 for g in tup))
        assert res.kernel_dim == expect



def test_cochain_matrix_matches_oracle():
    """The bitmask coboundary equals the tuple/bisect oracle exactly on
    every matrix of the polynomial-mode goldens (bar, full and
    hamiltonian contexts) and of poisson_like_h2 at weight -2."""
    count = 0
    for label, ctx, w in _basis_jobs():
        hi = weight_degree_range(ctx, w)
        bases = {m: build_basis(ctx, m, w) for m in range(hi + 2)}
        words = {m: _decoded(ctx, basis) for m, basis in bases.items()}
        for m in range(hi + 1):
            d = cochain_matrix(ctx, bases[m], bases[m + 1])
            assert _same_matrix(d, oracle_cochain_matrix(ctx, words[m], words[m + 1])), \
                (label, m)
            count += d.nnz() > 0
    assert count > 100


def _engine_map_jobs():
    """(label, structure, mode, context, weight, direction) for every fast
    golden in poly-bar, poly-with-constants, hamiltonian or poisson-like
    mode, and solvable22's poly-with-constants chain complex at w 0..5."""
    kinds = {"poly-bar": "bar", "poly-with-constants": "full", "hamiltonian": "hamiltonian"}
    jobs = []
    for path in _golden_paths(None):
        with open(path) as fh:
            spec = parse_golden(fh.read())
        if spec["slow"] or spec["mode"] not in (*kinds, "poisson-like"):
            continue
        s = fx.load_structure(spec["structure"])
        ctx = (PoissonLikeContext(s) if spec["mode"] == "poisson-like"
               else PolyContext(s, kinds[spec["mode"]]))
        jobs.append((path.rsplit("/", 1)[-1], s, spec["mode"], ctx, spec["weight"],
                     spec.get("direction", "cochain")))
    s = fx.solvable22()
    jobs += [("solvable22 chain w %d" % w, s, "poly-with-constants", PolyContext(s, "full"),
              w, "chain") for w in range(6)]
    return jobs


def test_engine_maps_match_oracles():
    """Every map the engine hands to the matrix_sink equals the oracle on
    the decoded tuple words, key order included: a coboundary the
    cochain oracle, a chain boundary the transpose of the cochain oracle
    (rows filled in ascending source order) and, by value, the
    independent boundary oracle."""
    count = chain = 0
    for label, s, mode, ctx, w, direction in _engine_map_jobs():
        maps: dict = {}
        build_report(s, mode, w, direction, matrix_sink=maps.__setitem__)
        assert maps, label
        for m, d in maps.items():
            src = _decoded(ctx, build_basis(ctx, m, w))
            if direction == "chain":
                tgt = _decoded(ctx, build_basis(ctx, m - 1, w))
                assert _same_matrix(d, transpose(oracle_cochain_matrix(ctx, tgt, src))), \
                    (label, m)
                assert d == oracle_boundary_matrix(ctx, src, tgt), (label, m)
                chain += 1
            else:
                tgt = _decoded(ctx, build_basis(ctx, m + 1, w))
                assert _same_matrix(d, oracle_cochain_matrix(ctx, src, tgt)), (label, m)
            count += d.nnz() > 0
    assert count > 100 and chain >= 30


def test_wedge_matrix_matches_oracle():
    """The bitmask wedge equals the oracle on every annihilator wedge map
    of the pi-annihilator goldens."""
    count = 0
    for path in _golden_paths(None):
        with open(path) as fh:
            spec = parse_golden(fh.read())
        if spec["mode"] != "pi-annihilator":
            continue
        pi, w = fx.load_structure(spec["structure"]), spec["weight"]
        ctx, two = PolyContext(pi, "bar"), constant_two_cochain(pi)
        for m in range(weight_degree_range(ctx, w) + 2):
            src, tgt = build_basis(ctx, m, w), build_basis(ctx, m + 2, w - 2)
            d = wedge_cochain_matrix(ctx, two, src, tgt)
            assert _same_matrix(d, oracle_wedge_cochain_matrix(
                two, _decoded(ctx, src), _decoded(ctx, tgt))), (path, m)
            count += d.nnz() > 0
    assert count > 5


class _StubContext(GeneratorBits):
    """What the assembly reads: the bits of generator blocks of degrees
    1, 2, ... with the given caps, image2 tables given per generator, and
    a denominator per generator degree."""

    def __init__(self, images: dict, denoms: dict, caps: list):
        super().__init__(1)
        self.images = images
        self.denoms = denoms
        self.caps = caps

    def cap(self, j: int) -> int:
        return self.caps[j - 1] if j <= len(self.caps) else 0

    def image2(self, gid) -> list:
        return self.images.get(gid, [])

    def image2_denom(self, deg: int) -> int:
        return self.denoms[deg]


@st.composite
def stub_complexes(draw):
    """Generator blocks of degrees 1..4, a random image2 for each generator
    (pairs that meet the rest of a word and pairs that do not, repeated
    pairs included), mixed denominators, and bases of degrees m, m + 1,
    m + 2 in shuffled order: src a sample of the m-words, the targets all
    words of their degree, so every placement lands in them."""
    caps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    if sum(caps) < 3:
        caps.append(1)
    gens = [(j + 1, p) for j, cap in enumerate(caps) for p in range(cap)]
    pair = st.lists(st.sampled_from(gens), min_size=2, max_size=2, unique=True).map(sorted)
    term = st.tuples(pair, st.integers(-4, 4).filter(bool)).map(lambda t: (*t[0], t[1]))
    images = {g: draw(st.lists(term, max_size=4)) for g in gens}
    denoms = {j: draw(st.integers(1, 6)) for j in {g[0] for g in gens}}
    m = draw(st.integers(0, len(gens) - 2))
    words = {k: draw(st.permutations(list(combinations(gens, k)))) for k in (m, m + 1, m + 2)}
    src = draw(st.lists(st.sampled_from(words[m]), min_size=1, unique=True))
    two = (draw(st.lists(term, max_size=4)), draw(st.integers(1, 6)))
    return _StubContext(images, denoms, caps), two, src, words[m + 1], words[m + 2]


@settings(max_examples=200, deadline=None, database=None)
@given(stub_complexes())
def test_mask_assembly_matches_oracle_on_stubs(stub):
    """Column-wise placement of two consecutive maps, with their own
    denominators, equals the oracle on the tuple words; row-wise
    placement, the boundary, equals its transpose with keys in the same
    order; the wedge equals its oracle; with a target word that some
    column hits removed, both placements raise."""
    ctx, two, src, tgt1, tgt2 = stub
    src_m, tgt1_m, tgt2_m = ([_mask(ctx, word) for word in b] for b in (src, tgt1, tgt2))
    d = cochain_matrix(ctx, src_m, tgt1_m)
    assert _same_matrix(d, oracle_cochain_matrix(ctx, src, tgt1))
    assert _same_matrix(cochain_matrix(ctx, tgt1_m, tgt2_m),
                        oracle_cochain_matrix(ctx, tgt1, tgt2))
    assert _same_matrix(boundary_matrix(ctx, tgt1_m, src_m), transpose(d))
    assert _same_matrix(wedge_cochain_matrix(ctx, two, src_m, tgt2_m),
                        oracle_wedge_cochain_matrix(two, src, tgt2))
    hit = next((row for col in d.cols for row in col), None)
    if hit is not None:
        short = tgt1_m[:hit] + tgt1_m[hit + 1:]
        with pytest.raises(AssertionError):
            cochain_matrix(ctx, src_m, short)
        with pytest.raises(AssertionError):
            boundary_matrix(ctx, short, src_m)


def test_mask_assembly_skips_colliding_pairs_and_rejects_escapes():
    """A pair that meets the rest of every word is never looked up, even
    with a generator met nowhere else and an empty target; a pair that
    does not meet the rest must land in the target basis."""
    a, g, x, y = (1, 0), (1, 1), (2, 0), (2, 1)
    ctx = _StubContext({g: [(a, x, 1)]}, {1: 1}, [2, 2])

    def word(*gids):
        return _mask(ctx, gids)

    d = cochain_matrix(ctx, [word(a, g)], [])
    assert (d.n_rows, d.n_cols, d.entries) == (0, 1, {})
    assert wedge_cochain_matrix(ctx, ([(a, x, 1)], 1), [word(a)], []).entries == {}
    escape = _StubContext({g: [(x, y, 1)]}, {1: 1}, [2, 2])
    with pytest.raises(AssertionError):
        cochain_matrix(escape, [word(a, g)], [word(a, g, x)])
    with pytest.raises(AssertionError):
        boundary_matrix(escape, [word(a, g, x)], [word(a, g)])
    # x and y are in no basis, so the pair cannot land on a target word
    # equal to the rest
    with pytest.raises(AssertionError):
        cochain_matrix(escape, [word(a, g)], [word(a)])
    with pytest.raises(AssertionError):
        wedge_cochain_matrix(ctx, ([(x, y, 1)], 1), [word(a)], [word(a, x)])

def test_dead_generator_below_a_live_slot_keeps_its_sign():
    """A generator whose image2 is empty is never walked as a slot, yet it
    still counts toward the slot sign of a live generator above it and
    toward the placement sign of a pair that straddles it: the dead d
    below the live g flips the entry, the dead e between the pair's x
    and y flips it again, and every map equals the oracle."""
    d, g, x, e, y = (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)
    ctx = _StubContext({g: [(x, y, 3)]}, {1: 2, 2: 1}, [2, 3])
    cases = [((g,), (x, y), 3), ((d, g), (d, x, y), -3),
             ((g, e), (x, e, y), -3), ((d, g, e), (d, x, e, y), 3)]
    for word, target, value in cases:
        src, tgt = [_mask(ctx, word)], [_mask(ctx, target)]
        got = cochain_matrix(ctx, src, tgt)
        assert _same_matrix(got, oracle_cochain_matrix(ctx, [word], [target])), word
        assert (got.cols, got.denom) == ([{0: value}], 2), word
        assert _same_matrix(boundary_matrix(ctx, tgt, src), transpose(got)), word

# sha256 of every differential the engine ranks on the fast golden
# corpus and on solvable22's poly-with-constants chain complex at w 0..4,
# recorded from the tuple/bisect assembly that the oracles below keep
MATRIX_DIGEST = "c12406d1b8a69f286e3406a1f15f44527359de5b9c37611182a0837ff332d1d8"


def test_matrix_digest_pinned():
    """Every differential, as (m, shape, denom, sorted entries) in task
    order, hashes to the digest of the tuple/bisect assembly."""
    tasks = []
    for path in _golden_paths(None):
        with open(path) as fh:
            spec = parse_golden(fh.read())
        if not spec["slow"]:
            tasks.append((spec["structure"], spec["mode"], spec["weight"],
                          spec.get("direction", "cochain")))
    tasks += [("builtin:solvable22", "poly-with-constants", w, "chain") for w in range(5)]
    h = hashlib.sha256()

    def sink(m, d):
        h.update(repr((m, d.n_rows, d.n_cols, d.denom,
                       sorted(d.entries.items()))).encode())

    for structure, mode, w, direction in tasks:
        h.update(repr((structure, mode, w, direction)).encode())
        build_report(fx.load_structure(structure), mode, w, direction, matrix_sink=sink)
    assert len(tasks) == 91
    assert h.hexdigest() == MATRIX_DIGEST
