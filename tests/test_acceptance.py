"""Acceptance suite: every published table and closed form at exact
(zero-tolerance) integer equality, plus the always-on property checks.

Each criterion prints one PASS/FAIL line (run with -s to see them all).
Two published sub-values of criterion 5 are errata: they contradict the
construction they describe.  test_criterion_05_recorded_defects asserts
the values the construction forces, each after its derivation (see its
docstring).
"""

import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from poisson_cohom import fixtures as fx
from poisson_cohom.algebra import RatPoly, mono_basis
from poisson_cohom.casimir import (casimir_space, normal_form, quotient_basis,
                                   quotient_bracket)
from poisson_cohom.cli import parse_golden, _golden_paths
from poisson_cohom.diagrams import (euler_combinatorial, euler_polymodule,
                                    nabla, poly_caps)
from poisson_cohom.engine import (build_report, cross_check,
                                  homology_vs_cohomology_check, run)
from poisson_cohom.linalg import rank_kernel
from poisson_cohom.multivector import (heisenberg_closed_form,
                                       heisenberg_kernel_form,
                                       sp2_closed_form, top_betti_probe)
from poisson_cohom.complexes import PolyContext, build_basis, with_constants_split
from poisson_cohom.poisson import schouten


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print("ACCEPTANCE %s: FAIL" % name, file=sys.stderr)
        raise
    print("ACCEPTANCE %s: PASS" % name)


def check_goldens(prefixes, slow=False):
    """Whole-table, field-exact comparison of the packaged golden tables
    whose file names start with one of the prefixes."""
    ran = 0
    for path in _golden_paths(None):
        fname = path.rsplit("/", 1)[-1]
        if not any(fname.startswith(p) for p in prefixes):
            continue
        with open(path) as fh:
            spec = parse_golden(fh.read())
        if spec["slow"] != slow:
            continue
        structure = fx.load_structure(spec["structure"])
        rep = run(structure, spec["mode"], [spec["weight"]],
                  direction=spec.get("direction", "cochain"))[0]
        got = [[r.m, r.dim, r.kernel_dim, r.rank, r.betti] for r in rep.rows]
        assert got == spec["rows"], "%s: expected %s got %s" % (fname, spec["rows"], got)
        assert rep.euler == spec["euler"], fname
        assert cross_check(rep) == [], fname
        ran += 1
    assert ran > 0, "no goldens matched %s" % (prefixes,)
    return ran


def test_criterion_01_sl2_tables():
    with criterion("1 (sl2 weight 1-4 tables)"):
        assert check_goldens(["sl2_bar_w"]) == 4
        rep = build_report(fx.sl2(), "poly-bar", 2)
        assert rep.betti_list() == [0, 0, 0, 0, 0]


def test_criterion_02_heisenberg_twin_tables():
    with criterion("2 (Heisenberg weights 0-4, both modes)"):
        assert check_goldens(["heis_bar_w", "heis_ham_w"]) == 10


def test_criterion_03_solvable_twin_tables():
    with criterion("3 (solvable(2,2) weights 0-4, both modes)"):
        assert check_goldens(["solv_bar_w", "solv_ham_w"]) == 10


def test_criterion_04_h2_case_tables():
    with criterion("4 (2-homogeneous cases 1-3, weights 2-4)"):
        assert check_goldens(["case1_", "case2_", "case3_"]) == 18


def test_criterion_05_top_betti_attainable_parts():
    with criterion("5 (top-Betti fixture and probes, attainable parts)"):
        rep = build_report(fx.square_bracket(), "poly-bar", 2)
        assert rep.dim_list() == [6, 3]
        assert rep.betti_list() == [5, 2]
        for make in (fx.h2_case1, fx.h2_case2, fx.h2_case3):
            for ell in (1, 2):
                probe = top_betti_probe(make(), "poly-bar", ell)
                assert probe["top_dim"] == 1 and probe["empty_above"]
                assert probe["top_betti"] == 0
        for make in (fx.sl2, fx.heisenberg):
            for ell in (1, 2):
                probe = top_betti_probe(make(), "poly-bar", ell)
                assert probe["top_dim"] == 1 and probe["empty_above"]
                if ell == 2:
                    assert probe["top_betti"] == 0


def _ad_traces(pi):
    """tr(ad x_i) = sum_j d{x_i, x_j}/dx_j for a linear (h = 1) structure,
    whose brackets of generators are the structure constants."""
    n = pi.n
    zero = tuple([0] * n)
    traces = []
    for i in range(n):
        t = RatPoly.zero(n)
        for j in range(n):
            t = t + pi.bracket(RatPoly.var(n, i), RatPoly.var(n, j)).partial(j)
        assert t.degree() <= 0
        traces.append(t.coeff(zero))
    return traces


def test_criterion_05_recorded_defects():
    """Two published values of this criterion are errata; the test asserts
    the values the construction forces, each after its derivation.

    Square bracket {x1,x2}=x3^2, hamiltonian mode, weight 2: published
    Betti (4, 0).  The degree-2 Casimir space is spanned by x3^2 itself,
    so the quotient bracket of the two surviving linear classes x1, x2 is
    the normal form of x3^2, which is zero.  The weight-2 differential
    between the quotient S_2/<x3^2> (dim 5) and the wedge of the two
    linear classes (dim 1) vanishes identically and the table is forced
    to dims (5, 1), Betti (5, 1); (4, 0) would need a rank-1 map built
    from a bracket that is zero in the quotient.

    sl(2) and Heisenberg, top_betti_probe(..., "poly-bar", ell=1):
    published top Betti 0.  With h = 1 and ell = 1 the extremal weight is
    w0 = 0 and m0 = 3, outside the probe's vanishing statement; the
    complex is the Chevalley-Eilenberg complex of the 3-dim algebra, whose
    top class survives exactly when every ad x_i is traceless (Koszul
    1950).  Both algebras are unimodular, so the incoming rank is 0 and the
    top Betti is 1, as criterion 2's weight-0 Heisenberg table says.  The
    non-unimodular solvable(2,2) algebra (tr ad x1 = 1) is the contrast:
    its top Betti is 0, as in its own weight-0 table."""
    with criterion("5-errata (forced square-bracket quotient row, ell=1 top classes)"):
        # (a) the square-bracket quotient row
        pi = fx.square_bracket()
        x1, x2, x3 = (RatPoly.var(3, i) for i in range(3))
        assert casimir_space(pi, 2).basis == [x3 * x3]
        assert pi.bracket(x1, x2) == x3 * x3
        assert quotient_bracket(pi, x1, x2).is_zero()
        linear = quotient_basis(pi, 1).primal
        assert linear == [a.leading_monomial() for a in (x1, x2)]
        assert len(quotient_basis(pi, 2)) == len(mono_basis(3, 2)) - 1 == 5
        rep = build_report(pi, "hamiltonian", 2)
        assert rep.dim_list() == [5, comb(len(linear), 2)] == [5, 1]
        assert [r.rank for r in rep.rows] == [0, 0]
        assert rep.betti_list() == [5, 1]
        assert check_goldens(["square_ham_w"]) == 1

        # (b) ell=1 top classes: survive iff the algebra is unimodular
        for make, traces, top_betti in ((fx.sl2, [0, 0, 0], 1),
                                        (fx.heisenberg, [0, 0, 0], 1),
                                        (fx.solvable22, [1, -1, 0], 0)):
            structure = make()
            assert _ad_traces(structure) == traces, make.__name__
            # d into the top degree is dual to the 3-chain boundary, which
            # is the trace form up to the volume isomorphism: rank 1 iff
            # some ad x_i has nonzero trace
            forced_rank = 1 if any(traces) else 0
            assert top_betti == 1 - forced_rank
            probe = top_betti_probe(structure, "poly-bar", 1)
            assert (probe["m0"], probe["w0"]) == (3, 0), make.__name__
            assert not probe["vanishing_applies"], make.__name__
            assert probe["top_dim"] == 1 and probe["empty_above"], make.__name__
            assert probe["last_rank"] == forced_rank, make.__name__
            assert probe["top_betti"] == top_betti, make.__name__


def test_criterion_06_symplectic_plane():
    with criterion("6 (symplectic plane and annihilator subcomplex)"):
        assert check_goldens(["sympl_bar_w"]) == 3
        assert check_goldens(["sympl_ann_w"]) == 2


def test_criterion_07_euler_characteristics():
    with criterion("7 (Euler characteristics)"):
        for n in (1, 2, 3, 4):
            for w in range(0, 11):
                assert euler_combinatorial(n, 1, w) == 0
        for n in (2, 3):
            for w in range(0, 9):
                assert euler_combinatorial(n, 0, w) == 0
        assert [euler_combinatorial(3, 2, w) for w in range(1, 8)] == \
            [-3, -3, 7, 12, 15, -20, -54]
        md = poly_caps(3)
        assert [euler_combinatorial(3, 3, w) for w in range(0, 7)] == \
            [1, 0, -3, -md(2), -md(3) + comb(3, 2), -md(4) + md(1) * md(2),
             -md(5) + md(1) * md(3) + comb(md(2), 2) - comb(3, 3)]
        # the combinatorial values equal the alternating Betti sums of
        # computed complexes
        for w in range(1, 5):
            rep = build_report(fx.sl2(), "poly-bar", w)
            assert rep.euler == euler_combinatorial(3, 1, w) == \
                sum((1 if r.m % 2 == 0 else -1) * r.betti for r in rep.rows)
        for w in range(1, 8):
            rep = build_report(fx.h2_case1(), "poly-bar", w)
            assert rep.euler == euler_combinatorial(3, 2, w)
        cubic = fx.type32(3, [1, 1, 1])
        for w in range(0, 6):
            rep = build_report(cubic, "poly-bar", w)
            assert rep.euler == euler_combinatorial(3, 3, w)
        for w in (-2, -1, 0):
            rep = build_report(fx.symplectic_r2(), "poly-bar", w)
            assert rep.euler == euler_combinatorial(2, 0, w)


def test_criterion_08_poisson_like_tables():
    with criterion("8 (Poisson-like tables, fast weights)"):
        assert check_goldens(["like_h0_w"]) == 3
        assert check_goldens(["like_h1_w"]) == 4
        assert check_goldens(["like_h2_wm3", "like_h2_wm2"]) == 2


@pytest.mark.slow
def test_criterion_08_poisson_like_heaviest_row():
    with criterion("8-slow (Poisson-like weight -1, dims to 27621)"):
        assert check_goldens(["like_h2_wm1"], slow=True) == 1


def test_criterion_09_module_cohomology():
    with criterion("9 (Poisson polynomial cohomology)"):
        assert check_goldens(["pibar_mod_w"]) == 9
        for h in (0, 1, 2, 3):
            for n in (2, 3, 4):
                lo = 1 - n if h > 0 else 1
                for w in range(lo, 9):
                    assert euler_polymodule(n, h, w) == 0, (h, n, w)
        assert euler_polymodule(4, 2, -4) == 1
        assert euler_polymodule(2, 0, 0) == 1


def test_criterion_10_closed_forms():
    with criterion("10 (closed-form theorems and classical rows)"):
        for w in range(1, 7):
            rep = build_report(fx.heisenberg(), "poly-module", w)
            assert tuple(rep.row_at(m).betti for m in range(4)) == \
                heisenberg_closed_form(w)
            assert tuple(rep.row_at(m).kernel_dim for m in range(4)) == \
                heisenberg_kernel_form(w)
        for w in range(0, 7):
            rep = build_report(fx.sl2(), "poly-module", w)
            assert tuple(rep.row_at(m).betti for m in range(4)) == sp2_closed_form(w)
        assert check_goldens(["heis_mod_w", "sp2_mod_w"]) == 14
        assert check_goldens(["so4_mod_w", "sl3_mod_w", "so5_mod_w"]) == 5


def test_criterion_11_property_suites():
    with criterion("11 (always-on property suites)"):
        # d o d = 0, boundary^2 = 0, weight preservation: enforced inside
        # every report build; touch each mode once so a violation raises
        for structure, mode, w in ((fx.sl2(), "poly-bar", 2),
                                   (fx.sl2(), "poly-with-constants", 1),
                                   (fx.heisenberg(), "hamiltonian", 2),
                                   (fx.symplectic_r2(), "pi-annihilator", 0),
                                   (fx.poisson_like_h1(), "poisson-like", 1),
                                   (fx.pibar(), "poly-module", 1)):
            assert cross_check(build_report(structure, mode, w)) == []
        # cohomology equals homology per degree
        for w in (1, 2):
            assert homology_vs_cohomology_check(fx.sl2(), "poly-bar", w)
            assert homology_vs_cohomology_check(fx.heisenberg(), "poly-bar", w)
            assert homology_vs_cohomology_check(fx.heisenberg(), "hamiltonian", w)
        # with-constants additivity for the linear fixtures
        for s in (fx.sl2(), fx.heisenberg(), fx.solvable22()):
            bar = PolyContext(s, "bar")
            for w in (0, 1, 2):
                for m in range(0, 7):
                    without, with_delta = with_constants_split(s, m, w)
                    assert without == len(build_basis(bar, m, w))
                    assert with_delta == len(build_basis(bar, m - 1, w + 1))
        # normal form: idempotent with kernel exactly the Casimir span
        rng = random.Random(1)
        for s, j in ((fx.sl2(), 2), (fx.sl2(), 4), (fx.heisenberg(), 3)):
            cb = casimir_space(s, j)
            basis = mono_basis(s.n, j)
            for f in cb.basis:
                assert normal_form(cb, f).is_zero()
            for _ in range(10):
                g = RatPoly(s.n, {a: Fraction(rng.randint(-3, 3))
                                  for a in rng.sample(basis, 4)})
                r = normal_form(cb, g)
                assert normal_form(cb, r) == r
        # graded symmetry of the Schouten bracket on random multivectors
        from test_poisson import rand_multivector
        for _ in range(10):
            p_deg, q_deg = rng.randint(1, 2), rng.randint(1, 2)
            p = rand_multivector(rng, 3, p_deg)
            q = rand_multivector(rng, 3, q_deg)
            sign = -1 if ((p_deg + 1) * (q_deg + 1)) % 2 else 1
            assert schouten(q, p) == schouten(p, q).scale(-sign)
        # partition recursion against brute force
        from test_diagrams import brute_partitions
        for area in range(0, 21):
            for height in range(1, area + 1):
                assert nabla(area, height) == brute_partitions(area, height)
        # fraction-free rank against the dense oracle
        from test_linalg import dense_rank, random_matrix
        for _ in range(200):
            m = random_matrix(rng)
            assert rank_kernel(m).rank == dense_rank(m.entries, m.n_rows, m.n_cols)
