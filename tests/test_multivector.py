import random
from fractions import Fraction
from math import comb

import pytest

from poisson_cohom import fixtures as fx
from poisson_cohom.algebra import mono_basis
from poisson_cohom.diagrams import euler_polymodule
from poisson_cohom.engine import build_report
from poisson_cohom.multivector import (heisenberg_closed_form,
                                       heisenberg_kernel_form,
                                       poly_module_basis, sp2_closed_form,
                                       top_betti_probe)
from poisson_cohom.poisson import (GradedMultiVector, phi_flatten, r_schouten,
                                   schouten)


def commuting_square_holds(pi_like: GradedMultiVector, gen) -> bool:
    """Check the square on one graded generator: flattening then bracketing
    with the flattened structure equals bracketing then flattening."""
    n = pi_like.n
    one_slot = GradedMultiVector(n, 1, {(gen,): Fraction(1)})
    left = schouten(phi_flatten(pi_like), phi_flatten(one_slot))
    right = phi_flatten(r_schouten(pi_like, one_slot))
    return left == right


def test_module_basis_counts():
    for n, h, m, w in ((3, 2, 2, 1), (3, 1, 1, 2), (4, 1, 3, 0)):
        b = poly_module_basis(n, h, m, w)
        p = w + (h - 1) * m
        assert len(b) == comb(n - 1 + p, n - 1) * comb(n, m)
    assert len(poly_module_basis(3, 0, 2, 1)) == 0  # negative polynomial degree


def test_heisenberg_module_kernel_at_degree_zero():
    # the closed 0-cochains of weight w are spanned by the single monomial
    # of the central variable
    rep = build_report(fx.heisenberg(), "poly-module", 3)
    assert rep.row_at(0).kernel_dim == 1


def test_heisenberg_closed_forms_match_computation():
    for w in range(0, 7):
        rep = build_report(fx.heisenberg(), "poly-module", w)
        assert tuple(rep.row_at(m).betti for m in range(4)) == heisenberg_closed_form(w)
        if w >= 1:
            got = tuple(rep.row_at(m).kernel_dim for m in range(4))
            assert got == heisenberg_kernel_form(w)


def test_sp2_closed_form_match():
    for w in range(0, 7):
        rep = build_report(fx.sl2(), "poly-module", w)
        assert tuple(rep.row_at(m).betti for m in range(4)) == sp2_closed_form(w)


def test_closed_form_values():
    assert heisenberg_closed_form(1) == (1, 4, 5, 2)
    assert heisenberg_closed_form(0) == (1, 2, 2, 1)
    assert heisenberg_closed_form(2) == (1, 5, 7, 3)
    assert sp2_closed_form(3) == (0, 0, 0, 0)
    assert sp2_closed_form(0) == (1, 0, 0, 1)
    assert sp2_closed_form(4) == (1, 0, 0, 1)
    with pytest.raises(ValueError):
        heisenberg_closed_form(-1)


def test_module_euler_matches_combinatorial():
    for s in (fx.pibar(), fx.heisenberg(), fx.sl2()):
        for w in range(-3, 5):
            rep = build_report(s, "poly-module", w)
            assert rep.euler == euler_polymodule(s.n, s.h, w), (s.name, w)


def test_module_rejects_non_poisson():
    from poisson_cohom.algebra import parse_poly
    from poisson_cohom.poisson import PoissonStructure
    bad = PoissonStructure(3, 1, {(0, 1): parse_poly("x1", 3),
                                  (0, 2): parse_poly("x2", 3)}, check=False)
    with pytest.raises(ValueError):
        build_report(bad, "poly-module", 1)


def test_commuting_square_on_generators():
    pi = fx.poisson_like_h2()
    rng = random.Random(13)
    gens = [(a, i) for d in (0, 1, 2) for a in mono_basis(3, d) for i in range(3)]
    for gen in rng.sample(gens, 12):
        assert commuting_square_holds(pi, gen)


def test_top_betti_probe_h2_cases():
    for make in (fx.h2_case1, fx.h2_case2, fx.h2_case3, fx.square_bracket):
        for mode in ("poly-bar", "hamiltonian"):
            for ell in (1, 2):
                if make is fx.square_bracket and mode == "hamiltonian":
                    continue  # zero quotient bracket; top class survives
                probe = top_betti_probe(make(), mode, ell)
                assert probe["top_dim"] == 1
                assert probe["empty_above"]
                assert probe["top_betti"] == 0, (make.__name__, mode, ell)


def test_top_betti_probe_h1_fixtures():
    for make in (fx.sl2, fx.heisenberg):
        for mode in ("poly-bar", "hamiltonian"):
            for ell in (1, 2):
                probe = top_betti_probe(make(), mode, ell)
                assert probe["top_dim"] == 1
                assert probe["empty_above"]
                if ell >= 2:
                    assert probe["vanishing_applies"] and probe["top_betti"] == 0
                else:
                    # the weight-0 complex of a linear structure is the
                    # finite-dimensional one; its top class survives for
                    # these unimodular examples
                    assert probe["top_betti"] == 1


def test_square_bracket_probe_reports_surviving_class():
    probe = top_betti_probe(fx.square_bracket(), "hamiltonian", 1)
    assert probe["top_dim"] == 1 and probe["empty_above"]
    assert probe["last_rank"] == 0 and probe["top_betti"] == 1


def test_probe_rejects_trivial_structure():
    from poisson_cohom.poisson import PoissonStructure
    with pytest.raises(ValueError):
        top_betti_probe(PoissonStructure(3, 1, {}), "poly-bar", 1)


@pytest.mark.parametrize("mode", ["poly-with-constants", "nonsense"])
def test_probe_rejects_unsupported_mode(mode):
    with pytest.raises(ValueError, match="poly-bar and hamiltonian"):
        top_betti_probe(fx.sl2(), mode, 1)
