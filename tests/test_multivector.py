import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from poisson_cohom import fixtures as fx
from poisson_cohom.algebra import mono_basis
from poisson_cohom.cli import _golden_paths, parse_golden
from poisson_cohom.diagrams import euler_polymodule
from poisson_cohom.engine import build_report
from poisson_cohom.linalg import SparseMatrix
from poisson_cohom.multivector import (heisenberg_closed_form,
                                       heisenberg_kernel_form,
                                       poly_module_basis, poly_module_matrix,
                                       sp2_closed_form, top_betti_probe)
from poisson_cohom.poisson import (GradedMultiVector, MultiVector,
                                   PoissonStructure, phi_flatten, r_schouten,
                                   schouten)

from test_poisson import random_structures


def oracle_poly_module_matrix(pi: PoissonStructure, src: list, tgt: list) -> SparseMatrix:
    """Matrix of u -> [pi, u] between module bases.  pi.two_vector is the
    structure's integer terms over pi.denom, so the Schouten brackets and
    the assembly run in integers over that one denominator."""
    n = pi.n
    index = {key: row for row, key in enumerate(tgt)}
    cols = []
    for a, axes in src:
        image = schouten(pi.two_vector, MultiVector(n, len(axes), {(a, axes): 1})).terms
        rows = [index.get(key) for key in image]
        if None in rows:
            raise AssertionError("module differential left the weight basis")
        cols.append(dict(zip(rows, image.values())))
    return SparseMatrix(len(tgt), cols, pi.denom)


def commuting_square_holds(pi_like: GradedMultiVector, gen) -> bool:
    """Check the square on one graded generator: flattening then bracketing
    with the flattened structure equals bracketing then flattening."""
    n = pi_like.n
    one_slot = GradedMultiVector(n, 1, {(gen,): Fraction(1)})
    left = schouten(phi_flatten(pi_like), phi_flatten(one_slot))
    right = phi_flatten(r_schouten(pi_like, one_slot))
    return left == right


def _module_maps(pi: PoissonStructure, w: int):
    """(src, tgt) for every map of the weight-w module complex, as
    engine._module_complex builds them."""
    bases = [poly_module_basis(pi.n, pi.h, m, w) for m in range(pi.n + 2)]
    return [(bases[m], bases[m + 1]) for m in range(pi.n + 1) if bases[m]]


def _assert_same(pi: PoissonStructure, src: list, tgt: list) -> None:
    """The derivation-rule matrix equals the Schouten oracle's in shape,
    denominator and every column's items in order."""
    got = poly_module_matrix(pi, src, tgt)
    want = oracle_poly_module_matrix(pi, src, tgt)
    assert (got.n_rows, got.n_cols, got.denom) == (want.n_rows, want.n_cols, want.denom)
    assert [list(c.items()) for c in got.cols] == [list(c.items()) for c in want.cols], \
        (pi, len(src), len(tgt))


def _assert_matches_oracle(pi: PoissonStructure, w: int) -> int:
    """_assert_same on every map of the weight-w complex; the count of maps."""
    maps = _module_maps(pi, w)
    for src, tgt in maps:
        _assert_same(pi, src, tgt)
    return len(maps)


def test_module_matrix_matches_oracle_on_goldens():
    """Every map of every poly-module golden."""
    goldens = count = 0
    for path in _golden_paths(None):
        with open(path) as fh:
            spec = parse_golden(fh.read())
        if spec["mode"] == "poly-module":
            goldens += 1
            count += _assert_matches_oracle(fx.load_structure(spec["structure"]), spec["weight"])
    assert goldens == 28 and count > 100


@pytest.mark.parametrize("make, weights", [
    (fx.sl2, range(0, 9)),  # exponent 8 sets the top bit of a 4-bit field
    (fx.sl2_r4, range(0, 5)),
    (fx.heisenberg, range(0, 5)),
    (fx.pibar, range(-3, 2)),
])
def test_module_matrix_matches_oracle_on_weights(make, weights):
    pi = make()
    for w in weights:
        _assert_matches_oracle(pi, w)


@st.composite
def random_module_maps(draw):
    """(pi, src, tgt): an unchecked 2-vector of random_structures, n 2..5,
    whose integer terms have a denominator above 1, and its map from a
    degree m with source polynomial degree p <= 4 (the bracket [pi, u]
    is defined whether or not pi is Poisson)."""
    pi = draw(random_structures(min_n=2))
    assume(pi.denom > 1)
    m, p = draw(st.integers(0, pi.n)), draw(st.integers(0, 4))
    w = p - (pi.h - 1) * m
    return pi, poly_module_basis(pi.n, pi.h, m, w), poly_module_basis(pi.n, pi.h, m + 1, w)


@settings(max_examples=120, deadline=None, database=None)
@given(random_module_maps())
def test_module_matrix_matches_oracle_on_random_two_vectors(case):
    _assert_same(*case)


def test_module_matrix_raises_on_a_missing_target_word():
    """A placement outside tgt raises, for a word the map does hit."""
    pi = fx.sl2()
    src, tgt = _module_maps(pi, 2)[1]
    hit = next(iter(poly_module_matrix(pi, src, tgt).cols[0]))
    with pytest.raises(AssertionError, match="module differential left the weight basis"):
        poly_module_matrix(pi, src, tgt[:hit] + tgt[hit + 1:])


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
