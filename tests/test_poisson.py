import hashlib
import itertools
import os
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from poisson_cohom import fixtures as fx
from poisson_cohom.algebra import RatPoly, mono_basis, parse_poly
from poisson_cohom.poisson import (GradedMultiVector, MultiVector,
                                   PoissonStructure, StructureFileError,
                                   jacobi_check, parse_structure, phi_flatten,
                                   r_schouten, schouten, wedge2)


# ----------------------------------------------------------------------
# Structure families, a closed-form Jacobi test, the cyclic-sum Jacobi
# oracle, the signed entry table and the rational 2-vector and graded lift
# that only tests use
# ----------------------------------------------------------------------

def entry(self: PoissonStructure, i: int, j: int) -> RatPoly:
    """p_ij with the sign convention p_ji = -p_ij, p_ii = 0."""
    if i == j:
        return RatPoly.zero(self.n)
    if i < j:
        return self.p.get((i, j), RatPoly.zero(self.n))
    return -self.p.get((j, i), RatPoly.zero(self.n))


def as_multivector(pi: PoissonStructure) -> MultiVector:
    """The 2-vector sum_{i<j} p_ij d_i ^ d_j with rational coefficients."""
    return pi.two_vector.scale(Fraction(1, pi.denom))


def oracle_jacobi_check(pi: PoissonStructure):
    """(True, None) if the cyclic sum {x_i, p_jk} + {x_j, p_ki} + {x_k, p_ij}
    vanishes identically for every i < j < k, else (False, ((i, j, k),
    residual))."""
    n = pi.n
    for i, j, k in itertools.combinations(range(n), 3):
        res = RatPoly.zero(n)
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            res = res + pi.bracket(RatPoly.var(n, c), entry(pi, a, b))
        if not res.is_zero():
            return False, ((i, j, k), res)
    return True, None


def type2(phi_text: str, f_text: str, g_text: str) -> PoissonStructure:
    """phi * d1 ^ (f d2 + g d3) on R^3 with f, g polynomials in x2, x3 only;
    such tensors always satisfy the Jacobi identity."""
    n = 3
    phi = parse_poly(phi_text, n)
    f, g = parse_poly(f_text, n), parse_poly(g_text, n)
    for poly in (f, g):
        if any(a[0] for a in poly.terms):
            raise ValueError("fields must not involve x1")
    entries = {(0, 1): phi * f, (0, 2): phi * g}
    h = (phi * f).degree() if not (phi * f).is_zero() else (phi * g).degree()
    return PoissonStructure(n, h, entries, name="type2")


def type31(n: int, p: int, cs) -> PoissonStructure:
    """sum_{i<j} c_ij x_i^p d_i ^ x_j^p d_j with cs[(i, j)] 1-based."""
    entries = {}
    for (i, j), c in cs.items():
        poly = RatPoly.monomial(tuple(p if k in (i - 1, j - 1) else 0 for k in range(n)), c)
        entries[(i - 1, j - 1)] = poly
    return PoissonStructure(n, 2 * p, entries, name="type31")


def verify_linear_candidate(cs) -> bool:
    """Check the three quadratic conditions for a 1-homogeneous 2-vector
    on R^3 written with coefficients c1..c9 as

        (c1 x1 + c2 x2 + c3 x3) d1^d2 + (c4 x1 + c5 x2 + c6 x3) d2^d3
        + (c7 x1 + c8 x2 + c9 x3) d3^d1.
    """
    c = [Fraction(0)] + [Fraction(v) for v in cs]
    if len(c) != 10:
        raise ValueError("need exactly 9 coefficients")
    eq1 = c[1] * c[5] - c[2] * c[4] + c[4] * c[9] - c[6] * c[7]
    eq2 = c[1] * c[8] - c[2] * c[7] + c[5] * c[9] - c[6] * c[8]
    eq3 = c[1] * c[9] - c[2] * c[6] + c[3] * c[5] - c[3] * c[7]
    return eq1 == 0 and eq2 == 0 and eq3 == 0


def graded_from_multivector(m: MultiVector) -> GradedMultiVector:
    """Lift c * w^A d_I to the graded side, with w^A on the first slot."""
    out = GradedMultiVector(m.n, m.degree)
    zero = tuple([0] * m.n)
    for (a, axes), c in m.terms.items():
        factors = tuple([(a if k == 0 else zero, ax) for k, ax in enumerate(axes)])
        out.add_term(factors, c)
    return out


def rand_poly(rng, n, max_deg=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        deg = rng.randint(0, max_deg)
        a = rng.choice(mono_basis(n, deg))
        terms[a] = Fraction(rng.randint(-3, 3))
    return RatPoly(n, terms)


# ----------------------------------------------------------------------
# jacobi_check
# ----------------------------------------------------------------------

def test_constant_structure_always_jacobi():
    ok, cert = jacobi_check(fx.constant_r3())
    assert ok and cert is None


def test_sl2_jacobi():
    assert jacobi_check(fx.sl2())[0]


def test_type2_with_x1_coefficient_fails():
    # d1 ^ (x1 d2 + x2 d3) violates the cross-derivative condition
    bad = PoissonStructure(3, 1, {(0, 1): parse_poly("x1", 3),
                                  (0, 2): parse_poly("x2", 3)}, check=False)
    ok, cert = jacobi_check(bad)
    assert not ok
    (i, j, k), res = cert
    assert (i, j, k) == (0, 1, 2)
    assert not res.is_zero()


def test_structure_families_are_poisson():
    assert jacobi_check(fx.type32(2, [1, 1, 1]))[0]
    assert jacobi_check(type31(3, 1, {(1, 2): 1, (2, 3): -2}))[0]
    assert jacobi_check(type2("x2", "x2^2", "x2*x3 - x3^2"))[0]
    assert jacobi_check(type2("1", "x3", "x2"))[0]
    with pytest.raises(ValueError):
        type2("1", "x1", "x2")
    for make in (fx.so3, fx.h2_case1, fx.h2_case2, fx.h2_case3, fx.pibar,
                 fx.square_bracket, fx.sl2_r4, fx.so4, fx.sl3, fx.so5):
        assert jacobi_check(make())[0]


@st.composite
def random_structures(draw, min_n: int = 3):
    """Unchecked structures, n min_n..5 and h 0..3, each entry zero or up
    to two h-homogeneous monomials with rational coefficients."""
    n, h = draw(st.integers(min_n, 5)), draw(st.integers(0, 3))
    monos = mono_basis(n, h)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entries = {pair: RatPoly(n, draw(st.dictionaries(st.sampled_from(monos), coeffs,
                                                     max_size=2)))
               for pair in itertools.combinations(range(n), 2)}
    return PoissonStructure(n, h, entries, check=False)


@settings(max_examples=200, deadline=None, database=None)
@given(random_structures())
def test_jacobi_check_matches_cyclic_sum_oracle(pi):
    """The Schouten self-bracket check names the same first failing triple
    and the same residual as the cyclic sum of brackets."""
    assert jacobi_check(pi) == oracle_jacobi_check(pi)


def test_loader_rejects_jacobi_failure():
    text = "n = 3\nh = 1\np 1 2 = x1\np 1 3 = x2\n"
    with pytest.raises(ValueError):
        parse_structure(text)
    assert parse_structure(text, check=False) is not None


def test_loader_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        parse_structure("n = 3\nh = 1\np 1 2 = x1 + x1^2\n")


# ----------------------------------------------------------------------
# verify_linear_candidate
# ----------------------------------------------------------------------

def test_linear_candidate_zero_and_sl2():
    assert verify_linear_candidate([0] * 9)
    # sl2: p12 = x3, p23 = 2 x2, p31 = 2 x1
    assert verify_linear_candidate([0, 0, 1, 0, 2, 0, 2, 0, 0])


def test_linear_candidate_violation():
    assert not verify_linear_candidate([1, 0, 0, 0, 1, 0, 0, 0, 0])


def test_linear_candidate_matches_jacobi_check():
    rng = random.Random(99)
    agree = 0
    for _ in range(60):
        cs = [rng.randint(-2, 2) for _ in range(9)]
        x1, x2, x3 = (parse_poly(t, 3) for t in ("x1", "x2", "x3"))
        p12 = x1.scale(cs[0]) + x2.scale(cs[1]) + x3.scale(cs[2])
        p23 = x1.scale(cs[3]) + x2.scale(cs[4]) + x3.scale(cs[5])
        p31 = x1.scale(cs[6]) + x2.scale(cs[7]) + x3.scale(cs[8])
        entries = {(0, 1): p12, (1, 2): p23, (0, 2): -p31}
        pi = PoissonStructure(3, 1, entries, check=False)
        assert verify_linear_candidate(cs) == jacobi_check(pi)[0]
        agree += 1
    assert agree == 60


# ----------------------------------------------------------------------
# poisson_bracket
# ----------------------------------------------------------------------

def test_sl2_bracket_example():
    s = fx.sl2()
    got = s.bracket(parse_poly("x1", 3), parse_poly("x2*x3", 3))
    assert got == parse_poly("x3^2 - 2*x1*x2", 3)


def test_bracket_antisymmetry_and_jacobi_random():
    rng = random.Random(4)
    s = fx.sl2()
    for _ in range(15):
        f, g, kpoly = (rand_poly(rng, 3, 3) for _ in range(3))
        assert s.bracket(f, f).is_zero()
        assert (s.bracket(f, g) + s.bracket(g, f)).is_zero()
        cyc = (s.bracket(f, s.bracket(g, kpoly))
               + s.bracket(g, s.bracket(kpoly, f))
               + s.bracket(kpoly, s.bracket(f, g)))
        assert cyc.is_zero()


def test_heisenberg_center():
    h = fx.heisenberg()
    assert h.bracket(parse_poly("x1", 3), parse_poly("x2", 3)) == parse_poly("x3", 3)
    rng = random.Random(2)
    for _ in range(5):
        assert h.bracket(parse_poly("x3", 3), rand_poly(rng, 3)).is_zero()


def test_bracket_degree_shift():
    # h-homogeneous inputs of degree a, b land in degree a + b + h - 2
    for s in (fx.sl2(), fx.h2_case1(), fx.symplectic_r2()):
        rng = random.Random(8)
        for _ in range(10):
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            f = RatPoly.monomial(rng.choice(mono_basis(s.n, a)))
            g = RatPoly.monomial(rng.choice(mono_basis(s.n, b)))
            br = s.bracket(f, g)
            if not br.is_zero():
                assert br.is_homogeneous()
                assert br.degree() == a + b + s.h - 2


def test_bracket_matches_partial_derivative_formula():
    """The monomial bracket, extended bilinearly, agrees with
    sum_{i<j} p_ij (d_i f d_j g - d_j f d_i g) computed in RatPoly
    arithmetic; h2_case1 has structure denominator 2."""
    rng = random.Random(21)
    for s in (fx.sl2(), fx.symplectic_r2(), fx.h2_case1()):
        for _ in range(10):
            f = rand_poly(rng, s.n, 3, 4)
            g = rand_poly(rng, s.n, 3, 4)
            expect = RatPoly.zero(s.n)
            for (i, j), pij in s.p.items():
                expect = expect + pij * (f.partial(i) * g.partial(j)
                                         - f.partial(j) * g.partial(i))
            assert s.bracket(f, g) == expect, s.name
    assert fx.h2_case1().denom == 2


# ----------------------------------------------------------------------
# Schouten brackets
# ----------------------------------------------------------------------

def test_schouten_of_vector_and_function():
    # [X, f] = <X, df>
    n = 3
    x = MultiVector(n, 1, {((0, 0, 0), (0,)): 1})
    f = MultiVector(n, 0, {((2, 0, 0), ()): 1})
    out = schouten(x, f)
    assert out == MultiVector(n, 0, {((1, 0, 0), ()): 2})


def test_self_bracket_detects_jacobi():
    for name in fx.builtin_names():
        s = fx.load_structure("builtin:" + name)
        if not isinstance(s, PoissonStructure):
            continue
        mv = as_multivector(s)
        assert schouten(mv, mv).is_zero(), name
    bad = PoissonStructure(3, 1, {(0, 1): parse_poly("x1", 3),
                                  (0, 2): parse_poly("x2", 3)}, check=False)
    assert not schouten(as_multivector(bad), as_multivector(bad)).is_zero()


def test_self_bracket_coordinate_formula():
    """[pi, pi] agrees with the cyclic coordinate expression
    sum_{i,j,k,l} p_il (d_l p_jk) d_i ^ d_j ^ d_k."""
    structures = [fx.sl2(), fx.h2_case3(),
                  PoissonStructure(3, 1, {(0, 1): parse_poly("x1", 3),
                                          (0, 2): parse_poly("x2", 3)}, check=False)]
    for s in structures:
        n = s.n
        mv = as_multivector(s)
        expect = MultiVector(n, 3)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for lam in range(n):
                        term = entry(s, i, lam) * entry(s, j, k).partial(lam)
                        for a, c in term.terms.items():
                            expect.add_term(a, (i, j, k), c)
        assert schouten(mv, mv) == expect, s.name


def rand_multivector(rng, n, degree, max_poly_deg=2, nterms=3):
    mv = MultiVector(n, degree)
    for _ in range(nterms):
        a = rng.choice(mono_basis(n, rng.randint(0, max_poly_deg)))
        axes = tuple(sorted(rng.sample(range(n), degree)))
        mv.add_term(a, axes, Fraction(rng.randint(-2, 2)))
    return mv


def test_schouten_graded_symmetry_and_jacobi():
    rng = random.Random(31)
    n = 3
    for _ in range(20):
        p_deg, q_deg, r_deg = (rng.randint(1, 2) for _ in range(3))
        p = rand_multivector(rng, n, p_deg)
        q = rand_multivector(rng, n, q_deg)
        r = rand_multivector(rng, n, r_deg)
        sign = -1 if ((p_deg + 1) * (q_deg + 1)) % 2 else 1
        lhs = schouten(q, p)
        rhs = schouten(p, q).scale(-sign)
        assert lhs == rhs
        # graded Jacobi: [P,[Q,R]] = [[P,Q],R] + (-1)^{(p+1)(q+1)} [Q,[P,R]]
        left = schouten(p, schouten(q, r))
        right = schouten(schouten(p, q), r) + schouten(q, schouten(p, r)).scale(sign)
        assert left == right


def test_r_schouten_poisson_like_fixtures():
    for make in (fx.poisson_like_h0, fx.poisson_like_h1, fx.poisson_like_h2):
        u = make()
        assert r_schouten(u, u).is_zero()


def test_r_schouten_graded_symmetry_random():
    rng = random.Random(77)
    n = 3

    def rand_graded(degree):
        g = GradedMultiVector(n, degree)
        for _ in range(3):
            factors = tuple((rng.choice(mono_basis(n, rng.randint(0, 2))), rng.randrange(n))
                            for _ in range(degree))
            g.add_term(factors, Fraction(rng.randint(-2, 2)))
        return g

    for _ in range(20):
        p_deg, q_deg = rng.randint(1, 2), rng.randint(1, 2)
        p, q = rand_graded(p_deg), rand_graded(q_deg)
        sign = -1 if ((p_deg + 1) * (q_deg + 1)) % 2 else 1
        assert r_schouten(q, p) == r_schouten(p, q).scale(-sign)
        # the flattening intertwines the two brackets
        assert phi_flatten(r_schouten(p, q)) == schouten(phi_flatten(p), phi_flatten(q))


def test_lift_of_sl2_has_nonzero_self_bracket():
    """The factor-wise lift of the sl2 tensor is not Poisson-like, and its
    quarter self-bracket has the five expected canonical terms."""
    n = 3
    one = RatPoly.const(n, 1)
    phi = (wedge2([(one, 0)], [(parse_poly("x3", n), 1)], n)
           + wedge2([(one, 0)], [(parse_poly("x1", n), 2)], n).scale(-2)
           + wedge2([(one, 1)], [(parse_poly("x2", n), 2)], n).scale(2))
    assert phi_flatten(phi) == as_multivector(fx.sl2())
    sb = r_schouten(phi, phi).scale(Fraction(1, 4))
    assert not sb.is_zero()
    # flattening must kill it, since the flattened structure is Poisson
    assert phi_flatten(sb).is_zero()
    z = (0, 0, 0)
    expected = GradedMultiVector(n, 3, {
        ((z, 0), (z, 2), ((0, 0, 1), 1)): Fraction(1),
        ((z, 0), (z, 2), ((1, 0, 0), 2)): Fraction(-2),
        ((z, 1), (z, 2), ((0, 1, 0), 2)): Fraction(-2),
        ((z, 0), (z, 1), ((0, 0, 1), 2)): Fraction(1),
        ((z, 0), (z, 1), ((0, 1, 0), 1)): Fraction(-1),
    })
    assert sb == expected


def test_phi_flatten_collapses_repeated_axis():
    n = 3
    g = GradedMultiVector(n, 2, {(((1, 0, 0), 0), ((2, 0, 0), 0)): 1})
    assert not g.is_zero()
    assert phi_flatten(g).is_zero()


def test_phi_flatten_fixture_image():
    assert phi_flatten(fx.poisson_like_h2()) == as_multivector(fx.pibar())
    assert phi_flatten(fx.poisson_like_h0()) == as_multivector(fx.constant_r3())


def test_graded_lift_round_trip():
    mv = as_multivector(fx.pibar())
    assert phi_flatten(graded_from_multivector(mv)) == mv


def test_structure_file_round_trip():
    """parse_structure(serialize(s)) is s for every built-in structure:
    a Poisson one with its integer terms and denominator, a Poisson-like
    one with its dimension and degree."""
    names = fx.builtin_names()
    assert len(names) == 18
    for name in names:
        s = fx.load_structure("builtin:" + name)
        again = parse_structure(s.serialize())
        if isinstance(s, PoissonStructure):
            assert (again.n, again.h, again.p) == (s.n, s.h, s.p), name
            assert (sorted(again.terms), again.denom) == (sorted(s.terms), s.denom), name
        else:
            assert again == s and again.poly_degree() == s.poly_degree(), name
        assert again.serialize() == s.serialize(), name


_rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def random_poisson_structures(draw):
    """A PoissonStructure with n <= 4 and h <= 2 whose entries are random
    h-homogeneous polynomials with rational coefficients, some of them
    zero; the Jacobi identity is not asked for."""
    n, h = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    monos = mono_basis(n, h)
    entries = {(i, j): RatPoly(n, draw(st.dictionaries(st.sampled_from(monos), _rationals,
                                                       max_size=3)))
               for i in range(n) for j in range(i + 1, n)}
    return PoissonStructure(n, h, entries, check=False)


@st.composite
def random_graded_two_vectors(draw):
    """A nonzero GradedMultiVector 2-vector with n <= 4 whose terms
    w^A d_i ^ w^B d_j have |A| + |B| = h <= 2 and rational coefficients."""
    n, h = draw(st.integers(1, 4)), draw(st.integers(0, 2))

    def gen(degree):
        return st.tuples(st.sampled_from(mono_basis(n, degree)), st.integers(0, n - 1))

    split = st.integers(0, h).flatmap(lambda k: st.tuples(gen(k), gen(h - k)))
    g = GradedMultiVector(n, 2, draw(st.dictionaries(split, _rationals, min_size=1,
                                                     max_size=4)))
    assume(not g.is_zero())
    return g


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(random_poisson_structures(), random_graded_two_vectors()))
def test_random_structure_file_round_trip(s):
    """parse_structure(serialize(s), check=False) is s for random
    structures: a Poisson one with its entries, integer terms and
    denominator, a Poisson-like one with its value and degree, and the
    text again the same."""
    again = parse_structure(s.serialize(), check=False)
    assert type(again) is type(s)
    if isinstance(s, PoissonStructure):
        assert (again.n, again.h, again.p) == (s.n, s.h, s.p)
        assert (sorted(again.terms), again.denom) == (sorted(s.terms), s.denom)
    else:
        assert again == s and again.poly_degree() == s.poly_degree()
    assert again.serialize() == s.serialize()


def test_packaged_structure_files_match_their_builtins():
    """Each sample file shipped in structures/ loads to the builtin of
    its name: the same file text, and for a p file the same integer
    terms over the same denominator."""
    folder = os.path.join(os.path.dirname(fx.__file__), "structures")
    files = sorted(f for f in os.listdir(folder) if f.endswith(".poisson"))
    assert len(files) == 5
    for f in files:
        got = fx.load_structure(os.path.join(folder, f))
        want = fx.load_structure("builtin:" + f[:-len(".poisson")])
        assert got.serialize() == want.serialize(), f
        if isinstance(want, PoissonStructure):
            assert (sorted(got.terms), got.denom) == (sorted(want.terms), want.denom), f


def test_v_line_parsing():
    text = "n = 3\nh = 1\nv 1 d1 - 1 d3 ; x1*d3 + x3*d3\n"
    g = parse_structure(text)
    assert g == fx.poisson_like_h1()
    with pytest.raises(StructureFileError):
        parse_structure("n = 3\nh = 1\nv d1 ; d2 ; d3\n")


@pytest.mark.parametrize("grouped, expanded", [
    ("(x1 + x2)*d3 ; d1", "x1*d3 + x2*d3 ; d1"),
    ("(x1 - x2)*d3 ; d1", "x1*d3 - x2*d3 ; 1 d1"),
])
def test_v_line_fields_use_the_polynomial_grammar(grouped, expanded):
    """A field is a polynomial expression in x1..xn and d1..dn, so a
    parenthesised coefficient equals its expansion."""
    head = "n = 3\nh = 1\nv "
    got = parse_structure(head + grouped + "\n", check=False)
    assert got == parse_structure(head + expanded + "\n", check=False)
    assert len(got.terms) == 2


def test_v_line_structure_file_is_stable():
    path = os.path.join(os.path.dirname(fx.__file__), "structures", "poisson_like_h1.poisson")
    assert fx.load_structure(path).serialize() == (
        "n = 3\nh = 1\n"
        "v 1 : 1*d1 ; x1*d3\nv 1 : 1*d1 ; x3*d3\n"
        "v -1 : 1*d3 ; x1*d3\nv -1 : 1*d3 ; x3*d3\n")


def test_graded_serialize_round_trip():
    for make in (fx.poisson_like_h1, fx.poisson_like_h2):
        g = make()
        assert parse_structure(g.serialize()) == g
        assert g.serialize() == make().serialize()  # stable for caching


def test_graded_serialize_rational_coefficient_round_trip():
    """A v coefficient is read by the polynomial grammar, so serialize's
    rational coefficients such as -1/2 parse back equal, and any constant
    expression of that grammar means the same number."""
    g = fx.poisson_like_h1().scale(Fraction(-1, 2))
    text = g.serialize()
    assert "v -1/2 : " in text
    assert parse_structure(text) == g
    head = "n = 3\nh = 1\nv %s : d1 ; x1*d3\n"
    assert (parse_structure(head % "2*(1/4)", check=False)
            == parse_structure(head % "1/2", check=False))


# ----------------------------------------------------------------------
# Lie-Poisson structures from matrix bases
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name, digest", [
    ("so4", "c74e9e945cee4ead5e375928b3181bbd71302b77f9cb26a7f87bd8f709bbaf48"),
    ("so5", "2bf295c4ae35e4746973c5166a65e56094720addb7511f9c73df493d8b6c7cf0"),
    ("sl3", "c302cc75ac4c981b4f85bf8982e377feb195da7f858bb1b54c93624b372202db"),
])
def test_matrix_lie_poisson_structures_are_stable(name, digest):
    """sha256 of serialize(), recorded from the structure constants solved
    by a dense Fraction Gauss-Jordan elimination; golden and cache keys
    depend on these texts."""
    text = fx.load_structure("builtin:" + name).serialize()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_matrix_basis_not_closed_under_commutator():
    # [E12, E21] = diag(1, -1) is not in the span of E12 and E21
    e12, e21 = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
    with pytest.raises(ValueError, match="span"):
        fx.lie_poisson_from_matrices([e12, e21], "not_closed")
