import random
from fractions import Fraction
from math import comb

import pytest

from poisson_cohom.algebra import (MAX_PRODUCT_TERMS, PolyParseError, RatPoly,
                                   format_poly, grevlex_key, mono_basis, parse_poly)


def test_mono_basis_degree_one_is_unit_vectors():
    assert mono_basis(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_mono_basis_counts():
    assert len(mono_basis(3, 2)) == 6
    assert mono_basis(1, 5) == [(5,)]
    for n in (1, 2, 3, 4):
        for j in range(0, 7):
            basis = mono_basis(n, j)
            assert len(basis) == comb(n - 1 + j, j)
            assert len(set(basis)) == len(basis)
            keys = [grevlex_key(a) for a in basis]
            assert keys == sorted(keys, reverse=True)


def test_mono_basis_is_built_once_per_degree():
    """One shared table per (n, j); a rejected size is not remembered."""
    assert mono_basis(3, 4) is mono_basis(3, 4)
    for _ in range(2):
        with pytest.raises(ValueError):
            mono_basis(0, 1)
        with pytest.raises(ValueError):
            mono_basis(2, -1)


def test_grevlex_classic_order():
    # x1^2 > x1 x2 > x2^2 > x1 x3 > x2 x3 > x3^2
    assert mono_basis(3, 2) == [(2, 0, 0), (1, 1, 0), (0, 2, 0),
                                (1, 0, 1), (0, 1, 1), (0, 0, 2)]


def test_poly_mul_simple():
    x1 = RatPoly.var(3, 0)
    x2 = RatPoly.var(3, 1)
    assert (x1 * x2).terms == {(1, 1, 0): Fraction(1)}
    p = parse_poly("4*x1*x2 + x3^2", 3)
    assert p * RatPoly.const(3, 1) == p


def test_poly_square_hand_expanded():
    p = parse_poly("2*x1*x2 + 1/2*x3^2", 3)
    assert p * p == parse_poly("4*x1^2*x2^2 + 2*x1*x2*x3^2 + 1/4*x3^4", 3)


def test_partial():
    p = parse_poly("x3^2", 3)
    assert p.partial(2) == parse_poly("2*x3", 3)
    q = parse_poly("4*x1*x2 + x3^2", 3)
    assert q.partial(0) == parse_poly("4*x2", 3)
    assert parse_poly("x1^3", 3).partial(1).is_zero()


def test_partial_integrate_round_trip():
    # integrating the derivative recovers monomials with positive exponent
    rng = random.Random(7)
    for _ in range(30):
        a = tuple(rng.randint(0, 3) for _ in range(3))
        i = rng.randrange(3)
        if a[i] == 0:
            continue
        mono = RatPoly.monomial(a)
        d = mono.partial(i)
        b = next(iter(d.terms))
        c = next(iter(d.terms.values()))
        restored = RatPoly.monomial(tuple(e + (1 if k == i else 0) for k, e in enumerate(b)),
                                    c / a[i])
        assert restored == mono


def test_leading_monomial():
    assert parse_poly("4*x1*x2 + x3^2", 3).leading_monomial() == (1, 1, 0)
    assert parse_poly("x3^2", 3).leading_monomial() == (0, 0, 2)
    assert parse_poly("x4", 4).leading_monomial() == (0, 0, 0, 1)
    with pytest.raises(ValueError):
        RatPoly.zero(3).leading_monomial()


def test_lm_multiplicative_on_homogeneous():
    rng = random.Random(3)
    for _ in range(40):
        def rand_homog(deg):
            basis = mono_basis(3, deg)
            terms = {a: Fraction(rng.randint(-4, 4)) for a in rng.sample(basis, k=min(3, len(basis)))}
            return RatPoly(3, terms)
        p, q = rand_homog(rng.randint(1, 3)), rand_homog(rng.randint(1, 3))
        if p.is_zero() or q.is_zero():
            continue
        prod = p * q
        if prod.is_zero():
            continue
        lm = tuple(x + y for x, y in zip(p.leading_monomial(), q.leading_monomial()))
        assert prod.leading_monomial() == lm


def test_parser_round_trip():
    texts = ["4*x1*x2 + x3^2", "-2*x1", "1/2*x1^2 - x2*x3", "3", "0"]
    for t in texts:
        p = parse_poly(t, 3)
        assert parse_poly(format_poly(p), 3) == p


def test_parser_rejects_implicit_multiplication():
    with pytest.raises(PolyParseError):
        parse_poly("4x1", 3)
    with pytest.raises(PolyParseError):
        parse_poly("x1 x2", 3)
    with pytest.raises(PolyParseError):
        parse_poly("x9", 3)


def test_parser_caps_the_exponent():
    assert parse_poly("(2*x1)^32", 3) == RatPoly.monomial((32, 0, 0), 2 ** 32)
    for text in ("x1^33", "(x1 + x2)^100000", "x3^99999999999"):
        with pytest.raises(PolyParseError, match="exceeds the cap of 32"):
            parse_poly(text, 3)


def test_parser_caps_the_product_size():
    """A product is refused before it is expanded when it takes more than
    MAX_PRODUCT_TERMS term products, with ^ or written out."""
    linear = "(" + " + ".join("x%d" % i for i in range(1, 10)) + ")"
    assert len(parse_poly(linear + "^4", 9).terms) == 495
    assert len(parse_poly(linear + "^5", 9).terms) == 1287
    for text in (linear + "^32", "*".join([linear] * 32), linear + "^6"):
        with pytest.raises(PolyParseError, match="exceeds the cap of %d" % MAX_PRODUCT_TERMS):
            parse_poly(text, 9)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        RatPoly.var(2, 0) * RatPoly.var(3, 0)
