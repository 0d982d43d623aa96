from itertools import product
from math import comb

import pytest

from poisson_cohom.diagrams import (Signature, degree_range,
                                    enumerate_signatures, euler_combinatorial,
                                    euler_polymodule, nabla, poly_caps,
                                    sig_dim, signature_to_partition)


# ----------------------------------------------------------------------
# Tower (column) decompositions of partitions and signatures; only these
# tests use them, to check the recursion enumerate_signatures follows
# ----------------------------------------------------------------------

def tower_decompose(lam: tuple) -> tuple:
    """Column slicing of a partition, i.e. its conjugate:
    l_j = #{i : lam_i >= j}."""
    if not lam:
        return ()
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or lam[-1] <= 0:
        raise ValueError("not a partition")
    return tuple(sum(1 for r in lam if r >= j) for j in range(1, lam[0] + 1))


def partition_to_signature(lam: tuple) -> Signature:
    """k_j = number of rows of width j."""
    counts: dict = {}
    for r in lam:
        counts[r] = counts.get(r, 0) + 1
    return tuple(sorted(counts.items()))


def towers_to_signature(towers: tuple) -> Signature:
    """k_j = l_j - l_{j+1}, k_s = l_s for a tower list l_1 >= ... >= l_s."""
    out = []
    for j, l in enumerate(towers):
        nxt = towers[j + 1] if j + 1 < len(towers) else 0
        if l - nxt:
            out.append((j + 1, l - nxt))
    return tuple(out)


def prepend_tower(m: int, sig: Signature) -> Signature:
    """T(m) acting on a signature: kbar_1 = m - sum k_j, kbar_{j+1} = k_j."""
    height = sum(k for _, k in sig)
    if m < height:
        raise ValueError("tower height %d below diagram height %d" % (m, height))
    out = [(j + 1, k) for j, k in sig]
    if m - height:
        out.append((1, m - height))
    return tuple(sorted(out))


def sig_height(sig: Signature) -> int:
    return sum(k for _, k in sig)


def sig_weight(sig: Signature, shift: int) -> int:
    return sum(k * (j + shift) for j, k in sig)


def brute_partitions(area, height):
    """Exhaustive enumeration of partitions with the exact height."""
    out = []

    def rec(remaining, parts, max_part):
        if len(parts) == height:
            if remaining == 0:
                out.append(tuple(parts))
            return
        for p in range(min(remaining, max_part), 0, -1):
            rec(remaining - p, parts + [p], p)

    rec(area, [], area)
    return tuple(sorted(out, reverse=True))


def test_nabla_examples():
    assert nabla(5, 3) == ((3, 1, 1), (2, 2, 1))
    assert nabla(4, 4) == ((1, 1, 1, 1),)
    assert nabla(0, 0) == ((),)
    assert nabla(3, 0) == ()
    assert nabla(2, 3) == ()


def test_nabla_against_brute_force():
    for area in range(0, 21):
        for height in range(0, area + 1):
            if height == 0:
                continue
            assert nabla(area, height) == brute_partitions(area, height)


def test_tower_decompose_is_conjugate():
    assert tower_decompose((3, 1, 1)) == (3, 1, 1)
    assert tower_decompose((1, 1, 1, 1, 1)) == (5,)
    for area in range(1, 15):
        for height in range(1, area + 1):
            for lam in nabla(area, height):
                conj = tower_decompose(lam)
                assert tower_decompose(conj) == lam  # involution
                assert sum(conj) == sum(lam)


def test_signature_conversions():
    for lam in nabla(9, 4):
        sig = partition_to_signature(lam)
        assert signature_to_partition(sig) == lam
        towers = tower_decompose(lam)
        assert towers_to_signature(towers) == sig


def test_prepend_tower():
    assert prepend_tower(4, ((1, 1), (2, 1))) == ((1, 2), (2, 1), (3, 1))
    assert prepend_tower(3, ()) == ((1, 3),)
    # a single row of width w turns into (k1 = m-1, k_{w+1} = 1)
    for w in (2, 5):
        lam = nabla(w, 1)[0]
        sig = partition_to_signature(lam)
        got = prepend_tower(7, sig)
        assert got == ((1, 6), (w + 1, 1))
    with pytest.raises(ValueError):
        prepend_tower(1, ((1, 1), (2, 1)))


def test_enumerate_signatures_h1_examples():
    cap = poly_caps(3)
    shift = -1  # h = 1
    for m in (2, 3, 4):
        second = ((2, 2),) if m == 2 else ((1, m - 2), (2, 2))
        assert enumerate_signatures(m, 2, shift, cap) == [((1, m - 1), (3, 1)), second]
    assert enumerate_signatures(3, 0, shift, cap) == [((1, 3),)]
    assert enumerate_signatures(4, 0, shift, cap) == []  # cap(1) = 3
    # one slot at degree 5000: the recursion descends only where slots sit
    assert enumerate_signatures(1, 5000, 0, lambda j: 1) == [((5000, 1),)]
    assert degree_range(5000, 0, lambda j: 1) == 5000


def test_enumerate_signatures_h0_full_extreme():
    n = 3
    cap = poly_caps(n)
    shift = -2  # h = 0
    for m in (4, 5, 6):
        expect = ((0, 1), (1, n)) if m == n + 1 else ((0, 1), (1, n), (2, m - 1 - n))
        assert enumerate_signatures(m, -2 - n, shift, cap, start=0) == [expect]


def test_signature_dim():
    cap = poly_caps(3)
    assert sig_dim(((1, 2), (2, 1)), cap) == 18
    assert sig_dim((), cap) == 1
    total = sum(sig_dim(s, cap) for s in enumerate_signatures(3, 3, -1, cap))
    assert total == 245
    with pytest.raises(ValueError):
        sig_dim(((1, 7),), cap)


def test_signatures_respect_constraints():
    cap = poly_caps(3)
    for h in (0, 1, 2, 3):
        shift = h - 2
        for w in range(-2, 5):
            for m in range(0, 8):
                for sig in enumerate_signatures(m, w, shift, cap):
                    assert sig_height(sig) == m
                    assert sig_weight(sig, shift) == w
                    assert all(0 < k <= cap(j) for j, k in sig)


def brute_signatures(m, w, shift, cap, start):
    """Every k-vector over degrees start..A (A = w - shift m, the area, so
    no slot can sit higher) with 0 <= k_j <= cap(j), filtered by height
    and weight, in descending-lexicographic order of the dense vector."""
    area = w - shift * m
    degrees = range(start, max(area, start) + 1)
    ranges = [range(min(cap(j), m) + 1) for j in degrees]
    hits = [ks for ks in product(*ranges)
            if sum(ks) == m and sum(k * (j + shift) for j, k in zip(degrees, ks)) == w]
    return [tuple((j, k) for j, k in zip(degrees, ks) if k)
            for ks in sorted(hits, reverse=True)]


@pytest.mark.parametrize("cap", [lambda j: 0, lambda j: 1, lambda j: j % 3,
                                 poly_caps(2)],
                         ids=["zero", "one", "j_mod_3", "poly_n2"])
def test_signatures_complete_and_ordered(cap):
    for h in (0, 1, 2, 3):
        shift = h - 2
        for start in (0, 1):
            for m in range(0, 5):
                for w in range(-4, 7):
                    if w - shift * m > 7:
                        continue
                    assert (enumerate_signatures(m, w, shift, cap, start)
                            == brute_signatures(m, w, shift, cap, start)), (h, start, m, w)


def test_degree_range_is_sharp_enough():
    cap = poly_caps(3)
    for h in (0, 1, 2):
        shift = h - 2
        for w in range(0, 5):
            hi = degree_range(w, shift, cap)
            for m in range(hi + 1, hi + 4):
                assert enumerate_signatures(m, w, shift, cap) == []


def test_euler_h1_always_zero():
    for n in (1, 2, 3, 4):
        for w in range(0, 11):
            assert euler_combinatorial(n, 1, w) == 0


def test_euler_h0_always_zero():
    for n in (2, 3):
        for w in range(0, 9):
            assert euler_combinatorial(n, 0, w) == 0


def test_euler_h2_table():
    got = [euler_combinatorial(3, 2, w) for w in range(1, 8)]
    assert got == [-3, -3, 7, 12, 15, -20, -54]
    assert euler_combinatorial(3, 2, 0) == 1


def test_euler_h3_closed_forms():
    n = 3
    md = poly_caps(n)
    expect = [1, 0, -n, -md(2), -md(3) + comb(n, 2), -md(4) + md(1) * md(2),
              -md(5) + md(1) * md(3) + comb(md(2), 2) - comb(n, 3)]
    got = [euler_combinatorial(n, 3, w) for w in range(0, 7)]
    assert got == expect


def test_euler_polymodule_zero_region():
    for h in (0, 1, 2, 3):
        for n in (2, 3, 4):
            lo = 1 - n if h > 0 else 1
            for w in range(lo, 9):
                assert euler_polymodule(n, h, w) == 0, (h, n, w)


def test_euler_polymodule_boundary_values():
    assert euler_polymodule(4, 2, -4) == 1
    assert euler_polymodule(4, 2, -2) == 0
    assert euler_polymodule(2, 0, 0) == 1
    assert [euler_polymodule(3, 3, w) for w in range(-6, -2)] == [-1, -3, -3, -1]
