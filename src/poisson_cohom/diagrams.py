"""Young-diagram machinery: partition sets by area and height, signature
enumeration for cochain spaces whose degree-j slots weigh j + shift,
and purely combinatorial Euler characteristics.  The tower (column)
decomposition helpers that check the enumerator's recursion live beside
their tests in tests/test_diagrams.py.

A signature is the multiplicity vector [k_1, k_2, ...] (optionally with
k_0) recording how many wedge slots sit in each graded piece; stored as
a tuple of (degree, multiplicity) pairs with positive multiplicities,
sorted by degree.
"""

from __future__ import annotations

from math import comb

Signature = tuple  # tuple[tuple[int, int], ...]


# ----------------------------------------------------------------------
# Partitions with fixed area and height
# ----------------------------------------------------------------------

def nabla(area: int, height: int) -> tuple:
    """All partitions with the given number of cells and exactly that many
    rows, as descending row tuples sorted descending-lexicographically.
    This is the uncapped case of enumerate_signatures, whose recursion is
    the tower decomposition

        nabla(A, k) = T(k) . (nabla(A-k, 0) u ... u nabla(A-k, k)).
    """
    sigs = enumerate_signatures(height, area, 0, lambda j: height)
    return tuple(sorted((signature_to_partition(s) for s in sigs), reverse=True))


def signature_to_partition(sig: Signature) -> tuple:
    rows = []
    for j, k in sig:
        rows.extend([j] * k)
    return tuple(sorted(rows, reverse=True))


def sig_dim(sig: Signature, cap) -> int:
    """Product of binomial(cap(j), k_j) over the signature."""
    out = 1
    for j, k in sig:
        c = cap(j)
        if k > c:
            raise ValueError("multiplicity %d exceeds cap %d at degree %d" % (k, c, j))
        out *= comb(c, k)
    return out


def enumerate_signatures(m: int, w: int, shift: int, cap, start: int = 1) -> list:
    """All signatures with sum k_j = m, sum k_j (j + shift) = w and
    0 <= k_j <= cap(j), degrees running from `start`.

    A signature of height m and weight w is a diagram of area
    w - shift m, built by the tower recursion of nabla, capped per
    degree: the m_left slots still open all have degree >= d, so the
    next occupied degree e needs area at least m_left e, and 1 to
    cap(e) of them close there.  The recursion descends only at
    occupied degrees, so its depth is their number.

    The list comes out descending-lexicographic on (k_start, k_start+1,
    ...), which fixes basis order downstream.
    """
    out: list = []

    def rec(d: int, m_left: int, a_left: int, acc: tuple) -> None:
        if m_left == 0:
            if a_left == 0:
                out.append(acc)
            return
        for e in range(d, a_left // m_left + 1):
            for k in range(min(cap(e), m_left), 0, -1):
                rec(e + 1, m_left - k, a_left - k * e, acc + ((e, k),))

    if m >= 0:
        rec(start, m, w - shift * m, ())
    return out


def degree_range(w: int, shift: int, cap, start: int = 1) -> int:
    """Largest m whose weight-w signature set can be non-empty: every slot
    of positive weight j + shift adds at least 1 to w, so
    m <= w + sum over the degrees j < 1 - shift of (1 - j - shift) cap(j)."""
    return max(w + sum((1 - j - shift) * cap(j) for j in range(start, 1 - shift)), 0)


# ----------------------------------------------------------------------
# Euler characteristics
# ----------------------------------------------------------------------

def poly_caps(n: int):
    return lambda j: comb(n - 1 + j, j)


def euler_combinatorial(n: int, h: int, w: int) -> int:
    """Alternating sum over m of the weighted cochain dimensions for the
    polynomial grading j + shift, shift = h - 2.  Includes the m = 0
    scalar term when w = 0."""
    cap = poly_caps(n)
    shift = h - 2
    total = 0
    for m in range(0, degree_range(w, shift, cap) + 1):
        dims = sum(sig_dim(s, cap) for s in enumerate_signatures(m, w, shift, cap))
        total += dims if m % 2 == 0 else -dims
    return total


def polymodule_dim(n: int, h: int, m: int, w: int) -> int:
    """dim(C^m) = C(n-1+p, n-1) C(n, m) of the weight-w module complex,
    p = w + (h-1)m, and 0 outside the admissible degrees 0 <= m <= n
    with p >= 0."""
    p = w + (h - 1) * m
    if p < 0 or not 0 <= m <= n:
        return 0
    return comb(n - 1 + p, n - 1) * comb(n, m)


def euler_polymodule(n: int, h: int, w: int) -> int:
    """Alternating sum of polymodule_dim over the degrees 0 <= m <= n."""
    return sum((-1) ** m * polymodule_dim(n, h, m, w) for m in range(n + 1))
