"""Poisson polynomial (module) cohomology, closed-form Betti predictions
for the special 3-space structures, and the top-Betti probe."""

from __future__ import annotations

from itertools import combinations
from math import comb

from .algebra import mono_basis
from .complexes import PolyContext, build_basis, cochain_matrix
from .linalg import SparseMatrix, rank_kernel
from .poisson import PoissonStructure


def poly_module_basis(n: int, h: int, m: int, w: int) -> list:
    """Basis of (w + (h-1)m)-polynomials tensor the m-th constant wedge,
    as the list of its (monomial, axes) words."""
    p = w + (h - 1) * m
    if p < 0 or not (0 <= m <= n):
        return []
    return [(a, axes) for a in mono_basis(n, p) for axes in combinations(range(n), m)]


def _code(a, unit: list) -> int:
    """A monomial as one integer: exponent k times unit[k]."""
    return sum(e * u for e, u in zip(a, unit))


def _coded_terms(terms: list, unit: list) -> list:
    """The integer terms (i, j, mu, c) of pi coded once for every axis
    set: the vector part as (code of mu - e_k, bit of the other slot,
    coeff, k) for the slots k = i, j, the slot mask of (i, j) and the
    axis bits between its slots, and for each axis k with mu[k] > 0, in
    ascending k, the bit of k and the code of mu - e_k with c * mu[k]."""
    out = []
    for i, j, mu, c in terms:
        base = _code(mu, unit)
        vector = ((base - unit[i], 1 << j, -c, i), (base - unit[j], 1 << i, c, j))
        between = ((1 << i) - 1) ^ ((1 << j) - 1)
        shifted = [(1 << k, base - unit[k], c * e) for k, e in enumerate(mu) if e]
        out.append((vector, (1 << i) | (1 << j), between, shifted))
    return out


def _slot_table(coded: list, axes: tuple) -> list:
    """The a-independent pieces of [pi, x^a d_axes] for the coded terms
    of pi: [pi, x^a d_I] = [pi, x^a] ^ d_I + x^a [pi, d_I].  Each piece
    is (delta, coeff, k): the image word's code is that of x^a plus
    delta (the monomial mu - e_k and the output axis mask), and the
    coefficient is coeff, times a[k] when k is not None.  Signs are those
    of schouten, with the wedge reordering a popcount parity on axis
    masks as in complexes.GeneratorBits.pairs; the sign of d_I's slot pos
    stays a factor of its own, not folded into the mask as
    GeneratorBits.slot does.  Pieces come in schouten's order."""
    mask = sum(1 << ax for ax in axes)
    out = []
    for vector, ij, between, shifted in coded:
        # the vector part of pi differentiates x^a along slot k of (i, j)
        for code, bit, coeff, k in vector:
            if mask & bit:
                continue
            if (mask & (bit - 1)).bit_count() & 1:
                coeff = -coeff
            out.append((code + (mask | bit), coeff, k))
        # d_I differentiates the coefficient mu of pi along the axis of its
        # slot pos = popcount(mask & (bit - 1)); only the axes of I where mu
        # is nonzero give a piece, in I's order
        for bit, code, coeff in shifted:
            rest = mask ^ bit
            if not mask & bit or rest & ij:
                continue
            if not (mask & (bit - 1)).bit_count() & 1:
                coeff = -coeff
            if (rest & between).bit_count() & 1:
                coeff = -coeff
            out.append((code + (rest | ij), coeff, None))
    return out


def poly_module_matrix(pi: PoissonStructure, src: list, tgt: list) -> SparseMatrix:
    """Matrix of u -> [pi, u] between module bases, by the derivation rule
    on integer-coded words.  A word (a, axes) is one integer: the axis
    mask in the low n bits, exponent k in a field above them, each field
    wide enough for the largest image or target degree, so no sum
    carries into a neighbouring field and distinct words stay distinct.
    A column entry is then one add, one lookup and one accumulate.  The coefficients are integers over
    pi.denom, each column keyed in the order schouten meets its rows."""
    n = pi.n
    src_monos = {a for a, _ in src}
    tgt_monos = {b for b, _ in tgt}
    top = max([sum(a) + pi.h - 1 for a in src_monos] + [sum(b) for b in tgt_monos], default=0)
    width = max(top, 1).bit_length()
    unit = [1 << (n + k * width) for k in range(n)]
    code = {a: _code(a, unit) for a in src_monos | tgt_monos}
    masks = {axes: sum(1 << ax for ax in axes) for axes in {axes for _, axes in tgt}}
    index = {code[b] + masks[axes]: row for row, (b, axes) in enumerate(tgt)}
    coded = _coded_terms(pi.terms, unit)
    tables = {axes: _slot_table(coded, axes) for axes in {axes for _, axes in src}}
    cols = []
    for a, axes in src:
        key = code[a]
        col: dict = {}
        for delta, c, k in tables[axes]:
            if k is not None:
                if not a[k]:
                    continue
                c *= a[k]
            row = index.get(key + delta)
            if row is None:
                raise AssertionError("module differential left the weight basis")
            s = col.get(row, 0) + c
            if s:
                col[row] = s
            else:
                del col[row]
        cols.append(col)
    return SparseMatrix(len(tgt), cols, pi.denom)


# ----------------------------------------------------------------------
# closed-form Betti predictions
# ----------------------------------------------------------------------

def heisenberg_closed_form(w: int) -> tuple:
    """Module-cohomology Betti numbers of the Heisenberg structure."""
    if w < 0:
        raise ValueError("weight must be non-negative")
    if w == 0:
        return (1, 2, 2, 1)
    return (1, w + 3, 2 * w + 3, w + 1)


def heisenberg_kernel_form(w: int) -> tuple:
    """Kernel dimensions along the same complex, w >= 1."""
    if w < 1:
        raise ValueError("weight must be positive")
    return (1, comb(3 + w, 2), (w + 3) * (w + 1), comb(w + 2, 2))


def sp2_closed_form(w: int) -> tuple:
    """Module-cohomology Betti numbers of the sp(2)-type structure are
    2-periodic in the weight."""
    if w < 0:
        raise ValueError("weight must be non-negative")
    return (1, 0, 0, 1) if w % 2 == 0 else (0, 0, 0, 0)


# ----------------------------------------------------------------------
# top Betti probe
# ----------------------------------------------------------------------

def top_betti_probe(pi: PoissonStructure, mode: str, ell: int) -> dict:
    """Verify the extremal-weight facts for the cochain complex capped at
    generator degree ell: the top space C^{m0}_{w0} is one-dimensional,
    everything above m0 is empty, and (where the vanishing statement
    applies, h > 1 or ell >= 2) the top cohomology vanishes because the
    incoming differential has rank 1.  The mode is poly-bar or
    hamiltonian.
    """
    kinds = {"poly-bar": "bar", "hamiltonian": "hamiltonian"}
    if mode not in kinds:
        raise ValueError("top_betti_probe supports the modes %s, not %r"
                         % (" and ".join(kinds), mode))
    if pi.is_trivial():
        raise ValueError("probe needs a non-trivial structure")
    ctx = PolyContext(pi, kinds[mode])
    caps = [ctx.cap(j) for j in range(1, ell + 1)]
    m0 = sum(caps)
    w0 = sum((j + ctx.shift) * caps[j - 1] for j in range(1, ell + 1))
    top = build_basis(ctx, m0, w0)
    report = {
        "m0": m0,
        "w0": w0,
        "top_dim": len(top),
        "vanishing_applies": pi.h > 1 or ell >= 2,
    }
    report["top_dim_ok"] = report["top_dim"] == 1
    empty_above = True
    for m in range(m0 + 1, m0 + ell + 3):
        if build_basis(ctx, m, w0):
            empty_above = False
            break
    report["empty_above"] = empty_above
    below = build_basis(ctx, m0 - 1, w0)
    dmat = cochain_matrix(ctx, below, top)
    rank = rank_kernel(dmat).rank
    report["last_rank"] = rank
    report["top_betti"] = len(top) - 0 - rank  # ker(top) = top (nothing above)
    report["top_betti_zero"] = report["top_betti"] == 0
    report["passed"] = (report["top_dim_ok"] and report["empty_above"]
                        and (report["top_betti_zero"] or not report["vanishing_applies"]))
    return report
