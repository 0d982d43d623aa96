"""Poisson polynomial (module) cohomology, closed-form Betti predictions
for the special 3-space structures, and the top-Betti probe."""

from __future__ import annotations

from itertools import combinations
from math import comb

from .algebra import mono_basis
from .complexes import PolyContext, build_basis, cochain_matrix
from .linalg import SparseMatrix, rank_kernel
from .poisson import MultiVector, PoissonStructure, schouten


def poly_module_basis(n: int, h: int, m: int, w: int) -> list:
    """Basis of (w + (h-1)m)-polynomials tensor the m-th constant wedge,
    as the list of its (monomial, axes) words."""
    p = w + (h - 1) * m
    if p < 0 or not (0 <= m <= n):
        return []
    return [(a, axes) for a in mono_basis(n, p) for axes in combinations(range(n), m)]


def poly_module_matrix(pi: PoissonStructure, src: list, tgt: list) -> SparseMatrix:
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
    return SparseMatrix.from_columns(len(tgt), cols, pi.denom)


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
    w0 = sum((j - 2 + pi.h) * caps[j - 1] for j in range(1, ell + 1))
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
