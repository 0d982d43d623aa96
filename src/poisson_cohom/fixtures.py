"""Named structures backing the golden tables and the test suite."""

from __future__ import annotations

from fractions import Fraction

from .algebra import RatPoly, parse_poly
from .linalg import SparseMatrix, in_span_coordinates
from .poisson import GradedMultiVector, PoissonStructure, parse_structure, wedge2


def _poisson(n: int, h: int, entries: dict, name: str) -> PoissonStructure:
    parsed = {(i - 1, j - 1): parse_poly(text, n) for (i, j), text in entries.items()}
    return PoissonStructure(n, h, parsed, name=name)


def sl2() -> PoissonStructure:
    """Lie-Poisson of sl(2): {x1,x2}=x3, {x3,x1}=2*x1, {x3,x2}=-2*x2."""
    return _poisson(3, 1, {(1, 2): "x3", (1, 3): "-2*x1", (2, 3): "2*x2"}, "sl2")


def sl2_r4() -> PoissonStructure:
    """sl(2) + a central generator x4 on R^4."""
    return _poisson(4, 1, {(1, 2): "x3", (1, 3): "-2*x1", (2, 3): "2*x2"}, "sl2_r4")


def so3() -> PoissonStructure:
    return _poisson(3, 1, {(1, 2): "x3", (2, 3): "x1", (1, 3): "-x2"}, "so3")


def heisenberg() -> PoissonStructure:
    """Lie-Poisson of the 3-dim Heisenberg algebra: {x1,x2}=x3 central."""
    return _poisson(3, 1, {(1, 2): "x3"}, "heisenberg")


def solvable22() -> PoissonStructure:
    """Upper-triangular (2,2) solvable algebra: [A1,A3]=A3, [A2,A3]=-A3."""
    return _poisson(3, 1, {(1, 3): "x3", (2, 3): "-x3"}, "solvable22")


def h2_case1() -> PoissonStructure:
    return _poisson(3, 2, {(2, 3): "1/2*x1^2", (1, 3): "-1/2*x2^2", (1, 2): "1/2*x3^2"},
                    "h2_case1")


def h2_case2() -> PoissonStructure:
    return _poisson(3, 2, {(1, 2): "x1*x2", (2, 3): "x2*x3", (1, 3): "-x3*x1"}, "h2_case2")


def h2_case3() -> PoissonStructure:
    return _poisson(3, 2, {(2, 3): "x1^2", (1, 3): "-x3*x1", (1, 2): "x1*x2"}, "h2_case3")


def square_bracket() -> PoissonStructure:
    """The 2-homogeneous structure with {x1,x2}=x3^2 and x3 central."""
    return _poisson(3, 2, {(1, 2): "x3^2"}, "square_bracket")


def symplectic_r2() -> PoissonStructure:
    """Constant symplectic structure d1^d2 on the plane."""
    return _poisson(2, 0, {(1, 2): "1"}, "symplectic_r2")


def constant_r3() -> PoissonStructure:
    """Degenerate constant structure d1^d2 on R^3."""
    return _poisson(3, 0, {(1, 2): "1"}, "constant_r3")


def pibar() -> PoissonStructure:
    """(x2^2-x3^2) d1^d2 + 2(x2*x3+x3^2) d1^d3; 2-homogeneous Poisson."""
    return _poisson(3, 2, {(1, 2): "x2^2 - x3^2", (1, 3): "2*x2*x3 + 2*x3^2"}, "pibar")


def type32(p: int, cs) -> PoissonStructure:
    """sum_i c_i x_i^p d_{i+1} ^ d_{i+2} on R^3 (cyclic indices)."""
    entries = {}
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        mono = RatPoly.monomial(tuple(p if t == i else 0 for t in range(3)), cs[i])
        lo, hi = min(j, k), max(j, k)
        poly = mono if (j, k) == (lo, hi) else -mono
        entries[(lo, hi)] = entries.get((lo, hi), RatPoly.zero(3)) + poly
    return PoissonStructure(3, p, entries, name="type32")


def poisson_like_h1() -> GradedMultiVector:
    """(d1 - d3) ^ (x1 d3 + x3 d3), taken verbatim; the repeated d3 in the
    second field is intentional and the self-bracket still vanishes."""
    n = 3
    u = [(RatPoly.const(n, 1), 0), (RatPoly.const(n, -1), 2)]
    v = [(parse_poly("x1", n), 2), (parse_poly("x3", n), 2)]
    return wedge2(u, v, n)


def poisson_like_h2() -> GradedMultiVector:
    """The eight-term 2-homogeneous Poisson-like 2-vector whose flattening
    is the pibar structure."""
    n = 3
    one = RatPoly.const(n, 1)

    def mono(text):
        return parse_poly(text, n)

    terms = [
        (-1, [(one, 2)], [(mono("x2*x3"), 0)]),
        (1, [(mono("x2"), 0)], [(mono("x2"), 1)]),
        (1, [(mono("x3"), 0)], [(mono("x3"), 2)]),
        (1, [(one, 1)], [(mono("x3^2"), 0)]),
        (-1, [(mono("x2"), 1)], [(mono("x3"), 0)]),
        (1, [(mono("x2"), 0)], [(mono("x3"), 2)]),
        (-1, [(one, 2)], [(mono("x3^2"), 0)]),
        (1, [(one, 1)], [(mono("x2*x3"), 0)]),
    ]
    acc = GradedMultiVector(n, 2)
    for c, u, v in terms:
        acc = acc + wedge2(u, v, n).scale(c)
    return acc


def poisson_like_h0() -> GradedMultiVector:
    """d1 ^ d2 on R^3 as a graded 2-vector."""
    n = 3
    return wedge2([(RatPoly.const(n, 1), 0)], [(RatPoly.const(n, 1), 1)], n)


# ----------------------------------------------------------------------
# Lie-Poisson structures from matrix Lie algebras
# ----------------------------------------------------------------------

def lie_poisson_from_matrices(basis: list, name: str) -> PoissonStructure:
    """Lie-Poisson structure on the dual of the span of square integer
    matrices: {x_i, x_j} = sum_k c^k_ij x_k with [B_i, B_j] = sum_k c^k_ij B_k.
    All the constants come from one in_span_coordinates call, which needs
    each basis matrix to have an entry where every other basis matrix is
    zero (so(k) and sl(k) in their standard bases have one)."""
    dim = len(basis)
    size = len(basis[0])

    def column(mat) -> dict:
        return {r * size + c: x for r, row in enumerate(mat) for c, x in enumerate(row) if x}

    def commutator(a, b):
        return [[sum(a[r][t] * b[t][c] - b[r][t] * a[t][c] for t in range(size))
                 for c in range(size)] for r in range(size)]

    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    k = SparseMatrix(size * size, [column(mat) for mat in basis])
    v = SparseMatrix(size * size, [column(commutator(basis[i], basis[j])) for i, j in pairs])
    try:
        y = in_span_coordinates(k, v)
    except AssertionError as exc:
        raise ValueError("bracket does not lie in the span of the basis: %s" % exc)
    entries = {}
    for (i, j), col in zip(pairs, y.cols):
        if col:
            entries[(i, j)] = RatPoly(dim, {tuple(1 if t == c else 0 for t in range(dim)):
                                            Fraction(x, y.denom) for c, x in sorted(col.items())})
    return PoissonStructure(dim, 1, entries, name=name)


def _basis_so(k: int) -> list:
    out = []
    for i in range(k):
        for j in range(i + 1, k):
            mat = [[0] * k for _ in range(k)]
            mat[i][j] = 1
            mat[j][i] = -1
            out.append(mat)
    return out


def so4() -> PoissonStructure:
    return lie_poisson_from_matrices(_basis_so(4), "so4")


def so5() -> PoissonStructure:
    return lie_poisson_from_matrices(_basis_so(5), "so5")


def sl3() -> PoissonStructure:
    basis = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            mat = [[0] * 3 for _ in range(3)]
            mat[i][j] = 1
            basis.append(mat)
    h1 = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    h2 = [[0, 0, 0], [0, 1, 0], [0, 0, -1]]
    basis.extend([h1, h2])
    return lie_poisson_from_matrices(basis, "sl3")


_BUILTINS = {
    "sl2": sl2,
    "sl2_r4": sl2_r4,
    "so3": so3,
    "heisenberg": heisenberg,
    "solvable22": solvable22,
    "h2_case1": h2_case1,
    "h2_case2": h2_case2,
    "h2_case3": h2_case3,
    "square_bracket": square_bracket,
    "symplectic_r2": symplectic_r2,
    "constant_r3": constant_r3,
    "pibar": pibar,
    "poisson_like_h0": poisson_like_h0,
    "poisson_like_h1": poisson_like_h1,
    "poisson_like_h2": poisson_like_h2,
    "so4": so4,
    "so5": so5,
    "sl3": sl3,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def load_structure(spec: str, check: bool = True):
    """Load 'builtin:<name>' or a structure-definition file path.  A
    structure without a name of its own is named after the builtin or
    the path."""
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        if name not in _BUILTINS:
            raise ValueError("unknown builtin structure %r (have: %s)"
                             % (name, ", ".join(builtin_names())))
        obj = _BUILTINS[name]()
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            obj = parse_structure(fh.read(), check=check)
        name = spec
    if not getattr(obj, "name", ""):
        obj.name = name
    return obj
