"""Weighted (co)chain bases and exact differential matrices.

Every mode (polynomial algebra without constants, with constants, the
Hamiltonian quotient, the constant-structure annihilator subcomplex and
the Poisson-like multivector complex) supplies the same small interface:
graded generators with caps and weights plus the differential's action
on a single generator.  The basis/matrix builders below are shared.
cochain_matrix is the one assembly routine of a context: the chain
boundary is the dual of the coboundary under the wedge-basis pairing,
so boundary_matrix is its transpose.

Generator ids are (degree, position) pairs; cochain basis elements are
ascending tuples of generator ids, so wedge reordering signs reduce to
inversion counts computed with bisect.

Coefficients are integers over a denominator: a context's image2 of a
degree-j generator is over image2_denom(j), and each builder accumulates
its matrix in integers scaled to one lcm of the denominators it meets.
PolyContext builds the images of all degree-j generators at once, from
the structure's integer monomial bracket and, in 'hamiltonian' mode, the
integer normal-form rules of the degree-j CasimirBasis.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, product
from math import comb, gcd, lcm

from .algebra import mono_basis, mono_index
from .casimir import casimir_space
from .diagrams import degree_range, enumerate_signatures, sig_dim
from .linalg import SparseMatrix, clear_denominators
from .poisson import GradedMultiVector, PoissonStructure, r_schouten

GenId = tuple  # (degree, position within the degree block)


class Basis:
    __slots__ = ("elements", "index")

    def __init__(self, elements: list):
        self.elements = elements
        self.index = {t: i for i, t in enumerate(elements)}

    def __len__(self) -> int:
        return len(self.elements)


class PolyContext:
    """Cochain data of the polynomial algebra of a Poisson structure.

    mode 'bar' excludes constants (the quotient by the constants ideal),
    'full' includes the degree-0 slot, 'hamiltonian' works modulo the
    Casimir polynomials with the normal-form bracket; its generators are
    the quotient monomials (primal) of each degree's CasimirBasis.
    """

    include_m0 = True

    def __init__(self, pi: PoissonStructure, mode: str = "bar"):
        if mode not in ("bar", "full", "hamiltonian"):
            raise ValueError("unknown polynomial mode %r" % mode)
        self.pi = pi
        self.mode = mode
        self.n = pi.n
        self.h = pi.h
        self.start = 0 if mode == "full" else 1
        self._gens: dict = {}
        self._casimirs: dict = {}
        self._cob: dict = {}

    def wt(self, j: int) -> int:
        return j - 2 + self.h

    def gens(self, j: int) -> list:
        if j not in self._gens:
            if self.mode == "hamiltonian":
                self._gens[j] = self.casimirs(j).primal
            else:
                self._gens[j] = mono_basis(self.n, j)
        return self._gens[j]

    def cap(self, j: int) -> int:
        return len(self.gens(j))

    def casimirs(self, j: int):
        if j not in self._casimirs:
            self._casimirs[j] = casimir_space(self.pi, j)
        return self._casimirs[j]

    def _splits(self, g_degree: int) -> list:
        """Degree pairs (a, b), a <= b, with a + b = g_degree + 2 - h."""
        total = g_degree + 2 - self.h
        out = []
        a = self.start
        while 2 * a <= total:
            b = total - a
            if b >= self.start:
                out.append((a, b))
            a += 1
        return out

    def _coboundaries(self, deg: int) -> tuple:
        """(gid -> image2 list, denom) for the degree-deg dual generators:
        the structure's mono_bracket of every generator pair landing in
        degree deg (reduced to big times its normal form in 'hamiltonian'
        mode), cleared by one gcd over the whole degree."""
        if deg not in self._cob:
            denom, reduce = self.pi.denom, None
            if self.mode == "hamiltonian":
                cas = self.casimirs(deg)
                denom, reduce = denom * cas.big, cas.reduce
            index = {lab: pos for pos, lab in enumerate(self.gens(deg))}
            rev: dict = {}
            for a, b in self._splits(deg):
                gens_a, gens_b = self.gens(a), self.gens(b)
                for pa, la in enumerate(gens_a):
                    for pb in range(pa + 1 if a == b else 0, len(gens_b)):
                        br = self.pi.mono_bracket(la, gens_b[pb])
                        for mono, c in (br if reduce is None else reduce(br)).items():
                            if not c:
                                continue
                            pos = index.get(mono)
                            if pos is None:
                                raise AssertionError("bracket left the degree-%d generators" % deg)
                            rev.setdefault((deg, pos), []).append(((a, pa), (b, pb), -c))
            g = gcd(denom, *(t[2] for lst in rev.values() for t in lst))
            self._cob[deg] = ({gid: sorted((ga, gb, c // g) for ga, gb, c in lst)
                               for gid, lst in rev.items()}, denom // g)
        return self._cob[deg]

    def image2(self, gid: GenId) -> list:
        """Coboundary of the dual generator: list of (ga, gb, coeff) with
        ga < gb meaning a summand coeff * z_ga ^ z_gb; the coefficient is
        minus the gid-component of the pair bracket, an integer over
        image2_denom(gid[0])."""
        return self._coboundaries(gid[0])[0].get(gid, [])

    def image2_denom(self, deg: int) -> int:
        """Denominator of the image2 coefficients of degree-deg generators."""
        return self._coboundaries(deg)[1]


class PoissonLikeContext:
    """Cochain data for the R-linear multivector complex of a Poisson-like
    2-vector: generators are w^A d_i, the differential brackets with pi."""

    include_m0 = False  # tables never carry the scalar slot

    def __init__(self, pi_like: GradedMultiVector, h: int):
        self.pi_like = pi_like
        self.n = pi_like.n
        self.h = h
        self.start = 0
        self._image2: dict = {}
        self._monos: dict = {}  # degree -> mono_basis, read by label
        if pi_like.degree != 2:
            raise ValueError("Poisson-like structure must be a 2-vector")
        if not r_schouten(pi_like, pi_like).is_zero():
            raise ValueError("structure is not Poisson-like "
                             "(nonzero R-Schouten self-bracket)")
        self._denom = clear_denominators(list(pi_like.terms.values()))[1]
        self._pi_int = pi_like.scale(self._denom)

    def wt(self, j: int) -> int:
        return j + 1 - self.h

    def cap(self, j: int) -> int:
        return self.n * comb(self.n - 1 + j, j)

    def label(self, gid: GenId):
        j, pos = gid
        if j not in self._monos:
            self._monos[j] = mono_basis(self.n, j)
        return (self._monos[j][pos // self.n], pos % self.n)

    def _gen_id(self, gen) -> GenId:
        a, i = gen
        deg = sum(a)
        return (deg, mono_index(self.n, deg)[a] * self.n + i)

    def image2(self, gid: GenId) -> list:
        """The differential of the generator is its R-Schouten bracket with
        the 2-vector; gen_sort_key orders generators as _gen_id does, so
        each canonical term (u1, u2) comes out as ga < gb."""
        if gid not in self._image2:
            v = GradedMultiVector(self.n, 1, {(self.label(gid),): 1})
            self._image2[gid] = sorted(
                (self._gen_id(u1), self._gen_id(u2), c)
                for (u1, u2), c in r_schouten(self._pi_int, v).terms.items())
        return self._image2[gid]

    def image2_denom(self, deg: int) -> int:
        """One denominator for every degree: that of the 2-vector."""
        return self._denom


# ----------------------------------------------------------------------
# basis and matrix builders
# ----------------------------------------------------------------------

def build_basis(ctx, m: int, w: int) -> Basis:
    """Deterministic basis of the degree-m, weight-w cochain space."""
    if m == 0:
        if w == 0 and ctx.include_m0:
            return Basis([()])
        return Basis([])
    elements = []
    for sig in enumerate_signatures(m, w, ctx.wt, ctx.cap, ctx.start):
        pools = []
        for j, k in sig:
            ids = [(j, p) for p in range(ctx.cap(j))]
            pools.append(list(combinations(ids, k)))
        for combo in product(*pools):
            tup = tuple(g for block in combo for g in block)
            elements.append(tup)
    return Basis(elements)


def _insert_pair(rest: tuple, ga, gb):
    """Wedge ga^gb (ga < gb) onto a sorted tuple from the left;
    (new_tuple, sign) or None.  A 2-form commutes with every factor, so
    this is also the sign of putting ga^gb in any slot of rest."""
    ia = bisect_left(rest, ga)
    if ia < len(rest) and rest[ia] == ga:
        return None
    ib = bisect_left(rest, gb, ia)
    if ib < len(rest) and rest[ib] == gb:
        return None
    newt = rest[:ia] + (ga,) + rest[ia:ib] + (gb,) + rest[ib:]
    return newt, (-1 if (ia + ib) % 2 else 1)


def cochain_matrix(ctx, src: Basis, tgt: Basis) -> SparseMatrix:
    """Exact matrix of the coboundary from src (degree m) to tgt (m+1),
    accumulated in integers over the lcm of the image2 denominators of the
    generator degrees in src."""
    denoms = {j: ctx.image2_denom(j) for j in {g[0] for tup in src.elements for g in tup}}
    denom = lcm(1, *denoms.values())
    scale = {j: denom // d for j, d in denoms.items()}
    index = tgt.index
    entries: dict = {}
    for col, tup in enumerate(src.elements):
        for slot, gid in enumerate(tup):
            f = -scale[gid[0]] if slot % 2 else scale[gid[0]]
            rest = tup[:slot] + tup[slot + 1:]
            for ga, gb, c in ctx.image2(gid):
                placed = _insert_pair(rest, ga, gb)
                if placed is None:
                    continue
                newt, sign = placed
                row = index.get(newt)
                if row is None:
                    raise AssertionError("differential left the weight-graded basis")
                key = (row, col)
                entries[key] = entries.get(key, 0) + sign * f * c
    return SparseMatrix.from_ints(len(tgt), len(src),
                                  {k: v for k, v in entries.items() if v}, denom)


def boundary_matrix(ctx, src: Basis, tgt: Basis) -> SparseMatrix:
    """Exact matrix of the boundary operator from src (degree m) to tgt
    (m-1): the transpose of the coboundary from tgt to src, since the
    boundary is the dual of the coboundary under the wedge-basis pairing."""
    return cochain_matrix(ctx, tgt, src).transpose()


def weight_degree_range(ctx, w: int) -> int:
    """Largest degree whose weight-w cochain space can be non-empty."""
    return degree_range(w, ctx.wt, ctx.cap, ctx.start)


def basis_dimension_check(ctx, m: int, w: int, basis: Basis) -> None:
    """Structural cross-check: enumerated dimension equals the signature
    dimension sum from the diagrams module."""
    expect = sum(sig_dim(s, ctx.cap)
                 for s in enumerate_signatures(m, w, ctx.wt, ctx.cap, ctx.start))
    if m == 0:
        expect = 1 if (w == 0 and ctx.include_m0) else 0
    if expect != len(basis):
        raise AssertionError("basis size %d != signature total %d at (m=%d, w=%d)"
                             % (len(basis), expect, m, w))


# ----------------------------------------------------------------------
# with-constants split and annihilator subcomplex helpers
# ----------------------------------------------------------------------

def with_constants_split(pi: PoissonStructure, m: int, w: int) -> tuple:
    """Dimensions of the with-constants cochain space split into the part
    without the degree-0 slot and the part carrying it (h > 0 only)."""
    if pi.h == 0:
        raise ValueError("the split requires h > 0")
    full = PolyContext(pi, "full")
    delta = (0, 0)
    with_delta = without = 0
    for tup in build_basis(full, m, w).elements:
        if delta in tup:
            with_delta += 1
        else:
            without += 1
    return without, with_delta


def constant_two_cochain(pi: PoissonStructure) -> tuple:
    """The structure 2-cochain sum p_ij z_{e_i} ^ z_{e_j} of a constant
    (h = 0) structure, as ([(gid_i, gid_j, int)], denom)."""
    if pi.h != 0:
        raise ValueError("annihilator subcomplex needs a 0-homogeneous structure")
    zero = tuple([0] * pi.n)
    pairs = [(i, j, poly.coeff(zero)) for (i, j), poly in sorted(pi.p.items())]
    pairs = [t for t in pairs if t[2]]
    ints, denom = clear_denominators([c for _, _, c in pairs])
    return [((1, i), (1, j), c) for (i, j, _), c in zip(pairs, ints)], denom


def wedge_cochain_matrix(two_cochain: tuple, src: Basis, tgt: Basis) -> SparseMatrix:
    """Matrix of sigma -> (2-cochain) ^ sigma, for a 2-cochain given as
    (terms, denom) by constant_two_cochain."""
    terms, denom = two_cochain
    entries: dict = {}
    for col, tup in enumerate(src.elements):
        for ga, gb, c in terms:
            placed = _insert_pair(tup, ga, gb)
            if placed is None:
                continue
            newt, sign = placed
            row = tgt.index.get(newt)
            if row is None:
                raise AssertionError("wedge left the weight-graded basis")
            key = (row, col)
            entries[key] = entries.get(key, 0) + sign * c
    return SparseMatrix.from_ints(len(tgt), len(src),
                                  {k: v for k, v in entries.items() if v}, denom)
