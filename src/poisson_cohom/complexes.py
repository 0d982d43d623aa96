"""Weighted (co)chain bases and exact differential matrices.

Every mode (polynomial algebra without constants, with constants, the
Hamiltonian quotient, the constant-structure annihilator subcomplex and
the Poisson-like multivector complex) supplies the same small interface:
graded generators with caps, one integer shift that makes a degree-j
slot weigh j + shift, and the differential's action on a single
generator.  The basis/matrix builders below are shared.
The coboundary is the one assembly routine of a context: the chain
boundary is the dual of the coboundary under the wedge-basis pairing,
so boundary_matrix places the coboundary's entries row by row, as its
transpose.

Generator ids are (degree, position) pairs.  A context gives every
generator one bit of an integer, consecutive in gid order from its
lowest degree, so a cochain basis is the list of its word masks:
wedging a pair onto the rest of a word is an AND (collision) and an OR
(the target word), and the reordering sign is a popcount parity.  A
slot's own sign (-1)^k is a popcount parity too, k being the number of
the word's bits below the slot's, so each slot table folds it into its
pairs' parity masks.  Assembly reads plain word masks and visits only
a word's live slots, its bits whose generator has a nonzero image; the
annihilator wedge ORs into each word one phantom bit, the only live
bit of its table.  Every entry is added where it lands, and the
entries that cancel are dropped once, at the end of the matrix.

Coefficients are integers over a denominator: a context's image2 of a
degree-j generator is over image2_denom(j), and each builder accumulates
its matrix in integers scaled to one lcm of the denominators it meets.
PolyContext builds the images of all degree-j generators at once, from
the structure's integer monomial bracket and, in 'hamiltonian' mode, the
integer normal-form rules of the degree-j CasimirBasis.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd, lcm

from .algebra import mono_basis, mono_index
from .casimir import casimir_space
from .diagrams import degree_range, enumerate_signatures, sig_dim
from .linalg import SparseMatrix, clear_denominators
from .poisson import GradedMultiVector, PoissonStructure, r_schouten

GenId = tuple  # (degree, position within the degree block)


class GeneratorBits:
    """The one generator -> bit assignment of a context, whose subclass
    gives cap(j) and image2(gid): the generators take consecutive bits in
    gid order from degree start, so a word is the OR of its bits.  Slot
    tables are cached here by bit and scale."""

    def __init__(self, start: int):
        self.start = start
        self._offsets = [0]  # bit index of generator (start + k, 0)
        self._slots: dict = {}

    def bit(self, gid: GenId) -> int:
        j, p = gid
        offsets = self._offsets
        while len(offsets) <= j - self.start:
            offsets.append(offsets[-1] + self.cap(self.start + len(offsets) - 1))
        return 1 << (offsets[j - self.start] + p)

    def gids(self, mask: int) -> list:
        """The generators whose bits mask holds, ascending."""
        out, j = [], self.start
        while mask >= self.bit((j, 0)):
            out += [(j, p) for p in range(self.cap(j)) if mask & self.bit((j, p))]
            j += 1
        return out

    def slot(self, gid: GenId, scale: int) -> tuple:
        """The slot table of generator gid: its image2 as pairs scaled by
        scale, each parity mask xored with bit - 1 (bit that of gid).  In
        a word whose other bits are rest, gid sits in slot
        popcount(rest & (bit - 1)), so the parity of the pair's placement
        and of the slot's sign together is that of
        popcount(rest & (parity mask ^ (bit - 1)))."""
        bit = self.bit(gid)
        key = (bit, scale)
        if key not in self._slots:
            self._slots[key] = tuple((ab, between ^ (bit - 1), c) for ab, between, c
                                     in self.pairs(self.image2(gid), scale))
        return self._slots[key]

    def pairs(self, terms, scale: int) -> tuple:
        """A 2-cochain's terms (ga, gb, c), ga < gb, as (a|b, (a-1) ^ (b-1),
        scale*c), the middle one the parity mask: wedging ga^gb onto a
        word with mask rest moves ga past popcount(rest & (a-1)) factors
        and gb past popcount(rest & (b-1)), and when rest misses a the two
        sum to the parity of popcount(rest & ((a-1) ^ (b-1)))."""
        out = []
        for ga, gb, c in terms:
            a, b = self.bit(ga), self.bit(gb)
            out.append((a | b, (a - 1) ^ (b - 1), scale * c))
        return tuple(out)


class PolyContext(GeneratorBits):
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
        super().__init__(0 if mode == "full" else 1)
        self.pi = pi
        self.mode = mode
        self.n = pi.n
        self.h = pi.h
        self.shift = pi.h - 2  # a degree-j slot has weight j + shift
        self._casimirs: dict = {}
        self._cob: dict = {}

    def gens(self, j: int) -> list:
        if self.mode == "hamiltonian":
            return self.casimirs(j).primal
        return mono_basis(self.n, j)

    def cap(self, j: int) -> int:
        if self.mode == "hamiltonian":
            return len(self.gens(j))
        return comb(self.n - 1 + j, j)

    def casimirs(self, j: int):
        if j not in self._casimirs:
            self._casimirs[j] = casimir_space(self.pi, j)
        return self._casimirs[j]

    def _splits(self, g_degree: int) -> list:
        """Degree pairs (a, b), a <= b, with a + b = g_degree + 2 - h."""
        total = g_degree + 2 - self.h
        return [(a, total - a) for a in range(self.start, total // 2 + 1)]

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


class PoissonLikeContext(GeneratorBits):
    """Cochain data for the R-linear multivector complex of a Poisson-like
    2-vector: generators are w^A d_i, the differential brackets with pi."""

    include_m0 = False  # tables never carry the scalar slot

    def __init__(self, pi_like: GradedMultiVector):
        super().__init__(0)
        self.pi_like = pi_like
        self.n = pi_like.n
        self.shift = 1 - pi_like.poly_degree()
        self._image2: dict = {}
        if pi_like.degree != 2:
            raise ValueError("Poisson-like structure must be a 2-vector")
        if not r_schouten(pi_like, pi_like).is_zero():
            raise ValueError("structure is not Poisson-like "
                             "(nonzero R-Schouten self-bracket)")
        self._denom = clear_denominators(list(pi_like.terms.values()))[1]
        self._pi_int = pi_like.scale(self._denom)

    def cap(self, j: int) -> int:
        return self.n * comb(self.n - 1 + j, j)

    def label(self, gid: GenId):
        j, pos = gid
        return (mono_basis(self.n, j)[pos // self.n], pos % self.n)

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

def build_basis(ctx, m: int, w: int) -> list:
    """Deterministic basis of the degree-m, weight-w cochain space: the
    list of its word masks, its size checked against the signature
    count.  The words of a signature are its blocks' combinations ORed
    in product order, the last block varying fastest."""
    basis = []
    if m or ctx.include_m0:
        blocks: dict = {}  # (degree, size) -> masks of its combinations
        for sig in enumerate_signatures(m, w, ctx.shift, ctx.cap, ctx.start):
            words = [0]
            for j, k in sig:
                if (j, k) not in blocks:
                    bits = [ctx.bit((j, p)) for p in range(ctx.cap(j))]
                    blocks[j, k] = [sum(c) for c in combinations(bits, k)]
                words = [word | block for word in words for block in blocks[j, k]]
            basis += words
    basis_dimension_check(ctx, m, w, basis)
    return basis


def _wedge_place(src, tgt, table: dict, denom: int, rowwise: bool) -> SparseMatrix:
    """Matrix whose column j is a sum over the slots of the j-th word mask
    of the iterable src: a word's slots are its bits that have a
    non-empty table, slot bit holds the pairs table[bit], and every pair
    (ab, parity, c) is wedged onto rest = mask ^ bit, with sign the
    parity of popcount(rest & parity).  A pair that meets rest
    contributes nothing, one that lands outside the target is an error.
    The iterable tgt gives the distinct target word masks in row order.
    Both are read once.  Entries are integers over denom, each looked up
    by row and added where it lands, into its column or, when rowwise
    places the transpose, into out[row][j]; the entries that cancel are
    dropped once, at the end.  Each column is keyed in the order its
    rows are first met, and each row in ascending source order, the key
    order of a column-by-column transpose, since word j is the last key
    of every row it touches while it is placed."""
    index = {mask: row for row, mask in enumerate(tgt)}
    out: list = [{} for _ in index] if rowwise else []
    live = 0
    for bit, pairs in table.items():
        if pairs:
            live |= bit
    j = -1
    for j, mask in enumerate(src):
        col: dict = {}  # row -> value, filled column-wise only
        slots = mask & live
        while slots:
            bit = slots & -slots
            slots ^= bit
            rest = mask ^ bit
            for ab, parity, c in table[bit]:
                if rest & ab:
                    continue
                try:
                    row = index[rest | ab]
                except KeyError:
                    raise AssertionError("differential left the weight-graded basis") from None
                if (rest & parity).bit_count() & 1:
                    c = -c
                if rowwise:
                    entries = out[row]
                    entries[j] = entries.get(j, 0) + c
                else:
                    col[row] = col.get(row, 0) + c
        if not rowwise:
            out.append(col)
    out = [line if all(line.values()) else {k: v for k, v in line.items() if v} for line in out]
    return SparseMatrix(j + 1 if rowwise else len(index), out, denom)


def _coboundary(ctx, src: list, tgt: list, rowwise: bool) -> SparseMatrix:
    """The coboundary from src to tgt, placed column- or row-wise, each
    word's slots its own bits."""
    met = 0
    for mask in src:
        met |= mask
    gens = ctx.gids(met)
    denoms = {j: ctx.image2_denom(j) for j, _ in gens}
    denom = lcm(1, *denoms.values())
    table = {ctx.bit(g): ctx.slot(g, denom // denoms[g[0]]) for g in gens}
    return _wedge_place(src, tgt, table, denom, rowwise)


def cochain_matrix(ctx, src: list, tgt: list) -> SparseMatrix:
    """Exact matrix of the coboundary from src (degree m) to tgt (m+1),
    accumulated in integers over the lcm of the image2 denominators of the
    generator degrees in src: the slot-k generator of a word is replaced
    by its image2, with sign (-1)^k."""
    return _coboundary(ctx, src, tgt, False)


def boundary_matrix(ctx, src: list, tgt: list) -> SparseMatrix:
    """Exact matrix of the boundary operator from src (degree m) to tgt
    (m-1): the transpose of the coboundary from tgt to src, since the
    boundary is the dual of the coboundary under the wedge-basis pairing,
    placed row by row."""
    return _coboundary(ctx, tgt, src, True)


def weight_degree_range(ctx, w: int) -> int:
    """Largest degree whose weight-w cochain space can be non-empty."""
    return degree_range(w, ctx.shift, ctx.cap, ctx.start)


def basis_dimension(ctx, m: int, w: int) -> int:
    """Dimension of the degree-m, weight-w cochain space by the signature
    dimension sum from the diagrams module, with no word built."""
    if m == 0 and not ctx.include_m0:
        return 0
    return sum(sig_dim(s, ctx.cap)
               for s in enumerate_signatures(m, w, ctx.shift, ctx.cap, ctx.start))


def basis_dimension_check(ctx, m: int, w: int, basis: list) -> None:
    """Structural cross-check: enumerated dimension equals the signature
    dimension sum from the diagrams module."""
    expect = basis_dimension(ctx, m, w)
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
    ctx = PolyContext(pi, "full")
    basis = build_basis(ctx, m, w)
    delta = ctx.bit((0, 0))
    with_delta = sum(1 for word in basis if word & delta)
    return len(basis) - with_delta, with_delta


def constant_two_cochain(pi: PoissonStructure) -> tuple:
    """The structure 2-cochain sum p_ij z_{e_i} ^ z_{e_j} of a constant
    (h = 0) structure, as ([(gid_i, gid_j, int)], denom)."""
    if pi.h != 0:
        raise ValueError("annihilator subcomplex needs a 0-homogeneous structure")
    return [((1, i), (1, j), c) for i, j, _, c in sorted(pi.terms)], pi.denom


def wedge_cochain_matrix(ctx, two_cochain: tuple, src: list, tgt: list) -> SparseMatrix:
    """Matrix of sigma -> (2-cochain) ^ sigma, for a 2-cochain of ctx's
    generators given as (terms, denom) by constant_two_cochain: each
    source word is placed with one phantom bit ORed in, a bit above it
    and above every generator of the terms.  The phantom is the only
    bit with a table, so it is every word's one slot and the rest is
    the whole word.  A 2-form commutes with every factor, so the
    phantom's table is the terms' pairs from ctx.pairs, with no slot
    sign folded in."""
    terms, denom = two_cochain
    pairs = ctx.pairs(terms, 1)
    phantom = 1 << max(0, max(src, default=0), *(ab for ab, _, _ in pairs)).bit_length()
    return _wedge_place((mask | phantom for mask in src), tgt, {phantom: pairs}, denom, False)
