"""Pipeline orchestration: structure + mode + weight -> ComplexReport,
with consistency checks, deterministic caching and optional matrix dumps.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter

from .complexes import (PolyContext, PoissonLikeContext, basis_dimension,
                        boundary_matrix, build_basis, cochain_matrix,
                        constant_two_cochain, wedge_cochain_matrix,
                        weight_degree_range)
from .diagrams import polymodule_dim
from .linalg import (Record, SparseMatrix, compose_is_zero, in_span_coordinates,
                     matmul, rank_kernel)
from .multivector import poly_module_basis, poly_module_matrix
from .poisson import GradedMultiVector, PoissonStructure, jacobi_check


def _source_digest() -> str:
    """sha256 of the package's Python sources, file names in sorted order,
    so any change to the code is a new cache key."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


CODE_VERSION = _source_digest()


def read_table(text: str) -> tuple:
    """The `key = value` lines of a report or golden file as a dict of
    strings, and its rows as [m, dim, ker, rank, betti] lists.  Blank
    lines, `#` comments and the `rows` header are skipped; a row that is
    not five integers raises ValueError."""
    fields: dict = {}
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("rows"):
            continue
        if "=" in line:
            key, val = [s.strip() for s in line.split("=", 1)]
            fields[key] = val
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError("table row %r is not five integers" % line)
        rows.append([int(p) for p in parts])
    return fields, rows


class ReportRow(Record):
    __slots__ = _shown = ("m", "dim", "kernel_dim", "rank", "betti")

    def __init__(self, m: int, dim: int, kernel_dim: int, rank: int, betti: int):
        self.m, self.dim, self.kernel_dim, self.rank, self.betti = m, dim, kernel_dim, rank, betti


class ComplexReport(Record):
    __slots__ = _shown = ("mode", "weight", "structure", "direction", "rows", "seconds")

    def __init__(self, mode: str, weight: int, structure: str = "",
                 direction: str = "cochain", rows: list | None = None, seconds: float = 0.0):
        self.mode, self.weight, self.structure, self.direction = mode, weight, structure, direction
        self.rows = [] if rows is None else rows
        self.seconds = seconds

    def row_at(self, m: int) -> ReportRow:
        for r in self.rows:
            if r.m == m:
                return r
        return ReportRow(m, 0, 0, 0, 0)

    @property
    def euler(self) -> int:
        return sum((1 if r.m % 2 == 0 else -1) * r.dim for r in self.rows)

    def betti_list(self) -> list:
        return [r.betti for r in self.rows]

    def dim_list(self) -> list:
        return [r.dim for r in self.rows]

    def is_empty(self) -> bool:
        return not self.rows

    def serialize(self) -> str:
        lines = ["mode = %s" % self.mode,
                 "structure = %s" % self.structure,
                 "direction = %s" % self.direction,
                 "weight = %d" % self.weight,
                 "rows = m dim ker rank betti"]
        for r in self.rows:
            lines.append("%d %d %d %d %d" % (r.m, r.dim, r.kernel_dim, r.rank, r.betti))
        lines.append("euler = %d" % self.euler)
        lines.append("seconds = %.3f" % self.seconds)
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ComplexReport":
        """Inverse of serialize.  Raises ValueError unless the text is a
        whole report: every row five integers, the mode, direction,
        weight and euler lines present, and euler matching the rows."""
        fields, rows = read_table(text)
        missing = [k for k in ("mode", "direction", "weight", "euler") if k not in fields]
        if missing:
            raise ValueError("report lacks the %s line(s)" % ", ".join(missing))
        rep = cls(mode=fields["mode"], weight=int(fields["weight"]),
                  structure=fields.get("structure", ""),
                  direction=fields["direction"], rows=[ReportRow(*r) for r in rows],
                  seconds=float(fields.get("seconds", 0)))
        if rep.euler != int(fields["euler"]):
            raise ValueError("inconsistent euler line in report")
        return rep


# ----------------------------------------------------------------------
# one report pipeline; each mode only builds its complex
# ----------------------------------------------------------------------

def _trim_rows(rows: list) -> list:
    keep = [r.m for r in rows if r.dim]
    if not keep:
        return []
    lo, hi = min(keep), max(keep)
    return [r for r in rows if lo <= r.m <= hi]


def _complex_rows(dims: dict, maps: dict, step: int, matrix_sink=None) -> list:
    """Report rows of a complex with space dimensions dims[m] and
    differentials d_m out of degree m into degree m + step (+1 for a
    cochain complex, -1 for a chain complex), each built by the
    zero-argument maps[m]; d_{m+step} must annihilate d_m exactly, or
    AssertionError names the degree m of the first failing pair in
    complex order.

    The maps are built and ranked in complex order, ascending m for a
    cochain complex and descending m for a chain complex, in one pass:
    d_m is ranked on its cleared view, a copy of its column list with an
    empty column assigned at each of the previous map's pivots, and then
    dropped but for its retired columns S_m and its pivots; d_{m+step}
    is built and checked against S_m, and S_m is dropped in turn.  So
    one full map is alive at a time, beside at most the rank-many
    columns of the one before it.  A matrix_sink instead receives every
    map, all built in ascending m, before any is checked or ranked, so a
    failing complex still leaves its dumps; the same pass then runs over
    those maps.

    The pivots R of d_{m-step} are coordinates of degree m, and the unit
    vectors outside R span a complement of that map's image.  d_m
    vanishes on the image, so its columns outside R carry its whole
    rank, and it is ranked with the columns in R cleared (the twist of
    Chen & Kerber).

    The d o d = 0 check of each pair follows the ranking of its inner
    map and is exact on the rank-many columns S_m that rank_kernel
    retired.  Once d_m o d_{m-step} = 0 is checked, d_m kills the image
    of d_{m-step}, so the image of d_m is that of the unit vectors
    outside R: the column space of the cleared view, which its retired
    columns S_m span.  Hence d_{m+step} o d_m = 0 exactly when d_{m+step}
    annihilates the columns S_m of d_m.  The first map of the complex
    has nothing cleared, which starts the induction, and a pair is
    reached only after every pair before it passed."""
    if matrix_sink is not None:
        built = {m: maps[m]() for m in sorted(maps)}
        for m, d in built.items():
            matrix_sink(m, d)
        maps = {m: (lambda d=d: d) for m, d in built.items()}
    ranks: dict = {}
    d = None  # d_m, when the step before built it as its d_{m+step}
    for m in sorted(maps, reverse=step < 0):
        if d is None:
            d, pivots = maps[m](), ()
        if pivots:
            d = SparseMatrix(d.n_rows, d.cols[:], d.denom)
            for c in pivots:
                d.cols[c] = {}
        res = rank_kernel(d)
        ranks[m], pivots = res.rank, res.pivots
        retired = SparseMatrix(d.n_rows, [d.cols[c] for c in res.spanning], d.denom)
        d = None  # d_m goes before d_{m+step} is built; S_m stays for the check
        if m + step in maps:
            d = maps[m + step]()
            if not compose_is_zero(d, retired):
                raise AssertionError("d o d != 0 at degree %d" % m)
        del retired
    rows = []
    for m, dim in sorted(dims.items()):
        rank = ranks.get(m, 0)
        ker = dim - rank
        rows.append(ReportRow(m, dim, ker, rank, ker - ranks.get(m - step, 0)))
    return _trim_rows(rows)


def _context_degrees(ctx, w: int):
    """Yield (degree, dimension) of the weight-w cochain spaces of a
    context, degrees 0 to weight_degree_range + 1 ascending, each counted
    by basis_dimension when it is asked for, with no word built."""
    for m in range(weight_degree_range(ctx, w) + 2):
        yield m, basis_dimension(ctx, m, w)


def _context_complex(ctx, w: int, direction: str) -> tuple:
    """A PolyContext or PoissonLikeContext complex: coboundaries m -> m+1,
    or boundaries m -> m-1 in the chain direction.

    The dimensions are counted, not built.  A degree's word list is built
    when the first map that reads it is built, and dropped once the last
    one is, counted by its readers so that any order of the maps works:
    with the maps built in ascending or descending degree, only the two
    degrees of the map being built are alive, and each is built once."""
    hi = weight_degree_range(ctx, w)
    counts = dict(_context_degrees(ctx, w))
    step = 1 if direction == "cochain" else -1
    sources = [m for m in range(0 if step > 0 else 1, hi + 1) if counts[m]]
    readers = Counter(k for m in sources for k in (m, m + step))
    words: dict = {}  # degree -> its word list, while a reader is still to come

    def basis(k: int) -> list:
        out = words.pop(k) if k in words else build_basis(ctx, k, w)
        readers[k] -= 1
        if readers[k]:
            words[k] = out
        return out

    if step > 0:
        maps = {m: lambda m=m: cochain_matrix(ctx, basis(m), basis(m + 1)) for m in sources}
    else:
        maps = {m: lambda m=m: boundary_matrix(ctx, basis(m), basis(m - 1)) for m in sources}
    return {m: counts[m] for m in range(hi + 1)}, maps, step


def _annihilator_complex(ctx: PolyContext, w: int, direction: str) -> tuple:
    """The subcomplex K^m = ker(two-cochain ^ -) of the poly-bar complex in
    the coordinates of the wedge maps' kernel bases: maps[m] builds d K_m
    written in the basis K_{m+1}, and reading those coordinates off
    checks exactly that d keeps the subcomplex inside itself.  The bases
    and kernel bases are built at once, since they give the dimensions."""
    two = constant_two_cochain(ctx.pi)
    hi = weight_degree_range(ctx, w)
    bases = {m: build_basis(ctx, m, w) for m in range(hi + 2)}
    kmats: dict = {}
    for m, basis in bases.items():
        wedge = wedge_cochain_matrix(ctx, two, basis, build_basis(ctx, m + 2, w - 2))
        kmats[m] = SparseMatrix(len(basis), rank_kernel(wedge, want_basis=True).kernel)
    maps = {m: lambda m=m: in_span_coordinates(kmats[m + 1], matmul(
                cochain_matrix(ctx, bases[m], bases[m + 1]), kmats[m]))
            for m in range(hi + 1) if kmats[m].n_cols}
    return {m: kmats[m].n_cols for m in range(hi + 1)}, maps, 1


def _module_complex(pi: PoissonStructure, w: int, direction: str) -> tuple:
    """The Poisson polynomial complex u -> [pi, u] of multivector fields."""
    if not pi.jacobi_passed and not jacobi_check(pi)[0]:
        raise ValueError("structure is not Poisson")
    bases = {m: poly_module_basis(pi.n, pi.h, m, w) for m in range(0, pi.n + 2)}
    maps = {m: lambda m=m: poly_module_matrix(pi, bases[m], bases[m + 1])
            for m in range(0, pi.n + 1) if bases[m]}
    return {m: len(bases[m]) for m in range(0, pi.n + 1)}, maps, 1


# mode -> (context of its cochain spaces, or None; complex builder, which
# takes the context or, without one, the structure; structure type it
# needs; has a chain direction)
_MODES = {
    "poly-bar": (lambda pi: PolyContext(pi, "bar"), _context_complex, PoissonStructure, True),
    "poly-with-constants": (lambda pi: PolyContext(pi, "full"), _context_complex,
                            PoissonStructure, True),
    "hamiltonian": (lambda pi: PolyContext(pi, "hamiltonian"), _context_complex,
                    PoissonStructure, True),
    "pi-annihilator": (lambda pi: PolyContext(pi, "bar"), _annihilator_complex,
                       PoissonStructure, False),
    "poisson-like": (lambda pi: PoissonLikeContext(pi), _context_complex, GradedMultiVector, False),
    "poly-module": (None, _module_complex, PoissonStructure, False),
}
MODES = tuple(_MODES)
DIRECTIONS = ("cochain", "chain")


def _structure_name(structure) -> str:
    """The name a report carries: the structure's own, or empty."""
    return getattr(structure, "name", "") or ""


def _mode_entry(structure, mode: str, direction: str) -> tuple:
    """(context, complex builder) of mode; ValueError unless the mode
    exists, takes this structure's type and has this direction."""
    if mode not in _MODES:
        raise ValueError("unknown mode %r (have: %s)" % (mode, ", ".join(MODES)))
    context, builder, kind, has_chain = _MODES[mode]
    if not isinstance(structure, kind):
        raise ValueError("%s mode needs a %s, not a %s"
                         % (mode, kind.__name__, type(structure).__name__))
    if direction not in DIRECTIONS:
        raise ValueError("unknown direction %r (have: %s)"
                         % (direction, ", ".join(DIRECTIONS)))
    if direction == "chain" and not has_chain:
        raise ValueError("%s mode has no chain direction" % mode)
    return context, builder


def space_dims(structure, mode: str, w: int, direction: str = "cochain"):
    """Yield (weight, degree, dimension) of every space the weight-w
    complex of mode enumerates, each counted without building a word
    when it is asked for: for the context modes by _context_degrees,
    the walk _context_complex takes its dimensions from, and then, for
    pi-annihilator, the weight-(w - 2) targets of its wedge; by the
    closed form for poly-module.  Both directions have the same spaces.
    ValueError as from build_report, at the first step."""
    context, _ = _mode_entry(structure, mode, direction)
    if context is None:
        for m in range(structure.n + 1):
            yield w, m, polymodule_dim(structure.n, structure.h, m, w)
        return
    ctx = context(structure)
    degrees = []
    for m, dim in _context_degrees(ctx, w):
        degrees.append(m)
        yield w, m, dim
    if mode == "pi-annihilator":
        for m in degrees:
            yield w - 2, m + 2, basis_dimension(ctx, m + 2, w - 2)


def build_report(structure, mode: str, w: int, direction: str = "cochain",
                 matrix_sink=None) -> ComplexReport:
    """The weight-w report of one mode; a matrix_sink(m, matrix) receives
    every differential that is ranked, keyed by its source degree."""
    start = time.monotonic()
    context, builder = _mode_entry(structure, mode, direction)
    dims, maps, step = builder(structure if context is None else context(structure),
                               w, direction)
    rows = _complex_rows(dims, maps, step, matrix_sink)
    return ComplexReport(mode=mode, weight=w, direction=direction,
                         structure=_structure_name(structure), rows=rows,
                         seconds=time.monotonic() - start)


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------

def cache_key(structure, mode: str, w: int, direction: str) -> str:
    blob = b"|".join([structure.serialize().encode(), mode.encode(),
                      str(w).encode(), direction.encode(), CODE_VERSION.encode()])
    return hashlib.sha256(blob).hexdigest()


def _read_cached(path: str, mode: str, w: int, direction: str):
    """The report cached at path, or None when the file is cut short,
    corrupt, fails cross_check or holds a report of another mode, weight
    or direction."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rep = ComplexReport.parse(fh.read())
    except ValueError:
        return None
    if (rep.mode, rep.weight, rep.direction) != (mode, w, direction) or cross_check(rep):
        return None
    return rep


def run(structure, mode: str, weights, direction: str = "cochain",
        cache_dir: str | None = None, matrix_sink=None) -> list:
    """One report per weight, deterministic; cached when cache_dir is set.
    Weights outside the admissible range produce empty reports.  With a
    matrix_sink every report is built (so every matrix reaches the sink)
    and the cache is written but not read.  A cache file that does not
    parse as the requested report, or whose rows fail cross_check, is
    rebuilt and overwritten.  A cache hit carries the requested
    structure's name, which the key does not hash."""
    reports = []
    for w in weights:
        rep = None
        path = None
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
            path = os.path.join(cache_dir, cache_key(structure, mode, w, direction) + ".report")
            if matrix_sink is None and os.path.exists(path):
                rep = _read_cached(path, mode, w, direction)
            if rep is not None:
                rep.structure = _structure_name(structure)
        if rep is None:
            rep = build_report(structure, mode, w, direction=direction,
                               matrix_sink=matrix_sink)
            if path:
                tmp = path + ".tmp.%d" % os.getpid()
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(rep.serialize())
                os.replace(tmp, path)
        reports.append(rep)
    return reports


# ----------------------------------------------------------------------
# invariant checks on finished reports
# ----------------------------------------------------------------------

def cross_check(report: ComplexReport) -> list:
    """Names of violated report invariants; empty when consistent."""
    bad = []
    rows = report.rows
    for idx, r in enumerate(rows):
        if r.rank + r.kernel_dim != r.dim:
            bad.append("rank-nullity")
        if report.direction == "chain":
            incoming = rows[idx + 1].rank if idx + 1 < len(rows) else 0
        else:
            incoming = rows[idx - 1].rank if idx > 0 else 0
        if r.betti != r.kernel_dim - incoming:
            bad.append("betti-formula")
        if r.betti < 0:
            bad.append("betti-negative")
    if report.euler != sum((1 if r.m % 2 == 0 else -1) * r.betti for r in rows):
        bad.append("euler-mismatch")
    return list(dict.fromkeys(bad))


def homology_vs_cohomology_check(structure: PoissonStructure, mode: str, w: int) -> bool:
    """Per-degree Betti numbers agree between the two directions."""
    co = build_report(structure, mode, w, direction="cochain")
    ho = build_report(structure, mode, w, direction="chain")
    ms = {r.m for r in co.rows} | {r.m for r in ho.rows}
    return all(co.row_at(m).betti == ho.row_at(m).betti for m in ms)
