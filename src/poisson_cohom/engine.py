"""Pipeline orchestration: structure + mode + weight -> ComplexReport,
with consistency checks, deterministic caching and optional matrix dumps.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import multivector
from .complexes import (Basis, PolyContext, PoissonLikeContext, basis_dimension_check,
                        boundary_matrix, build_basis, cochain_matrix,
                        constant_two_cochain, wedge_cochain_matrix,
                        weight_degree_range)
from .linalg import compose_is_zero, from_column_vectors, matmul, rank_kernel
from .poisson import GradedMultiVector, PoissonStructure

CODE_VERSION = "1"

MODES = ("poly-bar", "poly-with-constants", "hamiltonian", "pi-annihilator",
         "poisson-like", "poly-module")


@dataclass
class ReportRow:
    m: int
    dim: int
    kernel_dim: int
    rank: int
    betti: int


@dataclass
class ComplexReport:
    mode: str
    weight: int
    structure: str = ""
    direction: str = "cochain"
    rows: list = field(default_factory=list)
    seconds: float = 0.0

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

    def kernel_list(self) -> list:
        return [r.kernel_dim for r in self.rows]

    def rank_list(self) -> list:
        return [r.rank for r in self.rows]

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
        rep = cls(mode="", weight=0)
        in_rows = False
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("rows"):
                in_rows = True
                continue
            if "=" in line and not (in_rows and line[0].isdigit() or line.startswith("-")):
                key, val = [s.strip() for s in line.split("=", 1)]
                if key == "mode":
                    rep.mode = val
                elif key == "structure":
                    rep.structure = val
                elif key == "direction":
                    rep.direction = val
                elif key == "weight":
                    rep.weight = int(val)
                elif key == "seconds":
                    rep.seconds = float(val)
                elif key == "euler":
                    if rep.euler != int(val):
                        raise ValueError("inconsistent euler line in report")
                continue
            parts = line.split()
            rep.rows.append(ReportRow(*[int(p) for p in parts]))
        return rep


# ----------------------------------------------------------------------
# report builders
# ----------------------------------------------------------------------

def _trim_rows(rows: list) -> list:
    keep = [r.m for r in rows if r.dim]
    if not keep:
        return []
    lo, hi = min(keep), max(keep)
    return [r for r in rows if lo <= r.m <= hi]


def _rank_many(mats: dict, jobs: int) -> dict:
    if jobs > 1 and len(mats) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futs = {m: pool.submit(lambda mm=mm: rank_kernel(mm).rank)
                    for m, mm in mats.items()}
            return {m: f.result() for m, f in futs.items()}
    return {m: rank_kernel(mm).rank for m, mm in mats.items()}


def _cochain_report(ctx, w: int, jobs: int = 1, matrix_sink=None,
                    check_d2: bool = True) -> ComplexReport:
    lo, hi = weight_degree_range(ctx, w)
    bases: dict = {}
    for m in range(lo, hi + 2):
        bases[m] = build_basis(ctx, m, w)
        basis_dimension_check(ctx, m, w, bases[m])
    mats: dict = {}
    for m in range(lo, hi + 1):
        if len(bases[m]):
            mats[m] = cochain_matrix(ctx, bases[m], bases.get(m + 1, Basis([])))
    if check_d2:
        for m in mats:
            nxt = mats.get(m + 1)
            if nxt is not None and not compose_is_zero(nxt, mats[m]):
                raise AssertionError("d o d != 0 at degree %d" % m)
    if matrix_sink is not None:
        for m, mat in mats.items():
            matrix_sink(m, mat)
    ranks = _rank_many(mats, jobs)
    rows = []
    for m in range(lo, hi + 1):
        dim = len(bases[m])
        rank = ranks.get(m, 0)
        ker = dim - rank
        betti = ker - ranks.get(m - 1, 0)
        rows.append(ReportRow(m, dim, ker, rank, betti))
    return ComplexReport(mode="", weight=w, rows=_trim_rows(rows))


def _chain_report(ctx, w: int, jobs: int = 1) -> ComplexReport:
    lo, hi = weight_degree_range(ctx, w)
    bases = {m: build_basis(ctx, m, w) for m in range(lo, hi + 2)}
    for m in range(lo, hi + 2):
        basis_dimension_check(ctx, m, w, bases[m])
    mats: dict = {}
    for m in range(lo + 1, hi + 1):
        if len(bases[m]):
            mats[m] = boundary_matrix(ctx, bases[m], bases.get(m - 1, Basis([])))
    for m in mats:
        prv = mats.get(m - 1)
        if prv is not None and not compose_is_zero(prv, mats[m]):
            raise AssertionError("boundary o boundary != 0 at degree %d" % m)
    ranks = _rank_many(mats, jobs)
    rows = []
    for m in range(lo, hi + 1):
        dim = len(bases[m])
        rank = ranks.get(m, 0)  # rank of the outgoing map m -> m-1
        ker = dim - rank
        betti = ker - ranks.get(m + 1, 0)
        rows.append(ReportRow(m, dim, ker, rank, betti))
    return ComplexReport(mode="", weight=w, rows=_trim_rows(rows), direction="chain")


def _annihilator_report(pi: PoissonStructure, w: int, jobs: int = 1) -> ComplexReport:
    ctx = PolyContext(pi, "bar")
    two = constant_two_cochain(pi)
    lo, hi = weight_degree_range(ctx, w)
    bases = {m: build_basis(ctx, m, w) for m in range(lo, hi + 2)}
    shifted = {m: build_basis(ctx, m + 2, w - 2) for m in range(lo, hi + 2)}
    kernels: dict = {}
    for m in range(lo, hi + 1):
        if not len(bases[m]):
            kernels[m] = []
            continue
        wedge = wedge_cochain_matrix(two, bases[m], shifted[m])
        kernels[m] = rank_kernel(wedge, want_basis=True).kernel
    restricted: dict = {}
    full_d: dict = {}
    for m in range(lo, hi + 1):
        if not kernels[m]:
            continue
        kmat = from_column_vectors(len(bases[m]), kernels[m])
        dmat = cochain_matrix(ctx, bases[m], bases.get(m + 1, Basis([])))
        full_d[m] = dmat
        restricted[m] = matmul(dmat, kmat)
        # the differential must keep the subcomplex inside itself
        if len(shifted[m + 1] if m + 1 in shifted else Basis([])):
            wedge_next = wedge_cochain_matrix(two, bases[m + 1], shifted[m + 1])
            if not compose_is_zero(wedge_next, restricted[m]):
                raise AssertionError("annihilator subcomplex not preserved at m=%d" % m)
    ranks = _rank_many(restricted, jobs)
    rows = []
    for m in range(lo, hi + 1):
        dim = len(kernels[m])
        rank = ranks.get(m, 0)
        ker = dim - rank
        betti = ker - ranks.get(m - 1, 0)
        rows.append(ReportRow(m, dim, ker, rank, betti))
    return ComplexReport(mode="pi-annihilator", weight=w, rows=_trim_rows(rows))


def build_report(structure, mode: str, w: int, direction: str = "cochain",
                 jobs: int = 1, matrix_sink=None) -> ComplexReport:
    start = time.monotonic()
    if mode == "poly-bar":
        ctx = PolyContext(structure, "bar")
        rep = (_cochain_report(ctx, w, jobs, matrix_sink) if direction == "cochain"
               else _chain_report(ctx, w, jobs))
    elif mode == "poly-with-constants":
        ctx = PolyContext(structure, "full")
        rep = (_cochain_report(ctx, w, jobs, matrix_sink) if direction == "cochain"
               else _chain_report(ctx, w, jobs))
    elif mode == "hamiltonian":
        ctx = PolyContext(structure, "hamiltonian")
        rep = (_cochain_report(ctx, w, jobs, matrix_sink) if direction == "cochain"
               else _chain_report(ctx, w, jobs))
    elif mode == "pi-annihilator":
        if direction != "cochain":
            raise ValueError("pi-annihilator mode has no chain direction")
        rep = _annihilator_report(structure, w, jobs)
    elif mode == "poisson-like":
        if not isinstance(structure, GradedMultiVector):
            raise ValueError("poisson-like mode needs a graded 2-vector structure")
        ctx = PoissonLikeContext(structure, structure.poly_degree())
        rep = _cochain_report(ctx, w, jobs, matrix_sink)
    elif mode == "poly-module":
        rep = multivector.poly_module_report(structure, w, jobs=jobs,
                                             matrix_sink=matrix_sink)
    else:
        raise ValueError("unknown mode %r (have: %s)" % (mode, ", ".join(MODES)))
    rep.mode = mode
    rep.weight = w
    rep.direction = direction
    rep.structure = getattr(structure, "name", "") or ""
    rep.seconds = time.monotonic() - start
    return rep


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------

def cache_key(structure, mode: str, w: int, direction: str) -> str:
    blob = b"|".join([structure.serialize().encode(), mode.encode(),
                      str(w).encode(), direction.encode(), CODE_VERSION.encode()])
    return hashlib.sha256(blob).hexdigest()


def run(structure, mode: str, weights, direction: str = "cochain",
        cache_dir: str | None = None, jobs: int = 1, matrix_sink=None) -> list:
    """One report per weight, deterministic; cached when cache_dir is set.
    Weights outside the admissible range produce empty reports."""
    reports = []
    for w in weights:
        rep = None
        path = None
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
            path = os.path.join(cache_dir, cache_key(structure, mode, w, direction) + ".report")
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as fh:
                    rep = ComplexReport.parse(fh.read())
        if rep is None:
            rep = build_report(structure, mode, w, direction=direction,
                               jobs=jobs, matrix_sink=matrix_sink)
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

def cross_check(report: ComplexReport, closed_form=None) -> list:
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
    euler_dims = sum((1 if r.m % 2 == 0 else -1) * r.dim for r in report.rows)
    euler_betti = sum((1 if r.m % 2 == 0 else -1) * r.betti for r in report.rows)
    if euler_dims != euler_betti:
        bad.append("euler-mismatch")
    if closed_form is not None:
        if list(closed_form) != [r.betti for r in report.rows]:
            bad.append("closed-form")
    seen = []
    for b in bad:
        if b not in seen:
            seen.append(b)
    return seen


def homology_vs_cohomology_check(structure: PoissonStructure, mode: str, w: int) -> bool:
    """Per-degree Betti numbers agree between the two directions."""
    co = build_report(structure, mode, w, direction="cochain")
    ho = build_report(structure, mode, w, direction="chain")
    ms = {r.m for r in co.rows} | {r.m for r in ho.rows}
    return all(co.row_at(m).betti == ho.row_at(m).betti for m in ms)
