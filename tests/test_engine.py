import copy
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poisson_cohom import complexes, engine
from poisson_cohom import fixtures as fx
from poisson_cohom.algebra import RatPoly, mi_unit
from poisson_cohom.cli import _golden_paths, parse_golden
from poisson_cohom.complexes import PolyContext, weight_degree_range
from poisson_cohom.diagrams import euler_combinatorial, euler_polymodule
from poisson_cohom.engine import (ComplexReport, ReportRow, _complex_rows,
                                  build_report, cache_key, cross_check, run)
from poisson_cohom.linalg import SparseMatrix, compose_is_zero, rank_kernel
from poisson_cohom.poisson import (GradedMultiVector, PoissonStructure, parse_structure,
                                 r_schouten, wedge2)

from test_linalg import cells_matrix, transpose
from test_poisson import entry


def test_run_sl2_weight_range():
    reports = run(fx.sl2(), "poly-bar", range(0, 3))
    assert [r.weight for r in reports] == [0, 1, 2]
    assert reports[1].dim_list() == [6, 18, 18, 6]
    assert reports[1].betti_list() == [1, 0, 0, 1]


def test_run_empty_weight_range():
    assert run(fx.sl2(), "poly-bar", []) == []


def test_out_of_range_weight_gives_empty_report():
    rep = build_report(fx.sl2(), "poly-bar", -1)
    assert rep.is_empty()
    assert rep.euler == 0


def test_report_serialization_round_trip():
    rep = build_report(fx.heisenberg(), "hamiltonian", 2)
    text = rep.serialize()
    again = ComplexReport.parse(text)
    assert again.rows == rep.rows
    assert again.mode == rep.mode and again.weight == rep.weight
    assert again.serialize().splitlines()[:-1] == text.splitlines()[:-1]


def test_report_records_keep_the_dataclass_behaviour():
    """ReportRow and ComplexReport are plain slotted classes that keep the
    repr, defaults, field-by-field == and lack of a hash they had as
    dataclasses."""
    row = ReportRow(1, 3, 2, 1, 0)
    assert repr(row) == "ReportRow(m=1, dim=3, kernel_dim=2, rank=1, betti=0)"
    empty = ComplexReport("poly-bar", 2)
    assert repr(empty) == ("ComplexReport(mode='poly-bar', weight=2, structure='', "
                           "direction='cochain', rows=[], seconds=0.0)")
    assert ComplexReport("poly-bar", 2).rows is not empty.rows
    full = ComplexReport(mode="hamiltonian", weight=-1, structure="sl2", direction="chain",
                         rows=[row], seconds=0.25)
    assert repr(full) == (
        "ComplexReport(mode='hamiltonian', weight=-1, structure='sl2', direction='chain', "
        "rows=[ReportRow(m=1, dim=3, kernel_dim=2, rank=1, betti=0)], seconds=0.25)")
    assert row == ReportRow(1, 3, 2, 1, 0) and row != ReportRow(1, 3, 2, 1, 1)
    assert row != (1, 3, 2, 1, 0)
    assert full == ComplexReport("hamiltonian", -1, "sl2", "chain", [ReportRow(1, 3, 2, 1, 0)],
                                 0.25)
    assert full != ComplexReport("hamiltonian", -1, "sl2", "chain", [row], 0.5)
    assert empty != ComplexReport("poly-bar", 2, direction="chain")
    for obj in (row, empty):
        with pytest.raises(TypeError):
            hash(obj)
        assert not hasattr(obj, "__dict__")
    full.structure, full.seconds = "other", 1.5
    assert (full.structure, full.seconds) == ("other", 1.5)


def test_checked_structure_skips_the_module_jacobi_rerun(monkeypatch):
    """A structure whose constructor ran the Jacobi check is not checked
    again by the poly-module complex; one built with check=False is."""
    calls = []
    real = engine.jacobi_check
    monkeypatch.setattr(engine, "jacobi_check", lambda pi: calls.append(pi) or real(pi))
    checked = fx.sl2()
    assert checked.jacobi_passed
    want = build_report(checked, "poly-module", 1).rows
    assert calls == []
    unchecked = PoissonStructure(checked.n, checked.h, checked.p, check=False)
    assert not unchecked.jacobi_passed
    assert build_report(unchecked, "poly-module", 1).rows == want
    assert calls == [unchecked]


def test_cross_check_clean_and_corrupted():
    rep = build_report(fx.sl2(), "poly-bar", 1)
    assert cross_check(rep) == []
    broken = copy.deepcopy(rep)
    broken.rows[1] = ReportRow(broken.rows[1].m, broken.rows[1].dim,
                               broken.rows[1].kernel_dim,
                               broken.rows[1].rank + 1, broken.rows[1].betti)
    assert "rank-nullity" in cross_check(broken)


def test_cross_check_closed_form():
    rep = build_report(fx.sl2(), "poly-module", 2)
    assert cross_check(rep) == []
    assert rep.betti_list() == [1, 0, 0, 1]


def test_cross_check_names_each_violation():
    rep = build_report(fx.sl2(), "poly-bar", 1)
    mangled = copy.deepcopy(rep)
    r = mangled.rows[2]
    mangled.rows[2] = ReportRow(r.m, r.dim, r.kernel_dim - 1, r.rank + 1, r.betti)
    bad = cross_check(mangled)
    assert "betti-formula" in bad and "euler-mismatch" not in bad
    mangled2 = copy.deepcopy(rep)
    r = mangled2.rows[0]
    mangled2.rows[0] = ReportRow(r.m, r.dim, r.kernel_dim, r.rank, r.betti - 2)
    assert "euler-mismatch" in cross_check(mangled2)
    mangled3 = copy.deepcopy(rep)
    r = mangled3.rows[1]
    mangled3.rows[1] = ReportRow(r.m, r.dim, r.kernel_dim, r.rank, -1)
    assert "betti-negative" in cross_check(mangled3)


def test_cross_check_chain_direction():
    for w in (0, 1, 2):
        rep = build_report(fx.sl2(), "poly-bar", w, direction="chain")
        assert cross_check(rep) == []
        rep = build_report(fx.heisenberg(), "hamiltonian", w, direction="chain")
        assert cross_check(rep) == []


def test_annihilator_runs_on_degenerate_structure():
    # rank-2 constant structure on R^3: the subcomplex machinery must
    # stay consistent even though nothing is symplectic here
    rep = build_report(fx.constant_r3(), "pi-annihilator", -2)
    assert cross_check(rep) == []
    assert not rep.is_empty()


def test_annihilator_of_the_zero_structure_is_the_whole_complex():
    """With no entries the 2-cochain is zero, so no word has a live slot
    in the coboundary or in the phantom wedge: every map is all zero,
    the wedge kernels are the unit vectors, and pi-annihilator gives the
    poly-bar rows with every rank 0."""
    for n, weights in ((2, range(-2, 3)), (3, range(-3, 0))):
        pi = PoissonStructure(n, 0, {})
        for w in weights:
            rows = build_report(pi, "pi-annihilator", w).rows
            assert rows == build_report(pi, "poly-bar", w).rows
            assert rows and all(r.rank == 0 for r in rows)


def test_annihilator_checks_every_basis(monkeypatch):
    """pi-annihilator checks its weight-w bases and its weight-(w - 2)
    wedge targets against the signature count, as the other context
    modes check theirs."""
    seen = []
    real = complexes.basis_dimension_check

    def spy(ctx, m, w, basis):
        seen.append((m, w))
        real(ctx, m, w, basis)

    monkeypatch.setattr(complexes, "basis_dimension_check", spy)
    build_report(fx.symplectic_r2(), "pi-annihilator", 2)
    hi = weight_degree_range(PolyContext(fx.symplectic_r2(), "bar"), 2)
    assert sorted(seen) == sorted([(m, 2) for m in range(hi + 2)]
                                  + [(m + 2, 0) for m in range(hi + 2)])


def test_run_widened_weight_range():
    reports = run(fx.sl2(), "poly-bar", range(-3, 2))
    assert [r.weight for r in reports] == [-3, -2, -1, 0, 1]
    assert all(r.is_empty() for r in reports[:3])
    assert not reports[3].is_empty()


def test_cache_round_trip(tmp_path):
    cache = str(tmp_path / "cache")
    first = run(fx.sl2(), "poly-bar", [1], cache_dir=cache)
    files = os.listdir(cache)
    assert len(files) == 1
    second = run(fx.sl2(), "poly-bar", [1], cache_dir=cache)
    assert first[0].rows == second[0].rows
    # cache hit returns the byte-identical serialized payload
    path = os.path.join(cache, files[0])
    with open(path) as fh:
        payload = fh.read()
    assert second[0].serialize() == payload


def _check_cache_hit_names(name, mode, cache, order):
    """The built-in structure `name` and its structure file have the same
    terms, so they share one cache key; whichever comes second is a cache
    hit, and its report must still name the structure that was asked
    for."""
    path = os.path.join(os.path.dirname(fx.__file__), "structures", name + ".poisson")
    pair = [fx.load_structure("builtin:" + name), fx.load_structure(path)]
    assert pair[0].name != pair[1].name
    assert pair[0].serialize() == pair[1].serialize()

    def text(rep):
        return [line for line in rep.serialize().splitlines()
                if not line.startswith("seconds")]

    for i in order:
        rep = run(pair[i], mode, [1], cache_dir=cache)[0]
        assert rep.structure == pair[i].name, i
        assert text(rep) == text(build_report(pair[i], mode, 1)), i
    assert len(os.listdir(cache)) == 1


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_cache_hit_reports_requested_structure_name(tmp_path, order):
    _check_cache_hit_names("sl2", "poly-bar", str(tmp_path / "cache"), order)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_poisson_like_report_names_its_structure(tmp_path, order):
    """A graded 2-vector is named like a Poisson structure: its builtin
    name or its file path, in fresh reports and cache hits alike."""
    _check_cache_hit_names("poisson_like_h1", "poisson-like", str(tmp_path / "cache"), order)


def test_cache_key_tells_dimensions_apart(tmp_path):
    """d1^d2 on R^2 and on R^3 have the same v line, so the cache key
    must hash n and h as well: through one cache directory each gets
    its own rows.  With one mode for all, only the structure text tells
    the keys of the builtins apart, and no two of them share a key."""
    cache = str(tmp_path / "cache")
    pair = [parse_structure("n = %d\nh = 0\nv 1 d1 ; 1 d2\n" % n) for n in (2, 3)]
    fresh = [build_report(s, "poisson-like", 1).rows for s in pair]
    assert fresh[0] != fresh[1]
    for s, rows in zip(pair, fresh):
        assert run(s, "poisson-like", [1], cache_dir=cache)[0].rows == rows
    assert len(os.listdir(cache)) == 2
    keys = {cache_key(fx.load_structure("builtin:" + name), "poly-bar", 1, "cochain")
            for name in fx.builtin_names()}
    assert len(keys) == len(fx.builtin_names()) == 18


def test_parse_rejects_partial_reports():
    """A missing header line or a short row in an otherwise whole report;
    test_cache_rebuilds_cut_or_foreign_file covers cut files."""
    text = build_report(fx.sl2(), "poly-bar", 2).serialize()
    for bad in (text.replace("direction = cochain\n", ""),
                text.replace(" 0\n", "\n", 1)):
        with pytest.raises(ValueError):
            ComplexReport.parse(bad)


def test_cache_rebuilds_cut_or_foreign_file(tmp_path):
    """A cache file cut at any line boundary, in the middle of a row, to
    empty, holding a report of another weight, or whole but failing
    cross_check (ker and rank swapped in one row, which keeps the dims
    and the euler line) is a miss: run returns the fresh rows and leaves
    a whole report in the file."""
    cache = str(tmp_path / "cache")
    fresh = run(fx.sl2(), "poly-bar", [2], cache_dir=cache)[0]
    (name,) = os.listdir(cache)
    path = os.path.join(cache, name)
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    row = lines[-3]
    assert row[0].isdigit()
    cuts = ["".join(lines[:k]) for k in range(len(lines) + 1)]
    cuts.append("".join(lines[:-3]) + row[:len(row) // 2])
    cuts.append(build_report(fx.sl2(), "poly-bar", 1).serialize())
    m, dim, ker, rank, betti = row.split()
    assert ker != rank
    swapped = "".join(lines[:-3] + [" ".join([m, dim, rank, ker, betti]) + "\n"]
                      + lines[-2:])
    assert cross_check(ComplexReport.parse(swapped))
    cuts.append(swapped)
    for text in cuts:
        with open(path, "w") as fh:
            fh.write(text)
        rep = run(fx.sl2(), "poly-bar", [2], cache_dir=cache)[0]
        assert rep.rows == fresh.rows, text
        with open(path) as fh:
            assert ComplexReport.parse(fh.read()).rows == fresh.rows
    assert os.listdir(cache) == [name]


_WRITER = """
import sys
from poisson_cohom import engine, fixtures
for _ in range(int(sys.argv[2])):
    engine.run(fixtures.sl2(), "poly-bar", [2], cache_dir=sys.argv[1],
               matrix_sink=lambda m, d: None)
"""


def test_concurrent_cache_writers(tmp_path):
    """Two processes write the same cache key again and again (a matrix
    sink makes every run build and write); the file left behind is one
    whole report equal to a fresh one, and no temporary file remains."""
    cache = str(tmp_path / "cache")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(engine.__file__)))
    procs = [subprocess.Popen([sys.executable, "-c", _WRITER, cache, "25"], env=env)
             for _ in range(2)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    (name,) = os.listdir(cache)
    assert name == cache_key(fx.sl2(), "poly-bar", 2, "cochain") + ".report"
    with open(os.path.join(cache, name)) as fh:
        got = ComplexReport.parse(fh.read())
    fresh = build_report(fx.sl2(), "poly-bar", 2)
    assert (got.mode, got.weight, got.direction, got.rows) == \
        (fresh.mode, fresh.weight, fresh.direction, fresh.rows)


def test_code_version_keys_the_cache(tmp_path, monkeypatch):
    assert len(engine.CODE_VERSION) == 64
    cache = str(tmp_path / "cache")
    builds = []
    real = engine.build_report
    monkeypatch.setattr(engine, "build_report",
                        lambda *a, **k: builds.append(a) or real(*a, **k))
    for version, expect in (("old", 1), ("old", 1), ("new", 2)):
        monkeypatch.setattr(engine, "CODE_VERSION", version)
        run(fx.sl2(), "poly-bar", [1], cache_dir=cache)
        assert len(builds) == expect
    assert len(os.listdir(cache)) == 2


def test_cache_key_sensitivity():
    k1 = cache_key(fx.sl2(), "poly-bar", 1, "cochain")
    k2 = cache_key(fx.sl2(), "poly-bar", 2, "cochain")
    k3 = cache_key(fx.heisenberg(), "poly-bar", 1, "cochain")
    k4 = cache_key(fx.sl2(), "hamiltonian", 1, "cochain")
    assert len({k1, k2, k3, k4}) == 4


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        build_report(fx.sl2(), "nonsense", 1)
    with pytest.raises(ValueError):
        build_report(fx.sl2(), "poly-bar", 1, direction="sideways")


def test_poisson_like_needs_graded_structure():
    with pytest.raises(ValueError):
        build_report(fx.sl2(), "poisson-like", 0)


def test_matrix_sink_receives_all_degrees(tmp_path):
    seen = {}
    build_report(fx.sl2(), "poly-bar", 1,
                 matrix_sink=lambda m, mat: seen.setdefault(m, mat))
    assert sorted(seen) == [1, 2, 3, 4]
    assert seen[1].n_cols == 6 and seen[1].n_rows == 18


def test_matrix_sink_bypasses_warm_cache(tmp_path):
    cache = str(tmp_path / "cache")
    for _ in range(2):
        seen = {}
        rep = run(fx.sl2(), "poly-bar", [1], cache_dir=cache,
                  matrix_sink=lambda m, mat: seen.setdefault(m, mat))[0]
        assert sorted(seen) == [1, 2, 3, 4]
        assert len(os.listdir(cache)) == 1
    assert rep.rows == run(fx.sl2(), "poly-bar", [1], cache_dir=cache)[0].rows


def _builders(maps: dict) -> dict:
    """The zero-argument map builders _complex_rows takes, one per map."""
    return {m: (lambda d=d: d) for m, d in maps.items()}


def test_complex_rows_directions_and_ambient_check():
    one = cells_matrix(1, 1, {(0, 0): 1})
    # cochain 0 -> 1: betti = ker - rank of the incoming map from m - 1
    assert _complex_rows({0: 1, 1: 1}, _builders({0: one}), 1) == [
        ReportRow(0, 1, 0, 1, 0), ReportRow(1, 1, 1, 0, 0)]
    # chain 1 -> 0: the incoming map comes from m + 1
    assert _complex_rows({0: 1, 1: 1}, _builders({1: one}), -1) == [
        ReportRow(0, 1, 1, 0, 0), ReportRow(1, 1, 0, 1, 0)]
    with pytest.raises(AssertionError):
        _complex_rows({0: 1, 1: 1, 2: 1}, _builders({0: one, 1: one}), 1)


RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def exact_cochain_maps(draw):
    """dims and maps[m]: C_m -> C_{m+1} of a random exact cochain complex.
    d_0 is random; each later d_{m+1} is a random rational combination of
    a kernel basis of d_m's transpose, so it kills im d_m by construction.
    Entries carry denominators 1-6."""
    dims = draw(st.lists(st.integers(1, 7), min_size=2, max_size=6))
    maps: dict = {}
    for m in range(len(dims) - 1):
        if m == 0:
            basis = [{c: 1} for c in range(dims[0])]
        else:
            basis = rank_kernel(transpose(maps[m - 1]), want_basis=True).kernel
        coeffs = draw(st.lists(st.lists(st.one_of(st.just(0), RATIONALS),
                                        min_size=len(basis), max_size=len(basis)),
                               min_size=dims[m + 1], max_size=dims[m + 1]))
        entries: dict = {}
        for r, row in enumerate(coeffs):
            for a, vec in zip(row, basis):
                for c, y in vec.items():
                    entries[(r, c)] = entries.get((r, c), 0) + a * y
        maps[m] = cells_matrix(dims[m + 1], dims[m], entries)
    return dims, maps


@settings(max_examples=200, deadline=None, database=None)
@given(exact_cochain_maps())
def test_cleared_ranks_equal_plain_ranks(complex_):
    """The ranks _complex_rows takes with clearing equal the plain ranks
    of every full map, for the cochain complex and for its transpose, the
    chain complex maps[m + 1] = d_m^T: C_{m+1} -> C_m."""
    dims, cochain = complex_
    chain = {m + 1: transpose(d) for m, d in cochain.items()}
    for maps, step in ((cochain, 1), (chain, -1)):
        rows = _complex_rows(dict(enumerate(dims)), _builders(maps), step)
        assert {r.m: r.rank for r in rows if r.m in maps} == \
            {m: rank_kernel(d).rank for m, d in maps.items()}


def _first_failing_pair(maps: dict, step: int):
    """The degree m of the first pair maps[m + step] o maps[m] that is not
    exactly zero, in complex order, by the full product; None if none is."""
    for m in sorted(maps, reverse=step < 0):
        if m + step in maps and not compose_is_zero(maps[m + step], maps[m]):
            return m
    return None


@settings(max_examples=200, deadline=None, database=None)
@given(exact_cochain_maps(), st.data())
def test_d_o_d_check_catches_every_single_entry_change(complex_, data):
    """Changing one entry of one map of an exact complex makes _complex_rows
    raise exactly when some adjacent pair's full product is nonzero, and
    name the first such pair in complex order: the check on the retired
    columns misses nothing and raises no false alarm, whether the entry
    sits in a cleared or a kernel column.  Checked on the cochain complex
    and on its transpose, the chain complex."""
    dims, cochain = complex_
    m = data.draw(st.sampled_from(sorted(cochain)), label="map")
    d = cochain[m]
    r = data.draw(st.integers(0, d.n_rows - 1), label="row")
    c = data.draw(st.integers(0, d.n_cols - 1), label="column")
    delta = data.draw(RATIONALS.filter(bool), label="delta")
    cells = {k: Fraction(v, d.denom) for k, v in d.entries.items()}
    cells[(r, c)] = cells.get((r, c), 0) + delta
    cochain = {**cochain, m: cells_matrix(d.n_rows, d.n_cols, cells)}
    chain = {k + 1: transpose(e) for k, e in cochain.items()}
    for maps, step in ((cochain, 1), (chain, -1)):
        failing = _first_failing_pair(maps, step)
        if failing is None:
            _complex_rows(dict(enumerate(dims)), _builders(maps), step)
        else:
            with pytest.raises(AssertionError, match="at degree %d$" % failing):
                _complex_rows(dict(enumerate(dims)), _builders(maps), step)


@pytest.mark.parametrize("name, mode, weights, direction", [
    ("solvable22", "poly-with-constants", range(6), "chain"),
    ("poisson_like_h2", "poisson-like", [-2], "cochain"),
])
def test_d_o_d_check_multiplies_rank_many_columns(monkeypatch, name, mode, weights,
                                                  direction):
    """Each d o d = 0 check multiplies the next map by exactly rank(d_m)
    columns of d_m, not by the whole map."""
    calls = []

    def spy(a, b):
        calls.append(b.n_cols)
        return compose_is_zero(a, b)

    monkeypatch.setattr(engine, "compose_is_zero", spy)
    pi = fx.load_structure("builtin:" + name)
    step = -1 if direction == "chain" else 1
    for w in weights:
        seen: dict = {}
        calls.clear()
        build_report(pi, mode, w, direction, matrix_sink=seen.__setitem__)
        pairs = [m for m in sorted(seen, reverse=step < 0) if m + step in seen]
        assert pairs and calls == [rank_kernel(seen[m]).rank for m in pairs], w
        assert sum(calls) < sum(seen[m].n_cols for m in pairs), w


@pytest.mark.parametrize("name, mode, w, direction", [
    ("sl2", "hamiltonian", 3, "cochain"),
    ("solvable22", "poly-with-constants", 4, "chain"),
    ("symplectic_r2", "pi-annihilator", 2, "cochain"),
    ("so4", "poly-module", 4, "cochain"),
    ("poisson_like_h2", "poisson-like", -2, "cochain"),
])
def test_clearing_matches_plain_ranks_on_real_complexes(name, mode, w, direction):
    """Every rank of a report equals the plain rank of the full map the
    matrix sink received for its degree."""
    seen: dict = {}
    rep = build_report(fx.load_structure("builtin:" + name), mode, w, direction,
                       matrix_sink=seen.__setitem__)
    assert seen and any(r.rank for r in rep.rows)
    assert {r.m: r.rank for r in rep.rows} == \
        {r.m: rank_kernel(seen[r.m]).rank if r.m in seen else 0 for r in rep.rows}


class _Tracked(SparseMatrix):
    """A built map whose lifetime a weak reference can follow."""

    __slots__ = ("__weakref__",)


# (structure, mode, weight, direction, the engine function that builds a map)
_STREAMED = [
    ("sl2", "poly-bar", 2, "cochain", "cochain_matrix"),
    ("sl2", "poly-bar", 2, "chain", "boundary_matrix"),
    ("solvable22", "poly-with-constants", 3, "cochain", "cochain_matrix"),
    ("solvable22", "poly-with-constants", 3, "chain", "boundary_matrix"),
    ("sl2", "hamiltonian", 3, "cochain", "cochain_matrix"),
    ("sl2", "hamiltonian", 3, "chain", "boundary_matrix"),
    ("symplectic_r2", "pi-annihilator", 2, "cochain", "in_span_coordinates"),
    ("poisson_like_h2", "poisson-like", -2, "cochain", "cochain_matrix"),
    ("sl2", "poly-module", 2, "cochain", "poly_module_matrix"),
]


@pytest.mark.parametrize("name, mode, w, direction, builder", _STREAMED)
def test_maps_are_built_once_in_complex_order_two_alive(monkeypatch, name, mode, w,
                                                        direction, builder):
    """Without a matrix sink, every map is built exactly once and in
    complex order, the same map the sink receives, and no more than two
    built maps are alive at any build."""
    pi = fx.load_structure("builtin:" + name)
    seen: dict = {}
    want = build_report(pi, mode, w, direction, matrix_sink=seen.__setitem__)
    order = sorted(seen, reverse=direction == "chain")
    assert len(order) >= 3
    real = getattr(engine, builder)
    built, refs, alive = [], [], []

    def tracked(*args):
        d = real(*args)
        t = _Tracked(d.n_rows, d.cols, d.denom)
        refs.append(weakref.ref(t))
        alive.append(sum(r() is not None for r in refs))
        built.append((d.n_rows, d.cols, d.denom))
        return t

    monkeypatch.setattr(engine, builder, tracked)
    assert build_report(pi, mode, w, direction).rows == want.rows
    assert built == [(seen[m].n_rows, seen[m].cols, seen[m].denom) for m in order]
    assert max(alive) <= 2, alive


@pytest.mark.parametrize("name, mode, w, direction, builder", _STREAMED)
def test_sink_gets_every_map_ascending_before_any_rank(monkeypatch, name, mode, w,
                                                       direction, builder):
    """The matrix sink receives every map, in ascending degree, before
    the first map is ranked; each map is then ranked once.  The
    annihilator's wedge kernels, ranked with want_basis, come first."""
    events = []
    real = engine.rank_kernel

    def spy(d, want_basis=False):
        if not want_basis:
            events.append("rank")
        return real(d, want_basis)

    monkeypatch.setattr(engine, "rank_kernel", spy)
    build_report(fx.load_structure("builtin:" + name), mode, w, direction,
                 matrix_sink=lambda m, d: events.append(m))
    sunk = [e for e in events if e != "rank"]
    assert len(sunk) >= 3
    assert events == sorted(sunk) + ["rank"] * len(sunk)


class _Words(list):
    """A word list whose lifetime a weak reference can follow."""

    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("sink", [False, True], ids=["streamed", "sink"])
@pytest.mark.parametrize("name, mode, w, direction", [
    ("solvable22", "poly-with-constants", 4, "cochain"),
    ("solvable22", "poly-with-constants", 4, "chain"),
    ("poisson_like_h2", "poisson-like", -2, "cochain"),
])
def test_two_word_lists_alive_at_each_map(monkeypatch, name, mode, w, direction, sink):
    """A context mode builds each degree's word list once, when a map
    first reads it, and drops it after the last map that reads it:
    whenever a map is placed, in complex order or in the ascending
    pre-build of a matrix sink, no more than two word lists are alive."""
    pi = fx.load_structure("builtin:" + name)
    want = build_report(pi, mode, w, direction)
    real_basis = engine.build_basis
    refs, degrees, alive = [], [], []

    def basis(*args):
        out = _Words(real_basis(*args))
        refs.append(weakref.ref(out))
        degrees.append(args[1])
        return out

    def counting(real):
        def place(*args):
            alive.append(sum(r() is not None for r in refs))
            return real(*args)
        return place

    monkeypatch.setattr(engine, "build_basis", basis)
    for builder in ("cochain_matrix", "boundary_matrix"):
        monkeypatch.setattr(engine, builder, counting(getattr(engine, builder)))
    rep = build_report(pi, mode, w, direction, matrix_sink={}.__setitem__ if sink else None)
    assert rep.rows == want.rows
    assert len(alive) >= 3 and max(alive) <= 2, alive
    assert len(degrees) == len(set(degrees)), degrees


def test_streamed_maps_lower_the_traced_peak():
    """solvable22 poly-with-constants, chain direction, w = 4: the traced
    peak of a build without a sink stays below 0.9 of the peak of the
    same build with a sink that keeps every map alive."""
    pi = fx.solvable22()
    want = build_report(pi, "poly-with-constants", 4, "chain")
    peaks = []
    for sink in (None, {}.__setitem__):
        tracemalloc.start()
        try:
            rep = build_report(pi, "poly-with-constants", 4, "chain", matrix_sink=sink)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rep.rows == want.rows
    assert peaks[0] < 0.9 * peaks[1], peaks


def test_space_dims_count_every_built_basis(monkeypatch):
    """engine.space_dims counts, with no word built, exactly the nonempty
    bases each mode builds, the annihilator's wedge targets included, on
    every fast golden and on the chain direction of the context modes."""
    built = []

    def spy(real, degree):
        def basis(*args):
            out = real(*args)
            built.append((args[-1], degree(args), len(out)))
            return out
        return basis

    monkeypatch.setattr(engine, "build_basis", spy(engine.build_basis, lambda a: a[1]))
    monkeypatch.setattr(engine, "poly_module_basis",
                        spy(engine.poly_module_basis, lambda a: a[2]))
    tasks = []
    for path in _golden_paths(None):
        with open(path) as fh:
            spec = parse_golden(fh.read())
        if not spec["slow"]:
            tasks.append((spec["structure"], spec["mode"], spec["weight"], "cochain"))
    tasks += [("builtin:solvable22", "poly-with-constants", 3, "chain"),
              ("builtin:sl2", "hamiltonian", 2, "chain")]
    assert {mode for _, mode, _, _ in tasks} == set(engine.MODES)
    for structure, mode, w, direction in tasks:
        pi = fx.load_structure(structure)
        built.clear()
        build_report(pi, mode, w, direction)
        counted = engine.space_dims(pi, mode, w)
        assert sorted(t for t in counted if t[2]) == sorted(t for t in built if t[2]), \
            (structure, mode, w)


def _unimodular(n: int, seed: int) -> tuple:
    """An integer matrix of determinant -1 and its inverse: x_1 -> -x_1
    followed by random shears row_i += c row_j."""
    rng = random.Random(seed)
    a = [[(-1 if i == 0 else 1) * (i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in a]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in inv:
            row[j] -= c * row[i]
    return a, inv


def _substitute(p: RatPoly, inv: list) -> RatPoly:
    """p(x) with x = inv y substituted."""
    n = p.n
    forms = [RatPoly(n, {mi_unit(n, l): inv[k][l] for l in range(n)}) for k in range(n)]
    out = RatPoly.zero(n)
    for mono, c in p.terms.items():
        term = RatPoly.const(n, c)
        for k, e in enumerate(mono):
            for _ in range(e):
                term = term * forms[k]
        out = out + term
    return out


def _in_coordinates(pi: PoissonStructure, a: list, inv: list) -> PoissonStructure:
    """pi in the coordinates y = a x: {y_i, y_j} = sum_kl a_ik a_jl p_kl(x)
    with x = inv y substituted."""
    n = pi.n
    p = {(k, l): _substitute(entry(pi, k, l), inv) for k in range(n) for l in range(n)}
    entries = {(i, j): sum((p[k, l].scale(a[i][k] * a[j][l])
                            for k in range(n) for l in range(n)), RatPoly.zero(n))
               for i in range(n) for j in range(i + 1, n)}
    return PoissonStructure(n, pi.h, entries)


_UNIMODULAR_ROWS = [
    ("symplectic_r2", "pi-annihilator", "cochain", range(0, 3), 3),
    # p_12 = 3, p_23 = -2: some kernel vectors have only non-unit private
    # entries, so the annihilator maps are read off with a denominator
    ("constant_r3", "pi-annihilator", "cochain", range(-2, 0), 7),
    ("sl2", "poly-bar", "cochain", range(0, 3), 1),
    ("sl2", "hamiltonian", "cochain", range(0, 3), 2),
    ("heisenberg", "poly-bar", "cochain", range(0, 3), 1),
    ("heisenberg", "hamiltonian", "cochain", range(0, 3), 2),
    ("sl2", "poly-with-constants", "cochain", range(0, 3), 4),
    ("solvable22", "poly-with-constants", "cochain", range(0, 3), 5),
    ("sl2", "poly-module", "cochain", range(0, 4), 6),
    ("heisenberg", "poly-module", "cochain", range(0, 4), 6),
    ("pibar", "poly-module", "cochain", range(-2, 2), 8),
    ("sl2", "poly-bar", "chain", range(0, 3), 1),
    ("solvable22", "poly-with-constants", "chain", range(0, 3), 5),
]


# ids name the direction only when it is not the cochain default, and end
# in the seed each case always runs
@pytest.mark.parametrize("name, mode, direction, weights, seed", _UNIMODULAR_ROWS, ids=[
    "%s-%s%s-weights%d-%d" % (name, mode, "" if direction == "cochain" else "-" + direction,
                              i, seed)
    for i, (name, mode, direction, _, seed) in enumerate(_UNIMODULAR_ROWS)])
def test_rows_invariant_under_unimodular_change(name, mode, direction, weights, seed):
    """A linear change of coordinates in GL(n, Z) is an isomorphism of
    every complex, weight by weight, so every report row is unchanged:
    for the case's own seed, built with a matrix sink, and for the seeds
    Hypothesis searches, built without one, so random coordinates also
    go through the streamed maps and bases."""
    pi = fx.load_structure("builtin:" + name)
    want = {w: build_report(pi, mode, w, direction).rows for w in weights}

    def check(seed: int, matrix_sink=None) -> None:
        a, inv = _unimodular(pi.n, seed)
        assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*inv)] for row in a] \
            == [[int(i == j) for j in range(pi.n)] for i in range(pi.n)]
        changed = _in_coordinates(pi, a, inv)
        assert changed.p != pi.p
        for w in weights:
            rep = build_report(changed, mode, w, direction, matrix_sink=matrix_sink)
            assert rep.rows == want[w], (seed, w)
            assert not rep.is_empty()

    denoms = []
    check(seed, lambda m, d: denoms.append(d.denom))
    if name == "constant_r3":
        assert max(denoms) > 1

    @settings(max_examples=3, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1))
    def search(drawn):
        check(drawn)

    search()


def _like_in_coordinates(x: GradedMultiVector, a: list, inv: list) -> GradedMultiVector:
    """The 2-vector x in the coordinates y = a x: a generator x^A d_i
    becomes the field sum_k (x^A with x = inv y substituted) a_ki d_k."""
    n = x.n

    def field(gen):
        mono, i = gen
        p = _substitute(RatPoly.monomial(mono), inv)
        return [(p.scale(a[k][i]), k) for k in range(n)]

    out = GradedMultiVector(n, 2)
    for (u1, u2), c in x.terms.items():
        out = out + wedge2(field(u1), field(u2), n).scale(c)
    return out


@pytest.mark.parametrize("name, weights", [
    ("poisson_like_h0", range(2, 5)),
    ("poisson_like_h1", range(0, 3)),
    ("poisson_like_h2", range(-3, -1)),
])
def test_poisson_like_rows_invariant_under_unimodular_change(name, weights):
    """The same isomorphism for the R-linear multivector complex: a 2-vector
    in new coordinates is still Poisson-like and has the same rows."""
    x = fx.load_structure("builtin:" + name)
    a, inv = _unimodular(x.n, 1)
    changed = _like_in_coordinates(x, a, inv)
    assert changed != x
    assert r_schouten(changed, changed).is_zero()
    for w in weights:
        rep = build_report(changed, "poisson-like", w)
        assert rep.rows == build_report(x, "poisson-like", w).rows, w
        assert not rep.is_empty()


def test_report_euler_matches_combinatorial_count():
    """Metamorphic Euler check: the alternating sum of a report's dims
    equals the count from the signatures alone, euler_combinatorial for
    every fast poly-bar golden and euler_polymodule for every poly-module
    golden, plus poly-bar at w = 0, whose m = 0 scalar slot the goldens
    do not reach."""
    formulas = {"poly-bar": euler_combinatorial, "poly-module": euler_polymodule}
    tasks = [("builtin:sl2", "poly-bar", 0), ("builtin:h2_case1", "poly-bar", 0)]
    for path in _golden_paths(None):
        with open(path) as fh:
            spec = parse_golden(fh.read())
        if spec["mode"] in formulas and not spec["slow"]:
            tasks.append((spec["structure"], spec["mode"], spec["weight"]))
    assert len(tasks) == 57
    for structure, mode, w in tasks:
        pi = fx.load_structure(structure)
        rep = build_report(pi, mode, w)
        assert rep.euler == formulas[mode](pi.n, pi.h, w), (structure, mode, w)
    assert build_report(fx.sl2(), "poly-bar", 0).row_at(0).dim == 1
