import os
import subprocess
import sys

import pytest

from poisson_cohom.cli import (CACHE_ENV, _golden_paths, main, parse_golden, render_table,
                               run_goldens)
from poisson_cohom.engine import ComplexReport, build_report
from poisson_cohom import cli, complexes, diagrams, engine, fixtures as fx

STRUCT_DIR = os.path.join(os.path.dirname(fx.__file__), "structures")
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SRC_DIR = os.path.dirname(os.path.dirname(fx.__file__))


def test_render_table_sl2(capsys):
    rep = build_report(fx.sl2(), "poly-bar", 1)
    text = render_table(rep)
    lines = text.splitlines()
    assert lines[1].split()[1:] == ["6", "18", "18", "6"]
    assert lines[2].split()[1:] == ["1", "5", "13", "6"]
    assert lines[3].split()[1:] == ["5", "13", "5", "0"]
    assert lines[4].split()[1:] == ["1", "0", "0", "1"]
    assert lines[-1] == "Euler = 0"


def test_render_table_byte_stable_and_empty():
    a = render_table(build_report(fx.sl2(), "poly-bar", 1))
    b = render_table(build_report(fx.sl2(), "poly-bar", 1))
    assert a == b
    assert render_table(build_report(fx.sl2(), "poly-bar", -3)) == "(empty complex)"


def test_check_command_ok():
    assert main(["check", "builtin:sl2"]) == 0
    assert main(["check", os.path.join(STRUCT_DIR, "sl2.poisson")]) == 0


def test_check_command_bad_input():
    assert main(["check", "builtin:nonexistent"]) == 2


def test_check_and_betti_name_the_failing_triple(tmp_path, capsys):
    """A non-Poisson file: `check` names the first failing triple with its
    cyclic-sum residual, and `betti` refuses the file with the same one."""
    path = tmp_path / "bad.poisson"
    path.write_text("n = 4\nh = 2\np 1 2 = 1/2*x1*x3\np 1 3 = x2^2 - 2/3*x4^2\n"
                    "p 2 4 = x1*x2\np 3 4 = 3*x3^2\n")
    failure = "(1,2,3), residual -1/2*x2^2*x3 + 4/3*x1*x2*x4 + 1/3*x3*x4^2"
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == ("n = 4, h = 2, entries = 4\n"
                                       "Jacobi identity: FAILS at %s\n" % failure)
    assert main(["betti", str(path), "--mode", "poly-bar", "--weights", "1"]) == 2
    assert capsys.readouterr().err == ("error: Jacobi identity fails at %s\n"
                                       % failure.replace(", residual", ":"))


def test_betti_command_structured(capsys):
    rc = main(["betti", "builtin:heisenberg", "--mode", "hamiltonian",
               "--weights", "1", "--format", "structured"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode = hamiltonian" in out
    assert "1 5 3 2 3" in out  # m dim ker rank betti


def test_betti_command_case3(capsys):
    rc = main(["betti", "builtin:h2_case3", "--mode", "hamiltonian",
               "--weights", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "5  3" in out


def test_betti_rejects_empty_weights():
    assert main(["betti", "builtin:sl2", "--weights", " "]) == 2


@pytest.mark.parametrize("weights", ["abc", "1..x"])
def test_betti_rejects_non_numeric_weights(capsys, weights):
    assert main(["betti", "builtin:sl2", "--weights", weights]) == 2
    assert capsys.readouterr().err.startswith("error: bad weight")


def test_negative_weight_range_equals_form(capsys):
    rc = main(["betti", "builtin:pibar", "--mode", "poly-module",
               "--weights=-3..-2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "weight -3:" in out and "weight -2:" in out


def test_euler_command(capsys):
    rc = main(["euler", "--n", "3", "--h", "2", "--weights", "1..7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "-3 -3 7 12 15 -20 -54" in out


def test_dump_matrices(tmp_path, capsys):
    rc = main(["betti", "builtin:sl2", "--weights", "1",
               "--dump-matrices", str(tmp_path)])
    assert rc == 0
    files = sorted(os.listdir(tmp_path))
    assert files == ["poly-bar_w1_d1.mtx", "poly-bar_w1_d2.mtx",
                     "poly-bar_w1_d3.mtx", "poly-bar_w1_d4.mtx"]
    head = open(tmp_path / "poly-bar_w1_d1.mtx").read().splitlines()
    assert head[0] == "18 6"
    assert all(len(line.split()) == 3 for line in head[1:])


@pytest.mark.parametrize("args, prefix, degrees", [
    (["builtin:sl2", "--direction", "chain", "--weights", "1"], "poly-bar_w1", range(1, 5)),
    (["builtin:symplectic_r2", "--mode", "pi-annihilator", "--weights", "2"],
     "pi-annihilator_w2", range(2, 10)),
])
def test_dump_matrices_every_ranked_map(tmp_path, capsys, monkeypatch, args,
                                        prefix, degrees):
    """Chain boundaries and the annihilator's subcomplex maps are dumped
    like cochain differentials, one file per source degree."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert main(["betti", *args, "--dump-matrices", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["%s_d%d.mtx" % (prefix, m) for m in degrees]
    if "chain" in args:  # the boundary from degree 2 (18) to degree 1 (6)
        assert open(tmp_path / "poly-bar_w1_d2.mtx").readline() == "6 18\n"


def test_annihilator_dumps_map_between_kernel_bases(tmp_path, capsys, monkeypatch):
    """Each pi-annihilator dump is the differential K_m -> K_{m+1} in the
    kernel bases: its header is dim K_{m+1} dim K_m, the golden dims."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert main(["betti", "builtin:symplectic_r2", "--mode", "pi-annihilator",
                 "--weights", "2", "--dump-matrices", str(tmp_path)]) == 0
    golden = os.path.join(os.path.dirname(fx.__file__), "goldens", "sympl_ann_w2.golden")
    dims = {row[0]: row[1] for row in parse_golden(open(golden).read())["rows"]}
    for m, dim in dims.items():
        head = open(tmp_path / ("pi-annihilator_w2_d%d.mtx" % m)).readline()
        assert head == "%d %d\n" % (dims.get(m + 1, 0), dim), m
    assert open(tmp_path / "pi-annihilator_w2_d3.mtx").readline() == "219 83\n"


def test_failing_d_o_d_check_leaves_the_dumped_maps(tmp_path, capsys, monkeypatch):
    """A non-Poisson file run with --no-check: the matrix sink writes every
    map of w = 0 before the d o d = 0 check fails there, and the error
    names the degree of the first failing pair in complex order."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    path = tmp_path / "bad.poisson"
    path.write_text("n = 3\nh = 1\np 1 2 = x3\np 1 3 = x1\np 2 3 = x1\n")
    dump = tmp_path / "dump"
    assert main(["betti", str(path), "--no-check", "--mode", "poly-bar",
                 "--weights", "0,1,2", "--dump-matrices", str(dump)]) == 1
    assert capsys.readouterr().err == "invariant failure: d o d != 0 at degree 1\n"
    assert sorted(os.listdir(dump)) == ["poly-bar_w0_d%d.mtx" % m for m in range(4)]


_BAD_MODE_ARGS = [
    ["builtin:poisson_like_h2", "--mode", "poisson-like", "--direction", "chain",
     "--weights=-3"],
    ["builtin:sl2", "--mode", "poly-module", "--direction", "chain", "--weights", "1"],
    ["builtin:symplectic_r2", "--mode", "pi-annihilator", "--direction", "chain",
     "--weights", "1"],
    ["builtin:poisson_like_h2", "--mode", "poly-bar", "--weights", "1"],
    ["builtin:sl2", "--mode", "poisson-like", "--weights", "1"],
]


@pytest.mark.parametrize("args", _BAD_MODE_ARGS + [
    args + ["--max-dim", "10"] for args in _BAD_MODE_ARGS])
def test_betti_bad_mode_combination_exits_2(capsys, args):
    """Refused before any space is counted, with or without --max-dim."""
    assert main(["betti", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "mode" in err


def _cli_env() -> dict:
    """The environment of a CLI subprocess: this package first on the
    path, and no cache."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return env


def test_zero_structure_hamiltonian_terminates(tmp_path):
    """Every polynomial is a Casimir of the zero structure, so every
    Hamiltonian generator space is empty and only the w = 0 scalar is
    left.  The CLI runs in a subprocess, so a signature search that never
    ends fails the test instead of blocking the suite."""
    path = tmp_path / "zero.poisson"
    path.write_text("n = 2\nh = 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "poisson_cohom.cli", "betti", str(path),
         "--mode", "hamiltonian", "--weights", "0..3", "--format", "structured"],
        capture_output=True, text=True, timeout=60, env=_cli_env())
    assert proc.returncode == 0, proc.stderr
    reports = [ComplexReport.parse(block) for block in proc.stdout.split("\n\n")
               if block.strip()]
    got = [(r.weight, [(row.m, row.dim, row.kernel_dim, row.rank, row.betti)
                       for row in r.rows]) for r in reports]
    assert got == [(0, [(0, 1, 1, 0, 1)]), (1, []), (2, []), (3, [])]


def test_closed_stdout_pipe_exits_141_quietly():
    """A reader that stops after the first report, as `| head` does, ends
    `betti` with exit 141 (128 + SIGPIPE) and nothing on stderr.  The
    pipe closes while the later weights (w = 5 alone takes seconds) are
    still being computed, and -u makes every report reach it at once."""
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "poisson_cohom.cli", "betti", "builtin:poisson_like_h1",
         "--mode", "poisson-like", "--weights", "1..5", "--format", "structured"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_cli_env())
    first = []
    for line in proc.stdout:
        if not line.strip():
            break
        first.append(line)
    proc.stdout.close()
    try:
        err = proc.communicate(timeout=60)[1]
    finally:
        proc.kill()
    assert ComplexReport.parse("".join(first)).weight == 1
    assert err == ""
    assert proc.returncode == 141


@pytest.mark.parametrize("n, h", [(2, -1), (0, 1)])
def test_betti_rejects_out_of_range_structure_size(tmp_path, capsys, n, h):
    path = tmp_path / "bad.poisson"
    path.write_text("n = %d\nh = %d\n" % (n, h))
    assert main(["betti", str(path), "--weights", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: need n >= 1 and h >= 0")


@pytest.mark.parametrize("command", ["euler", "diagrams"])
@pytest.mark.parametrize("n, h", [("3", "-2"), ("0", "1")])
def test_size_options_out_of_range_exit_2(capsys, command, n, h):
    assert main([command, "--n", n, "--h", h, "--weights", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: need --n >= 1 and --h >= 0")


def test_casimir_rejects_negative_min_degree(capsys):
    assert main(["casimir", "builtin:sl2", "--min-degree", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: --min-degree must be >= 0")


def test_casimir_rejects_empty_degree_range(capsys):
    assert main(["casimir", "builtin:sl2", "--min-degree", "3", "--max-degree", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: empty degree range: --max-degree 1 is below --min-degree 3\n")


@pytest.mark.parametrize("args, limit, space", [
    (["builtin:sl2", "--weights", "1,2"], 74, (2, 3, 75)),
    (["builtin:solvable22", "--mode", "poly-with-constants", "--direction", "chain",
      "--weights", "0..5"], 8831, (5, 5, 8832)),
    (["builtin:sl2", "--mode", "hamiltonian", "--weights", "3"], 201, (3, 3, 202)),
    (["builtin:symplectic_r2", "--mode", "pi-annihilator", "--weights", "0"], 44, (0, 4, 45)),
    (["builtin:poisson_like_h2", "--mode", "poisson-like", "--weights=-2"], 2519,
     (-2, 8, 2520)),
    (["builtin:sl2", "--mode", "poly-module", "--weights", "2"], 17, (2, 1, 18)),
])
def test_max_dim_exits_2_before_any_basis(monkeypatch, capsys, args, limit, space):
    """betti --max-dim counts every degree's space before building one and
    names the first that is too large; the limit itself is allowed."""
    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.setattr(engine, "build_basis", refuse)
    monkeypatch.setattr(engine, "poly_module_basis", refuse)
    assert main(["betti", *args, "--max-dim", str(limit)]) == 2
    assert capsys.readouterr().err == (
        "error: the cochain space at w = %d, m = %d has dimension %d, above --max-dim %d\n"
        % (*space, limit))
    assert main(["betti", *args, "--max-dim", str(limit + 1)]) == 1
    assert capsys.readouterr().err == "invariant failure: a basis was built\n"


@pytest.mark.parametrize("args, limit, space", [
    (["builtin:sl2", "--weights", "20"], 100, (20, 1, 253)),
    (["builtin:symplectic_r2", "--weights", "2000"], 1000, (2000, 1, 2003)),
])
def test_max_dim_stops_at_the_first_space_over_the_limit(monkeypatch, capsys,
                                                         args, limit, space):
    """The spaces are counted one at a time, so the count stops at the
    first one over the limit: here the degree-1 space, after the empty
    degree 0, however many degrees the weight admits."""
    calls, real = [], engine.basis_dimension

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.setattr(engine, "basis_dimension", counted)
    assert main(["betti", *args, "--max-dim", str(limit)]) == 2
    assert capsys.readouterr().err == (
        "error: the cochain space at w = %d, m = %d has dimension %d, above --max-dim %d\n"
        % (*space, limit))
    assert calls == [(0, space[0]), (1, space[0])]


def test_max_dim_at_the_largest_space_changes_nothing(monkeypatch, capsys):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert main(["betti", "builtin:sl2", "--weights", "0..2"]) == 0
    plain = capsys.readouterr().out
    assert main(["betti", "builtin:sl2", "--weights", "0..2", "--max-dim", "75"]) == 0
    assert capsys.readouterr().out == plain
    assert main(["betti", "builtin:sl2", "--weights", "0..2", "--max-dim", "-1"]) == 2
    assert capsys.readouterr().err == "error: --max-dim must be >= 0, got -1\n"


def test_goldens_bad_mode_exits_2(tmp_path, capsys):
    (tmp_path / "bad.golden").write_text(
        "structure = builtin:sl2\nmode = poisson-like\nweight = 1\n"
        "rows = m dim ker rank betti\n")
    assert main(["goldens", str(tmp_path)]) == 2
    assert "poisson-like mode needs" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [ValueError("boom"), OSError("boom")],
                         ids=["ValueError", "OSError"])
@pytest.mark.parametrize("argv, owner, callee", [
    (["check", "builtin:sl2"], cli, "jacobi_check"),
    (["casimir", "builtin:sl2"], cli, "casimir_space"),
    (["betti", "builtin:sl2", "--weights", "1"], cli, "run"),
    (["euler", "--n", "3", "--h", "1", "--weights", "1"], diagrams, "euler_combinatorial"),
    (["diagrams", "--n", "3", "--h", "1", "--weights", "1"], cli, "enumerate_signatures"),
    (["goldens"], cli, "run_goldens"),
], ids=["check", "casimir", "betti", "euler", "diagrams", "goldens"])
def test_bad_input_exits_2_from_every_command(monkeypatch, capsys, argv, owner, callee, exc):
    """main alone maps exceptions to exit codes, the same for every
    command: a ValueError or OSError raised anywhere below a command is
    bad input, exit 2 with its message, not a traceback."""
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.setattr(owner, callee, fail)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize("structure, extra, ref", [
    ("builtin:sl2", ["--mode", "hamiltonian"], "dump_sl2_ham_w2"),
    ("builtin:h2_case1", [], "dump_h2_case1_w2"),
])
def test_dump_matrices_rational_byte_identical(tmp_path, capsys, monkeypatch,
                                               structure, extra, ref):
    """Dumps with rational entries (sl2 Hamiltonian normal forms carry
    halves, h2_case1 has +-1/2) are byte-identical to the reference dumps
    in tests/data, which were written when every entry was a Fraction."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    rc = main(["betti", structure, "--weights", "2", *extra,
               "--dump-matrices", str(tmp_path)])
    assert rc == 0
    ref_dir = os.path.join(DATA_DIR, ref)
    names = sorted(os.listdir(ref_dir))
    assert sorted(os.listdir(tmp_path)) == names
    ref_bytes = {n: open(os.path.join(ref_dir, n), "rb").read() for n in names}
    assert any(b"/2\n" in b for b in ref_bytes.values())
    for name in names:
        assert (tmp_path / name).read_bytes() == ref_bytes[name], name


def test_golden_parse():
    text = ("# some label\nstructure = builtin:sl2\nmode = poly-bar\n"
            "weight = 1\nrows = m dim ker rank betti\n1 6 1 5 1\neuler = 0\n")
    spec = parse_golden(text)
    assert spec["structure"] == "builtin:sl2"
    assert spec["rows"] == [[1, 6, 1, 5, 1]]
    assert spec["euler"] == 0
    assert spec["label"] == "some label"


def test_run_goldens_detects_perturbation(tmp_path, capsys):
    good = ("# sl2 weight 1\nstructure = builtin:sl2\nmode = poly-bar\n"
            "weight = 1\nrows = m dim ker rank betti\n"
            "1 6 1 5 1\n2 18 5 13 0\n3 18 13 5 0\n4 6 6 0 1\neuler = 0\n")
    (tmp_path / "ok.golden").write_text(good)
    (tmp_path / "bad.golden").write_text(good.replace("1 6 1 5 1", "1 6 2 4 2"))
    passed, failed, skipped = run_goldens(str(tmp_path))
    assert (passed, failed, skipped) == (1, 1, 0)
    assert "FAIL bad.golden" in capsys.readouterr().out


def test_run_goldens_fails_incomplete_golden(tmp_path, capsys):
    """A golden is compared as a whole table: one that leaves out a row
    of the report, or keeps only its first row and no euler line, fails."""
    src = os.path.join(os.path.dirname(fx.__file__), "goldens", "case1_bar_w3.golden")
    text = open(src).read()
    assert "3 1 1 0 0\n" in text and "euler = 7\n" in text
    (tmp_path / "dropped_row.golden").write_text(text.replace("3 1 1 0 0\n", ""))
    head = text.split("rows =", 1)[0] + "rows = m dim ker rank betti\n1 10 2 8 2\n"
    (tmp_path / "row_1_only.golden").write_text(head)
    assert run_goldens(str(tmp_path)) == (0, 2, 0)
    out = capsys.readouterr().out
    assert "FAIL dropped_row.golden" in out and "FAIL row_1_only.golden" in out
    assert "no euler line" in out


@pytest.mark.parametrize("key", ["structure", "mode", "weight"])
def test_golden_missing_line_exits_2(tmp_path, capsys, key):
    """A golden without its structure, mode or weight line is bad input,
    named in the message, not a KeyError traceback."""
    lines = {"structure": "structure = builtin:sl2\n", "mode": "mode = poly-bar\n",
             "weight": "weight = 1\n"}
    text = ("# sl2 weight 1\n" + "".join(v for k, v in lines.items() if k != key)
            + "rows = m dim ker rank betti\n1 6 1 5 1\n2 18 5 13 0\n"
            "3 18 13 5 0\n4 6 6 0 1\neuler = 0\n")
    with pytest.raises(ValueError, match="the %s line" % key):
        parse_golden(text)
    (tmp_path / "partial.golden").write_text(text)
    assert main(["goldens", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_packaged_fast_goldens_all_pass(capsys):
    """Every packaged fast golden, whole table and Euler line, including
    those no acceptance criterion names; the one gated entry is skipped."""
    assert run_goldens() == (86, 0, 1), capsys.readouterr().out


def test_goldens_cli_exit_code_on_failure(tmp_path):
    bad = ("# wrong\nstructure = builtin:sl2\nmode = poly-bar\nweight = 1\n"
           "rows = m dim ker rank betti\n1 6 2 4 2\n")
    (tmp_path / "bad.golden").write_text(bad)
    assert main(["goldens", str(tmp_path)]) == 1


def test_run_goldens_empty_corpus(tmp_path, capsys):
    assert run_goldens(str(tmp_path)) == (0, 0, 0)
    assert "empty golden corpus" in capsys.readouterr().out


def test_goldens_cli_on_fast_entry(tmp_path, capsys):
    src = os.path.join(os.path.dirname(fx.__file__), "goldens", "sl2_bar_w1.golden")
    (tmp_path / "one.golden").write_text(open(src).read())
    assert main(["goldens", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 passed, 0 failed" in out


def test_casimir_command(capsys):
    rc = main(["casimir", "builtin:sl2", "--min-degree", "1", "--max-degree", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "degree 2: dim 1" in out
    assert "4*x1*x2 + x3^2" in out


def test_diagrams_command(capsys):
    rc = main(["diagrams", "--n", "3", "--h", "1", "--weights", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "m=2 dim=18" in out


def test_diagrams_walks_each_degree_once(monkeypatch, capsys):
    """The listing's total is the dimension sum over the signatures it
    lists, so each (w, m) visited enumerates its signatures once."""
    calls, real = [], diagrams.enumerate_signatures

    def counted(*args):
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(cli, "enumerate_signatures", counted)
    monkeypatch.setattr(complexes, "enumerate_signatures", counted)
    assert main(["diagrams", "--n", "3", "--h", "1", "--weights", "0..12"]) == 0
    assert len(calls) == len(set(calls)) == 130
    assert "  m=2 dim=18: " in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["builtin:poisson_like_h2", "--weights", "1"],
    ["--mode", "hamiltonian", "--n", "3", "--h", "1", "--weights", "1"],
])
def test_diagrams_refuses_what_it_cannot_tabulate(capsys, args):
    """A Poisson-like structure has no polynomial signature table, and the
    Hamiltonian caps need a structure's Casimirs: both exit 2 rather than
    print the default polynomial table."""
    assert main(["diagrams", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "weight" not in captured.out


@pytest.mark.parametrize("line", ["note x", "hello", "px 1 2 = x3", "height = 5"])
def test_structure_file_unknown_keyword_exits_2(tmp_path, capsys, line):
    """Only the exact keywords n, h, p and v start a line: a line that
    merely begins with one of those letters is refused, not misread."""
    path = tmp_path / "bad.poisson"
    path.write_text("n = 3\nh = 1\n%s\n" % line)
    for argv in (["check", str(path)], ["betti", str(path), "--weights", "1"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: unrecognized line")


@pytest.mark.parametrize("field", ["x1*dx3", "x1*x2", "d1*d2"])
def test_v_line_field_without_one_d_factor_exits_2(tmp_path, capsys, field):
    """Every term of a vector field needs exactly one d<i> factor, and
    'dx3' is no symbol of the grammar."""
    path = tmp_path / "bad.poisson"
    path.write_text("n = 3\nh = 1\nv %s ; d1\n" % field)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["check"],
                                  ["betti", "--mode", "poisson-like", "--no-check",
                                   "--weights", "1"]])
def test_v_file_of_wrong_degree_exits_2(tmp_path, capsys, argv):
    """A v file is held to its h line as a p file is: d1 ^ d2 has
    polynomial degree 0, not 1.  --no-check (and check, which loads
    without the checks to report on them) skips only the R-Schouten
    identity, never the degree."""
    path = tmp_path / "bad.poisson"
    path.write_text("n = 3\nh = 1\nv 1 d1 ; d2\n")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert "not 1-homogeneous" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["n = 3\nh = 1\nh = 1\n",
                                  "n = 3\nh = 1\np 1 2 = x3\nn = 4\n",
                                  "n = 3\nn = 3\nh = 1\n"])
def test_structure_file_repeated_size_line_exits_2(tmp_path, capsys, text):
    """A second n or h line is refused, as a repeated p i j line is,
    instead of the last one silently winning."""
    path = tmp_path / "bad.poisson"
    path.write_text(text)
    for argv in (["check", str(path)], ["betti", str(path), "--weights", "1"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: repeated ")


@pytest.mark.parametrize("line", ["p 1 2 = 1/0*x3", "p 1 2 = x3^2/0",
                                  "v 1/0 : d1 ; d2", "v 1.5 : d1 ; d2",
                                  "v 1e3 : d1 ; d2", "v x1 : d1 ; d2",
                                  "v : d1 ; d2"])
def test_structure_file_bad_number_exits_2(tmp_path, capsys, line):
    """Every number of a structure file, the v coefficient included, is
    read by the one polynomial grammar: a zero denominator, a decimal or
    exponent literal, or a v coefficient that is no constant is refused
    with a message."""
    path = tmp_path / "bad.poisson"
    path.write_text("n = 3\nh = 1\n%s\n" % line)
    for argv in (["check", str(path)], ["betti", str(path), "--weights", "1"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def _check_in_subprocess(tmp_path, text: str, timeout: float):
    """`check` of a structure file with this text, run in a subprocess so
    that an expansion that does start fails the test at its timeout
    instead of blocking the suite."""
    path = tmp_path / "bad.poisson"
    path.write_text(text)
    return subprocess.run([sys.executable, "-m", "poisson_cohom.cli", "check", str(path)],
                          capture_output=True, text=True, timeout=timeout, env=_cli_env())


@pytest.mark.parametrize("line", ["p 1 2 = x3^99999999999", "p 1 2 = (x1 + x2)^100000",
                                  "v 2^33 : d1 ; d2"])
def test_structure_file_huge_exponent_exits_2(tmp_path, line):
    """p^e is expanded by e multiplications, so an exponent above the
    parser's cap is refused with a message before any of them runs."""
    proc = _check_in_subprocess(tmp_path, "n = 3\nh = 1\n%s\n" % line, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "exceeds the cap of 32" in proc.stderr


_NINE = "(" + " + ".join("x%d" % i for i in range(1, 10)) + ")"


@pytest.mark.parametrize("line", ["p 1 2 = %s^32" % _NINE, "p 1 2 = %s" % "*".join([_NINE] * 32)],
                         ids=["power", "written-out"])
def test_structure_file_huge_product_exits_2(tmp_path, line):
    """A product past the parser's cap of term products is refused before
    it is expanded, whether written with ^ or out in full; without the
    cap either line expands to about 7.7e7 terms."""
    proc = _check_in_subprocess(tmp_path, "n = 9\nh = 1\n%s\n" % line, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "term products" in proc.stderr


def test_every_builtin_and_golden_structure_parses():
    """The product cap refuses none of the shipped structures: every
    builtin (built from polynomial text), every structure a golden names
    and every bundled structure file loads."""
    specs = ["builtin:" + name for name in fx.builtin_names()]
    for path in _golden_paths(None):
        with open(path) as fh:
            specs.append(parse_golden(fh.read())["structure"])
    folder = os.path.join(os.path.dirname(fx.__file__), "structures")
    specs += [os.path.join(folder, f) for f in sorted(os.listdir(folder))]
    for spec in specs:
        assert fx.load_structure(spec).n > 0, spec


@pytest.mark.parametrize("how", ["cache-dir", "env", "dump-matrices", "goldens-cache-dir",
                                 "goldens-missing", "goldens-file"])
def test_unusable_path_exits_2(tmp_path, capsys, monkeypatch, how):
    """A directory the program cannot create (here: one below a regular
    file), and a golden corpus that is no directory, are bad input, not
    a crash."""
    blocker = tmp_path / "file"
    blocker.write_text("x")
    bad = str(blocker / "sub")
    betti = ["betti", "builtin:sl2", "--weights", "2"]
    argv = {"cache-dir": betti + ["--cache-dir", bad],
            "env": betti,
            "dump-matrices": betti + ["--dump-matrices", bad],
            "goldens-cache-dir": ["goldens", str(tmp_path), "--cache-dir", bad],
            "goldens-missing": ["goldens", str(tmp_path / "missing")],
            "goldens-file": ["goldens", str(blocker)]}[how]
    if how == "env":
        monkeypatch.setenv(CACHE_ENV, bad)
    else:
        monkeypatch.delenv(CACHE_ENV, raising=False)
    if how == "goldens-cache-dir":
        (tmp_path / "sl2_bar_w2.golden").write_text(
            "structure = builtin:sl2\nmode = poly-bar\nweight = 2\n"
            "rows = m dim ker rank betti\n1 10 0 10 0\n")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
