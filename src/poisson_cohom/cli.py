"""Command-line surface: structure checks, Casimir listings, Betti and
Euler tables, signature listings and the golden-table corpus runner.

Exit codes: 0 success, 1 a golden or identity check that fails, and
main maps what a command raises, the same for every command: ValueError,
OSError or CliError (bad input, unusable path) to 2 with "error: ...",
AssertionError (a broken invariant) to 1 with "invariant failure: ...",
and a closed stdout to 141 (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from importlib import resources

from . import diagrams, engine, fixtures
from .casimir import casimir_space
from .complexes import PolyContext, weight_degree_range
from .diagrams import enumerate_signatures, sig_dim
from .engine import ComplexReport, cross_check, run
from .poisson import PoissonStructure, jacobi_check, r_schouten

CACHE_ENV = "POISSON_COHOM_CACHE"


class CliError(Exception):
    pass


def _parse_weights(text: str) -> list:
    """'2', '0..4' or comma lists of both."""
    out: list = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            if ".." in chunk:
                lo, hi = chunk.split("..")
                lo, hi = int(lo), int(hi)
                if hi < lo:
                    raise CliError("empty weight range %r" % chunk)
                out.extend(range(lo, hi + 1))
            elif chunk:
                out.append(int(chunk))
        except ValueError:
            raise CliError("bad weight %r (want an integer or lo..hi)" % chunk)
    if not out:
        raise CliError("no weights given")
    return out


def render_table(report: ComplexReport) -> str:
    """Rows dim / dim(ker) / rank / Betti aligned per degree, Euler last."""
    if report.is_empty():
        return "(empty complex)"
    header = ["m"] + ["%d" % r.m for r in report.rows]
    rows = [
        ["dim"] + ["%d" % r.dim for r in report.rows],
        ["dim(ker)"] + ["%d" % r.kernel_dim for r in report.rows],
        ["rank"] + ["%d" % r.rank for r in report.rows],
        ["Betti"] + ["%d" % r.betti for r in report.rows],
    ]
    widths = [max(len(line[i]) for line in [header] + rows)
              for i in range(len(header))]
    lines = []
    for line in [header] + rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    lines.append("Euler = %d" % report.euler)
    return "\n".join(lines)


def _cache_dir(args) -> str | None:
    return os.environ.get(CACHE_ENV) or getattr(args, "cache_dir", None) or None


def cmd_check(args) -> int:
    obj = fixtures.load_structure(args.structure, check=False)
    if isinstance(obj, PoissonStructure):
        ok, cert = jacobi_check(obj)
        print("n = %d, h = %d, entries = %d" % (obj.n, obj.h, len(obj.p)))
        if ok:
            print("Jacobi identity: OK")
            return 0
        (i, j, k), res = cert
        print("Jacobi identity: FAILS at (%d,%d,%d), residual %s"
              % (i + 1, j + 1, k + 1, res))
        return 1
    sb = r_schouten(obj, obj)
    print("graded 2-vector, n = %d, polynomial degree = %d" % (obj.n, obj.poly_degree()))
    if sb.is_zero():
        print("R-Schouten self-bracket: OK (Poisson-like)")
        return 0
    print("R-Schouten self-bracket: nonzero (%d terms)" % len(sb.terms))
    return 1


def cmd_casimir(args) -> int:
    obj = fixtures.load_structure(args.structure, check=not args.no_check)
    if not isinstance(obj, PoissonStructure):
        raise CliError("casimir needs a Poisson structure")
    if args.min_degree < 0:
        raise CliError("--min-degree must be >= 0, got %d" % args.min_degree)
    if args.max_degree < args.min_degree:
        raise CliError("empty degree range: --max-degree %d is below --min-degree %d"
                       % (args.max_degree, args.min_degree))
    for j in range(args.min_degree, args.max_degree + 1):
        cb = casimir_space(obj, j)
        print("degree %d: dim %d" % (j, len(cb)))
        for f in cb.basis:
            print("  %s   (leading monomial %s)" % (f, f.leading_monomial()))
    return 0


def _check_max_dim(obj, mode: str, direction: str, weights: list, limit: int) -> None:
    """CliError naming the first space of the requested complexes whose
    dimension, counted before any basis is built, exceeds limit, or, as
    build_report would, ValueError for a mode, direction or structure that
    do not fit."""
    if limit < 0:
        raise CliError("--max-dim must be >= 0, got %d" % limit)
    for w in weights:
        for space_w, m, dim in engine.space_dims(obj, mode, w, direction):
            if dim > limit:
                raise CliError("the cochain space at w = %d, m = %d has dimension %d, "
                               "above --max-dim %d" % (space_w, m, dim, limit))


def cmd_betti(args) -> int:
    obj = fixtures.load_structure(args.structure, check=not args.no_check)
    weights = _parse_weights(args.weights)
    if args.max_dim is not None:
        _check_max_dim(obj, args.mode, args.direction, weights, args.max_dim)
    sink_dir = args.dump_matrices
    if sink_dir:
        os.makedirs(sink_dir, exist_ok=True)
    failures = 0
    for w in weights:
        sink = None
        if sink_dir:
            def sink(m, mat, w=w):
                path = os.path.join(sink_dir, "%s_w%d_d%d.mtx" % (args.mode, w, m))
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("%d %d\n" % (mat.n_rows, mat.n_cols))
                    for (r, c), x in sorted(mat.entries.items()):
                        v = Fraction(x, mat.denom)
                        fh.write("%d %d %d/%d\n" % (r, c, v.numerator, v.denominator))

        rep = run(obj, args.mode, [w], direction=args.direction,
                  cache_dir=_cache_dir(args), matrix_sink=sink)[0]
        bad = cross_check(rep)
        if bad:
            failures += 1
            print("invariant violations at w=%d: %s" % (w, ", ".join(bad)),
                  file=sys.stderr)
        if args.format == "structured":
            print(rep.serialize(), end="")
            print()
        else:
            print("weight %d:" % w)
            print(render_table(rep))
            print()
    return 1 if failures else 0


def _check_size(n: int, h: int) -> None:
    if n < 1 or h < 0:
        raise CliError("need --n >= 1 and --h >= 0, got --n %d --h %d" % (n, h))


def cmd_euler(args) -> int:
    _check_size(args.n, args.h)
    weights = _parse_weights(args.weights)
    vals = []
    for w in weights:
        if args.mode == "poly-module":
            vals.append(diagrams.euler_polymodule(args.n, args.h, w))
        else:
            vals.append(diagrams.euler_combinatorial(args.n, args.h, w))
    print("weights:", " ".join(str(w) for w in weights))
    print("euler:  ", " ".join(str(v) for v in vals))
    return 0


def cmd_diagrams(args) -> int:
    kind = "hamiltonian" if args.mode == "hamiltonian" else "bar"
    if args.structure:
        obj = fixtures.load_structure(args.structure, check=not args.no_check)
        if not isinstance(obj, PoissonStructure):
            raise CliError("diagrams needs a Poisson structure")
    elif kind == "hamiltonian":
        raise CliError("--mode hamiltonian needs a structure")
    else:
        _check_size(args.n, args.h)
        obj = PoissonStructure(args.n, args.h, {})
    ctx = PolyContext(obj, kind)
    for w in _parse_weights(args.weights):
        print("weight %d:" % w)
        for m in range(weight_degree_range(ctx, w) + 1):
            sigs = enumerate_signatures(m, w, ctx.shift, ctx.cap, ctx.start)
            if not sigs:
                continue
            total = sum(sig_dim(s, ctx.cap) for s in sigs)
            desc = "  +  ".join(
                " ".join("k%d=%d" % (j, k) for j, k in sig) for sig in sigs)
            print("  m=%d dim=%d: %s" % (m, total, desc))
    return 0


def _golden_paths(directory: str | None) -> list:
    if directory:
        return sorted(os.path.join(directory, f) for f in os.listdir(directory)
                      if f.endswith(".golden"))
    root = resources.files("poisson_cohom") / "goldens"
    return sorted(str(p) for p in root.iterdir() if p.name.endswith(".golden"))


def parse_golden(text: str) -> dict:
    """A golden table: its structure, mode, weight and, when given,
    direction, euler and slow lines, its rows and its first comment as
    the label.  Raises ValueError when the structure, mode or weight line
    is missing."""
    fields, rows = engine.read_table(text)
    missing = [k for k in ("structure", "mode", "weight") if k not in fields]
    if missing:
        raise ValueError("golden lacks the %s line(s)" % ", ".join(missing))
    label = re.search(r"^#[# ]*(.*\S)", text, re.MULTILINE)
    entry: dict = {"rows": rows, "slow": False,
                   "label": label.group(1).strip() if label else ""}
    for key, val in fields.items():
        if key in ("structure", "mode", "direction"):
            entry[key] = val
        elif key in ("weight", "euler"):
            entry[key] = int(val)
        elif key == "slow":
            entry[key] = val.lower() in ("1", "true", "yes")
    return entry


def run_goldens(directory: str | None = None, slow: bool = False,
                cache_dir: str | None = None) -> tuple:
    """Compare every golden file's whole table and Euler line exactly;
    (passed, failed, skipped)."""
    paths = _golden_paths(directory)
    passed = failed = skipped = 0
    if not paths:
        print("warning: empty golden corpus")
        return (0, 0, 0)
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            entry = parse_golden(fh.read())
        name = os.path.basename(path)
        if entry["slow"] and not slow:
            skipped += 1
            print("SKIP %s (slow; rerun with --slow)" % name)
            continue
        structure = fixtures.load_structure(entry["structure"])
        rep = run(structure, entry["mode"], [entry["weight"]],
                  direction=entry.get("direction", "cochain"),
                  cache_dir=cache_dir)[0]
        problems = []
        got = [[r.m, r.dim, r.kernel_dim, r.rank, r.betti] for r in rep.rows]
        if got != entry["rows"]:
            problems.append("rows m/dim/ker/rank/betti expected %s got %s"
                            % (entry["rows"], got))
        if "euler" not in entry:
            problems.append("no euler line")
        elif rep.euler != entry["euler"]:
            problems.append("euler expected %d got %d" % (entry["euler"], rep.euler))
        problems.extend(cross_check(rep))
        if problems:
            failed += 1
            print("FAIL %s [%s]" % (name, entry["label"]))
            for p in problems:
                print("     " + p)
        else:
            passed += 1
            print("PASS %s [%s]" % (name, entry["label"]))
    print("goldens: %d passed, %d failed, %d skipped" % (passed, failed, skipped))
    return (passed, failed, skipped)


def cmd_goldens(args) -> int:
    _, failed, _ = run_goldens(args.corpus, slow=args.slow, cache_dir=_cache_dir(args))
    return 1 if failed else 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="poisson-cohom",
        description="Exact weight-graded Lie algebra cohomology of "
                    "homogeneous Poisson structures.")
    sub = ap.add_subparsers(dest="command", required=True)

    def structure_arg(p, skippable=True):
        p.add_argument("structure",
                       help="structure file or builtin:<name> (%s)"
                            % ", ".join(fixtures.builtin_names()))
        if skippable:
            p.add_argument("--no-check", action="store_true",
                           help="skip the Jacobi / self-bracket check at load")

    p = sub.add_parser("check", help="load a structure and verify its identity")
    structure_arg(p, skippable=False)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("casimir", help="Casimir bases per degree")
    structure_arg(p)
    p.add_argument("--min-degree", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(fn=cmd_casimir)

    p = sub.add_parser("betti", help="dimension/kernel/rank/Betti tables")
    structure_arg(p)
    p.add_argument("--mode", default="poly-bar", choices=engine.MODES)
    p.add_argument("--cache-dir", default=None,
                   help="report cache directory (or $%s)" % CACHE_ENV)
    p.add_argument("--weights", required=True, help="e.g. 2 or 0..4 or 1,3")
    p.add_argument("--direction", default="cochain", choices=engine.DIRECTIONS)
    p.add_argument("--format", default="table", choices=("table", "structured"))
    p.add_argument("--dump-matrices", default=None,
                   help="directory for coordinate-list matrix dumps")
    p.add_argument("--max-dim", type=int, default=None,
                   help="exit 2, before building anything, when a cochain "
                        "space is larger than this (default: no limit)")
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("euler", help="combinatorial Euler characteristics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--mode", default="poly-bar",
                   choices=("poly-bar", "poly-module"))
    p.set_defaults(fn=cmd_euler)

    p = sub.add_parser("diagrams", help="signatures and dimensions per degree")
    p.add_argument("structure", nargs="?", default=None)
    p.add_argument("--no-check", action="store_true")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--mode", default="poly-bar", choices=("poly-bar", "hamiltonian"))
    p.add_argument("--weights", required=True)
    p.set_defaults(fn=cmd_diagrams)

    p = sub.add_parser("goldens", help="run the golden-table corpus")
    p.add_argument("corpus", nargs="?", default=None,
                   help="golden directory (default: packaged corpus)")
    p.add_argument("--slow", action="store_true",
                   help="include the heavyweight gated entries")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(fn=cmd_goldens)

    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # an OSError, so it comes before the exit-2 clause
        # the rest of the output goes to devnull, so the flush at exit
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (CliError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AssertionError as exc:
        print("invariant failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
