"""Rules on the package source itself."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter

from poisson_cohom import engine
from poisson_cohom import fixtures as fx
from poisson_cohom.complexes import PolyContext, build_basis, cochain_matrix
from poisson_cohom.linalg import compose_is_zero, rank_kernel

PKG = os.path.dirname(engine.__file__)
TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def test_no_assert_statements_in_package():
    """Invariant checks raise AssertionError explicitly, because
    `python -O` strips assert statements and a check must not vanish
    with them."""
    found = []
    for name in sorted(f for f in os.listdir(PKG) if f.endswith(".py")):
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


# what cli.py may catch of the exceptions main maps to exit 2, per function
_CLI_CATCHES = {"main": {"CliError", "OSError", "ValueError"}, "_parse_weights": {"ValueError"}}


def test_cli_maps_bad_input_to_exit_2_in_main_only():
    """main is the one place that turns CliError, OSError or ValueError
    into exit 2, so no command needs a wrapper of its own; _parse_weights
    may catch int()'s ValueError to word its message.  A bare except or
    one naming Exception counts as naming all three."""
    path = os.path.join(PKG, "cli.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not isinstance(node, ast.ExceptHandler):
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {getattr(t, "id", getattr(t, "attr", None)) for t in types}
            if names & {None, "Exception", "BaseException"}:
                names = {"CliError", "OSError", "ValueError"}
            caught = names & {"CliError", "OSError", "ValueError"}
            if caught - _CLI_CATCHES.get(where, set()):
                found.append("%s:%d %s" % (where, node.lineno, " ".join(sorted(caught))))
    assert found == []


def test_import_loads_no_dataclasses_or_inspect():
    """Importing the package and its CLI in a fresh interpreter loads
    neither dataclasses nor inspect: that import chain (inspect, ast,
    dis, tokenize, ...) costs every short process a fifth of the
    package's import time, so the records are plain slotted classes."""
    code = ("import sys; before = set(sys.modules); import poisson_cohom, poisson_cohom.cli; "
            "print(poisson_cohom.__file__); "
            "print(' '.join(m for m in ('dataclasses', 'inspect') "
            "if m in sys.modules and m not in before))")
    path = os.pathsep.join(filter(None, [os.path.dirname(PKG), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    where, loaded = out.stdout.split("\n")[:2]
    assert os.path.dirname(where) == PKG
    assert loaded == ""


def test_package_imports_at_module_level_only():
    """Every import of the package is a top-level statement of its
    module: perfbench/tracer.py wraps the layer functions only of the
    modules loaded when it installs, so a module imported lazily, inside
    a function, would run untraced."""
    found = []
    for name in sorted(f for f in os.listdir(PKG) if f.endswith(".py")):
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        top = set(map(id, tree.body))
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert found == []


def test_benchmark_tracer_layers_exist():
    """Every function and method the benchmark's tracer wraps (its LAYERS
    and METHODS tables, read from perfbench/tracer.py without importing
    it) exists in poisson_cohom, so no per-layer metric silently turns
    into null after a rename."""
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), TRACER)
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in ("LAYERS", "METHODS")}
    assert set(tables) == {"LAYERS", "METHODS"}
    missing = []
    for modname, fns in tables["LAYERS"].items():
        mod = importlib.import_module("poisson_cohom." + modname)
        missing += ["%s.%s" % (modname, fn) for fn in fns if not callable(getattr(mod, fn, None))]
    for modname, classes in tables["METHODS"].items():
        mod = importlib.import_module("poisson_cohom." + modname)
        for clsname, meths in classes.items():
            cls = getattr(mod, clsname, None)
            missing += ["%s.%s.%s" % (modname, clsname, meth) for meth in meths
                        if cls is None or meth not in cls.__dict__]
    assert not missing, missing


def test_benchmark_tracer_reads_matrix_attributes():
    """The tracer's counts read a matrix through `entries` (iterated for
    its (r, c) keys), `nnz()`, `n_rows` and `n_cols`; its counting code,
    run here on real differentials, must agree with the columns, so a
    layout change cannot silently break matrix.nnz, matrix.max_dim,
    rank_kernel.input_nnz or compose_is_zero.madds."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    ctx = PolyContext(fx.sl2(), "bar")
    b1, b2, b3 = (build_basis(ctx, m, 2) for m in (1, 2, 3))
    d1, d2 = cochain_matrix(ctx, b1, b2), cochain_matrix(ctx, b2, b3)
    for d in (d1, d2):
        keys = list(d.entries)
        assert len(keys) == d.nnz() == sum(map(len, d.cols)) > 0
        assert all(0 <= r < d.n_rows and 0 <= c < d.n_cols for r, c in keys)
    assert compose_is_zero(d2, d1)
    # each entry (k, c) of d1 meets the whole column k of d2
    assert tracer._computed_madds(d2, d1) == sum(len(d2.cols[k]) for col in d1.cols
                                                 for k in col)
    t = tracer.Tracer("test")
    for d in (d1, d2):
        t._count("complexes.cochain_matrix", (), d)
        t._count("linalg.rank_kernel", (d,), rank_kernel(d))
    assert t.counts["matrix.nnz"] == t.counts["linalg.rank_kernel.input_nnz"] \
        == d1.nnz() + d2.nnz()
    assert t.max_dim == max(len(b1), len(b2), len(b3))


def _named(tree, bare: bool = True) -> Counter:
    """Every name a syntax tree uses, with its count: attributes, string
    constants (the tracer names its layers as strings) and, when bare is
    true, plain names.  Imports do not count, so an unused import keeps
    nothing alive."""
    out = Counter()
    for node in ast.walk(tree):
        if bare and isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _called(tree) -> Counter:
    """The names a syntax tree calls, f(...) or obj.f(...), with their
    count."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name:
                out[name] += 1
    return out


def _definitions_and_uses(count=_named) -> tuple:
    """The package's (file, top-level node) pairs, and the names used in
    the package, in perfbench/ and in tests/test_acceptance.py (the
    paper's API), counted by count(tree).  Other tests do not count, so
    a helper only they call lives beside them."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    perfbench = os.path.join(root, "perfbench")
    paths = ([os.path.join(PKG, f) for f in sorted(os.listdir(PKG)) if f.endswith(".py")]
             + [os.path.join(perfbench, f) for f in sorted(os.listdir(perfbench))
                if f.endswith(".py")]
             + [os.path.join(root, "tests", "test_acceptance.py")])
    defined, uses = [], Counter()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        if os.path.dirname(path) == PKG:
            defined += [(os.path.basename(path), node) for node in tree.body]
        uses += count(tree)
    return defined, uses


def _named_only_in_itself(defined: list, uses: Counter, bare: bool = True) -> list:
    """The definitions whose name is used nowhere outside their own body."""
    return ["%s:%s" % (name, node.name) for name, node in defined
            if uses[node.name] == _named(node, bare)[node.name]]


def test_every_top_level_definition_is_named_elsewhere():
    """No dead or test-only helpers: every top-level function and class of
    the package is named somewhere besides its own definition, in the
    package, in perfbench/ or in tests/test_acceptance.py."""
    defined, uses = _definitions_and_uses()
    defs = [(name, node) for name, node in defined
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(defs) > 100
    assert _named_only_in_itself(defs, uses) == []


def test_every_method_is_named_elsewhere():
    """The same rule for the non-dunder methods of the package's classes:
    a method is named (called or read) somewhere besides its own body, in
    the package, in perfbench/ or in tests/test_acceptance.py.  Only an
    attribute access or a string counts, so a local variable or a
    function of the same name cannot keep a dead method alive."""
    defined, uses = _definitions_and_uses(lambda tree: _named(tree, bare=False))
    methods = [("%s:%s" % (name, cls.name), node) for name, cls in defined
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert len(methods) > 30
    assert _named_only_in_itself(methods, uses, bare=False) == []


def test_every_constructor_is_called():
    """Every package class that defines __init__ is instantiated by its
    own name or a subclass's somewhere in the package, in perfbench/ or
    in tests/test_acceptance.py.  The name rules above skip dunders, so
    a constructor that only other tests call escapes them."""
    defined, calls = _definitions_and_uses(_called)
    classes = [(name, node) for name, node in defined if isinstance(node, ast.ClassDef)]
    family = _families(classes)
    built = [(name, node) for name, node in classes
             if any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in node.body)]
    assert len(built) > 5
    assert ["%s:%s" % (name, node.name) for name, node in built
            if not any(calls[c] for c in family(node.name))] == []


def _families(classes: list):
    """For the (file, class node) pairs, a function from a class name to
    the names of the class and of its subclasses among them."""
    bases = {node.name: {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
             for _, node in classes}

    def family(cls: str) -> set:
        return {cls}.union(*(family(sub) for sub, up in bases.items() if cls in up))

    return family


def _passed(tree) -> Counter:
    """The (called name, parameter) pairs a syntax tree passes, with their
    count: (f, i) for the i-th positional argument of a call f(...) or
    obj.f(...), (f, keyword) for a keyword argument, and (f, "*") for a
    call that unpacks *args or **kwargs."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name:
                for i, arg in enumerate(node.args):
                    out[name, "*" if isinstance(arg, ast.Starred) else i] += 1
                for kw in node.keywords:
                    out[name, kw.arg or "*"] += 1
    return out


def _defaulted(fn: ast.FunctionDef, bound: bool) -> list:
    """(name, position) of fn's parameters that have a default: position
    is the index of the positional argument that passes it, self or cls
    not counted when bound, and None for a keyword-only parameter."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    return ([(a.arg, i - bound) for i, a in enumerate(pos) if i >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


# the console-script entry point calls main() with no argv
_DEFAULT_EXEMPT = {"cli.py:main.argv"}


def test_every_default_parameter_is_passed():
    """Every defaulted parameter of a package top-level function, method
    or constructor is passed, by position or keyword, by some call in the
    package, in perfbench/ or in tests/test_acceptance.py, so no default
    keeps a code path that only other tests take.  A constructor is
    called by its class's name or a subclass's; nested functions are not
    checked, since their defaults bind loop variables."""
    defined, passed = _definitions_and_uses(_passed)
    family = _families([(name, node) for name, node in defined
                        if isinstance(node, ast.ClassDef)])
    fns = []  # (label, function node, names that call it, bound)
    for name, node in defined:
        if isinstance(node, ast.FunctionDef):
            fns.append(("%s:%s" % (name, node.name), node, {node.name}, False))
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name.startswith("__") and fn.name != "__init__"):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                callers = family(node.name) if fn.name == "__init__" else {fn.name}
                fns.append(("%s:%s.%s" % (name, node.name, fn.name), fn, callers, not static))
    unpassed = []
    for label, fn, callers, bound in fns:
        for param, pos in _defaulted(fn, bound):
            if not any(passed[c, param] or passed[c, "*"] or (pos is not None and passed[c, pos])
                       for c in callers):
                unpassed.append("%s.%s" % (label, param))
    assert sum(len(_defaulted(fn, bound)) for _, fn, _, bound in fns) > 10
    assert sorted(set(unpassed) - _DEFAULT_EXEMPT) == []
