"""Rules on the package source itself."""

import ast
import importlib
import os

from poisson_cohom import engine

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
