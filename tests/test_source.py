"""Rules on the package source itself."""

import ast
import os

from poisson_cohom import engine

PKG = os.path.dirname(engine.__file__)


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
