"""Regenerate perfbench/chain_sweep_ref.json, the reference tables of the
chain_sweep workload, which no golden covers.

    python3 perfbench/make_reference.py

Each chain-direction table is cross-verified against the cochain
direction: per-degree Betti numbers must agree, as
`engine.homology_vs_cohomology_check` requires.  Nothing is written if
any weight disagrees.
"""

from __future__ import annotations

import json
import os
import sys

from job import CHAIN_REF, SRC, rows_of

STRUCTURE = "builtin:solvable22"
MODE = "poly-with-constants"
WEIGHTS = range(0, 6)


def main() -> int:
    sys.path.insert(0, SRC)
    from poisson_cohom import engine, fixtures

    structure = fixtures.load_structure(STRUCTURE)
    tables = {}
    for w in WEIGHTS:
        chain = engine.build_report(structure, MODE, w, direction="chain")
        cochain = engine.build_report(structure, MODE, w, direction="cochain")
        degrees = {r.m for r in chain.rows} | {r.m for r in cochain.rows}
        if any(chain.row_at(m).betti != cochain.row_at(m).betti for m in degrees):
            print("w=%d: chain and cochain Betti numbers disagree" % w, file=sys.stderr)
            return 1
        if engine.cross_check(chain):
            print("w=%d: chain report fails cross_check" % w, file=sys.stderr)
            return 1
        tables[str(w)] = rows_of(chain)
        print("w=%d: %d degrees, Betti agree with the cochain direction" % (w, len(degrees)))
    write_reference(tables)
    print("wrote %s" % os.path.relpath(CHAIN_REF))
    return 0


def write_reference(tables: dict) -> None:
    """JSON with one table row [m, dim, ker, rank, betti] per line."""
    body = ",\n".join('  "%s": [\n   %s]' % (w, ",\n   ".join(json.dumps(r) for r in rows))
                      for w, rows in tables.items())
    with open(CHAIN_REF, "w", encoding="utf-8") as fh:
        fh.write('{"structure": %s, "mode": %s, "direction": "chain",\n "tables": {\n%s\n }}\n'
                 % (json.dumps(STRUCTURE), json.dumps(MODE), body))


if __name__ == "__main__":
    sys.exit(main())
