"""The benchmark's own test (a script, so the package's test suite does
not collect it; about three minutes):

    python3 perfbench/selftest.py

It checks that
  - every table is correct and identical with tracing on and off, and
    under two different seeds, on corpus and chain_sweep;
  - every wrapped layer function is called at least once by some workload;
  - a layer function that no longer exists is reported as absent (None,
    with a warning) rather than as 0 s, and tracing still works.
"""

from __future__ import annotations

import os
import sys
import tempfile

from job import SRC
from run import spawn
from tracer import Tracer, span_names

WORKLOADS = ("corpus", "chain_sweep")


def check(cond: bool, what: str, failures: list) -> None:
    print("%s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        failures.append(what)


def check_absent_layer(failures: list) -> None:
    """Remove boundary_matrix from every import site, then trace a job."""
    sys.path.insert(0, SRC)
    import poisson_cohom
    from poisson_cohom import engine, fixtures

    orig = poisson_cohom.complexes.boundary_matrix
    for mod in list(sys.modules.values()):
        if getattr(mod, "boundary_matrix", None) is orig:
            delattr(mod, "boundary_matrix")
    tracer = Tracer("absent-check")
    tracer.install()
    rep = engine.build_report(fixtures.load_structure("builtin:sl2"), "poly-bar", 2)
    metrics = tracer.layer_metrics()
    check(tracer.absent == ["complexes.boundary_matrix"],
          "a removed layer function is detected as absent", failures)
    check(metrics["complexes.boundary_matrix.s"] is None,
          "an absent layer is reported as null, not 0 s", failures)
    check(not engine.cross_check(rep) and metrics["linalg.rank_kernel.calls"] > 0
          and metrics["complexes.cochain_matrix.s"] > 0,
          "the remaining layers are still traced", failures)
    with tempfile.TemporaryDirectory() as tmp:
        tracer.write(os.path.join(tmp, "spans.jsonl"))


def main() -> int:
    failures: list = []
    called: set = set()
    for workload in WORKLOADS:
        plain = spawn(workload, 1, 300)
        other_seed = spawn(workload, 2, 300)
        with tempfile.TemporaryDirectory() as tmp:
            traced = spawn(workload, 1, 300, "--trace-out", os.path.join(tmp, "spans.jsonl"))
        for name, res in (("seed 1", plain), ("seed 2", other_seed), ("traced", traced)):
            check(res["failed"] == 0 and not res["problems"],
                  "%s %s: every table matches its reference" % (workload, name), failures)
        check(plain["digest"] == traced["digest"],
              "%s: tables identical with tracing on and off" % workload, failures)
        check(plain["digest"] == other_seed["digest"],
              "%s: tables identical under seeds 1 and 2" % workload, failures)
        called |= {name for name, n in traced["calls"].items() if n > 0}
    missing = [name for name in span_names() if name not in called]
    check(not missing, "every wrapped function is called by some workload%s"
          % (" (never called: %s)" % ", ".join(missing) if missing else ""), failures)
    check_absent_layer(failures)
    print("selftest: %d failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
