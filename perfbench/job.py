"""One pass of a benchmark workload in a fresh interpreter.

    python3 perfbench/job.py --workload NAME --seed N --t-spawn T
        [--keep-cache DIR | --warm-from DIR] [--trace-out SPANS.jsonl]

Setup is the interpreter start (measured from --t-spawn, a time.monotonic()
reading taken by the parent just before it started this process), the
package import, and `fixtures.load_structure` of every structure the
workload uses together with its Jacobi or R-Schouten check.  The job then
runs every task cold into an empty cache directory and replays the tasks
warm from that cache; with --warm-from it only replays from an existing
cache.  After one untimed replay, the warm replays run in WARM_BATCHES
batches of back-to-back replays, each batch about BATCH_S long, with a
sample of the reference kernel of speed.py between batches; cache_hit_s
is the median time of one replay within a batch.  A single replay timed
right after a kernel sample ran with cold processor caches and varied
between processes by a third; a batch amortises that.  Every report is
compared field-exactly with its reference and checked by
`engine.cross_check`, and no warm replay may build a report.  The last
stdout line is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("corpus", "chain_sweep", "like_h2_wm1")
WARM_BATCHES = 15  # timed batches of warm replays
BATCH_S = 0.02  # about how long one batch runs
SETUP_SAMPLES = 7  # reference-kernel samples taken right after setup

CHAIN_REF = os.path.join(HERE, "chain_sweep_ref.json")


def golden_dir() -> str:
    return os.path.join(SRC, "poisson_cohom", "goldens")


def load_tasks(workload: str, seed: int, cli) -> list:
    """(structure spec, mode, weight, direction, expected rows, euler) in the
    seed's order; expected rows are [m, dim, ker, rank, betti] lists."""
    tasks = []
    if workload == "chain_sweep":
        with open(CHAIN_REF, "r", encoding="utf-8") as fh:
            ref = json.load(fh)
        for w, rows in ref["tables"].items():
            tasks.append((ref["structure"], ref["mode"], int(w), ref["direction"],
                          rows, None))
    else:
        names = sorted(f for f in os.listdir(golden_dir()) if f.endswith(".golden"))
        if workload == "like_h2_wm1":
            names = ["like_h2_wm1.golden"]
        for name in names:
            with open(os.path.join(golden_dir(), name), "r", encoding="utf-8") as fh:
                entry = cli.parse_golden(fh.read())
            if entry["slow"] and workload == "corpus":
                continue
            tasks.append((entry["structure"], entry["mode"], entry["weight"],
                          entry.get("direction", "cochain"), entry["rows"],
                          entry.get("euler")))
    # the engine keeps process-level caches, so task order is observable
    random.Random(seed).shuffle(tasks)
    return tasks


def load_checked(spec: str, fixtures, poisson):
    obj = fixtures.load_structure(spec)
    if isinstance(obj, poisson.PoissonStructure):
        ok, _ = poisson.jacobi_check(obj)
    else:
        ok = poisson.r_schouten(obj, obj).is_zero()
    if not ok:
        raise SystemExit("structure %s fails its Poisson identity" % spec)
    return obj


def rows_of(rep) -> list:
    return [[r.m, r.dim, r.kernel_dim, r.rank, r.betti] for r in rep.rows]


def table_digest(tasks, reports) -> str:
    """Order-independent digest of every table the pass produced."""
    lines = sorted(json.dumps([t[:4], rows_of(rep)]) for t, rep in zip(tasks, reports))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--keep-cache", default=None,
                    help="move the filled cache directory here instead of deleting it")
    ap.add_argument("--warm-from", default=None,
                    help="skip the cold pass; time the warm pass from this cache")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    from poisson_cohom import cli, engine, fixtures, poisson
    if not os.path.abspath(engine.__file__).startswith(SRC + os.sep):
        raise SystemExit("poisson_cohom was not imported from %s" % SRC)
    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        tracer.install()
    tasks = load_tasks(args.workload, args.seed, cli)
    structures = {}
    for spec, *_ in tasks:
        if spec not in structures:
            structures[spec] = load_checked(spec, fixtures, poisson)
    setup_raw_s = time.monotonic() - args.t_spawn
    setup_s = speed.correct(setup_raw_s, [speed.kernel_seconds() for _ in range(SETUP_SAMPLES)])

    # the warm pass must not build a single report
    built = [0]
    build_report = engine.build_report

    def counting_build_report(*a, **kw):
        built[0] += 1
        return build_report(*a, **kw)

    engine.build_report = counting_build_report

    def run_tasks() -> list:
        """(report, cross_check violations) per task, through the cache."""
        out = []
        for spec, mode, w, direction, _, _ in tasks:
            rep = engine.run(structures[spec], mode, [w], direction=direction,
                             cache_dir=cache_dir)[0]
            out.append((rep, engine.cross_check(rep)))
        return out

    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if args.warm_from:
        cache_dir = args.warm_from
    else:
        os.makedirs(OUT, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    cold, warm = None, []  # reports of the cold pass and of every warm replay
    try:
        if not args.warm_from:
            # the sampler's signal handler would land inside traced spans
            with contextlib.nullcontext() if tracer is not None else speed.Sampler() as sampler:
                t0 = time.perf_counter()
                cold = run_tasks()
                wall_raw_s = time.perf_counter() - t0
            cold_builds = built[0]
            if sampler is not None:
                wall_raw_s -= sampler.spent
                result["wall_s"] = speed.correct(wall_raw_s, sampler.samples)
            result["wall_raw_s"] = wall_raw_s

        built[0] = 0
        t0 = time.perf_counter()
        warm.append(run_tasks())  # warm-up; sizes the batches
        first_raw = time.perf_counter() - t0
        per_batch = max(1, round(BATCH_S / first_raw))
        warm_raw, warm_kernel = [], [speed.kernel_seconds()]
        for _ in range(0 if built[0] else WARM_BATCHES):
            t0 = time.perf_counter()
            batch = [run_tasks() for _ in range(per_batch)]
            warm_raw.append((time.perf_counter() - t0) / per_batch)
            warm_kernel.append(speed.kernel_seconds())
            warm += batch
        warm_builds = built[0]
    finally:
        if args.keep_cache and not args.warm_from:
            os.replace(cache_dir, args.keep_cache)
        elif not args.warm_from:
            shutil.rmtree(cache_dir, ignore_errors=True)
    if not warm_raw:  # the cache was bypassed, which fails below
        warm_raw = [first_raw]
    result["cache_hit_s"] = speed.correct(statistics.median(warm_raw), warm_kernel)
    result["cache_hit_raw_s"] = statistics.median(warm_raw)
    if not args.warm_from:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    failed = 0
    if cold is not None and cold_builds != len(tasks):
        failed += abs(cold_builds - len(tasks))
        problems.append("cold pass built %d reports for %d tasks" % (cold_builds, len(tasks)))
    if warm_builds:
        failed += warm_builds
        problems.append("warm replays built %d reports" % warm_builds)
    passes = [("warm", reports) for reports in warm]
    if cold is not None:
        passes.insert(0, ("cold", cold))
    for label, reports in passes:
        for (spec, mode, w, direction, expect, euler), (rep, bad) in zip(tasks, reports):
            why = list(bad)
            if rows_of(rep) != expect:
                why.append("rows %s != reference %s" % (rows_of(rep), expect))
            if euler is not None and rep.euler != euler:
                why.append("euler %d != reference %d" % (rep.euler, euler))
            if why:
                failed += 1
                problems.append("%s %s %s w=%d %s: %s"
                                % (label, spec, mode, w, direction, "; ".join(why)))
    result.update({
        "attempted": len(tasks) * len(passes),
        "failed": failed,
        "problems": problems,
        "digest": table_digest(tasks, [rep for rep, _ in passes[0][1]]),
    })
    if tracer is not None:
        tracer.write(args.trace_out)
        result["layers"] = tracer.layer_metrics()
        result["calls"] = tracer.calls()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
