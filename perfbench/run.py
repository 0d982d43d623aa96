"""Benchmark of the poisson-cohom engine, end to end and per layer.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 50 --trace 0

Workloads:
  corpus       the 86 fast golden entries, compared field-exactly
  chain_sweep  solvable22, poly-with-constants, chain direction, weights
               0..5, cold into an empty cache and then warm from it,
               compared with perfbench/chain_sweep_ref.json
  like_h2_wm1  the gated weight -1 Poisson-like job (one pass takes about
               100 s; give --seconds 250 or more)

The seed permutes the task order; the tables do not depend on it.  Every
pass runs in its own fresh interpreter, one at a time, with default engine
options.  Passes repeat until the next one would overrun --seconds.  With
--trace 0 the first pass keeps its filled cache, and after each pass
WARM_RUNS further processes set up and replay warm from it, so setup_s and
cache_hit_s get more samples.  cache_hit_s is the time of one warm replay
of every task, timed in batches of back-to-back replays (see job.py).
Each metric is the median over the processes that measured it.  With --trace 1 the run alternates traced and untraced passes
and reports the per-layer metrics; spans go to .perfbench-out/.

wall_s, setup_s and cache_hit_s are seconds at the reference speed of
speed.py, which takes out the drift of a shared machine's speed; the
measured seconds are printed beside them as *_raw_s samples.  The
per-layer times are measured seconds.

The last stdout line is one JSON object: correct, attempted and failed
count checked tables, metrics maps each name to its value and unit.
The exit code is 0 when every table is correct, 1 when one is not, and
2 when the engine sources are missing or a pass crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from job import OUT, SRC, WORKLOADS
from tracer import COUNTS

HERE = os.path.dirname(os.path.abspath(__file__))
JOB = os.path.join(HERE, "job.py")
WARM_RUNS = 3  # warm-only processes after each pass, spread over the run
# String hashing is randomised per process by default, which changes dict
# layouts from pass to pass; in a test, the chain_sweep warm pass then split
# processes between about 0.36 and 0.66 ms.  Fix it for every pass.
HASH_SEED = "0"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cache_hit_s": "s"}


class PassFailed(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith(".madds"):
        return "computed-madds"
    return "count" if name in COUNTS else "s"


def spawn(workload: str, seed: int, timeout: float, *extra) -> dict:
    """Run one job.py process to completion; its result plus elapsed time."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, JOB, "--workload", workload, "--seed", str(seed),
           "--t-spawn", repr(t_spawn), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    except subprocess.TimeoutExpired:
        raise PassFailed("pass exceeded %.0f s" % timeout)
    elapsed = time.monotonic() - t_spawn
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed("job.py exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    result["elapsed"] = elapsed
    return result


def layer_median(name: str, values: list):
    """Median over traced passes; counts stay whole numbers."""
    if any(v is None for v in values):
        return None
    return statistics.median_low(values) if name in COUNTS else statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "poisson_cohom", "__init__.py")):
        print("error: engine sources not found under %s" % SRC, file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds
    timeout = max(120.0, 2 * args.seconds)
    os.makedirs(OUT, exist_ok=True)
    warm_cache = os.path.join(OUT, "warm-%d" % os.getpid())
    passes, warm_only = [], []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 0
            extra = []
            if traced:
                extra = ["--trace-out", os.path.join(
                    OUT, "spans-%s-seed%d-pass%d.jsonl" % (args.workload, args.seed, len(passes)))]
            elif not args.trace and not passes:
                extra = ["--keep-cache", warm_cache]
            res = spawn(args.workload, args.seed, timeout, *extra)
            res["traced"] = traced
            passes.append(res)
            if not args.trace:
                warm_only += [spawn(args.workload, args.seed, timeout, "--warm-from", warm_cache)
                              for _ in range(WARM_RUNS)]
            both_kinds = not args.trace or len(passes) >= 2
            if both_kinds and time.monotonic() + res["elapsed"] > deadline:
                break
    except PassFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(warm_cache, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    digests = {p["digest"] for p in passes + warm_only}
    problems = [msg for p in passes + warm_only for msg in p["problems"]]
    if len(digests) > 1:
        problems.append("passes produced different tables")
    attempted = sum(p["attempted"] for p in passes + warm_only)
    failed = sum(p["failed"] for p in passes + warm_only)
    correct = not problems and failed == 0

    print("perfbench workload=%s seed=%d trace=%d passes=%d (%d traced) warm-only=%d"
          % (args.workload, args.seed, args.trace, len(passes), len(traced), len(warm_only)))
    print("tables_attempted %d tables_failed %d tables_sha256 %s"
          % (attempted, failed, " ".join(sorted(digests))))
    for msg in problems:
        print("MISMATCH " + msg)

    if args.trace:
        for kind, group in (("traced", traced), ("untraced", plain)):
            print("wall_raw_s %s samples (%d): %s" % (kind, len(group), " ".join(
                "%.6g" % p["wall_raw_s"] for p in group)))
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = {"value": layer_median(name, [p["layers"][name] for p in traced]),
                             "unit": layer_unit(name)}
        metrics["trace.overhead_s"] = {
            "value": (statistics.median(p["wall_raw_s"] for p in traced)
                      - statistics.median(p["wall_raw_s"] for p in plain)),
            "unit": "s"}
    else:
        samples = {key: [p[key] for p in passes + warm_only if key in p]
                   for key in [*END_TO_END, "wall_raw_s", "setup_raw_s", "cache_hit_raw_s"]}
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, values in samples.items():
            print("%s samples (%d): %s" % (name, len(values),
                                           " ".join("%.6g" % v for v in values)))
    for name, m in metrics.items():
        print("%-36s %s %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
