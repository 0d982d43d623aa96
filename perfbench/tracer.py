"""Tracer for the benchmark's per-layer metrics, kept outside the engine.

The engine has no instrumentation of its own, so the tracer replaces the
public function of each layer with a timing wrapper at every import site:
the defining module and every `poisson_cohom` module that bound the same
object by `from ... import`.  Each call becomes a span (name, start, end,
parent span, run id); a layer's self time is its span durations minus the
time covered by its traced child spans.  Counts are taken at the same
boundaries from the arguments and results.

A layer function that no longer exists is reported as absent (metric
value None, with a warning), never as 0 s.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# defining module -> public functions wrapped at every import site
LAYERS = {
    "fixtures": ("load_structure",),
    "complexes": ("build_basis", "basis_dimension_check", "cochain_matrix",
                  "boundary_matrix", "wedge_cochain_matrix"),
    "casimir": ("casimir_space",),
    "multivector": ("poly_module_matrix",),
    "linalg": ("compose_is_zero", "matmul", "rank_kernel"),
    "engine": ("build_report", "cache_key", "cross_check"),
}
# defining module -> class -> methods wrapped on the class
METHODS = {"engine": {"ComplexReport": ("parse", "serialize")}}

MATRIX_BUILDERS = ("complexes.cochain_matrix", "complexes.boundary_matrix",
                   "complexes.wedge_cochain_matrix", "multivector.poly_module_matrix")

# count metric -> the span whose function must exist for it to be measured
COUNTS = {
    "complexes.build_basis.elements": ("complexes.build_basis",),
    "matrix.count": MATRIX_BUILDERS,
    "matrix.nnz": MATRIX_BUILDERS,
    "matrix.max_dim": MATRIX_BUILDERS,
    "linalg.compose_is_zero.madds": ("linalg.compose_is_zero",),
    "linalg.rank_kernel.calls": ("linalg.rank_kernel",),
    "linalg.rank_kernel.input_nnz": ("linalg.rank_kernel",),
    "linalg.rank_kernel.rank_sum": ("linalg.rank_kernel",),
    "linalg.rank_kernel.kernel_vectors": ("linalg.rank_kernel",),
}
# the tracer's own counting work, recorded so its parent's self time excludes it
COUNT_SPAN = "trace.count"


def span_names() -> list:
    names = ["%s.%s" % (mod, fn) for mod, fns in LAYERS.items() for fn in fns]
    names += ["%s.%s.%s" % (mod, cls, meth) for mod, classes in METHODS.items()
              for cls, meths in classes.items() for meth in meths]
    return names


def _computed_madds(a, b) -> int:
    """Multiply-adds of the full product a @ b, computed from the operands'
    sparsity (an early exit on a nonzero column would do fewer)."""
    a_col = Counter(c for (_, c) in a.entries)
    b_row = Counter(r for (r, _) in b.entries)
    return sum(a_col[k] * n for k, n in b_row.items())


class Tracer:
    """Spans and counts of one traced process; write() dumps them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, start, end, parent index]
        self._stack: list = []
        self.counts: Counter = Counter()
        self.max_dim = 0
        self.absent: list = []

    def _count(self, name: str, args, result) -> None:
        c = self.counts
        if name == "complexes.build_basis":
            c["complexes.build_basis.elements"] += len(result)
        elif name in MATRIX_BUILDERS:
            c["matrix.count"] += 1
            c["matrix.nnz"] += result.nnz()
            self.max_dim = max(self.max_dim, result.n_rows, result.n_cols)
        elif name == "linalg.rank_kernel":
            c["linalg.rank_kernel.calls"] += 1
            c["linalg.rank_kernel.input_nnz"] += args[0].nnz()
            c["linalg.rank_kernel.rank_sum"] += result.rank
            c["linalg.rank_kernel.kernel_vectors"] += len(result.kernel or ())

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if name == "linalg.compose_is_zero":
                # a span of its own, so the parent's self time excludes it
                start = time.perf_counter()
                tracer.counts["linalg.compose_is_zero.madds"] += _computed_madds(*args[:2])
                tracer.spans.append([COUNT_SPAN, start, time.perf_counter(), parent])
            idx = len(tracer.spans)
            span = [name, time.perf_counter(), None, parent]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            tracer._count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer function at every poisson_cohom import site."""
        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == "poisson_cohom"
                                      or name.startswith("poisson_cohom."))}
        for modname, fns in LAYERS.items():
            home = mods.get("poisson_cohom." + modname)
            for fn in fns:
                name = "%s.%s" % (modname, fn)
                orig = getattr(home, fn, None)
                if orig is None:
                    self._mark_absent(name)
                    continue
                wrapped = self.wrap(name, orig)
                for m in mods.values():
                    if getattr(m, fn, None) is orig:
                        setattr(m, fn, wrapped)
        for modname, classes in METHODS.items():
            home = mods.get("poisson_cohom." + modname)
            for clsname, meths in classes.items():
                cls = getattr(home, clsname, None)
                for meth in meths:
                    name = "%s.%s.%s" % (modname, clsname, meth)
                    raw = cls.__dict__.get(meth) if cls is not None else None
                    if raw is None:
                        self._mark_absent(name)
                    elif isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw))

    def _mark_absent(self, name: str) -> None:
        self.absent.append(name)
        print("warning: layer function %s not found; its metrics are reported "
              "as absent (null)" % name, file=sys.stderr)

    def layer_metrics(self) -> dict:
        """Self seconds per span name, plus counts; None for absent layers."""
        self_s = Counter()
        for name, start, end, parent in self.spans:
            dur = end - start
            self_s[name] += dur
            if parent is not None:
                self_s[self.spans[parent][0]] -= dur
        out = {}
        for name in span_names():
            key = name + (".self_s" if name == "engine.build_report" else ".s")
            out[key] = None if name in self.absent else self_s[name]
        counts = dict(self.counts)
        counts["matrix.max_dim"] = self.max_dim
        for key, needs in COUNTS.items():
            present = any(n not in self.absent for n in needs)
            out[key] = counts.get(key, 0) if present else None
        return out

    def calls(self) -> dict:
        """Number of calls per traced layer function."""
        return dict(Counter(span[0] for span in self.spans if span[0] != COUNT_SPAN))

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent span, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")
            fh.write(json.dumps({"run": self.run_id, "counts": self.layer_metrics(),
                                 "absent": self.absent}) + "\n")
