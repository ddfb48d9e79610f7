"""Per-layer metrics of a traced run.

Compile layers come from the spans and counters the program already emits
(``repro.obs``), recorded only around the cold passes.  A layer's time is
its *self* time: the span's duration less the part of it that its child
spans cover.  Invoke layers come from timing public calls directly (see
``Runner.invoke_round``), with tracing off so that span bookkeeping does
not inflate them.
"""

from __future__ import annotations

import math
import os
import statistics
from collections import defaultdict

#: counters whose change over the first traced cold pass is reported; they
#: count work, so they repeat exactly from run to run
COUNTERS = (
    "jit.compiles",
    "inline.calls_inlined",
    "bce.checks_elided",
    "opt.fold.rewrites",
    "opt.licm.rewrites",
    "opt.cse.rewrites",
    "opt.dce.rewrites",
    "cfg.blocks",
    "parallel.loops_parallelized",
    "parallel.reductions",
)

OPT_PASSES = ("inline", "fold", "licm", "cse", "dce", "bce")


def self_times(spans) -> list[tuple]:
    """``(span, self seconds)`` for every span."""
    covered = defaultdict(float)
    for sp in spans:
        if sp.parent_id is not None:
            covered[sp.parent_id] += sp.dur_s
    return [(sp, sp.dur_s - covered[sp.span_id]) for sp in spans]


def gmean(values) -> float:
    """Geometric mean, so that no single program dominates."""
    values = list(values)
    if not values:
        raise ValueError("no samples: every operation of a tier failed")
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Probe:
    """Collects spans and counter deltas around cold passes."""

    def __init__(self):
        from repro.obs import registry
        from repro.obs import trace

        self.trace = trace
        self.registry = registry()
        self.spans = []
        self.before = {}
        self.counts = None
        self.disk_bytes = 0
        self.source_bytes = {}
        self.cold = defaultdict(int)

    def begin(self) -> None:
        self.before = self.registry.values()
        self.trace.clear()
        self.trace.enable()

    def end(self, runner, cases, codes) -> None:
        self.trace.disable()
        self.spans.extend(self.trace.spans())
        self.trace.clear()
        for tier in ("py", "c", "omp"):
            self.cold[tier] += len(cases)
        if self.counts is not None:
            return
        after = self.registry.values()
        self.counts = {n: after.get(n, 0) - self.before.get(n, 0)
                       for n in COUNTERS}
        for tier in ("py", "c", "omp"):
            os.environ["REPRO_CACHE_DIR"] = str(runner.dirs / tier / "code")
            self.disk_bytes += runner.cache.stats()["disk_bytes"]
        for tier in ("py", "c"):
            self.source_bytes[tier] = sum(
                len(code.source) for (_, t), code in codes.items()
                if t == tier)

    def metrics(self, rec) -> dict:
        n_all = sum(self.cold.values())
        n_c = self.cold["c"] + self.cold["omp"]
        per = defaultdict(float)
        each = defaultdict(list)
        for sp, self_s in self_times(self.spans):
            name = sp.name
            if name == "backend.compile":
                name += "." + str(sp.attrs.get("backend"))
            elif name == "cache.probe" and sp.attrs.get("hit"):
                # the memory tier is dropped before every warm jit
                name = "cache.disk_hit"
            per[name] += self_s
            each[name].append(self_s)

        def mean(name):
            return statistics.fmean(each[name])

        m = {
            "jit.snapshot_s": (mean("jit.snapshot"), "s"),
            "cache.key_s": (mean("cache.key"), "s"),
            "cache.probe_s": (mean("cache.probe"), "s"),
            "cache.disk_hit_s": (mean("cache.disk_hit"), "s"),
            "cache.store_s": (mean("cache.store"), "s"),
            "jit.compiles": (self.counts["jit.compiles"], "count"),
            "cache.disk_bytes": (self.disk_bytes, "B"),
            "frontend.lower_s": (per["frontend.lower"] / n_all, "s"),
            "frontend.verify_s": (per["frontend.verify"] / n_all, "s"),
        }
        for p in OPT_PASSES:
            m[f"opt.{p}_s"] = (per[f"opt.{p}"] / n_all, "s")
        for name in COUNTERS[1:]:
            m[name] = (self.counts[name], "count")
        m["backends.emit_py_s"] = (per["backend.compile.py"] / self.cold["py"],
                                   "s")
        m["backends.emit_c_s"] = (per["backend.compile.c"] / n_c, "s")
        m["cc.compile_s"] = (per["cc.compile"] / n_c, "s")
        m["cc.link_s"] = (per["cc.link"] / n_c, "s")
        m["backends.source_bytes_py"] = (self.source_bytes["py"], "B")
        m["backends.source_bytes_c"] = (self.source_bytes["c"], "B")
        for tier in ("py", "c", "omp"):
            m[f"backends.run_{tier}_s"] = (
                gmean(rec.medians("run", tier).values()), "s")
        # each invoke is paired with a direct run right after it; the
        # overhead is the median of the pairs' differences, per program
        for tier in ("py", "c"):
            m[f"jit.invoke_overhead_{tier}_s"] = (
                statistics.median(rec.medians("overhead", tier).values()),
                "s")
        m["mpi.mpirun_s"] = (
            statistics.median(rec.samples["mpirun", "", ""]), "s")
        return m
