"""Benchmark of the JIT: cold compile, warm ``jit()`` and steady-state
``invoke()`` on the py, C and C+OpenMP tiers.

    python3 jitbench/run.py --workload compile --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` makes a separate traced run and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads, the references and the measurements.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import layers  # noqa: E402
from layers import gmean  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIERS = ("py", "c", "omp")

#: the one failure expected: the py tier sums the f32 sweep in f32
#: (backends/pybackend/emit.py), the reference sums in f64
KNOWN_FAULT = ("sweep-f32", "py", "wrong result")

#: warm ``jit()`` calls per cold compile; ``warm_jit_s`` takes their median
#: per program, since a single call right after a gcc run spreads widely
WARM_REPEATS = 5


@dataclass
class Workload:
    """``make_cases(workdir, seed, tag)`` builds the programs; ``setup_passes``
    cold passes run during set-up (0: the window itself compiles);
    ``invokes`` is the number of invocations per program and tier in one
    round of the measured window."""

    make_cases: Callable[[Path, int, str], list]
    setup_passes: int
    invokes: dict


def _compile_cases(workdir, seed, tag):
    from cases import fuzz_cases, library_cases

    return fuzz_cases(workdir, seed, 24, tag=tag) + library_cases(
        seed, diffusion=(8, 3), matmul=8, nbody=(6, 10), cg=(6, 5),
        paths=512)


def _kernel_cases(workdir, seed, tag):
    from cases import library_cases

    return library_cases(seed, diffusion=(32, 4), matmul=96,
                         nbody=(48, 20), cg=(24, 24), paths=20000)


def _small_cases(workdir, seed, tag):
    from cases import fuzz_cases, pair_case, sweep_case

    return [pair_case(seed), sweep_case()] + fuzz_cases(
        workdir, seed, 3, max_n=4, tag=tag)


WORKLOADS = {
    "compile": Workload(_compile_cases, 0, {"py": 60, "c": 60, "omp": 60}),
    "kernels": Workload(_kernel_cases, 3, {"py": 1, "c": 30, "omp": 30}),
    "small-calls": Workload(_small_cases, 5,
                            {"py": 300, "c": 300, "omp": 300}),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def isolate(work: Path) -> None:
    """Point every cache and temporary directory into ``work`` and drop the
    knobs that would change what is measured: the compile daemon, tiered
    compilation, tracing from the environment, pass selection, and any
    OpenMP team-size or wait-policy override (the omp tier runs at the
    machine's default)."""
    for var in list(os.environ):
        if var.startswith(("REPRO_", "OMP_", "GOMP_")):
            del os.environ[var]
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    sys.path.insert(0, str(ROOT / "src"))


class Recorder:
    """Timing samples keyed by (kind, tier, case) plus the operation tally."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures = defaultdict(int)

    def op(self, case: str, tier: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[(case, tier, why or "wrong result")] += 1

    @property
    def correct(self) -> bool:
        return all(key == KNOWN_FAULT for key in self.failures)

    def medians(self, kind: str, tier: str) -> dict:
        return {case: statistics.median(v)
                for (k, t, case), v in self.samples.items()
                if k == kind and t == tier and v}


class Runner:
    """Drives the public API: ``jit``/``jit4gpu``, ``JitCode.invoke``,
    ``repro.jit.cache`` and, in traced runs, ``repro.obs``."""

    def __init__(self, work: Path, rec: Recorder, trace: bool):
        import repro
        from repro.jit import cache

        self.repro = repro
        self.cache = cache
        self.work = work
        self.rec = rec
        self.trace = trace
        self.passes = 0
        self.dirs = work

    def jit(self, case, tier: str, dirs: Path, code_dir: Path = None):
        """Compile ``case`` on ``tier`` with the caches under ``dirs``
        (the code cache in ``code_dir`` when one is given)."""
        os.environ["REPRO_OMP"] = "1" if tier == "omp" else "0"
        os.environ["REPRO_CACHE_DIR"] = str(code_dir or dirs / tier / "code")
        os.environ["REPRO_CC_CACHE"] = str(dirs / tier / "cc")
        recv, method, args = case.build()
        fn = self.repro.jit4gpu if case.gpu else self.repro.jit
        return fn(recv, method, *args, backend="py" if tier == "py" else "c")

    def checked(self, case, tier: str, res) -> None:
        try:
            ok = bool(case.check(res))
        except Exception as exc:  # noqa: BLE001 - a check that raises fails
            self.rec.op(case.name, tier, False, f"check raised {exc!r}")
            return
        self.rec.op(case.name, tier, ok)

    def cold_pass(self, cases, invokes=None) -> dict:
        """Every case on every tier: cold ``jit()`` + first ``invoke()``
        with empty code and .so caches (fresh directories per pass and
        tier), then ``WARM_REPEATS`` warm ``jit()`` calls served by the disk
        tier after the memory tier is dropped.  With ``invokes``, an invoke
        round of each case follows its compiles, which spreads the
        invocations over the whole pass.  Returns the warm codes."""
        if self.passes:
            shutil.rmtree(self.dirs, ignore_errors=True)
        dirs = self.dirs = self.work / f"pass{self.passes}"
        self.passes += 1
        self.cache.clear_memory()
        codes = {}
        for case in cases:
            for tier in TIERS:
                try:
                    t0 = time.perf_counter()
                    code = self.jit(case, tier, dirs)
                    res = code.invoke()
                    dt = time.perf_counter() - t0
                except Exception as exc:  # noqa: BLE001 - report, go on
                    self.rec.op(case.name, tier, False, f"cold: {exc!r}")
                    continue
                self.rec.samples["first", tier, case.name].append(dt)
                # the warm jits belong to the same operation: it succeeds
                # when the result checks out and the disk tier serves each
                code = self.warm_jits(case, tier, dirs, code)
                if code is None:
                    continue
                self.checked(case, tier, res)
                codes[case.name, tier] = code
            if invokes:
                self.invoke_round([case], codes, invokes)
        return codes

    def warm_jits(self, case, tier: str, dirs: Path, cold):
        """``WARM_REPEATS`` warm ``jit()`` calls of ``case``, each from its
        own copy of the entry the cold ``jit()`` stored, so that every one
        loads its .so from a new path as a fresh process would.  Records
        one failed operation and returns None if any is not served by the
        disk tier; else returns the last code."""
        digest = cold.report.key_digest
        src = dirs / tier / "code"
        for r in range(WARM_REPEATS):
            dst = dirs / tier / f"warm{r}"
            dst.mkdir(exist_ok=True)
            for ext in (".json", ".src", ".so"):
                if (src / (digest + ext)).is_file():
                    shutil.copy2(src / (digest + ext), dst / (digest + ext))
            self.cache.clear_memory()
            try:
                t0 = time.perf_counter()
                code = self.jit(case, tier, dirs, dst)
                dt = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001
                self.rec.op(case.name, tier, False, f"warm: {exc!r}")
                return None
            served = code.report.cache_tier
            if served != "disk":
                self.rec.op(case.name, tier, False,
                            f"warm jit served by {served!r}")
                return None
            self.rec.samples["warm", tier, case.name].append(dt)
        return code

    def invoke_round(self, cases, codes: dict, counts: dict) -> None:
        """``counts[tier]`` invocations of every case on every tier,
        interleaved across cases and tiers so that drift in machine speed
        hits them alike.
        Traced runs also time ``compiled.run`` called directly and a
        1-rank ``mpirun`` of an empty body, with tracing off."""
        from repro.obs import trace

        traced = trace.enabled()
        trace.disable()
        try:
            self._invoke_round(cases, codes, counts)
        finally:
            if traced:
                trace.enable()

    def _invoke_round(self, cases, codes: dict, counts: dict) -> None:
        for j in range(max(counts.values())):
            for case in cases:
                for tier in TIERS:
                    code = codes.get((case.name, tier))
                    if code is None or j >= counts[tier]:
                        continue
                    try:
                        t0 = time.perf_counter()
                        res = code.invoke()
                        dt = time.perf_counter() - t0
                    except Exception as exc:  # noqa: BLE001
                        self.rec.op(case.name, tier, False, f"invoke: {exc!r}")
                        continue
                    self.rec.samples["invoke", tier, case.name].append(dt)
                    self.checked(case, tier, res)
                    if self.trace:
                        run = self.direct_run(code)
                        self.rec.samples["run", tier, case.name].append(run)
                        self.rec.samples["overhead", tier, case.name].append(
                            dt - run)
        if self.trace:
            for _ in range(200):
                t0 = time.perf_counter()
                self.repro.mpirun(1, _empty_body)
                self.rec.samples["mpirun", "", ""].append(
                    time.perf_counter() - t0)

    @staticmethod
    def direct_run(code) -> float:
        import numpy as np
        from repro.jit.runtime import RuntimeEnv

        arrays = [np.array(s.array, copy=True)
                  for s in code.program.snapshot.array_slots]
        env = RuntimeEnv(None, gpu_model=code.gpu_model)
        t0 = time.perf_counter()
        code.compiled.run(env, arrays)
        return time.perf_counter() - t0


def _empty_body(ctx):
    return None


def end_to_end(rec: Recorder, setup_s: float, peak_rss_mb: float) -> dict:
    m = {"setup_s": (setup_s, "s")}
    for tier in TIERS:
        m[f"first_result_{tier}_s"] = (
            gmean(rec.medians("first", tier).values()), "s")
    m["warm_jit_s"] = (gmean(v for tier in TIERS
                             for v in rec.medians("warm", tier).values()), "s")
    for tier in TIERS:
        m[f"invoke_{tier}_s"] = (
            gmean(rec.medians("invoke", tier).values()), "s")
    m["peak_rss_mb"] = (peak_rss_mb, "MB")
    return m


def per_case_rows(rec: Recorder, cases) -> list[str]:
    rows = [f"{'program':<16}" + "".join(
        f"{k + '_' + t:>14}" for k in ("first", "invoke") for t in TIERS)]
    for case in cases:
        cells = []
        for kind in ("first", "invoke"):
            for tier in TIERS:
                v = rec.samples.get((kind, tier, case.name))
                cells.append(f"{statistics.median(v) * 1e3:>12.3f}ms"
                             if v else f"{'-':>14}")
        rows.append(f"{case.name:<16}" + "".join(cells))
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"jitbench: no repro sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    base = ROOT / ".jitbench_work"
    work = base / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    isolate(work)
    try:
        return run(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


def run(args, workload: Workload, work: Path) -> int:
    rec = Recorder()
    runner = Runner(work, rec, bool(args.trace))
    from cases import sweep_case

    # process-level set-up: one unmeasured compile + invoke per tier, so
    # the OpenMP/CBLAS flag probes and the callback calibration land here
    warm = sweep_case()
    for tier in TIERS:
        runner.jit(warm, tier, work / "warmup").invoke()
    t_process = time.perf_counter() - T_START
    probe = layers.Probe() if args.trace else None

    def cold_pass(cases, invokes=None):
        if probe is not None:
            probe.begin()
        codes = runner.cold_pass(cases, invokes)
        if probe is not None:
            probe.end(runner, cases, codes)
        return codes

    # the repeatable part of set-up (inputs, and the compiles where the
    # window only invokes) runs several times; setup_s takes its median
    reps = []
    for r in range(max(1, workload.setup_passes)):
        t0 = time.perf_counter()
        inputs = work / f"inputs{r}"
        inputs.mkdir()
        sys.path.insert(0, str(inputs))
        cases = workload.make_cases(inputs, args.seed, f"r{r}")
        if workload.setup_passes:
            codes = cold_pass(cases)
        reps.append(time.perf_counter() - t0)
    setup_s = t_process + statistics.median(reps)

    # whole rounds only, and no round that would overrun the window (the
    # first round always runs)
    t_window = time.perf_counter()
    peak_rss_mb = None
    while True:
        t0 = time.perf_counter()
        if workload.setup_passes:
            runner.invoke_round(cases, codes, workload.invokes)
        else:
            cold_pass(cases, workload.invokes)
        # the peak after the first round: later rounds repeat its work, and
        # how many fit in the window depends on the machine's speed
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if now - t_window + (now - t0) > args.seconds:
            break

    for line in per_case_rows(rec, cases):
        print(line)
    for (case, tier, why), n in sorted(rec.failures.items())[:20]:
        print(f"FAILED {n}x {case} on {tier}: {why}")
    e2e = end_to_end(rec, setup_s, peak_rss_mb)
    if args.trace:
        print("end-to-end under tracing: " + ", ".join(
            f"{k}={v:.6g}{u}" for k, (v, u) in e2e.items()))
        metrics = probe.metrics(rec)
    else:
        metrics = e2e
    print(json.dumps({
        "correct": rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
