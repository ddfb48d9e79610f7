"""The benchmark's programs and the references they are checked against.

A :class:`Case` builds one guest call (receiver, method, arguments) and
checks an :class:`repro.InvokeResult` against a reference computed apart
from the program under test: CPython interpretation of the same guest for
the fuzz programs (the grammar is f64-only, so interpretation is exact),
NumPy for the library applications, closed forms for the small calls.

``seed`` sets the values each program is built with.  The *shapes* of the
programs do not depend on it: the fuzz programs are a fixed draw from
``random_spec`` (catalogue seed ``CATALOGUE_SEED``) and the library
applications have fixed sizes, so the work a run measures is the same
whatever the seed.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: seed of the fixed draw of fuzz-program shapes (see the module docstring)
CATALOGUE_SEED = 2014


@dataclass
class Case:
    """One guest program: ``build()`` returns a fresh ``(receiver, method,
    args)``; ``check(result)`` is True when the result matches the
    reference.  ``gpu`` selects ``jit4gpu`` instead of ``jit``."""

    name: str
    build: Callable[[], tuple]
    check: Callable[[object], bool]
    gpu: bool = False


def _bits(value, outputs: dict) -> bytes:
    return struct.pack("<d", float(value)) + b"".join(
        np.ascontiguousarray(outputs[k]).tobytes() for k in sorted(outputs))


# ---------------------------------------------------------------------------
# fuzz-grammar programs


def fuzz_cases(workdir: Path, seed: int, count: int, *, max_n: int = 8,
               tag: str = "") -> list[Case]:
    """``count`` programs of the fixed catalogue draw, written to
    ``workdir`` as importable modules (the frontend reads guest source
    through ``inspect``), each checked bit for bit against CPython
    interpretation of the same guest.  Programs whose array length exceeds
    ``max_n`` are skipped, which keeps the small-calls draw small.  ``tag``
    makes the module names unique when the inputs are built again."""
    import repro.rt as rt
    from repro.fuzz.grammar import CLASS_NAME, ctor_args, random_spec, render

    cat = random.Random(CATALOGUE_SEED)
    vals = random.Random(seed)
    cases = []
    k = 0
    while len(cases) < count:
        spec = random_spec(cat)
        k += 1
        if spec.n > max_n:
            continue
        # the same value ranges random_spec draws from, so every clamp in
        # the rendered program still rules out overflow
        spec = dataclasses.replace(
            spec,
            a=vals.randrange(-24, 25) / 8.0,
            b=vals.randrange(-24, 25) / 8.0,
            data=None if spec.data is None else tuple(
                vals.randrange(-16, 17) / 8.0 for _ in spec.data),
        )
        modname = f"jb_fuzz{tag}_{k}"
        (workdir / f"{modname}.py").write_text(render(spec))
        cls = getattr(importlib.import_module(modname), CLASS_NAME)

        rt.current.reset()
        value = cls(*ctor_args(spec)).run(spec.iters)
        ref = _bits(value, rt.current.take_outputs())

        def build(cls=cls, spec=spec):
            return cls(*ctor_args(spec)), "run", (spec.iters,)

        def check(res, ref=ref):
            return _bits(res.value, res.outputs[0]) == ref

        cases.append(Case(f"fuzz{k}", build, check))
    return cases


# ---------------------------------------------------------------------------
# library applications


def diffusion_case(n: int, steps: int, seed: int, *, gpu: bool) -> Case:
    """3-D diffusion (SineGen initial field) on the CPU or simulated-GPU
    runner, checked against a NumPy 7-point stencil in f32."""
    from repro.library.stencil import (
        EmptyContext, SineGen, StencilCPU3D, StencilGPU3D, ThreeDIndexer)
    from repro.library.stencil.config import (
        diffusion_coefficients, make_dif3d_solver, make_grid3d)

    kappa = 0.05 + 0.1 * random.Random(seed).random()
    runner = StencilGPU3D if gpu else StencilCPU3D

    def build():
        app = runner(make_dif3d_solver(kappa), make_grid3d(n, n, n + 2),
                     ThreeDIndexer(n, n, n + 2), SineGen(n, n, n, 1),
                     EmptyContext())
        return app, "run", (steps,)

    zz, yy, xx = np.meshgrid(np.arange(n + 2) - 1, np.arange(n),
                             np.arange(n), indexing="ij")
    a = (np.sin(np.pi * (xx + 1.0) / (n + 1.0))
         * np.sin(np.pi * (yy + 1.0) / (n + 1.0))
         * np.sin(np.pi * (zz + 1.0) / (n + 1.0))).astype(np.float32)
    cc, cw, ch, cd = (np.float32(v) for v in diffusion_coefficients(kappa))
    b = a.copy()
    for _ in range(steps):
        b[1:-1, 1:-1, 1:-1] = (
            cc * a[1:-1, 1:-1, 1:-1]
            + cw * (a[1:-1, 1:-1, :-2] + a[1:-1, 1:-1, 2:])
            + ch * (a[1:-1, :-2, 1:-1] + a[1:-1, 2:, 1:-1])
            + cd * (a[:-2, 1:-1, 1:-1] + a[2:, 1:-1, 1:-1]))
        a, b = b, a
    ref_sum = float(a[1:-1, 1:-1, 1:-1].astype(np.float64).sum())

    def check(res):
        got = res.output("grid").reshape(n + 2, n, n)
        return (np.allclose(got[1:-1], a[1:-1], atol=1e-5)
                and math.isclose(float(res.value), ref_sum, rel_tol=1e-4))

    return Case("diffusion-gpu" if gpu else "diffusion-cpu", build, check,
                gpu=gpu)


def matmul_case(n: int, seed: int, *, optimized: bool) -> Case:
    """Dense matmul through the simple (ijk) or optimized (ikj) calculator,
    checked against ``a @ b``."""
    from repro.library.matmul import (
        CPULoop, OptimizedCalculator, SimpleCalculator, SimpleOuterBody,
        make_matrix)

    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, (n, n))
    b = rng.uniform(-0.5, 0.5, (n, n))
    c = a @ b
    calc = OptimizedCalculator if optimized else SimpleCalculator

    def build():
        ma, mb, mc = make_matrix(n), make_matrix(n), make_matrix(n)
        ma.data[:] = a.ravel()
        mb.data[:] = b.ravel()
        return CPULoop(SimpleOuterBody(), calc()), "start", (ma, mb, mc)

    def check(res):
        return (np.allclose(res.output("c").reshape(n, n), c,
                            rtol=1e-10, atol=1e-12)
                and math.isclose(float(res.value), float(c.sum()),
                                 rel_tol=1e-9, abs_tol=1e-9))

    return Case("matmul-opt" if optimized else "matmul-simple", build, check)


def _nbody_energy(x, y, z, vx, vy, vz, m, g, eps2):
    kin = 0.5 * float(np.sum(m * (vx * vx + vy * vy + vz * vz)))
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    dz = z[None, :] - z[:, None]
    r2 = dx * dx + dy * dy + dz * dz
    iu = np.triu_indices(len(x), 1)
    pot = -(g * m[:, None] * m[None, :]) / np.sqrt(r2 + eps2)
    return kin + float(pot[iu].sum())


def nbody_case(n: int, steps: int, seed: int) -> Case:
    """Direct-summation gravity with the kick-drift integrator, checked
    against a NumPy integration of the same scheme and by energy drift."""
    from repro.library.nbody import (
        Gravity, KickDriftIntegrator, NBodySystem, ParticleSet)
    from repro.library.nbody.config import initial_state

    g, eps2, dt = 1.0, 0.05, 0.002
    rng = np.random.default_rng(seed)
    st = initial_state(n)
    for k in ("x", "y", "z"):
        st[k] = st[k] + 0.01 * rng.standard_normal(n)

    def build():
        p = ParticleSet(*(st[k].copy() for k in
                          ("x", "y", "z", "vx", "vy", "vz", "m")), n)
        app = NBodySystem(p, Gravity(g, eps2), KickDriftIntegrator(),
                          np.zeros(n), np.zeros(n), np.zeros(n), dt)
        return app, "run", (steps,)

    x, y, z, vx, vy, vz, m = (st[k].copy() for k in
                              ("x", "y", "z", "vx", "vy", "vz", "m"))
    e0 = _nbody_energy(x, y, z, vx, vy, vz, m, g, eps2)
    for _ in range(steps):
        dx = x[None, :] - x[:, None]
        dy = y[None, :] - y[:, None]
        dz = z[None, :] - z[:, None]
        d2 = dx * dx + dy * dy + dz * dz + eps2
        s = g * m[None, :] / (d2 * np.sqrt(d2))
        np.fill_diagonal(s, 0.0)
        vx = vx + (dx * s).sum(axis=1) * dt
        vy = vy + (dy * s).sum(axis=1) * dt
        vz = vz + (dz * s).sum(axis=1) * dt
        x, y, z = x + vx * dt, y + vy * dt, z + vz * dt
    e1 = _nbody_energy(x, y, z, vx, vy, vz, m, g, eps2)

    def check(res):
        e = float(res.value)
        return (all(np.allclose(res.output(k), ref, rtol=1e-9, atol=1e-12)
                    for k, ref in (("x", x), ("y", y), ("z", z)))
                and math.isclose(e, e1, rel_tol=1e-9)
                and abs(e - e0) <= 0.01 * abs(e0))

    return Case("nbody", build, check)


def cg_case(nx: int, ny: int, seed: int) -> Case:
    """Jacobi-preconditioned CG on the 2-D Laplacian, checked by its
    residual and against ``np.linalg.solve``."""
    from repro.library.cgsolve import CgSolver, CsrMatrix, JacobiPreconditioner
    from repro.library.cgsolve.config import laplacian2d_csr

    lap = laplacian2d_csr(nx, ny)
    n = lap["n"]
    rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    dense = np.zeros((n, n))
    for row in range(n):
        for k in range(lap["rowptr"][row], lap["rowptr"][row + 1]):
            dense[row, lap["cols"][k]] = lap["vals"][k]
    x_ref = np.linalg.solve(dense, rhs)

    def build():
        z = [np.zeros(n) for _ in range(5)]
        app = CgSolver(CsrMatrix(lap["vals"], lap["cols"], lap["rowptr"], n),
                       JacobiPreconditioner(np.full(n, 0.25)), rhs.copy(),
                       *z, 1e-20)
        return app, "solve", (n,)

    def check(res):
        x = res.output("x")
        return (float(res.value) < 1e-8
                and float(np.linalg.norm(dense @ x - rhs)) < 1e-8
                and np.allclose(x, x_ref, rtol=0.0, atol=1e-8))

    return Case("cg", build, check)


def montecarlo_case(npaths: int, seed: int) -> Case:
    """A call and a put priced over one random stream, checked against
    Black–Scholes and put-call parity within five standard errors."""
    from guests import OptionPair
    from repro.library.montecarlo.config import black_scholes, make_pricer

    s0, strike, rate, sigma, t = 100.0, 105.0, 0.05, 0.2, 1.0
    rng_seed = 20140207 + 7919 * seed
    disc = math.exp(-rate * t)
    bs_call = black_scholes("call", s0, strike, rate, sigma, t)
    bs_put = black_scholes("put", s0, strike, rate, sigma, t)
    parity = s0 - strike * disc

    def build():
        pair = OptionPair(make_pricer(npaths, kind="call", seed=rng_seed),
                          make_pricer(npaths, kind="put", seed=rng_seed))
        return pair, "run", (npaths,)

    def within(samples, target):
        se = disc * float(np.std(samples)) / math.sqrt(len(samples))
        return abs(disc * float(np.mean(samples)) - target) <= 5.0 * se

    def check(res):
        call, put = res.output("call"), res.output("put")
        value = float(res.value)
        return (bool(np.all(call >= 0.0)) and bool(np.all(put >= 0.0))
                and math.isclose(
                    value, disc * (float(np.mean(call)) - float(np.mean(put))),
                    rel_tol=1e-9, abs_tol=1e-9)
                and within(call, bs_call) and within(put, bs_put)
                and within(call - put, parity))

    return Case("montecarlo", build, check)


def library_cases(seed: int, *, diffusion: tuple, matmul: int,
                  nbody: tuple, cg: tuple, paths: int) -> list[Case]:
    """The library applications at the given sizes:
    ``diffusion=(edge, steps)``, ``matmul=edge``, ``nbody=(n, steps)``,
    ``cg=(nx, ny)``, ``paths`` Monte Carlo paths per option."""
    return [
        diffusion_case(*diffusion, seed, gpu=False),
        diffusion_case(*diffusion, seed, gpu=True),
        matmul_case(matmul, seed, optimized=False),
        matmul_case(matmul, seed, optimized=True),
        nbody_case(*nbody, seed),
        cg_case(*cg, seed),
        montecarlo_case(paths, seed),
    ]


# ---------------------------------------------------------------------------
# small calls

#: the f32 sweep: Sweeper(ScaleAddSolver(SWEEP_SCALE), SWEEP_LEN).run(SWEEP_ITERS)
SWEEP_LEN, SWEEP_ITERS, SWEEP_SCALE = 9, 10, 0.75


def sweep_reference() -> tuple[np.ndarray, float]:
    """NumPy evaluation of ``Sweeper(ScaleAddSolver(0.75), 9).run(10)``
    under docs/GUEST_LANGUAGE.md's promotion: ``v * a`` in f32, ``+
    float(i)`` in f64, the f32 return rounds, and the total is f64.
    Returns the final array and the total (136.39767169952393)."""
    arr = np.ones(SWEEP_LEN, np.float32)
    a = np.float32(SWEEP_SCALE)
    for _ in range(SWEEP_ITERS):
        for i in range(SWEEP_LEN):
            arr[i] = np.float32(np.float64(arr[i] * a) + np.float64(i))
    return arr, float(arr.astype(np.float64).sum())


def sweep_case() -> Case:
    """The f32 sweep.  Its inputs are fixed: the py tier fails this check
    on every run (it sums in f32), so it must not depend on the seed."""
    from guests import ScaleAddSolver, Sweeper

    arr, total = sweep_reference()

    def build():
        return (Sweeper(ScaleAddSolver(SWEEP_SCALE), SWEEP_LEN), "run",
                (SWEEP_ITERS,))

    def check(res):
        return (float(res.value) == total
                and np.array_equal(res.output("arr"), arr))

    return Case("sweep-f32", build, check)


def pair_case(seed: int) -> Case:
    """The scalar ``PairUser.run(a, b)``; closed form ``(a + b) ** 2``
    (exact for the eighths it is called with)."""
    from guests import PairUser

    rng = random.Random(seed)
    a, b = rng.randrange(-64, 65) / 8.0, rng.randrange(-64, 65) / 8.0

    def build():
        return PairUser(), "run", (a, b)

    def check(res):
        return float(res.value) == (a + b) ** 2

    return Case("pair", build, check)
