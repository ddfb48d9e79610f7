"""Guest programs owned by the benchmark.

* ``PairUser`` — a scalar call whose native work is a handful of flops, so
  an invocation is almost pure call overhead.
* ``Sweeper(ScaleAddSolver(0.75), 9).run(10)`` — a 9-element ``Array(f32)``
  sweep summed into an f64 ``total``.  Under the C promotion rules of
  docs/GUEST_LANGUAGE.md the sum is 136.39767169952393; the py tier sums in
  f32 instead (136.39767), which is why the benchmark counts that operation
  as failed.
* ``OptionPair`` — the Monte Carlo library's pricer composed twice (a call
  and a put over the same random stream), so one run can be checked against
  Black–Scholes *and* put-call parity.
"""

from __future__ import annotations

from repro import Array, f32, f64, i64, wj, wootin
from repro.library.montecarlo import GbmPricer


@wootin
class Pair:
    x: f64
    y: f64

    def __init__(self, x: f64, y: f64):
        self.x = x
        self.y = y

    def plus(self, o: "Pair") -> "Pair":
        return Pair(self.x + o.x, self.y + o.y)

    def dot(self, o: "Pair") -> f64:
        return self.x * o.x + self.y * o.y


@wootin
class PairUser:
    def __init__(self):
        pass

    def run(self, a: f64, b: f64) -> f64:
        p = Pair(a, b)
        q = Pair(b, a)
        s = p.plus(q)
        return s.dot(p)


@wootin
class Solver:
    def __init__(self):
        pass

    def solve(self, v: f32, index: i64) -> f32:
        return v


@wootin
class ScaleAddSolver(Solver):
    a: f32

    def __init__(self, a: f32):
        self.a = a

    def solve(self, v: f32, index: i64) -> f32:
        return v * self.a + float(index)


@wootin
class Sweeper:
    solver: Solver
    n: i64

    def __init__(self, solver: Solver, n: i64):
        self.solver = solver
        self.n = n

    def run(self, iters: i64) -> f64:
        arr = wj.zeros(f32, self.n)
        for i in range(self.n):
            arr[i] = 1.0
        for it in range(iters):
            for i in range(self.n):
                arr[i] = self.solver.solve(arr[i], i)
        total = 0.0
        for i in range(self.n):
            total = total + arr[i]
        wj.output("arr", arr)
        return total


@wootin
class OptionPair:
    call: GbmPricer
    put: GbmPricer

    def __init__(self, call: GbmPricer, put: GbmPricer):
        self.call = call
        self.put = put

    def run(self, npaths: i64) -> f64:
        c = self.call.run(npaths)
        p = self.put.run(npaths)
        wj.output("call", self.call.payoffs)
        wj.output("put", self.put.payoffs)
        return c - p
