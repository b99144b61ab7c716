"""Reference probe: the four ROADMAP aim-1 baselines, each run once in a fresh child.

They are not workloads: at tens of seconds each they are too long to repeat
for every seed. ``run.py --probe`` runs each baseline twice, once for wall
time and once under ``tracemalloc`` for its peak allocation.
"""

from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction as F

import padicapprox as pa


def _sweep_n2():
    psi = pa.ApproxTuple((pa.ScaledPower(F(1, 2), F(1)), pa.PowerLaw(F(2))))
    return str(pa.partial_limsup(pa.Params(3, 2), psi, 1, 150, True, 12).measure())


def _tail_n1():
    psi = pa.ApproxTuple((pa.PowerLaw(F(5, 2)),))
    return str(pa.partial_limsup(pa.Params(3, 1), psi, 100, 200, False, 13).measure())


def _s_tau():
    f = pa.PolyMap(3, 1, 1, (((F(1), (2,)),),))
    return len(pa.enumerate_S_tau(f, [F(7, 5)], 300))


def _solve_n2(H: int):
    rng = random.Random(2021)
    p = 3
    coeffs = tuple(tuple(pa.PAdicInt(p, 30, rng.randrange(p**30)) for _ in range(3)) for _ in range(2))
    system = pa.LinearFormSystem(p, 2, coeffs, (H, H, H), (F(3, 2), F(3, 2)), (F(1), F(1)))
    sol = pa.solve(system)
    return {"x": list(sol.x), "method": sol.method, "bucket_exponents": list(sol.bucket_exponents)}


PROBES = {
    "partial_limsup n=2 p=3 psi=(1/(2q),q^-2) reduced a0 in 1..150 depth 12": _sweep_n2,
    "partial_limsup n=1 p=3 psi=q^-5/2 a0 in 100..200 depth 13": _tail_n1,
    "enumerate_S_tau x^2 over Z_3 tau 7/5 hmax 300": _s_tau,
    "solve n=2 p=3 H=100": lambda: _solve_n2(100),
    "solve n=2 p=3 H=300": lambda: _solve_n2(300),
}


def run(name: str, calibrate, ref_calib_s: float, alloc: bool) -> dict:
    before = calibrate()
    if alloc:
        tracemalloc.start()
    t = time.perf_counter()
    result = PROBES[name]()
    wall = time.perf_counter() - t
    peak = tracemalloc.get_traced_memory()[1] / 2**20 if alloc else None
    if alloc:
        tracemalloc.stop()
    after = calibrate()
    return {"wall_s": wall, "normalized_s": wall * ref_calib_s * 2 / (before + after),
            "tracemalloc_peak_mb": peak, "result": result}
