"""Constructive small solutions of p-adic linear-form systems by pigeonhole.

Given n forms L_i in (x_0, ..., x_n) with p-adic integer coefficients, height
bounds H_j, exponents tau (summing to n+1) and shifts sigma (summing to n), the
solver buckets the value vectors (L_i(x) mod p^{delta_i}) over the box
0 <= x_j <= H_j and returns the difference of the first colliding pair. The
bucket exponents delta_i are the exact integers with
p^{delta_i - 1} <= p^{-sigma_i} T^{tau_i} < p^{delta_i}, T^{n+1} = prod(H_j+1).

Computed at exact T (no epsilon perturbation): the bucket bound p^{-delta_i} is
then strictly below p^{sigma_i} T^{-tau_i}, so any collision difference
satisfies the target system outright. The only loss is that the pigeonhole
surplus may be non-strict (p^{sum delta} = T^{n+1}); such runs are flagged
"boundary" and fall back to exhaustive search if no collision appears.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import PAdicInt, _split_power
from .exactcmp import floor_log_powprod


class BelowThresholdError(ValueError):
    """T is too small: some bucket exponent would be negative."""


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class LinearFormSystem:
    """n forms in n+1 unknowns, with box heights and exponent data."""

    p: int
    n: int
    coeffs: tuple[tuple[PAdicInt, ...], ...]
    heights: tuple[int, ...]
    tau: tuple[Fraction, ...]
    sigma: tuple[Fraction, ...]

    def __post_init__(self):
        n = self.n
        if len(self.coeffs) != n or any(len(row) != n + 1 for row in self.coeffs):
            raise ValueError("need n forms with n+1 coefficients each")
        if len(self.heights) != n + 1 or any(h < 1 for h in self.heights):
            raise ValueError("need n+1 heights, all >= 1")
        object.__setattr__(self, "tau", tuple(Fraction(t) for t in self.tau))
        object.__setattr__(self, "sigma", tuple(Fraction(s) for s in self.sigma))
        if len(self.tau) != n or len(self.sigma) != n:
            raise ValueError("tau and sigma must have n entries")
        if sum(self.tau) != n + 1:
            raise ValueError(f"sum(tau) must be n+1, got {sum(self.tau)}")
        if any(t <= 0 for t in self.tau):
            raise ValueError("tau entries must be positive")
        if sum(self.sigma) != n:
            raise ValueError(f"sum(sigma) must be n, got {sum(self.sigma)}")
        for row in self.coeffs:
            for c in row:
                if c.prime != self.p:
                    raise ValueError("coefficient prime differs from system prime")

    @property
    def precision(self) -> int:
        return min(c.precision for row in self.coeffs for c in row)

    @property
    def t_power(self) -> int:
        """T^{n+1} = prod (H_j + 1); T itself is generally irrational."""
        out = 1
        for h in self.heights:
            out *= h + 1
        return out

    def lemma_bound_factors(self, i: int):
        """p^{sigma_i} T^{-tau_i} as an exact power product."""
        return [
            (Fraction(self.p), self.sigma[i]),
            (Fraction(self.t_power), -self.tau[i] / (self.n + 1)),
        ]


def bucket_exponents(sys: LinearFormSystem) -> tuple[int, ...]:
    """The unique integers with p^{delta_i-1} <= p^{-sigma_i} T^{tau_i} < p^{delta_i}."""
    out = []
    for i in range(sys.n):
        value = [
            (Fraction(sys.p), -sys.sigma[i]),
            (Fraction(sys.t_power), sys.tau[i] / (sys.n + 1)),
        ]
        delta = floor_log_powprod(sys.p, value) + 1
        if delta < 0:
            raise BelowThresholdError(
                f"below H_sigma threshold: bucket exponent {delta} < 0 for form {i}"
            )
        out.append(delta)
    return tuple(out)


@dataclass(frozen=True)
class MinkowskiSolution:
    x: tuple[int, ...]
    bucket_exponents: tuple[int, ...]
    verified: bool
    boundary: bool
    method: str


def _norm_exponent(sys: LinearFormSystem, x: Sequence[int], i: int) -> int | None:
    """Valuation of L_i(x) when visible at the working precision, else None (zero class)."""
    residue = 0
    for c, xj in zip(sys.coeffs[i], x):
        residue += c.residue * xj
    k = sys.precision
    residue %= sys.p**k
    if residue == 0:
        return None
    return _split_power(residue, sys.p)[0]


def lemma_thresholds(sys: LinearFormSystem) -> tuple[int, ...]:
    """m_i = least v with p^{-v} <= p^{sigma_i} T^{-tau_i}; always m_i <= delta_i."""
    return tuple(
        -floor_log_powprod(sys.p, sys.lemma_bound_factors(i)) for i in range(sys.n)
    )


def satisfies_lemma_bound(
    sys: LinearFormSystem, x: Sequence[int], thresholds: tuple[int, ...] | None = None
) -> bool:
    """Exact check of |L_i(x)|_p <= p^{sigma_i} T^{-tau_i} for all i.

    Requires the working precision to decide each comparison; systems built by
    bucket solving always satisfy that.
    """
    if thresholds is None:
        thresholds = lemma_thresholds(sys)
    for i in range(sys.n):
        v = _norm_exponent(sys, x, i)
        if v is None:
            # |L_i(x)|_p <= p^{-precision} and precision >= delta_i >= m_i
            continue
        if v < thresholds[i]:
            return False
    return True


def verify_solution(
    sys: LinearFormSystem,
    x: Sequence[int],
    deltas: Sequence[int] | None = None,
    require_buckets: bool = False,
) -> bool:
    """Height bounds, nonzero, and the lemma bound, all exact.

    With require_buckets the stricter method-internal congruences
    L_i(x) == 0 mod p^{delta_i} are asserted too; brute-force fallback
    solutions are only held to the lemma bound.
    """
    if all(v == 0 for v in x):
        return False
    if any(abs(v) > h for v, h in zip(x, sys.heights)):
        return False
    if require_buckets:
        if deltas is None:
            deltas = bucket_exponents(sys)
        for i, delta in enumerate(deltas):
            residue = sum(c.residue * xj for c, xj in zip(sys.coeffs[i], x))
            if residue % sys.p**delta != 0:
                return False
    return satisfies_lemma_bound(sys, x)


def solve(sys: LinearFormSystem) -> MinkowskiSolution:
    """Pigeonhole solver: row-major enumeration, first collision wins.

    Deterministic for a fixed system. Falls back to brute force in the flagged
    boundary regime when the non-strict pigeonhole happens to admit no
    collision.
    """
    deltas = bucket_exponents(sys)
    if max(deltas) > sys.precision:
        raise ValueError(
            f"coefficient precision {sys.precision} below max bucket exponent {max(deltas)}"
        )
    mods = [sys.p**d for d in deltas]
    boundary = sys.t_power == _prod_powers(sys.p, deltas)
    n = sys.n
    coeffs = [[c.residue for c in row] for row in sys.coeffs]
    buckets: dict[tuple[int, ...], tuple[int, ...]] = {}
    last = sys.heights[n]
    prefix_iter = itertools.product(*(range(h + 1) for h in sys.heights[:n]))
    for prefix in prefix_iter:
        partial = [
            sum(coeffs[i][j] * prefix[j] for j in range(n)) % mods[i] for i in range(n)
        ]
        key_vals = partial[:]
        for xn in range(last + 1):
            key = tuple(key_vals)
            other = buckets.get(key)
            if other is not None:
                x = tuple(a - b for a, b in zip(prefix + (xn,), other))
                ok = verify_solution(sys, x, deltas, require_buckets=True)
                return MinkowskiSolution(x, deltas, ok, boundary, "bucket")
            buckets[key] = prefix + (xn,)
            if xn < last:
                key_vals = [
                    (key_vals[i] + coeffs[i][n]) % mods[i] for i in range(n)
                ]
    # no collision: only possible when the surplus is non-strict
    x = brute_force(sys)
    if x is None:
        raise SolverError("no solution found in boundary regime")
    return MinkowskiSolution(x, deltas, verify_solution(sys, x), boundary, "brute-force")


def _prod_powers(p: int, deltas: Sequence[int]) -> int:
    return p ** sum(deltas)


def brute_force(sys: LinearFormSystem, budget: int = 4_000_000) -> tuple[int, ...] | None:
    """Lexicographically smallest nonzero vector in the box satisfying the lemma bound.

    Oracle for the pigeonhole solver; enumeration cost prod(2H_j+1) is guarded
    by the budget.
    """
    total = 1
    for h in sys.heights:
        total *= 2 * h + 1
    if total > budget:
        raise ValueError(f"brute-force budget exceeded: {total} > {budget}")
    thresholds = lemma_thresholds(sys)
    for x in itertools.product(*(range(-h, h + 1) for h in sys.heights)):
        if all(v == 0 for v in x):
            continue
        if satisfies_lemma_bound(sys, x, thresholds):
            return x
    return None


def pigeonhole_surplus(sys: LinearFormSystem) -> bool:
    """True when prod(H_j+1) strictly exceeds the bucket count p^{sum delta_i}."""
    return sys.t_power > _prod_powers(sys.p, bucket_exponents(sys))


# ---------------------------------------------------------------------------
# Structured congruence scan
# ---------------------------------------------------------------------------


def solve_structured(sys: LinearFormSystem, pivots: Sequence[int]) -> MinkowskiSolution:
    """Solve the bucket congruences by back-substitution for triangular systems.

    Form i must be resolvable for variable pivots[i] once x_0 and the previous
    pivots are fixed: its nonzero coefficients may only touch x_0, earlier
    pivots, and its own pivot. This is exactly the shape of the linearized
    systems built by the manifold solver, and scanning x_0 = 1..H_0 costs O(H_0)
    instead of enumerating the whole box. The solutions found satisfy the same
    congruences a bucket collision difference would.
    """
    deltas = bucket_exponents(sys)
    if max(deltas) > sys.precision:
        raise ValueError(
            f"coefficient precision {sys.precision} below max bucket exponent {max(deltas)}"
        )
    n = sys.n
    if sorted(pivots) != sorted(set(pivots)) or len(pivots) != n or 0 in pivots:
        raise ValueError("pivots must be n distinct variable indices, excluding 0")
    allowed: set[int] = {0}
    pivot_data = []
    for i, piv in enumerate(pivots):
        row = sys.coeffs[i]
        for j, c in enumerate(row):
            if j != piv and j not in allowed and c.residue % sys.p**deltas[i] != 0:
                raise ValueError(f"form {i} touches variable {j} before it is pivoted")
        c_piv = row[piv]
        if c_piv.residue == 0:
            raise ValueError(f"form {i} has zero-to-precision pivot coefficient")
        nu, unit = _split_power(c_piv.residue, sys.p)
        pivot_data.append((piv, nu, unit))
        allowed.add(piv)
    boundary = sys.t_power == _prod_powers(sys.p, deltas)

    def extend(i: int, assign: dict[int, int]) -> dict[int, int] | None:
        if i == n:
            return assign
        piv, nu, unit = pivot_data[i]
        delta = deltas[i]
        mod = sys.p**delta
        partial = sum(
            sys.coeffs[i][j].residue * v for j, v in assign.items() if j != piv
        ) % mod
        h = sys.heights[piv]
        if nu >= delta:
            # pivot contributes nothing mod p^delta: need partial == 0 already
            if partial % mod != 0:
                return None
            candidates = [0]
        else:
            if partial % sys.p**nu != 0:
                return None
            step = sys.p ** (delta - nu)
            inv = pow(unit, -1, step)
            y0 = (-(partial // sys.p**nu) * inv) % step
            # candidates in [-h, h] congruent to y0 mod step, ascending
            first = y0 - ((y0 + h) // step) * step
            candidates = list(range(first, h + 1, step))
        for y in candidates:
            if abs(y) > h:
                continue
            assign[piv] = y
            out = extend(i + 1, assign)
            if out is not None:
                return out
            del assign[piv]
        return None

    for x0 in range(1, sys.heights[0] + 1):
        assign = extend(0, {0: x0})
        if assign is not None:
            x = tuple(assign.get(j, 0) for j in range(n + 1))
            ok = verify_solution(sys, x, deltas, require_buckets=True)
            return MinkowskiSolution(x, deltas, ok, boundary, "congruence-scan")
    raise SolverError("no structured solution with x_0 in [1, H_0]")
