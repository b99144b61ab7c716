"""Exact evaluators for the dimension formulas, the recursive exponent
constructions (as water-filling), the two-variant rectangle-transference
exponent optimization, and a box-counting slope estimator.

The formulas take the exponents tau directly, as exact rationals. Everything
except the box-dimension fit is exact rational arithmetic; the fit is an
explicitly heuristic least-squares slope and holds the only floats here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import HypothesisError, _rationals, is_prime


def _fractions(values: Sequence) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def jb_dimension(tau: Sequence[Fraction]) -> Fraction:
    """min_i (n+1 + sum_{tau_j < tau_i} (tau_i - tau_j)) / tau_i.

    Needs every tau_i > 1 and sum tau_i > n+1.
    """
    tau = _fractions(tau)
    _check_weighted(tau, len(tau), 0)
    return min(_jb_numerator(tau, ti) / ti for ti in tau)


def _jb_numerator(tau: tuple[Fraction, ...], ti: Fraction) -> Fraction:
    """n+1 + sum_{tau_j < tau_i} (tau_i - tau_j): the direction-i numerator of jb_dimension."""
    return Fraction(len(tau) + 1) + sum((ti - tj for tj in tau if tj < ti), Fraction(0))


def _check_weighted(tau: tuple[Fraction, ...], d: int, m: int) -> None:
    """The hypotheses on tau with d independent and m dependent coordinates.

    Shared by waterfill_v and manifold_lower_bound('thm2.9'); with m = 0 only
    tau_i > 1 and sum(tau_i) > n+1 remain, the hypotheses of jb_dimension and
    waterfill_alpha.
    """
    dep = tau[d:]
    if any(t <= 1 for t in tau):
        raise HypothesisError("tau_i > 1", f"got {_rationals(tau)}")
    if m >= 1 and sum(dep) >= m + 1:
        raise HypothesisError("sum(dependent tau) < m+1", f"got {sum(dep)}")
    if sum(tau) <= len(tau) + 1:
        raise HypothesisError("sum(tau_i) > n+1", f"got {sum(tau)}")
    if m >= 1 and min(tau[:d]) < max(dep):
        raise HypothesisError("min indep tau >= max dep tau", f"got {_rationals(tau)}")


def rynne_dimension(tau: Sequence[Fraction]) -> Fraction:
    """Real-case comparison value: min_k (n+1 + sum_{i>=k}(tau_k - tau_i)) / (tau_k + 1)
    over tau sorted descending.

    That numerator is jb_dimension's: every entry below tau_k comes after it in
    the descending order, and the entries equal to tau_k add 0.
    """
    tau = _fractions(tau)
    if sum(tau) < 1:
        raise HypothesisError("sum(tau_i) >= 1", f"got {sum(tau)}")
    if any(t <= 0 for t in tau):
        raise HypothesisError("tau_i > 0", f"got {_rationals(tau)}")
    return min(_jb_numerator(tau, tk) / (tk + 1) for tk in tau)


# ---------------------------------------------------------------------------
# Water-filling constructions
# ---------------------------------------------------------------------------


def waterfill_level(tau: Sequence[Fraction], target: Fraction) -> Fraction:
    """The unique c with sum_i min(tau_i, c) = target, for target <= sum(tau)."""
    tau = _fractions(tau)
    target = Fraction(target)
    if target > sum(tau):
        raise ValueError("target exceeds sum(tau)")
    srt = sorted(tau)
    n = len(srt)
    # on [srt[j-1], srt[j]] the sum is linear with slope n - j
    total_low = Fraction(0)
    for j, t in enumerate(srt):
        remaining = n - j
        # sum at c = t: entries below t are pinned, the rest contribute c
        value_at_t = total_low + remaining * t
        if value_at_t >= target:
            return (target - total_low) / remaining
        total_low += t
    return srt[-1]


def waterfill_alpha(tau: Sequence[Fraction]) -> tuple[tuple[Fraction, ...], Fraction]:
    """alpha_i = min(tau_i, c) with sum alpha_i = n+1; the ubiquity exponents.

    Requires tau_i > 1 and sum(tau) > n+1; then c > 1 and every alpha_i > 1.
    """
    tau = _fractions(tau)
    n = len(tau)
    _check_weighted(tau, n, 0)
    c = waterfill_level(tau, Fraction(n + 1))
    alpha = tuple(min(t, c) for t in tau)
    assert sum(alpha) == n + 1 and all(a > 1 for a in alpha)
    return alpha, c


def waterfill_v(tau: Sequence[Fraction], d: int, m: int) -> tuple[Fraction, ...]:
    """Independent-block exponents v_i = min(tau_i, c) with
    sum v = n+1 - sum(dependent tau); requires every v_i > 1."""
    tau = _fractions(tau)
    n = len(tau)
    if d < 1 or m < 1 or d + m != n:
        raise ValueError("need d >= 1, m >= 1, d + m = n")
    _check_weighted(tau, d, m)
    target = Fraction(n + 1) - sum(tau[d:])
    c = waterfill_level(tau[:d], target)
    v = tuple(min(t, c) for t in tau[:d])
    if any(vi <= 1 for vi in v):
        raise HypothesisError("v_i > 1", "hypotheses do not support construction")
    assert sum(v) == target
    return v


# ---------------------------------------------------------------------------
# Rectangle-transference exponent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WWResult:
    value: Fraction
    argmin: Fraction
    partition: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    candidates: tuple[tuple[Fraction, Fraction], ...]


def ww_exponent(
    a: Sequence[Fraction], t: Sequence[Fraction], variant: str = "K2-sum"
) -> WWResult:
    """Optimize the transference exponent over the candidate cut set.

    Specialized to the setting used here: every coordinate space is
    1-Ahlfors regular and the scaling parameter is 0, so the Ahlfors weights
    drop out. For each A in {a_i} cup {a_i + t_i}, partition indices into
    K1 = {a_j >= A}, K2 = {a_j + t_j <= A} minus K1, K3 = the rest, and score
    #K1 + #K2 + (sum_{K3} a_j - sum_T t_j)/A. The published display sums the
    t_j over T = K3; the worked applications sum over T = K2, and only that
    variant reproduces the closed-form dimension. Both are implemented;
    K2-sum is the default, the discrepancy is deliberately surfaced.
    """
    a = _fractions(a)
    t = _fractions(t)
    if len(a) != len(t):
        raise ValueError("a and t must have equal length")
    if any(x <= 0 for x in a) or any(x < 0 for x in t):
        raise HypothesisError("a_i > 0 and t_i >= 0", f"got a={_rationals(a)}, t={_rationals(t)}")
    if variant not in ("K2-sum", "K3-sum"):
        raise ValueError("variant must be 'K2-sum' or 'K3-sum'")
    n = len(a)
    cuts = sorted(set(a) | {ai + ti for ai, ti in zip(a, t)})
    best: tuple[Fraction, Fraction, tuple] | None = None
    scored = []
    for A in cuts:
        k1 = tuple(j for j in range(n) if a[j] >= A)
        k2 = tuple(j for j in range(n) if a[j] + t[j] <= A and j not in k1)
        k3 = tuple(j for j in range(n) if j not in k1 and j not in k2)
        t_block = k2 if variant == "K2-sum" else k3
        num = sum((a[j] for j in k3), Fraction(0)) - sum((t[j] for j in t_block), Fraction(0))
        value = Fraction(len(k1) + len(k2)) + num / A
        scored.append((A, value))
        if best is None or value < best[0]:
            best = (value, A, (k1, k2, k3))
    value, argmin, partition = best
    return WWResult(value, argmin, partition, tuple(scored))


def manifold_lower_bound(
    tau: Sequence[Fraction], d: int, m: int, which: str
) -> Fraction:
    """Dimension lower bounds for graphs of quadratic-error maps.

    which = 'thm2.7': equal weights, s = (n+1)/tau - m for 1+1/n < tau < 1+1/m, d >= 1, m >= 0.
    which = 'thm2.8': d=1 curves, s = (n+1 - sum_{j>=2} tau_j)/tau_1.
    which = 'thm2.9': general weights, min over the d >= 1 independent directions
    of the weighted formula minus m (m >= 0).
    """
    tau = _fractions(tau)
    n = len(tau)
    which = which.lower()
    if which == "thm2.7":
        vals = set(tau)
        if len(vals) != 1:
            raise HypothesisError("equal weights", f"got {_rationals(tau)}")
        (t,) = vals
        if d + m != n:
            raise ValueError("d + m must equal n")
        if d < 1 or m < 0:
            raise ValueError("thm2.7 needs d >= 1 and m >= 0")
        if not Fraction(1) + Fraction(1, n) < t:
            raise HypothesisError("tau > 1 + 1/n", f"got {t}")
        if m >= 1 and not t < Fraction(1) + Fraction(1, m):
            raise HypothesisError("tau < 1 + 1/m", f"got {t}")
        return Fraction(n + 1) / t - m
    if which == "thm2.8":
        if d != 1 or m != n - 1:
            raise ValueError("the curve case needs d = 1, m = n - 1")
        tilde = sum(tau[1:], Fraction(0))
        if tilde >= n:
            raise HypothesisError("sum_{j>=2} tau_j < n", f"got {tilde}")
        if any(t <= 1 for t in tau[1:]):
            raise HypothesisError("tau_i > 1 for i >= 2", f"got {_rationals(tau)}")
        lower = max(list(tau[1:]) + [Fraction(n + 1) - tilde])
        if tau[0] < lower:
            raise HypothesisError("tau_1 >= max(tau_i, n+1-sum_{j>=2} tau_j)", f"got {tau[0]} < {lower}")
        return (Fraction(n + 1) - tilde) / tau[0]
    if which == "thm2.9":
        if d + m != n:
            raise ValueError("d + m must equal n")
        if d < 1 or m < 0:
            raise ValueError("thm2.9 needs d >= 1 and m >= 0")
        _check_weighted(tau, d, m)
        return min(_jb_numerator(tau, t) / t for t in tau[:d]) - m
    raise ValueError(f"unknown formula selector {which!r}")


# ---------------------------------------------------------------------------
# Box-dimension estimation (heuristic)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxDimFit:
    slope: float
    intercept: float
    residuals: tuple[float, ...]
    r_squared: float
    levels: tuple[int, ...]


def boxdim_estimate(
    counts: Sequence[tuple[int, int]], p: int, drop_coarsest: int = 2
) -> BoxDimFit:
    """Least-squares slope of log N_k against k log p.

    No exactness claim; the two coarsest levels are dropped by default
    (boundary effects). Needs a prime p, drop_coarsest >= 0, no negative
    level or count, at least 3 levels with nonzero counts, and no level
    given twice.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if drop_coarsest < 0:
        raise ValueError(f"need drop_coarsest >= 0, got {drop_coarsest}")
    given = sorted((int(k), int(N)) for k, N in counts)
    for k, N in given:
        if k < 0:
            raise ValueError(f"counts have level {k}; k must be >= 0")
        if N < 0:
            raise ValueError(f"counts have N={N} at level {k}; N must be >= 0")
    pts = [(k, N) for k, N in given[drop_coarsest:] if N > 0]
    if len({k for k, _ in pts}) < 3:
        raise ValueError("need at least 3 levels with nonzero counts")
    for (k, _), (k2, _) in zip(given, given[1:]):
        if k == k2:
            raise ValueError(f"level {k} given twice")
    xs = [k * math.log(p) for k, _ in pts]
    ys = [math.log(N) for _, N in pts]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    residuals = tuple(y - (slope * x + intercept) for x, y in zip(xs, ys))
    ss_res = sum(r * r for r in residuals)
    mean = sy / n
    ss_tot = sum((y - mean) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return BoxDimFit(slope, intercept, residuals, r2, tuple(k for k, _ in pts))
