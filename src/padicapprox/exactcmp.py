"""Exact comparison of products of rational powers.

All strict thresholds in this package have the shape
    p^e  vs  c * b1^e1 * b2^e2 * ...
with rational bases and rational exponents. Comparing them reduces to an
integer comparison after raising both sides to the lcm of the exponent
denominators, so no floating point is ever consulted for a decision. Floats
are only used to seed integer searches, which are then corrected exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# A power product is a sequence of (base, exponent) pairs with positive
# rational bases and rational exponents, denoting prod base_i ** exp_i.
PowerProduct = Sequence[tuple[Fraction | int, Fraction | int]]


def _normalized(factors: PowerProduct) -> list[tuple[Fraction, Fraction]]:
    out = []
    for base, exp in factors:
        base = Fraction(base)
        exp = Fraction(exp)
        if base <= 0:
            raise ValueError("power product bases must be positive")
        if base != 1 and exp != 0:
            out.append((base, exp))
    return out


def cmp_powprod(lhs: PowerProduct, rhs: PowerProduct) -> int:
    """Sign of lhs - rhs for two power products. Exact."""
    left = _normalized(lhs)
    right = _normalized(rhs)
    scale = 1
    for _, exp in left + right:
        scale = scale * exp.denominator // math.gcd(scale, exp.denominator)
    lval = Fraction(1)
    for base, exp in left:
        lval *= base ** int(exp * scale)
    rval = Fraction(1)
    for base, exp in right:
        rval *= base ** int(exp * scale)
    if lval < rval:
        return -1
    if lval > rval:
        return 1
    return 0


def _log_int(n: int) -> float:
    """Natural log of a positive integer, safe for arbitrarily large ints."""
    bits = n.bit_length()
    if bits <= 900:
        return math.log(n)
    return math.log(n >> (bits - 900)) + (bits - 900) * math.log(2)


def powprod_log_estimate(factors: PowerProduct) -> float:
    """Float log of a power product, for search seeding only."""
    total = 0.0
    for base, exp in _normalized(factors):
        total += float(exp) * (_log_int(base.numerator) - _log_int(base.denominator))
    return total


def floor_log_powprod(p: int, factors: PowerProduct) -> int:
    """max{e in Z : p^e <= prod base_i^exp_i}, exact."""
    est = int(powprod_log_estimate(factors) / math.log(p))
    while cmp_powprod([(p, est)], factors) > 0:
        est -= 1
    while cmp_powprod([(p, est + 1)], factors) <= 0:
        est += 1
    return est


def ball_exponent(p: int, radius: PowerProduct) -> int:
    """Closed-ball exponent of an open p-adic ball of the given radius.

    {|x|_p < r} equals {|x|_p <= p^{-t}} for the unique t with
    p^{-t} < r <= p^{-t+1}; that t is 1 + floor_log_p(1/r).
    """
    inverted = [(base, -Fraction(exp)) for base, exp in radius]
    return floor_log_powprod(p, inverted) + 1


def frac_pow(x: Fraction | int, exp: Fraction | int) -> Fraction:
    """x**exp when the result is rational, else raises ExactnessError."""
    from .core import ExactnessError

    x = Fraction(x)
    exp = Fraction(exp)
    if exp.denominator == 1:
        return x ** int(exp)
    if x <= 0:
        raise ValueError(f"fractional power {exp} of the non-positive base {x}")
    root = exp.denominator
    num = int_root_floor(x.numerator, root)
    den = int_root_floor(x.denominator, root)
    if num**root != x.numerator or den**root != x.denominator:
        raise ExactnessError(f"{x}^{exp} is irrational")
    return Fraction(num, den) ** exp.numerator


def int_root_floor(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1, by Newton iteration on integers."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)  # upper seed: 2^ceil(bits/k) >= n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y
