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


def _root_form(factors: PowerProduct) -> tuple[int, int, int]:
    """Positive integers (s, N, D) with prod base_i^exp_i = (N/D)^(1/s), built from
    .numerator / .denominator (ints and Fractions both have them) without a Fraction."""
    s = num = den = 1
    for base, exp in factors:
        bn, bd = base.numerator, base.denominator
        if bn <= 0:
            raise ValueError("power product bases must be positive")
        lift = exp.denominator // math.gcd(s, exp.denominator)
        if lift > 1:  # widen the common root to lcm(s, exp denominator)
            num, den, s = num**lift, den**lift, s * lift
        k = exp.numerator * (s // exp.denominator)
        if k < 0:
            bn, bd, k = bd, bn, -k
        num *= bn**k
        den *= bd**k
    return s, num, den


def cmp_powprod(lhs: PowerProduct, rhs: PowerProduct) -> int:
    """Sign of lhs - rhs for two power products, exact: cross-multiplied at a common root."""
    s, a, b = _root_form(lhs)
    r, c, d = _root_form(rhs)
    g = math.gcd(s, r)
    left = a ** (r // g) * d ** (s // g)
    right = c ** (s // g) * b ** (r // g)
    return (left > right) - (left < right)


def _floor_log(p: int, s: int, num: int, den: int) -> int:
    """max{e in Z : p^e <= (num/den)^(1/s)}: a float seed, corrected by p^(e*s) * den <= num."""

    def at_most(e: int) -> bool:
        k = e * s
        return p**k * den <= num if k >= 0 else den <= num * p**-k

    est = int((math.log(num) - math.log(den)) / (s * math.log(p)))
    while not at_most(est):
        est -= 1
    while at_most(est + 1):
        est += 1
    return est


def floor_log_powprod(p: int, factors: PowerProduct) -> int:
    """max{e in Z : p^e <= prod base_i^exp_i}, exact."""
    return _floor_log(p, *_root_form(factors))


def ball_exponent(p: int, radius: PowerProduct) -> int:
    """Closed-ball exponent of an open p-adic ball of the given radius.

    {|x|_p < r} equals {|x|_p <= p^{-t}} for the unique t with
    p^{-t} < r <= p^{-t+1}; that t is 1 + floor_log_p(1/r).
    """
    s, num, den = _root_form(radius)
    return _floor_log(p, s, den, num) + 1


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
    x = 1 << -(-n.bit_length() // k)  # upper seed: 2^ceil(bits/k) >= n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y
