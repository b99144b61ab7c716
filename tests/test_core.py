import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicapprox.core import (
    PAdicInt,
    Params,
    embed_rational,
    euler_phi,
    is_prime,
    norm,
    shift_map,
    totient_sieve,
    valuation,
)
from padicapprox.exactcmp import floor_log_powprod


def test_valuation_basic_values():
    assert valuation(12, 3) == 1
    assert valuation(Fraction(1, 9), 3) == -2
    assert valuation(11, 2) == 0


def test_valuation_of_zero_is_an_error():
    with pytest.raises(ValueError, match="valuation undefined"):
        valuation(0, 5)


def test_norm_values():
    assert norm(0, 5) == 0
    assert norm(12, 3) == Fraction(1, 3)
    assert norm(Fraction(1, 2), 2) == 2


rationals = st.fractions(
    min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**4
)


@settings(max_examples=200)
@given(x=rationals, y=rationals, p=st.sampled_from([2, 3, 5, 7]))
def test_ultrametric_inequality(x, y, p):
    lhs = norm(x + y, p)
    nx, ny = norm(x, p), norm(y, p)
    assert lhs <= max(nx, ny)
    if nx != ny:
        assert lhs == max(nx, ny)


@settings(max_examples=200)
@given(x=rationals, y=rationals, p=st.sampled_from([2, 3, 5]))
def test_norm_is_multiplicative(x, y, p):
    assert norm(x * y, p) == norm(x, p) * norm(y, p)


def test_embed_rational_modular_inverse():
    x = embed_rational(1, 2, p=3, precision=2)
    assert x.residue == 5 and (2 * 5) % 9 == 1
    assert embed_rational(7, 1, p=5, precision=3).residue == 7


def test_embed_rational_rejects_p_in_denominator():
    with pytest.raises(ValueError, match="not a p-adic integer"):
        embed_rational(1, 5, p=5, precision=2)


def test_embed_rational_refuses_a_zero_denominator():
    for a in (1, 0, Fraction(2, 7)):
        with pytest.raises(ZeroDivisionError, match="^b must be nonzero$"):
            embed_rational(a, 0, p=3, precision=5)


@settings(max_examples=100)
@given(
    a=st.integers(-500, 500),
    b=st.integers(1, 500),
    p=st.sampled_from([2, 3, 5]),
    k=st.integers(1, 8),
)
def test_embed_then_multiply_recovers_numerator(a, b, p, k):
    if b % p == 0:
        b += 1 if (b + 1) % p else 2
    x = embed_rational(a, b, p=p, precision=k)
    back = x * embed_rational(b, 1, p=p, precision=k)
    assert back.residue == a % p**k


def test_arithmetic_identities():
    x = PAdicInt(3, 2, 2)
    y = PAdicInt(3, 2, 7)
    assert (x + y).residue == 0
    one = PAdicInt(3, 2, 1)
    assert x * one == x
    assert (x - x).residue == 0


def test_arithmetic_mixed_primes_rejected():
    with pytest.raises(ValueError, match="mismatched primes"):
        PAdicInt(3, 2, 1) + PAdicInt(5, 2, 1)


def test_arithmetic_truncates_to_min_precision():
    x = PAdicInt(3, 5, 100)
    y = PAdicInt(3, 2, 1)
    assert (x + y).precision == 2


def test_shift_map_examples():
    p = 3
    zero = PAdicInt(p, 4, 0)
    assert shift_map(zero).residue == 0
    x = PAdicInt(p, 3, 0 + 1 * 3 + 2 * 9)
    assert shift_map(x).residue == 1 + 2 * 3
    y = PAdicInt(p, 2, 2 + 1 * 3)
    assert shift_map(y).residue == 2


def test_shift_map_iterated_and_bijective_on_small_ball():
    p, K = 3, 4
    for r in range(p**K):
        x = PAdicInt(p, K, r)
        for _ in range(K - 1):
            x = shift_map(x)
        assert x.precision == 1
    # restricted to pZ_p, the shift is a bijection onto Z_p at one less digit
    images = {shift_map(PAdicInt(p, K, r)).residue for r in range(0, p**K, p)}
    assert images == set(range(p ** (K - 1)))


@settings(max_examples=200)
@given(p=st.sampled_from([2, 3, 5, 7]), precision=st.integers(1, 40), data=st.data())
def test_digits_are_the_base_p_expansion_of_the_residue(p, precision, data):
    x = PAdicInt(p, precision, data.draw(st.integers(-(p**precision), 2 * p**precision)))
    digits = x.digits()
    assert len(digits) == precision
    assert all(0 <= d < p for d in digits)
    assert sum(d * p**i for i, d in enumerate(digits)) == x.residue


def test_padic_valuation_and_norm():
    x = PAdicInt(5, 4, 50)
    assert x.valuation() == 2
    assert x.norm() == Fraction(1, 25)
    with pytest.raises(ValueError, match="zero to known precision"):
        PAdicInt(5, 4, 0).valuation()


def test_euler_phi_values():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    for p in (2, 3, 5, 7, 31):
        assert euler_phi(p) == p - 1


def test_totient_sieve_matches_euler_phi():
    phi = totient_sieve(300)
    for q in range(1, 301):
        assert phi[q] == euler_phi(q)


def test_params_validation():
    Params(3, 2)
    with pytest.raises(ValueError):
        Params(4, 2)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_a_sieve_and_refuses_strong_pseudoprimes():
    # every composite below 50 has a trial-division factor; the Miller-Rabin
    # rounds' composite branch needs one without, such as those pinned below
    limit = 10**5
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, limit + 1, q)))
    assert [n for n in range(-3, limit + 1) if is_prime(n)] == [n for n in range(limit + 1) if sieve[n]]
    # 41 * 43, then strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    for n in (1763, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)


@settings(max_examples=100)
@given(
    num=st.integers(1, 10**9),
    den=st.integers(1, 10**9),
    base=st.sampled_from([2, 3, 5, 10]),
)
def test_floor_log_exact(num, den, base):
    v = Fraction(num, den)
    e = floor_log_powprod(base, [(v, 1)])
    assert Fraction(base) ** e <= v < Fraction(base) ** (e + 1)


def test_floor_log_matches_float_log_far_from_boundaries():
    assert floor_log_powprod(10, [(Fraction(1000), 1)]) == 3
    assert floor_log_powprod(10, [(Fraction(1, 1000), 1)]) == -3
    assert floor_log_powprod(10, [(Fraction(999), 1)]) == 2
    assert math.isclose(floor_log_powprod(2, [(2**100, 1)]), 100)
