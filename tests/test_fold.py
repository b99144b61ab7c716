"""Differential tests of the shared exact primitives against the loops they replaced.

The volume series, layer intersections, running unions, p-valuations,
floor-logs and the weighted dimension hypotheses each have one implementation.
The separate loops each caller used to carry are kept here as oracles and
compared on random approximation functions (power laws with integer exponent,
scaled powers, tables), primes p in {2, 3, 5, 7} and n in {1, 2}.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicapprox.approx import (
    ApproxTuple,
    ClaimsReport,
    PowerLaw,
    ScaledPower,
    TableFunction,
    build_layer,
    claim_c_max_ratio,
    divergence_curve,
    duffin_schaeffer_sum,
    intersection_measure,
    khintchine_sum,
    layer_coordinate_data,
    layer_measure,
    layer_sweep_rows,
    measure_claims_check,
    psi_powprod,
    psi_value,
    reference_measure,
    required_depth,
)
from padicapprox.clopen import ClopenSet
from padicapprox.core import (
    ExactnessError,
    HypothesisError,
    PAdicInt,
    Params,
    _split_power,
    totient_sieve,
    valuation,
)
from padicapprox.dimension import jb_dimension, manifold_lower_bound, waterfill_alpha, waterfill_v
from padicapprox.exactcmp import _log_int, cmp_powprod, floor_log_powprod
from padicapprox.manifold import _strip_non_p_gcd

Q_MAX = 10

# ---------------------------------------------------------------------------
# Oracles: the replaced loops
# ---------------------------------------------------------------------------


def old_khintchine_sum(params, psi, n_terms):
    total = Fraction(0)
    for q in range(1, n_terms + 1):
        term = Fraction(q) ** params.n
        for comp in psi.components:
            term *= psi_value(comp, q)
        total += term
    return total


def old_duffin_schaeffer_sum(params, psi, n_terms):
    phi = totient_sieve(n_terms) if n_terms >= 1 else [0]
    total = Fraction(0)
    for q in range(1, n_terms + 1):
        term = Fraction(phi[q]) ** params.n
        for comp in psi.components:
            term *= psi_value(comp, q)
        total += term
    k = old_khintchine_sum(params, psi, n_terms)
    return total, (total / k if k else None)


def old_sweep_series(params, psi, lo, hi):
    """The series columns of the former layer_sweep_rows loop."""
    kh = ds = Fraction(0)
    series_exact = True
    phi = totient_sieve(hi)
    out = []
    for a0 in range(lo, hi + 1):
        if series_exact:
            try:
                term = Fraction(1)
                for comp in psi.components:
                    term *= psi_value(comp, a0)
                kh += Fraction(a0) ** params.n * term
                ds += Fraction(phi[a0]) ** params.n * term
            except ExactnessError:
                series_exact = False
        out.append((kh, ds) if series_exact else (None, None))
    return out


def old_divergence_curve(params, psi, n_max, depth, reduced=True, stop_above=None):
    out = []
    acc = ClopenSet.empty(params.p, params.n, depth)
    for a0 in range(1, n_max + 1):
        acc = acc.union(build_layer(params, psi, a0, reduced, depth))
        mu = acc.measure()
        out.append((a0, mu))
        if stop_above is not None and mu > stop_above:
            break
    return out


def old_measure_claims_check(params, psi, a0, b0):
    if math.gcd(a0, params.p) != 1 or math.gcd(b0, params.p) != 1:
        raise ValueError("a0 and b0 must be coprime to p")
    mu_a = layer_measure(params, psi, a0, reduced=True)
    mu_b = layer_measure(params, psi, b0, reduced=True)
    ref_a = reference_measure(params, psi, a0)
    ref_b = reference_measure(params, psi, b0)
    mu_ab = intersection_measure(params, psi, a0, b0, reduced=True)
    denom = Fraction(a0) ** params.n * Fraction(b0) ** params.n
    for comp in psi.components:
        denom *= psi_value(comp, a0) * psi_value(comp, b0)
    ratio = None if a0 == b0 else mu_ab / denom
    return ClaimsReport(a0, b0, mu_a, ref_a, mu_a == ref_a, mu_b, ref_b, mu_b == ref_b, mu_ab, denom, ratio)


def old_claim_c_max_ratio(params, psi, bound):
    best = Fraction(0)
    arg = (0, 0)
    pairs = [q for q in range(1, bound + 1) if math.gcd(q, params.p) == 1]
    data = {q: layer_coordinate_data(params, psi, q, True) for q in pairs}
    psis = {q: [psi_value(c, q) for c in psi.components] for q in pairs}
    for i, a0 in enumerate(pairs):
        da = data[a0]
        for b0 in pairs[i + 1 :]:
            db = data[b0]
            mu = Fraction(1)
            for (ta, ra), (tb, rb) in zip(da, db):
                if ta > tb:
                    ta, ra, tb, rb = tb, rb, ta, ra
                mod = params.p**ta
                count = sum(1 for r in rb if r % mod in ra)
                if count == 0:
                    mu = Fraction(0)
                    break
                mu *= Fraction(count, params.p**tb)
            if mu == 0:
                continue
            denom = Fraction(a0 * b0) ** params.n
            for va, vb in zip(psis[a0], psis[b0]):
                denom *= va * vb
            ratio = mu / denom
            if ratio > best:
                best, arg = ratio, (a0, b0)
    return best, arg


def old_proper_at(psi, q):
    return all(cmp_powprod(psi_powprod(c, q), [(Fraction(q), Fraction(-1))]) < 0 for c in psi.components)


def old_proper_on(psi, lo, hi):
    for c in psi.components:
        if isinstance(c, PowerLaw):
            qs = [lo]
            if lo == 1:
                qs = [1, min(2, hi)]
            if any(cmp_powprod(psi_powprod(c, q), [(Fraction(q), Fraction(-1))]) >= 0 for q in qs):
                return False
        elif isinstance(c, ScaledPower):
            probe = lo if c.e >= 1 else hi
            if cmp_powprod(psi_powprod(c, probe), [(Fraction(probe), Fraction(-1))]) >= 0:
                return False
        else:
            for q, _ in c.values:
                if lo <= q <= hi and cmp_powprod(psi_powprod(c, q), [(Fraction(q), Fraction(-1))]) >= 0:
                    return False
    return True


def old_valuation(x, p):
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def old_int_valuation(r, p):
    """The loop of PAdicInt.valuation, minkowski._norm_exponent and the Dirichlet p-part."""
    v = 0
    while r % p == 0:
        r //= p
        v += 1
    return v


def old_strip_non_p_gcd(p, b):
    g = 0
    for v in b:
        g = math.gcd(g, v)
    while g % p == 0:
        g //= p
    return [v // g for v in b] if g > 1 else list(b)


def old_floor_log(value, base):
    value = Fraction(value)
    if value <= 0:
        raise ValueError("floor_log needs a positive value")
    est = int((_log_int(value.numerator) - _log_int(value.denominator)) / math.log(base))
    while Fraction(base) ** est > value:
        est -= 1
    while Fraction(base) ** (est + 1) <= value:
        est += 1
    return est


def old_thm29(tau, d, m):
    tau = tuple(Fraction(t) for t in tau)
    n = len(tau)
    if d + m != n:
        raise ValueError("d + m must equal n")
    if any(t <= 1 for t in tau):
        raise HypothesisError("tau_i > 1", f"got {tau}")
    if m >= 1 and sum(tau[d:]) >= m + 1:
        raise HypothesisError("sum(dependent tau) < m+1", f"got {sum(tau[d:])}")
    if sum(tau) <= n + 1:
        raise HypothesisError("sum(tau_i) > n+1", f"got {sum(tau)}")
    if m >= 1 and min(tau[:d]) < max(tau[d:]):
        raise HypothesisError("min indep tau >= max dep tau", f"got {tau}")
    best = None
    for i in range(d):
        num = Fraction(n + 1) + sum((tau[i] - tj for tj in tau if tj < tau[i]), Fraction(0))
        cand = num / tau[i] - m
        best = cand if best is None else min(best, cand)
    return best


def old_jb(tau):
    tau = tuple(Fraction(t) for t in tau)
    n = len(tau)
    if any(t <= 1 for t in tau):
        raise HypothesisError("tau_i > 1", f"got {tau}")
    if sum(tau) <= n + 1:
        raise HypothesisError("sum(tau_i) > n+1", f"got {sum(tau)}")
    best = None
    for ti in tau:
        cand = (Fraction(n + 1) + sum((ti - tj for tj in tau if tj < ti), Fraction(0))) / ti
        best = cand if best is None else min(best, cand)
    return best


def old_waterfill_v_hypotheses(tau, d, m):
    tau = tuple(Fraction(t) for t in tau)
    n = len(tau)
    if any(t <= 1 for t in tau):
        raise HypothesisError("tau_i > 1", f"got {tau}")
    dep = tau[d:]
    if sum(dep) >= m + 1:
        raise HypothesisError("sum(dependent tau) < m+1", f"got {sum(dep)}")
    if sum(tau) <= n + 1:
        raise HypothesisError("sum(tau_i) > n+1", f"got {sum(tau)}")
    if min(tau[:d]) < max(dep):
        raise HypothesisError("min indep tau >= max dep tau", f"got {tau}")


def outcome(fn, *args):
    """("value", v) or ("raised", type, message), so raising paths compare too."""
    try:
        return "value", fn(*args)
    except (ValueError, IndexError) as exc:
        return "raised", type(exc), str(exc)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

positive = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
component = st.one_of(
    st.builds(PowerLaw, st.integers(1, 3)),
    st.builds(ScaledPower, positive, st.integers(0, 3)),
    st.builds(
        lambda vals: TableFunction(tuple(enumerate(vals, start=1))),
        st.lists(st.builds(Fraction, st.integers(1, 4), st.integers(1, 40)), min_size=Q_MAX, max_size=Q_MAX),
    ),
)


@st.composite
def setting(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 2))
    psi = ApproxTuple(tuple(draw(component) for _ in range(n)))
    return Params(p, n), psi


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(setting(), st.integers(0, Q_MAX))
def test_series_match_separate_loops(s, n_terms):
    params, psi = s
    assert khintchine_sum(params, psi, n_terms) == old_khintchine_sum(params, psi, n_terms)
    assert duffin_schaeffer_sum(params, psi, n_terms) == old_duffin_schaeffer_sum(params, psi, n_terms)


@settings(max_examples=30, deadline=None)
@given(setting(), st.integers(1, Q_MAX), st.integers(0, 4), st.booleans())
def test_sweep_rows_match_separate_loops(s, lo, width, reduced):
    params, psi = s
    hi = min(lo + width, Q_MAX)
    depth = required_depth(params, psi, lo, hi)
    rows = list(layer_sweep_rows(params, psi, lo, hi, reduced, depth))
    series = [(r["khintchine_partial"], r["duffin_schaeffer_partial"]) for r in rows]
    assert series == old_sweep_series(params, psi, lo, hi)
    assert [r["a0"] for r in rows] == list(range(lo, hi + 1))
    for r in rows:
        assert r["layer_measure"] == layer_measure(params, psi, r["a0"], reduced)


def test_irrational_series_raise_at_the_same_term_and_sweep_turns_none():
    params = Params(3, 2)
    psi = ApproxTuple((ScaledPower(Fraction(1, 2), Fraction(1)), PowerLaw(Fraction(5, 2))))
    # psi_2(q) = q^{-5/2} is rational at q = 1 and 4, irrational at 2, 3, 5, 6
    assert khintchine_sum(params, psi, 1) == old_khintchine_sum(params, psi, 1) == Fraction(1, 2)
    for fn in (khintchine_sum, duffin_schaeffer_sum):
        with pytest.raises(ExactnessError, match=r"^2\^-5/2 is irrational$"):
            fn(params, psi, 6)
    for lo, first_none in [(1, 2), (4, 5)]:
        depth = required_depth(params, psi, lo, 6)
        rows = list(layer_sweep_rows(params, psi, lo, 6, True, depth))
        assert [(r["khintchine_partial"], r["duffin_schaeffer_partial"]) for r in rows] == old_sweep_series(
            params, psi, lo, 6
        )
        # the columns stay None from the first irrational term on, also at a0 = 4
        assert [r["a0"] for r in rows if r["khintchine_partial"] is None] == list(range(first_none, 7))
        assert all((r["khintchine_partial"] is None) == (r["duffin_schaeffer_partial"] is None) for r in rows)


# ---------------------------------------------------------------------------
# Running union, intersections, properness
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    setting(), st.integers(1, Q_MAX), st.booleans(), st.sampled_from([None, Fraction(1, 3), Fraction(9, 10)])
)
def test_divergence_curve_matches_incremental_union(s, n_max, reduced, stop_above):
    params, psi = s
    depth = required_depth(params, psi, 1, n_max)
    got = divergence_curve(params, psi, n_max, depth, reduced=reduced, stop_above=stop_above)
    assert got == old_divergence_curve(params, psi, n_max, depth, reduced, stop_above)


@settings(max_examples=40, deadline=None)
@given(setting(), st.integers(1, Q_MAX))
def test_claims_and_max_ratio_match_separate_loops(s, bound):
    params, psi = s
    assert claim_c_max_ratio(params, psi, bound) == old_claim_c_max_ratio(params, psi, bound)
    units = [q for q in range(1, bound + 1) if q % params.p]
    for a0, b0 in zip(units, reversed(units)):
        assert measure_claims_check(params, psi, a0, b0) == old_measure_claims_check(params, psi, a0, b0)
    for q in range(1, bound + 1):
        assert psi.proper_at(q) == old_proper_at(psi, q)
        assert psi.proper_on(q, bound) == old_proper_on(psi, q, bound)


def test_claims_check_raises_like_the_separate_loops():
    params = Params(3, 2)
    # psi_1 is irrational at 8 and psi_2 at 4: the first failing pair decides the message
    psi = ApproxTuple((PowerLaw(Fraction(1, 2)), PowerLaw(Fraction(1, 3))))
    got = outcome(measure_claims_check, params, psi, 4, 8)
    assert got == outcome(old_measure_claims_check, params, psi, 4, 8)
    assert got[2] == "8^-1/2 is irrational"
    assert outcome(claim_c_max_ratio, params, psi, 8) == outcome(old_claim_c_max_ratio, params, psi, 8)


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------

nonzero = st.integers(-(10**12), 10**12).filter(bool)
primes = st.sampled_from([2, 3, 5, 7])


@settings(max_examples=200, deadline=None)
@given(nonzero, primes, st.integers(0, 20))
def test_split_power_matches_loop(x, p, k):
    x *= p**k
    v, u = _split_power(x, p)
    assert v == old_int_valuation(x, p)
    assert p**v * u == x and u % p != 0
    assert (u < 0) == (x < 0)


@settings(max_examples=200, deadline=None)
@given(nonzero, nonzero, primes, st.integers(-6, 6))
def test_rational_and_padic_valuations_match_loops(num, den, p, k):
    x = Fraction(num, den) * Fraction(p) ** k
    assert valuation(x, p) == old_valuation(x, p)
    assert valuation(-x, p) == old_valuation(x, p)
    residue = num % p**20
    if residue:
        assert PAdicInt(p, 20, num).valuation() == old_int_valuation(residue, p)


@settings(max_examples=200, deadline=None)
@given(st.lists(nonzero, min_size=1, max_size=4), primes)
def test_strip_non_p_gcd_matches_loop(b, p):
    assert _strip_non_p_gcd(p, b) == old_strip_non_p_gcd(p, b)


def test_valuation_of_negative_and_fractional_values():
    assert _split_power(-12, 2) == (2, -3)
    assert _split_power(-7, 3) == (0, -7)
    assert valuation(Fraction(-12, 5), 2) == 2
    assert valuation(Fraction(-5, 12), 2) == -2
    assert valuation(Fraction(-250, 3), 5) == 3


# ---------------------------------------------------------------------------
# Floor-log
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**30), st.integers(1, 10**30), st.sampled_from([2, 3, 5, 7, 10]))
def test_floor_log_powprod_matches_core_floor_log(num, den, base):
    v = Fraction(num, den)
    assert floor_log_powprod(base, [(v, 1)]) == old_floor_log(v, base)


# ---------------------------------------------------------------------------
# Dimension hypotheses
# ---------------------------------------------------------------------------

taus = st.lists(st.builds(Fraction, st.integers(1, 16), st.integers(1, 5)), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(taus, st.integers(-1, 4))
def test_weighted_hypotheses_match_separate_checks(tau, d):
    m = len(tau) - d
    if d < 1 or m < 0:
        # the old loop returned None or raised IndexError here; both are now rejected
        want_thm29 = ("raised", ValueError, "thm2.9 needs d >= 1 and m >= 0")
    else:
        want_thm29 = outcome(old_thm29, tau, d, m)
    assert outcome(manifold_lower_bound, tau, d, m, "thm2.9") == want_thm29
    want = outcome(old_jb, tau)
    assert outcome(jb_dimension, tau) == want
    if want[0] == "raised":
        assert outcome(waterfill_alpha, tau) == want
    if 1 <= d < len(tau):
        got = outcome(waterfill_v, tau, d, m)
        want = outcome(old_waterfill_v_hypotheses, tau, d, m)
        if want[0] == "raised":
            assert got == want
        else:
            assert got[0] == "value" or got[2].startswith("hypothesis violated: v_i > 1")
