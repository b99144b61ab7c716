"""Differential tests of the shared exact primitives against the loops they replaced.

The volume series, layer intersections, running unions, p-valuations,
floor-logs and the weighted dimension hypotheses each have one implementation.
The separate loops each caller used to carry are kept here as oracles and
compared on random approximation functions (power laws with integer exponent,
scaled powers, tables), primes p in {2, 3, 5, 7} and n in {1, 2}.

The congruences of the pigeonhole lemma are folded the same way: the lemma
bound is one list of moduli, the least feasible Dirichlet height a closed
form, and the structured scan resolves x_{i+1} with form i. Their former
versions live in `oracles.py` and are compared here on random systems. A
Dirichlet scan vector x becomes its point by one gcd (x / gcd(x), with k the
p-adic valuation of the gcd); the three passes it replaced are an oracle too.

Layer residues come from one split a0 = p^v u instead of one Fraction per
numerator, and `PowerLaw` is read as the scaled power with c = 1. The
Fraction residue rule and the three-branch `psi_powprod` / `psi_value` live
in `oracles.py`; the separate loops above evaluate psi through them.

The Taylor data of the Dirichlet step comes from the integer forms of a
`PolyMap` (`IntegerForm.taylor`). The path through the `Fraction` monomials,
their partial derivatives and `PAdicInt` row arithmetic lives in `oracles.py`
and is compared here on random maps.
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
    _coordinate_residues,
    build_layer,
    claim_c_max_ratio,
    divergence_curve,
    duffin_schaeffer_sum,
    intersection_measure,
    khintchine_sum,
    layer_coordinate_data,
    layer_measure,
    layer_numerators,
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
from padicapprox.exactcmp import _log_int, ball_exponent, cmp_powprod, floor_log_powprod
from padicapprox.manifold import (
    DirichletInstance,
    PolyMap,
    _bucket_feasible_height,
    _exhaustive_dirichlet,
    _linearized_system,
    dirichlet_h0,
    dirichlet_solve,
    dqe_constants,
    verify_dirichlet,
)
from padicapprox.minkowski import (
    LinearFormSystem,
    MinkowskiSolution,
    SolverError,
    bucket_exponents,
    lemma_thresholds,
    satisfies_lemma_bound,
    solve_structured,
    verify_solution,
)

from oracles import (
    branched_psi_powprod,
    branched_psi_value,
    factor_lemma_thresholds,
    fraction_coordinate_residues,
    general_dirichlet_h0,
    padic_derivative_norms,
    padic_linearized_rows,
    pivoted_solve_structured,
    stepped_feasible_height,
    strip_flip_divide,
    valuation_satisfies_lemma_bound,
    valuation_verify_solution,
)

Q_MAX = 10

# ---------------------------------------------------------------------------
# Oracles: the replaced loops
# ---------------------------------------------------------------------------


def old_khintchine_sum(params, psi, n_terms):
    total = Fraction(0)
    for q in range(1, n_terms + 1):
        term = Fraction(q) ** params.n
        for comp in psi.components:
            term *= branched_psi_value(comp, q)
        total += term
    return total


def old_duffin_schaeffer_sum(params, psi, n_terms):
    phi = totient_sieve(n_terms) if n_terms >= 1 else [0]
    total = Fraction(0)
    for q in range(1, n_terms + 1):
        term = Fraction(phi[q]) ** params.n
        for comp in psi.components:
            term *= branched_psi_value(comp, q)
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
                    term *= branched_psi_value(comp, a0)
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
        denom *= branched_psi_value(comp, a0) * branched_psi_value(comp, b0)
    ratio = None if a0 == b0 else mu_ab / denom
    return ClaimsReport(a0, b0, mu_a, ref_a, mu_a == ref_a, mu_b, ref_b, mu_b == ref_b, mu_ab, denom, ratio)


def old_claim_c_max_ratio(params, psi, bound):
    best = Fraction(0)
    arg = (0, 0)
    pairs = [q for q in range(1, bound + 1) if math.gcd(q, params.p) == 1]
    data = {q: layer_coordinate_data(params, psi, q, True) for q in pairs}
    psis = {q: [branched_psi_value(c, q) for c in psi.components] for q in pairs}
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


def old_below_inverse(c, q):
    return cmp_powprod(branched_psi_powprod(c, q), [(Fraction(q), Fraction(-1))]) < 0


def old_proper_at(psi, q):
    return all(old_below_inverse(c, q) for c in psi.components)


def old_proper_on(psi, lo, hi):
    for c in psi.components:
        if isinstance(c, PowerLaw):
            qs = [lo]
            if lo == 1:
                qs = [1, min(2, hi)]
            if not all(old_below_inverse(c, q) for q in qs):
                return False
        elif isinstance(c, ScaledPower):
            probe = lo if c.e >= 1 else hi
            if not old_below_inverse(c, probe):
                return False
        else:
            for q, _ in c.values:
                if lo <= q <= hi and not old_below_inverse(c, q):
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
# Layer records and the power-law family
# ---------------------------------------------------------------------------


def fraction_layer_record(params, psi, a0, reduced):
    """The layer record with the Fraction residues; psi is evaluated at a0 first, also where
    the reduced layer is empty (p | a0), so a table without a value at a0 raises there."""
    exps = psi.step_exponents(a0, params.p)
    if reduced and a0 % params.p == 0:
        return [(0, set()) for _ in exps]
    nums = layer_numerators(a0, reduced)
    return [(t, fraction_coordinate_residues(params.p, a0, t, nums)) for t in exps]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 2), st.integers(1, 40), st.integers(0, 8), st.booleans())
def test_integer_residues_match_the_fraction_rule(p, v, u, t, reduced):
    # a0 = p^v u covers a0 prime to p, divisible by p and divisible by p^2 (u may add more)
    a0 = p**v * u
    nums = layer_numerators(a0, reduced)
    assert _coordinate_residues(p, a0, t, nums) == fraction_coordinate_residues(p, a0, t, nums)


@settings(max_examples=60, deadline=None)
@given(setting(), st.integers(0, 2), st.integers(1, 12), st.booleans())
def test_layer_records_match_the_fraction_rule(s, v, u, reduced):
    params, psi = s
    a0 = params.p**v * u
    got = outcome(layer_coordinate_data, params, psi, a0, reduced)
    assert got == outcome(fraction_layer_record, params, psi, a0, reduced)


power_taus = st.one_of(
    st.builds(Fraction, st.integers(1, 9), st.integers(10, 20)),  # tau < 1
    st.just(Fraction(1)),
    st.builds(Fraction, st.integers(21, 60), st.integers(1, 20)),  # tau > 1
)


@settings(max_examples=200, deadline=None)
@given(power_taus, st.integers(1, 40), st.integers(0, 6), st.sampled_from([2, 3, 5, 7]))
def test_power_law_is_the_unit_scaled_power(tau, lo, width, p):
    law = PowerLaw(tau)
    assert (law.c, law.e) == (1, tau)
    assert repr(law) == f"PowerLaw(tau={tau!r})" and law == PowerLaw(tau)
    for q in (lo, lo + width):
        assert cmp_powprod(psi_powprod(law, q), branched_psi_powprod(law, q)) == 0
        assert ball_exponent(p, psi_powprod(law, q)) == ball_exponent(p, branched_psi_powprod(law, q))
        assert outcome(psi_value, law, q) == outcome(branched_psi_value, law, q)
    # lo = 1 was a special case of proper_on; lo = hi probes a single denominator
    for a, b in [(1, 1), (1, lo + width), (lo, lo), (lo, lo + width)]:
        for psi in (ApproxTuple((law,)), ApproxTuple((ScaledPower(Fraction(1, 2), tau), law))):
            assert psi.proper_on(a, b) == old_proper_on(psi, a, b)
            assert psi.proper_at(b) == old_proper_at(psi, b)


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


# ---------------------------------------------------------------------------
# Lemma congruences, feasible height and the structured scan
# ---------------------------------------------------------------------------


def _parts(draw, total, k):
    """k positive integers summing to total >= k."""
    if k == 1:
        return [total]
    cuts = sorted(draw(st.lists(st.integers(1, total - 1), min_size=k - 1, max_size=k - 1, unique=True)))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def _exponent_data(draw, n):
    """tau > 0 summing to n + 1 and a signed sigma summing to n."""
    weights = _parts(draw, draw(st.integers(n, 3 * n)), n)
    tau = [Fraction((n + 1) * w, sum(weights)) for w in weights]
    sigma = [Fraction(draw(st.integers(-4, 6)), 2) for _ in range(n - 1)]
    sigma.append(n - sum(sigma, Fraction(0)))
    return tau, sigma


@st.composite
def lemma_cases(draw):
    """A system at a small precision (often below some m_i) and a vector whose
    forms often vanish to that precision: coordinates are multiples of p^e,
    and some rows are zero."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    prec = draw(st.integers(1, 6))
    tau, sigma = _exponent_data(draw, n)
    residue = st.integers(0, p**prec - 1)
    rows = [
        [0] * (n + 1) if draw(st.integers(0, 4)) == 0 else [draw(residue) for _ in range(n + 1)]
        for _ in range(n)
    ]
    heights = [draw(st.integers(1, 40)) for _ in range(n + 1)]
    e = draw(st.integers(0, prec + 1))
    x = [draw(st.integers(-6, 6)) * p**e for _ in range(n + 1)]
    coeffs = tuple(tuple(PAdicInt(p, prec, r) for r in row) for row in rows)
    return LinearFormSystem(p, n, coeffs, tuple(heights), tuple(tau), tuple(sigma)), x


@settings(max_examples=300, deadline=None)
@given(lemma_cases(), st.integers(0, 8), st.booleans())
def test_lemma_moduli_match_the_valuation_check(case, delta_cap, require_buckets):
    sys, x = case
    assert lemma_thresholds(sys) == factor_lemma_thresholds(sys)
    assert satisfies_lemma_bound(sys, x) == valuation_satisfies_lemma_bound(sys, x)
    deltas = [min(delta_cap, i + 1) for i in range(sys.n)]
    assert verify_solution(sys, x, deltas if require_buckets else None) == valuation_verify_solution(
        sys, x, deltas, require_buckets
    )


def test_lemma_moduli_corners():
    # p = 3, n = 1, T = 81 (heights 8, 8), tau = 2, sigma = 1: m = 3 (3^1 81^-1 = 3^-3)
    def system(residues, prec):
        coeffs = (tuple(PAdicInt(3, prec, r) for r in residues),)
        return LinearFormSystem(3, 1, coeffs, (8, 8), (Fraction(2),), (Fraction(1),))

    assert lemma_thresholds(system([1, 1], 5)) == (3,)
    cases = [
        (system([1, 1], 5), (9, 18), True),  # valuation 3 meets m = 3
        (system([1, 1], 5), (3, 6), False),  # valuation 2 does not
        (system([1, 1], 2), (3, 6), True),  # vanishes to precision 2 < m
        (system([1, 1], 2), (1, 0), False),  # visible below precision 2 < m
        (system([0, 0], 1), (1, 1), True),  # a zero row
    ]
    for sys, x, want in cases:
        assert satisfies_lemma_bound(sys, x) is want
        assert valuation_satisfies_lemma_bound(sys, x) is want


@st.composite
def dirichlet_exponents(draw):
    """(p, d, m) with tau_j = 1 + a_j / U and v_i = 1 + b_i / U, where the
    a_j and b_i are positive and sum to U, so sum(tau) < m + 1 and
    sum(v) = n + 1 - sum(tau)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 1009]))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    total = draw(st.integers(d + m, 40))
    parts = _parts(draw, total, d + m)
    tau = [1 + Fraction(a, total) for a in parts[:m]]
    v = [1 + Fraction(b, total) for b in parts[m:]]
    polys = tuple(((Fraction(1), tuple(int(i == j % d) * 2 for i in range(d))),) for j in range(m))
    x = tuple(PAdicInt(p, 10, 1) for _ in range(d))
    return DirichletInstance(PolyMap(p, d, m, polys), x, tuple(tau), tuple(v), H=1)


FEASIBLE_LIMIT = 300


@settings(max_examples=200, deadline=None)
@given(dirichlet_exponents())
def test_feasible_height_matches_the_stepped_search(inst):
    got = _bucket_feasible_height(inst)
    assert got >= 1
    want = stepped_feasible_height(inst, FEASIBLE_LIMIT)
    assert want == (got if got <= FEASIBLE_LIMIT else None)


def test_feasible_height_at_an_exact_power_and_far_out():
    # (x^2, x^3, x) over Z_3 with v = 3/2: H + 1 >= 3^((m/d) / v) = 3^2, so H = 8
    g = tuple(((Fraction(1), (e,)),) for e in (2, 3, 1))
    inst = DirichletInstance(PolyMap(3, 1, 3, g), (PAdicInt(3, 10, 1),), (Fraction(7, 6),) * 3, (Fraction(3, 2),), H=1)
    assert _bucket_feasible_height(inst) == 8 == stepped_feasible_height(inst, 20)
    # over Z_1009 with v = 11/10: 1009^(30/11) is about 1.5 * 10^8, past any stepped search
    far = DirichletInstance(
        PolyMap(1009, 1, 3, g), (PAdicInt(1009, 30, 5),), (Fraction(13, 10),) * 3, (Fraction(11, 10),), H=50
    )
    feas = _bucket_feasible_height(far)
    assert 10**8 < feas < 2 * 10**8
    assert min(bucket_exponents(_linearized(far, feas))) >= 0
    with pytest.raises(ValueError, match="below H_sigma threshold"):
        bucket_exponents(_linearized(far, feas - 1))


def _linearized(inst, H):
    return _linearized_system(DirichletInstance(inst.f, inst.x, inst.tau, inst.v, H=H))


@st.composite
def taylor_cases(draw):
    """A Dirichlet instance on a map over Z_p, p in {2, 3, 5, 7}, d and m in
    {1, 2}: each component is zero, a constant or up to four monomials of
    degree <= 3 with p-integral rational coefficients, and the base point's
    coordinates carry unequal precisions 1..60, so that the least one rules."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    coeff = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40).filter(lambda q: q % p))
    exps = st.tuples(*[st.integers(0, 3)] * d).filter(lambda e: sum(e) <= 3)
    polys = []
    for _ in range(m):
        kind = draw(st.sampled_from(["zero", "constant", "monomials"]))
        if kind == "zero":
            polys.append(())
        elif kind == "constant":
            polys.append(((draw(coeff), (0,) * d),))
        else:
            polys.append(tuple((draw(coeff), draw(exps)) for _ in range(draw(st.integers(1, 4)))))
    x = []
    for _ in range(d):
        prec = draw(st.integers(1, 60))
        x.append(PAdicInt(p, prec, draw(st.integers(0, p**prec - 1))))
    tau = (1 + Fraction(1, 4 * m),) * m
    v = ((d + Fraction(3, 4)) / d,) * d
    return DirichletInstance(PolyMap(p, d, m, tuple(polys)), tuple(x), tau, v, H=50)


@settings(max_examples=300, deadline=None)
@given(taylor_cases())
def test_integer_taylor_data_matches_the_fraction_path(inst):
    assert _linearized_system(inst).coeffs == padic_linearized_rows(inst)
    assert dqe_constants(inst.f, inst.x).derivative_norms == padic_derivative_norms(inst.f, inst.x)


def test_h0_report_has_no_float_past_the_float_range():
    # x^2 over Z_3, v = 1001/1000: beta = gamma = 3^2000, past the float range
    f = PolyMap(3, 1, 1, (((Fraction(1), (2,)),),))
    inst = DirichletInstance(f, (PAdicInt(3, 30, 5),), (Fraction(1999, 1000),), (Fraction(1001, 1000),), H=50)
    report = dirichlet_h0(inst)
    assert report.cases["beta"]["float"] is None and report.cases["gamma"]["float"] is None
    assert report.cases["beta"]["h0"] == 3**2000
    assert report.cases["alpha1"]["float"] == 1.0 and report.cases["delta"]["float"] == 2.0


@st.composite
def h0_instances(draw):
    """A Dirichlet instance with tau and v inside the hypotheses: p in {2, 3, 5, 7},
    d and m in {1, 2}, tau_j = 1 + a_j / D with sum a_j < D, and v_i = 1 + w_i with
    the w_i > 0 splitting the slack 1 - sum a_j / D in drawn proportions."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    D = draw(st.integers(m + 1, 24))
    a = []
    for j in range(m):
        a.append(draw(st.integers(1, D - 1 - sum(a) - (m - 1 - j))))
    tau = tuple(1 + Fraction(aj, D) for aj in a)
    slack = 1 - Fraction(sum(a), D)
    b = [draw(st.integers(1, 10)) for _ in range(d)]
    v = tuple(1 + slack * bi / sum(b) for bi in b)
    coeff = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 20).filter(lambda q: q % p))
    exps = st.tuples(*[st.integers(0, 3)] * d)
    polys = tuple(((draw(coeff), draw(exps)),) for _ in range(m))
    x = tuple(PAdicInt(p, 20, draw(st.integers(0, p**20 - 1))) for _ in range(d))
    return DirichletInstance(PolyMap(p, d, m, polys), x, tau, v, H=draw(st.integers(1, 10**6)))


@settings(max_examples=300, deadline=None)
@given(h0_instances())
def test_h0_report_matches_the_general_formulas(inst):
    # repr pins the case order, the value strings and the floats, as the CLI prints them
    assert repr(dirichlet_h0(inst)) == repr(general_dirichlet_h0(inst))


@st.composite
def triangular_systems(draw):
    """Form i touches x_0..x_{i+1}, with pivot coefficient p^nu * unit on
    x_{i+1} (nu up to past the precision), and now and then a nonzero
    coefficient beyond the pivot."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    prec = draw(st.integers(1, 10))
    tau, sigma = _exponent_data(draw, n)
    residue = st.integers(0, p**prec - 1)
    rows = []
    for i in range(n):
        nu = draw(st.integers(0, 4))
        unit = draw(st.integers(0, 50)) * p + draw(st.integers(1, p - 1))
        beyond = [draw(st.sampled_from([0, 0, 0, 0, p**prec, 1])) for _ in range(n - i - 1)]
        rows.append([draw(residue) for _ in range(i + 1)] + [p**nu * unit] + beyond)
    heights = [draw(st.integers(1, 12)) for _ in range(n + 1)]
    coeffs = tuple(tuple(PAdicInt(p, prec, r) for r in row) for row in rows)
    return LinearFormSystem(p, n, coeffs, tuple(heights), tuple(tau), tuple(sigma))


def scan_outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (ValueError, SolverError) as exc:
        return "raised", type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(triangular_systems())
def test_scan_matches_the_pivoted_scan(sys):
    assert scan_outcome(solve_structured, sys) == scan_outcome(
        pivoted_solve_structured, sys, list(range(1, sys.n + 1))
    )


def test_scan_corners():
    def system(rows, tau, sigma, prec=8):
        coeffs = tuple(tuple(PAdicInt(3, prec, r) for r in row) for row in rows)
        return LinearFormSystem(3, 2, coeffs, (9, 9, 9), tau, sigma)

    half = Fraction(1, 2)
    # T = 10: 3^-2 10^(1/2) < 1/3 gives delta_0 = 0, so form 0 takes its nu >= delta
    # branch (x_1 = 0), and the pivot 3^4 of form 1 is below delta_1 = 6 and steps x_2 by 9
    zero_form = system([[4, 7, 0], [0, 0, 81]], (half, 5 * half), (Fraction(2), Fraction(0)))
    # delta = (2, 4): the pivot 3^3 of form 0 vanishes mod 3^2, so x_1 = 0
    flat_pivot = system([[9, 27, 0], [1, 1, 1]], (Fraction(1), Fraction(2)), (Fraction(1), Fraction(1)))
    touching = system([[1, -1, 1], [1, 1, -1]], (Fraction(1), Fraction(2)), (Fraction(1), Fraction(1)))
    vanishing = system([[1, 3**8, 0], [1, 1, -1]], (Fraction(1), Fraction(2)), (Fraction(1), Fraction(1)))
    coarse = system([[1, 1, 0], [1, 1, -1]], (Fraction(1), Fraction(2)), (Fraction(1), Fraction(1)), prec=3)
    assert bucket_exponents(zero_form) == (0, 6)
    assert bucket_exponents(flat_pivot) == (2, 4)
    outcomes = {}
    for name, sys in [("zero_form", zero_form), ("flat_pivot", flat_pivot), ("touching", touching),
                      ("vanishing", vanishing), ("coarse", coarse)]:
        outcomes[name] = scan_outcome(solve_structured, sys)
        assert outcomes[name] == scan_outcome(pivoted_solve_structured, sys, [1, 2])
    assert outcomes["zero_form"][1].x == (1, 0, -9) and outcomes["zero_form"][1].verified
    assert outcomes["flat_pivot"][1].x == (1, 0, -1) and outcomes["flat_pivot"][1].verified
    assert "before it is pivoted" in outcomes["touching"][2]
    assert "zero-to-precision pivot" in outcomes["vanishing"][2]
    assert outcomes["coarse"][1:] == (ValueError, "coefficient precision 3 below max bucket exponent 4")


def test_dirichlet_solve_falls_back_below_the_bucket_precision():
    # the scan needs 7 digits of x; the exhaustive search needs 5 at k = 0
    f = PolyMap(3, 1, 1, (((Fraction(1), (2,)),),))

    def inst(prec):
        return DirichletInstance(f, (PAdicInt(3, prec, 1),), (Fraction(7, 5),), (Fraction(8, 5),), H=111)

    sol = dirichlet_solve(inst(5))
    assert (sol.point.a, sol.k, sol.method, sol.verified) == ((1, 1, 1), 0, "exhaustive", True)
    assert sol.fallback == "solver-error: coefficient precision 5 below max bucket exponent 7"
    # one digit fewer and the search refuses too: bad input, not a solver failure
    with pytest.raises(ValueError, match="exceeds the base point precision") as info:
        dirichlet_solve(inst(4))
    assert isinstance(info.value, SolverError)


def _scan_instance(p):
    """x^2 over Z_p with tau = 7/5, v = 8/5, at a height p^2 H_0."""
    f = PolyMap(p, 1, 1, (((Fraction(1), (2,)),),))
    x = (PAdicInt(p, 60, 7 + 11 * p**20),)
    h0 = dirichlet_h0(DirichletInstance(f, x, (Fraction(7, 5),), (Fraction(8, 5),), H=1)).h0
    return DirichletInstance(f, x, (Fraction(7, 5),), (Fraction(8, 5),), H=p**2 * h0)


SCAN_INSTANCES = {p: _scan_instance(p) for p in (2, 3, 5)}


@st.composite
def scan_vectors(draw):
    """A prime p in {2, 3, 5} and a vector (x_0 >= 1) for its instance: the true
    scan vector or a small random one, times a drawn shared factor p^e u, with
    x_0 alone sometimes carrying extra powers of p."""
    p = draw(st.sampled_from(sorted(SCAN_INSTANCES)))
    inst = SCAN_INSTANCES[p]
    entry = st.integers(-40, 40)
    if draw(st.integers(0, 2)):
        base = solve_structured(_linearized_system(inst)).x
    else:
        base = (draw(st.integers(1, 40)), *draw(st.tuples(entry, entry)))
    if not draw(st.integers(0, 2)):
        base = (base[0] * p ** draw(st.integers(1, 2)), *base[1:])
    shared = p ** draw(st.integers(0, 3)) * draw(st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30]))
    return p, tuple(shared * v for v in base)


@settings(max_examples=500, deadline=None)
@given(scan_vectors())
def test_dirichlet_point_from_one_gcd_matches_the_three_passes(case):
    from padicapprox import manifold

    p, x = case
    inst = SCAN_INSTANCES[p]
    reduced = strip_flip_divide(p, x)
    try:
        if reduced is not None and verify_dirichlet(inst, *reduced):
            want = (*reduced, "congruence-scan", None)
        else:
            want = (*_exhaustive_dirichlet(inst), "exhaustive", "verification-failed")
    except SolverError as exc:
        want = (*_exhaustive_dirichlet(inst), "exhaustive", f"solver-error: {exc}")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(manifold, "solve_structured", lambda sys: MinkowskiSolution(x, (), False, False, "stand-in"))
        sol = dirichlet_solve(inst)
    assert (sol.point, sol.k, sol.method, sol.fallback) == want
