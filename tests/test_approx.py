from fractions import Fraction

import pytest

from padicapprox.clopen import ClopenSet
from padicapprox.core import ExactnessError, Params, euler_phi
from padicapprox.approx import (
    ApproxTuple,
    PowerLaw,
    ScaledPower,
    TableFunction,
    build_layer,
    claim_c_max_ratio,
    divergence_curve,
    duffin_schaeffer_sum,
    intersection_measure,
    khintchine_sum,
    layer_measure,
    layer_numerators,
    layer_reference_sum,
    layer_sweep_rows,
    measure_claims_check,
    partial_limsup,
    psi_value,
    reference_measure,
    required_depth,
    step_exponent,
    ubiquity_fraction,
)

HALF_Q = ScaledPower(Fraction(1, 2), Fraction(1))  # psi(q) = 1/(2q)


# ---------------------------------------------------------------------------
# step exponents
# ---------------------------------------------------------------------------


def test_step_exponent_examples():
    # 1/9 < 1/4 <= 1/3
    assert step_exponent(PowerLaw(Fraction(2)), 2, 3) == 2
    # psi(4) = 1/8 = 2^{-3} exactly: boundary falls to the larger exponent
    assert step_exponent(HALF_Q, 4, 2) == 4
    # non-boundary check of the same function: 1/16 < 1/10 <= 1/8
    assert step_exponent(HALF_Q, 5, 2) == 4
    assert step_exponent(TableFunction(((7, Fraction(1, 27)),)), 7, 3) == 4


def test_step_exponent_defining_inequalities_hold():
    for p in (2, 3, 5):
        for comp in (HALF_Q, PowerLaw(Fraction(2)), PowerLaw(Fraction(5, 2))):
            for a0 in range(1, 60):
                t = step_exponent(comp, a0, p)
                val = psi_value(comp, a0) if not isinstance(comp, PowerLaw) or comp.tau.denominator == 1 else None
                if val is not None and t >= 1:
                    assert Fraction(1, p**t) < val <= Fraction(1, p ** (t - 1))


def test_step_exponent_clamps_at_zero_when_psi_exceeds_one():
    big = TableFunction(((3, Fraction(5)),))
    assert step_exponent(big, 3, 3) == 0


def test_table_function_refuses_a_repeated_or_nonpositive_q():
    # the later of two values for one q used to win silently, and q = -2 failed only at lookup
    table = TableFunction(((3, Fraction(1, 9)), (2, Fraction(1, 4))))
    assert table.values == ((2, Fraction(1, 4)), (3, Fraction(1, 9)))
    for values, message in [
        (((2, Fraction(1, 4)), (2, Fraction(1, 9))), "table gives q=2 twice"),
        (((2, Fraction(1, 9)), (3, Fraction(1, 27)), (2, Fraction(1, 9))), "table gives q=2 twice"),
        (((-2, Fraction(1, 4)),), "table has q=-2; q must be >= 1"),
        (((0, Fraction(1, 4)), (2, Fraction(1, 4))), "table has q=0; q must be >= 1"),
    ]:
        with pytest.raises(ValueError) as err:
            TableFunction(values)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def test_layer_numerators():
    assert layer_numerators(4, reduced=True) == [1, 3]
    assert layer_numerators(1, reduced=True) == [1]
    assert layer_numerators(2, reduced=False) == [-2, -1, 0, 1, 2]


def test_layer_measure_matches_reference_formula():
    params = Params(3, 1)
    psi = ApproxTuple.uniform(HALF_Q, 1)
    assert layer_measure(params, psi, 4, True) == Fraction(2, 9) == reference_measure(params, psi, 4)
    for a0 in range(1, 80):
        if a0 % 3 == 0:
            assert layer_measure(params, psi, a0, True) == 0
        else:
            assert layer_measure(params, psi, a0, True) == reference_measure(params, psi, a0)


def test_layer_with_p_dividing_a0():
    params = Params(3, 1)
    psi = ApproxTuple.uniform(HALF_Q, 1)
    assert build_layer(params, psi, 9, True, 6).is_empty()
    # non-reduced: only numerators divisible by 3 contribute
    S = build_layer(params, psi, 3, False, 6)
    assert not S.is_empty()
    t = step_exponent(HALF_Q, 3, 3)
    # centers are -3/3, 0/3, 3/3 = -1, 0, 1: three distinct cosets
    assert S.measure() == Fraction(3, 3**t)


def test_layer_trie_agrees_with_product_shortcut():
    psi2 = ApproxTuple((HALF_Q, PowerLaw(Fraction(2))))
    params = Params(3, 2)
    for a0 in (1, 2, 4, 5, 7, 10, 11):
        S = build_layer(params, psi2, a0, True, 12)
        assert S.measure() == layer_measure(params, psi2, a0, True)
        # oracle: enumerate cosets at the finest level and count
        tmax = max(psi2.step_exponents(a0, 3))
        reps = S.enumerate_cosets(tmax)
        assert Fraction(len(reps), 3 ** (2 * tmax)) == S.measure()


def test_layer_symmetry_under_component_permutation():
    params = Params(3, 2)
    psi = ApproxTuple((HALF_Q, PowerLaw(Fraction(2))))
    flipped = ApproxTuple(psi.components[::-1])
    for a0 in (2, 5, 7):
        A = build_layer(params, psi, a0, True, 10)
        B = build_layer(params, flipped, a0, True, 10)
        assert A.measure() == B.measure()
        assert {(y, x) for x, y in A.enumerate_cosets(6)} == set(B.enumerate_cosets(6))


def test_nsquared_layer_is_square_of_1d_measure():
    p1 = Params(5, 1)
    p2 = Params(5, 2)
    psi1 = ApproxTuple.uniform(HALF_Q, 1)
    psi2 = ApproxTuple.uniform(HALF_Q, 2)
    for a0 in (2, 3, 4, 6, 7):
        assert layer_measure(p2, psi2, a0, True) == layer_measure(p1, psi1, a0, True) ** 2


def test_insufficient_depth_raises():
    params = Params(3, 1)
    psi = ApproxTuple.uniform(PowerLaw(Fraction(2)), 1)
    with pytest.raises(ValueError, match="insufficient depth"):
        build_layer(params, psi, 50, True, 3)


def test_partial_limsup_basics():
    params = Params(3, 1)
    psi = ApproxTuple.uniform(HALF_Q, 1)
    one = partial_limsup(params, psi, 4, 4, True, 6)
    assert one == build_layer(params, psi, 4, True, 6)
    prev = Fraction(0)
    for N in (1, 2, 4, 8, 16):
        mu = partial_limsup(params, psi, 1, N, True, 6).measure()
        assert mu >= prev
        prev = mu


def test_divergence_curve_monotone_and_reaches_high_measure():
    params = Params(3, 1)
    psi = ApproxTuple.uniform(HALF_Q, 1)
    curve = divergence_curve(params, psi, 100, depth=6, stop_above=Fraction(9, 10))
    assert all(b >= a for (_, a), (_, b) in zip(curve, curve[1:]))
    assert curve[-1][1] > Fraction(9, 10)
    assert curve[-1][0] <= 100


def test_required_depth():
    params = Params(3, 1)
    psi = ApproxTuple.uniform(PowerLaw(Fraction(5, 2)), 1)
    assert required_depth(params, psi, 100, 200) == 13


def test_range_callers_refuse_at_call_time():
    # the sweep used to check a given depth one layer at a time, after the rows
    # before it, and to yield no rows for an empty range
    params = Params(3, 1)
    psi = ApproxTuple.uniform(PowerLaw(Fraction(2)), 1)
    for lo, hi, depth, message in [
        (1, 10, 3, "insufficient depth: range needs level 5, depth is 3"),
        (5, 3, None, "need 1 <= lo <= hi"),
        (0, 3, 6, "need 1 <= lo <= hi"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            layer_sweep_rows(params, psi, lo, hi, False, depth)
        with pytest.raises(ValueError, match=f"^{message}$"):
            partial_limsup(params, psi, lo, hi, False, depth)
    with pytest.raises(ValueError, match="^need 1 <= lo <= hi$"):
        required_depth(params, psi, 5, 3)
    with pytest.raises(ValueError, match="^insufficient depth: range needs level 4, depth is 3$"):
        build_layer(params, psi, 6, True, 3)


def test_divergence_curve_reads_no_exponent_past_its_stop(monkeypatch):
    # the curve of acceptance criterion 3 stops early: one step exponent per
    # row returned, none for the denominators it never reaches
    import padicapprox.approx as approx

    calls = []
    real = approx.ball_exponent

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(approx, "ball_exponent", counting)
    params = Params(3, 1)
    curve = divergence_curve(params, ApproxTuple((HALF_Q,)), 10_000, depth=10, stop_above=Fraction(9, 10))
    assert curve[-1][1] > Fraction(9, 10)
    assert len(calls) <= len(curve) < 10_000


def test_divergence_curve_sieves_only_as_far_as_its_rows(monkeypatch):
    # the totient sieve used to run to n_max before the first row
    import padicapprox.approx as approx

    limits = []
    real = approx.totient_sieve

    def recording(limit):
        limits.append(limit)
        return real(limit)

    monkeypatch.setattr(approx, "totient_sieve", recording)
    params = Params(3, 1)
    curve = divergence_curve(params, ApproxTuple((HALF_Q,)), 10**6, depth=10, stop_above=Fraction(9, 10))
    assert len(curve) == 14 and curve[-1][1] > Fraction(9, 10)
    assert max(limits) <= 2 * len(curve) and sum(limits) <= 4 * len(curve)
    # a full series sieves less than twice to its end, and its sums are unchanged
    limits.clear()
    psi = ApproxTuple((HALF_Q,))
    assert duffin_schaeffer_sum(params, psi, 1000)[0] == sum(
        (Fraction(euler_phi(q), 2 * q) for q in range(1, 1001)), Fraction(0)
    )
    assert max(limits) == 1000 and sum(limits) < 2 * 1000


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_khintchine_sum_examples():
    params = Params(3, 1)
    assert khintchine_sum(params, ApproxTuple.uniform(HALF_Q, 1), 4) == 2
    assert khintchine_sum(params, ApproxTuple.uniform(HALF_Q, 1), 0) == 0
    # sum tau_i = n + 2 makes the terms q^{-2}
    params2 = Params(3, 2)
    psi2 = ApproxTuple.uniform(PowerLaw(Fraction(2)), 2)
    total = khintchine_sum(params2, psi2, 3)
    assert total == 1 + Fraction(1, 4) + Fraction(1, 9)


def test_khintchine_sum_irrational_terms_raise():
    params = Params(3, 1)
    with pytest.raises(ExactnessError):
        khintchine_sum(params, ApproxTuple.uniform(PowerLaw(Fraction(5, 2)), 1), 3)


def test_duffin_schaeffer_sum_and_ratio():
    params = Params(3, 1)
    psi = ApproxTuple.uniform(HALF_Q, 1)
    ds, ratio = duffin_schaeffer_sum(params, psi, 6)
    expected = sum(Fraction(euler_phi(q), 2 * q) for q in range(1, 7))
    assert ds == expected
    assert ratio == ds / khintchine_sum(params, psi, 6)
    assert ratio <= 1


def test_prime_terms_use_q_minus_one():
    params = Params(3, 2)
    psi = ApproxTuple.uniform(HALF_Q, 2)
    ds5, _ = duffin_schaeffer_sum(params, psi, 5)
    ds4, _ = duffin_schaeffer_sum(params, psi, 4)
    assert ds5 - ds4 == Fraction(4, 10) ** 2  # phi(5)^2 * (1/10)^2


def test_layer_reference_sum_is_rational_even_for_irrational_psi():
    params = Params(3, 1)
    psi = ApproxTuple.uniform(PowerLaw(Fraction(5, 2)), 1)
    total = layer_reference_sum(params, psi, 1, 50)
    assert total == sum(
        reference_measure(params, psi, a) for a in range(1, 51) if a % 3
    )


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


def test_claims_check_diagonal_equals_layer():
    params = Params(3, 1)
    psi = ApproxTuple.uniform(HALF_Q, 1)
    rep = measure_claims_check(params, psi, 4, 4)
    assert rep.intersection_measure == rep.measure_a
    assert rep.ratio is None


def test_claims_check_identity_and_intersection():
    params = Params(3, 1)
    psi = ApproxTuple.uniform(HALF_Q, 1)
    rep = measure_claims_check(params, psi, 4, 5)
    assert rep.equal_a and rep.equal_b
    A = build_layer(params, psi, 4, True, 8)
    B = build_layer(params, psi, 5, True, 8)
    assert rep.intersection_measure == A.intersect(B).measure()


def test_claims_check_requires_coprimality():
    params = Params(3, 1)
    psi = ApproxTuple.uniform(HALF_Q, 1)
    with pytest.raises(ValueError, match="coprime"):
        measure_claims_check(params, psi, 9, 5)


def test_intersection_measure_matches_trie_2d():
    params = Params(2, 2)
    psi = ApproxTuple((HALF_Q, PowerLaw(Fraction(2))))
    for a0, b0 in [(3, 5), (5, 15), (7, 9), (3, 9)]:
        A = build_layer(params, psi, a0, True, 14)
        B = build_layer(params, psi, b0, True, 14)
        assert intersection_measure(params, psi, a0, b0) == A.intersect(B).measure()


def test_claim_c_max_ratio_small_sweep():
    params = Params(3, 1)
    psi = ApproxTuple.uniform(HALF_Q, 1)
    best, arg = claim_c_max_ratio(params, psi, 20)
    assert best > 0 and arg[0] < arg[1]
    # brute confirmation over the same range
    expect = Fraction(0)
    for a0 in range(1, 21):
        for b0 in range(a0 + 1, 21):
            if a0 % 3 == 0 or b0 % 3 == 0:
                continue
            mu = intersection_measure(params, psi, a0, b0)
            expect = max(expect, mu / (Fraction(a0 * b0) * Fraction(1, 2 * a0) * Fraction(1, 2 * b0)))
    assert best == expect


# ---------------------------------------------------------------------------
# properness, ubiquity, sweep rows
# ---------------------------------------------------------------------------


def test_proper_flags():
    assert ApproxTuple.uniform(HALF_Q, 1).proper_on(1, 10**4)
    assert not ApproxTuple.uniform(PowerLaw(Fraction(2)), 1).proper_on(1, 100)
    assert ApproxTuple.uniform(PowerLaw(Fraction(2)), 1).proper_on(2, 100)
    assert not ApproxTuple.uniform(ScaledPower(Fraction(2), Fraction(1)), 1).proper_on(1, 100)


def test_ubiquity_fraction_covers_half_of_space():
    # alpha = (2,) sums to n+1 = 2. The block-coverage constant there is large;
    # c1 = p^2 is of the right order for p = 3, n = 1 and already covers more
    # than half of the space, stably across consecutive blocks.
    params = Params(3, 1)
    fracs = [
        ubiquity_fraction(params, [Fraction(2)], M=3, k=k, depth=14, c1=Fraction(9))
        for k in (2, 3)
    ]
    assert all(f >= Fraction(1, 2) for f in fracs)
    assert abs(fracs[1] - fracs[0]) < Fraction(1, 10)


@pytest.mark.parametrize("M, k", [(3, -1), (1, 2), (0, 2), (-3, 1)])
def test_ubiquity_fraction_refuses_a_bad_block(monkeypatch, M, k):
    # k = -1 used to raise TypeError from range over M**k, and M <= 0 a power-product message
    import padicapprox.approx as approx

    built = []
    monkeypatch.setattr(approx, "_layer_record", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=f"need M >= 2 and k >= 0, got M={M}, k={k}"):
        ubiquity_fraction(Params(3, 1), [Fraction(2)], M=M, k=k, depth=14, c1=Fraction(9))
    assert built == []


def test_layer_sweep_rows_fields():
    params = Params(3, 1)
    psi = ApproxTuple.uniform(HALF_Q, 1)
    rows = list(layer_sweep_rows(params, psi, 1, 6, True, 6))
    assert [r["a0"] for r in rows] == [1, 2, 3, 4, 5, 6]
    assert rows[2]["layer_measure"] == 0  # a0 = 3 is killed by p | a0
    assert rows[-1]["union_measure"] >= rows[0]["union_measure"]
    assert rows[-1]["khintchine_partial"] == khintchine_sum(params, psi, 6)


def test_duffin_schaeffer_ratio_on_prime_supported_table():
    # psi supported on primes only: phi(q) = q - 1 there, so the ratio is
    # sum (q-1) psi(q) / sum q psi(q); with psi(q) = 1/(2q) on the support the
    # value is an exact hand-computable rational
    primes = (2, 3, 5, 7, 11, 13)
    table = TableFunction(tuple((q, Fraction(1, 2 * q)) for q in primes))
    params = Params(17, 1)  # any prime off the support works the same
    # extend the table with explicit 1-entries off-support? keep support-only:
    # evaluate the partial sums by hand over the support
    ds = sum(Fraction(q - 1, 2 * q) for q in primes)
    kh = sum(Fraction(1, 2) for _ in primes)
    assert ds / kh == Fraction(ds, 1) / kh
    assert ds / kh > Fraction(1, 2)  # bounded well away from zero
    # and the library agrees when the table carries every q up to the cutoff
    full = dict.fromkeys(range(1, 14), Fraction(1, 10**9))
    for q in primes:
        full[q] = Fraction(1, 2 * q)
    psi = ApproxTuple((TableFunction(tuple(full.items())),))
    got_ds, got_ratio = duffin_schaeffer_sum(params, psi, 13)
    assert abs(got_ds - ds) < Fraction(1, 10**6)
    assert abs(got_ratio - ds / kh) < Fraction(1, 10**6)
