import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicapprox import minkowski
from padicapprox.core import PAdicInt, embed_rational
from padicapprox.minkowski import (
    BelowThresholdError,
    LinearFormSystem,
    MinkowskiSolution,
    brute_force,
    bucket_exponents,
    lemma_thresholds,
    pigeonhole_surplus,
    satisfies_lemma_bound,
    solve,
    solve_structured,
    verify_solution,
)

from oracles import bucket_walk_solve, product_brute_force


def make_system(p, n, coeff_residues, heights, tau, sigma, precision=20):
    coeffs = tuple(
        tuple(PAdicInt(p, precision, r) for r in row) for row in coeff_residues
    )
    return LinearFormSystem(p, n, coeffs, tuple(heights), tuple(tau), tuple(sigma))


def test_bucket_exponent_example():
    # p=3, n=1, tau=(2), sigma=(1), H_0=H_1=2 so T=3: 3^{delta-1} <= 3 < 3^delta
    sys = make_system(3, 1, [[1, 1]], [2, 2], [Fraction(2)], [Fraction(1)])
    assert bucket_exponents(sys) == (2,)


def test_bucket_exponent_degenerate_boundary():
    # form 1: 3^{-3/2} T^{3/2} = (2/3)^{3/2} < 1 at T = 2, so its exponent is 0
    sys = make_system(
        3, 2, [[1, 1, 1], [1, 1, 1]], [1, 1, 1],
        [Fraction(3, 2), Fraction(3, 2)], [Fraction(3, 2), Fraction(1, 2)],
    )
    assert bucket_exponents(sys) == (0, 1)


def test_bucket_exponent_below_threshold():
    # n=2 with a lopsided sigma: 3^{-5} T^{3/2} < 3^{-1} already for T = 2
    sys = make_system(
        3, 2, [[1, 1, 1], [1, 1, 1]], [1, 1, 1],
        [Fraction(3, 2), Fraction(3, 2)], [Fraction(5), Fraction(-3)],
    )
    with pytest.raises(BelowThresholdError):
        bucket_exponents(sys)


def test_bucket_exponent_sum_is_capped_by_t_power():
    rng = random.Random(4)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        heights = [rng.randrange(1, 9) for _ in range(n + 1)]
        tau, sigma = random_exponents(rng, n)
        sys = make_system(
            p, n, [[rng.randrange(p**6) for _ in range(n + 1)] for _ in range(n)],
            heights, tau, sigma, precision=12,
        )
        try:
            deltas = bucket_exponents(sys)
        except BelowThresholdError:
            continue
        assert p ** sum(deltas) <= sys.t_power


def random_exponents(rng, n):
    """Random rational tau (sum n+1, positive) and sigma (sum n)."""
    while True:
        cuts = sorted(Fraction(rng.randrange(1, 4 * n), 4) for _ in range(n - 1))
        tau = []
        prev = Fraction(0)
        ok = True
        for c in cuts + [Fraction(n + 1)]:
            t = c - prev
            if t <= 0:
                ok = False
                break
            tau.append(t)
            prev = c
        if not ok:
            continue
        sigma = [Fraction(rng.randrange(-2, 3), rng.choice([1, 2])) for _ in range(n - 1)]
        sigma.append(Fraction(n) - sum(sigma, Fraction(0)))
        return tau, sigma


def test_solve_alpha_form_and_brute_force_agreement():
    rng = random.Random(11)
    p = 3
    alpha = embed_rational(rng.randrange(3**12), 1, p=p, precision=12)
    # L(x) = alpha x_0 - x_1
    sys = LinearFormSystem(
        p,
        1,
        ((alpha, PAdicInt(p, 12, -1)),),
        (8, 8),
        (Fraction(2),),
        (Fraction(1),),
    )
    sol = solve(sys)
    assert sol.verified
    assert sol.x != (0, 0) and all(abs(v) <= 8 for v in sol.x)
    oracle = brute_force(sys)
    assert oracle is not None
    assert satisfies_lemma_bound(sys, oracle)


def test_zero_form_admits_unit_vector():
    sys = make_system(3, 1, [[0, 0]], [3, 3], [Fraction(2)], [Fraction(1)])
    sol = solve(sys)
    assert sol.verified
    assert brute_force(sys) is not None


def test_exact_integer_form_has_zero_norm_solution():
    # L(x) = 2 x_0 - x_1 over Z: (1, 2) gives L = 0, |L|_p = 0
    sys = LinearFormSystem(
        5,
        1,
        ((PAdicInt(5, 19, 2), PAdicInt(5, 19, -1)),),
        (4, 4),
        (Fraction(2),),
        (Fraction(1),),
    )
    assert satisfies_lemma_bound(sys, (1, 2))
    oracle = brute_force(sys)
    assert oracle is not None and satisfies_lemma_bound(sys, oracle)


def test_solution_heights_are_differences_of_box_vectors():
    rng = random.Random(23)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        heights = [rng.randrange(2, 12) for _ in range(n + 1)]
        tau, sigma = random_exponents(rng, n)
        sys = make_system(
            p, n, [[rng.randrange(p**8) for _ in range(n + 1)] for _ in range(n)],
            heights, tau, sigma, precision=14,
        )
        try:
            deltas = bucket_exponents(sys)
        except BelowThresholdError:
            continue
        if max(deltas) > 14:
            continue
        try:
            sol = solve(sys)
        except Exception:
            continue
        assert all(abs(v) <= h for v, h in zip(sol.x, heights))
        # a brute-force answer meets only the lemma bound, not the buckets
        assert verify_solution(sys, sol.x, deltas if sol.method == "bucket" else None)


def test_surplus_condition_guarantees_bucket_success():
    rng = random.Random(37)
    tried = 0
    for _ in range(200):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 3)
        heights = [rng.randrange(2, 10) for _ in range(n + 1)]
        tau, sigma = random_exponents(rng, n)
        sys = make_system(
            p, n, [[rng.randrange(p**8) for _ in range(n + 1)] for _ in range(n)],
            heights, tau, sigma, precision=14,
        )
        try:
            if not pigeonhole_surplus(sys):
                continue
        except BelowThresholdError:
            continue
        tried += 1
        sol = solve(sys)
        assert sol.method == "bucket" and sol.verified
        if tried >= 40:
            break
    assert tried >= 20


def test_structured_scan_matches_bucket_semantics():
    # Dirichlet-shaped system: L_1 = a x_0 - x_1, L_2 = b x_0 + c x_1 - x_2
    p = 3
    prec = 16
    a = embed_rational(7, 2, p=p, precision=prec)
    b = embed_rational(5, 4, p=p, precision=prec)
    c = embed_rational(1, 2, p=p, precision=prec)
    minus_one = PAdicInt(p, prec, -1)
    zero = PAdicInt(p, prec, 0)
    sys = LinearFormSystem(
        p,
        2,
        ((a, minus_one, zero), (b, c, minus_one)),
        (40, 40, 40),
        (Fraction(3, 2), Fraction(3, 2)),
        (Fraction(1), Fraction(1)),
    )
    sol = solve_structured(sys)
    assert sol.method == "congruence-scan"
    assert sol.verified
    deltas = bucket_exponents(sys)
    assert verify_solution(sys, sol.x, deltas)
    assert sol.x[0] >= 1


def test_structured_scan_rejects_untriangular_systems():
    p = 3
    prec = 10
    one = PAdicInt(p, prec, 1)
    sys = LinearFormSystem(
        p,
        2,
        ((one, one, one), (one, one, one)),
        (5, 5, 5),
        (Fraction(3, 2), Fraction(3, 2)),
        (Fraction(1), Fraction(1)),
    )
    with pytest.raises(ValueError, match="before it is pivoted"):
        solve_structured(sys)


def test_precision_below_bucket_exponent_rejected():
    sys = make_system(3, 1, [[1, 1]], [80, 80], [Fraction(2)], [Fraction(1)], precision=2)
    with pytest.raises(ValueError, match="precision"):
        solve(sys)


def test_lemma_thresholds_consistent_with_deltas():
    sys = make_system(3, 1, [[1, 1]], [8, 8], [Fraction(2)], [Fraction(1)])
    (m,) = lemma_thresholds(sys)
    (d,) = bucket_exponents(sys)
    assert m <= d


def test_mismatched_validation():
    with pytest.raises(ValueError, match="sum\\(tau\\)"):
        make_system(3, 1, [[1, 1]], [2, 2], [Fraction(1)], [Fraction(1)])
    with pytest.raises(ValueError, match="sum\\(sigma\\)"):
        make_system(3, 1, [[1, 1]], [2, 2], [Fraction(2)], [Fraction(1, 2)])


def test_shrinking_heights_reaches_no_solution_consistently():
    # lopsided sigma at tiny heights: the first form's bound is far below any
    # nonzero box value, brute force returns "none", and the pigeonhole
    # precondition fails in the same regime
    p = 3
    prec = 12
    coeffs = (
        (PAdicInt(p, prec, 7), PAdicInt(p, prec, 5), PAdicInt(p, prec, 1)),
        (PAdicInt(p, prec, 2), PAdicInt(p, prec, 8), PAdicInt(p, prec, 4)),
    )
    sys_small = LinearFormSystem(
        p, 2, coeffs, (1, 1, 1),
        (Fraction(3, 2), Fraction(3, 2)), (Fraction(-2), Fraction(4)),
    )
    assert brute_force(sys_small) is None
    with pytest.raises(BelowThresholdError):
        bucket_exponents(sys_small)
    # growing the box restores both
    sys_big = LinearFormSystem(
        p, 2, coeffs, (40, 40, 40),
        (Fraction(3, 2), Fraction(3, 2)), (Fraction(-2), Fraction(4)),
    )
    assert bucket_exponents(sys_big) is not None
    assert brute_force(sys_big) is not None


# ---------------------------------------------------------------------------
# Kernel-lattice solver against the dictionary walk and the product loop
# ---------------------------------------------------------------------------

# box edge bounds per n, so that the product loop over [-H, H]^(n+1) stays small
ORACLE_HEIGHTS = {1: 60, 2: 12, 3: 5}


@st.composite
def coefficient_rows(draw, p, n, precision):
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "small", "p-power", "random", "random"]))
        if kind == "zero":
            rows.append([0] * (n + 1))
        elif kind == "small":
            rows.append([draw(st.integers(-9, 9)) for _ in range(n + 1)])
        elif kind == "p-power":
            rows.append([draw(st.sampled_from([0, 1, p, p * p])) * draw(st.integers(-3, 3)) for _ in range(n + 1)])
        else:
            rows.append([draw(st.integers(0, p**precision - 1)) for _ in range(n + 1)])
    return rows


@st.composite
def generic_systems(draw):
    """Random forms, unequal heights, tau and sigma: surplus and boundary both occur."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    heights = [draw(st.integers(1, ORACLE_HEIGHTS[n])) for _ in range(n + 1)]
    # distinct cuts of (0, n + 1) in quarters: every tau_i > 0
    cuts = sorted(draw(st.lists(st.integers(1, 4 * n + 3), min_size=n - 1, max_size=n - 1, unique=True)))
    bounds = [Fraction(0)] + [Fraction(c, 4) for c in cuts] + [Fraction(n + 1)]
    tau = [b - a for a, b in zip(bounds, bounds[1:])]
    sigma = [Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2]))) for _ in range(n - 1)]
    sigma.append(n - sum(sigma, Fraction(0)))
    # a precision below some m_i: brute force then reads residues mod p^precision
    precision = draw(st.sampled_from([14, 14, 14, 2, 3]))
    rows = draw(coefficient_rows(p, n, precision))
    return make_system(p, n, rows, heights, tau, sigma, precision=precision)


@st.composite
def boundary_systems(draw):
    """prod(H_j + 1) = p^K and every p^{-sigma_i} T^{tau_i} an exact power of p,
    so the bucket count is exactly the box size and no surplus is left."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    top = ({1: 2, 2: 1, 3: 1} if p > 3 else {1: 5, 2: 2, 3: 1})[n]
    ks = [draw(st.integers(1, top)) for _ in range(n + 1)]
    heights = [p**k - 1 for k in ks]
    K = sum(ks)
    sigma = [draw(st.integers(-1, 2)) for _ in range(n - 1)]
    sigma.append(n - sum(sigma))
    # e_i >= max(0, 1 - sigma_i) with sum e_i = K - n makes tau_i > 0
    low = [max(0, 1 - s) for s in sigma]
    spare = K - n - sum(low)
    if spare < 0:
        sigma = [1] * n
        low = [0] * n
        spare = K - n
    cuts = sorted(draw(st.lists(st.integers(0, spare), min_size=n - 1, max_size=n - 1)))
    extra = [b - a for a, b in zip([0] + cuts, cuts + [spare])]
    e = [a + b for a, b in zip(low, extra)]
    tau = [Fraction((n + 1) * (ei + si), K) for ei, si in zip(e, sigma)]
    rows = draw(coefficient_rows(p, n, 14))
    return make_system(p, n, rows, heights, tau, [Fraction(s) for s in sigma], precision=14)


def _outcome(fn, sys):
    try:
        sol = fn(sys)
    except (BelowThresholdError, minkowski.SolverError, ValueError) as exc:
        return type(exc).__name__
    return (sol.x, sol.method, sol.boundary, sol.verified, sol.bucket_exponents)


def _check_against_oracles(sys, cap):
    saved = minkowski.ENUM_CAP
    try:
        if cap is not None:
            minkowski.ENUM_CAP = cap
        assert _outcome(solve, sys) == _outcome(bucket_walk_solve, sys)
        assert brute_force(sys) == product_brute_force(sys)
    finally:
        minkowski.ENUM_CAP = saved


# None keeps the default cap, so small boxes are listed whole; caps of 1 to 3
# send every box through the lex-ordered search
caps = st.sampled_from([None, None, 1, 2, 3])


@settings(max_examples=200, deadline=None)
@given(generic_systems(), caps)
# a zero form: every box vector collides with the origin's key
@example(make_system(3, 1, [[0, 0]], [3, 3], [Fraction(2)], [Fraction(1)]), None)
@example(make_system(2, 2, [[0, 0, 0], [2, 4, 0]], [1, 4, 8], [Fraction(3, 2)] * 2, [Fraction(1)] * 2), 1)
# m = 3 > precision 2: the lemma bound is decided modulo 3^2
@example(make_system(3, 1, [[7, 5]], [8, 8], [Fraction(2)], [Fraction(1)], precision=2), None)
def test_lattice_solver_matches_the_dictionary_walk(sys, cap):
    _check_against_oracles(sys, cap)


@settings(max_examples=120, deadline=None)
@given(boundary_systems(), caps)
def test_lattice_solver_matches_the_dictionary_walk_without_surplus(sys, cap):
    try:
        assert not pigeonhole_surplus(sys)
    except BelowThresholdError:
        pass
    _check_against_oracles(sys, cap)


@settings(max_examples=150, deadline=None)
@given(st.one_of(generic_systems(), boundary_systems()))
def test_surplus_is_exactly_a_solve_off_the_boundary(sys):
    # p^(sum delta) <= prod(H_j + 1) always, so a strict surplus is a system that
    # solve does not flag as boundary; the --random sweep counts its surplus this way
    try:
        sol = solve(sys)
    except BelowThresholdError:
        with pytest.raises(BelowThresholdError):
            pigeonhole_surplus(sys)
        return
    except minkowski.SolverError:  # a precision below the buckets refuses the system
        return
    assert sys.p ** sum(sol.bucket_exponents) <= sys.t_power
    assert pigeonhole_surplus(sys) == (not sol.boundary)


def test_first_collision_is_not_the_lex_least_difference():
    # (1, -4, 2) and (1, 0, -2) both lie in the bucket lattice and the box, and
    # (1, -4, 2) is lex-smaller; but the walk meets z = (1, 0, 0), whose key
    # repeats at (0, 0, 2), before z(1, -4, 2) = (1, 0, 2)
    sys = make_system(2, 2, [[22, 47, 47], [20, 48, 34]], [3, 5, 3], [Fraction(3, 2)] * 2, [Fraction(1)] * 2,
                      precision=10)
    assert verify_solution(sys, (1, -4, 2), bucket_exponents(sys))
    assert bucket_walk_solve(sys).x == (1, 0, -2)
    for cap in (None, 1, 2):
        _check_against_oracles(sys, cap)


def test_boundary_systems_reach_the_brute_force_fallback():
    # some boundary systems have no collision at all: the fallback path runs
    rng = random.Random(5)
    methods = set()
    for _ in range(200):
        p = rng.choice([2, 3])
        ks = [rng.randrange(1, 3), rng.randrange(1, 3)]
        # T^2 = p^K, so p^{-1} T^2 = p^{K-1} is an exact power of p
        heights = [p**k - 1 for k in ks]
        sys = make_system(p, 1, [[rng.randrange(p**10), rng.randrange(p**10)]], heights,
                          [Fraction(2)], [Fraction(1)], precision=10)
        assert not pigeonhole_surplus(sys)
        want = _outcome(bucket_walk_solve, sys)
        assert _outcome(solve, sys) == want
        methods.add(want[1] if isinstance(want, tuple) else want)
    assert {"bucket", "brute-force"} <= methods


def test_lattice_solver_cost_does_not_grow_with_the_box():
    # the probe system of perfbench at H = 10^6: a box of 10^18 points
    rng = random.Random(2021)
    coeffs = tuple(tuple(PAdicInt(3, 30, rng.randrange(3**30)) for _ in range(3)) for _ in range(2))
    sys = LinearFormSystem(3, 2, coeffs, (300,) * 3, (Fraction(3, 2),) * 2, (Fraction(1),) * 2)
    sol = solve(sys)
    assert sol.x == (19, 268, -125) and sol.method == "bucket" and sol.verified
    big = LinearFormSystem(3, 2, coeffs, (10**6,) * 3, (Fraction(3, 2),) * 2, (Fraction(1),) * 2)
    sol = solve(big)
    assert sol.method == "bucket" and sol.verified and sol.bucket_exponents == (18, 18)
    # dense lattices go through the lex-ordered search: zero forms collide at
    # the second point of the walk, and the lemma lattice is all of Z^3
    zero = make_system(3, 2, [[0, 0, 0], [0, 0, 0]], [10**6] * 3, [Fraction(3, 2)] * 2, [Fraction(1)] * 2, precision=40)
    assert solve(zero).x == (0, 0, 1)
    assert brute_force(zero) == (-(10**6),) * 3
