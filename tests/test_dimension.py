import random
from fractions import Fraction

import pytest

from padicapprox.core import HypothesisError
from padicapprox.dimension import (
    BoxDimFit,
    boxdim_estimate,
    jb_dimension,
    manifold_lower_bound,
    rynne_dimension,
    waterfill_alpha,
    waterfill_level,
    waterfill_v,
    ww_exponent,
)

F = Fraction


def test_jb_dimension_values():
    assert jb_dimension([F(2), F(2)]) == F(3, 2)
    assert jb_dimension([F(3), F(2)]) == F(4, 3)
    assert jb_dimension([F(4), F(2), F(2)]) == 2


def test_jb_dimension_hypotheses():
    with pytest.raises(HypothesisError, match="tau_i > 1"):
        jb_dimension([F(1), F(3)])
    with pytest.raises(HypothesisError, match=r"sum\(tau_i\) > n\+1"):
        jb_dimension([F(3, 2), F(3, 2)])


def test_jb_dimension_bounds_random():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(1, 5)
        tau = [F(rng.randrange(11, 40), 10) for _ in range(n)]
        if sum(tau) <= n + 1:
            continue
        dim = jb_dimension(tau)
        assert 0 < dim < n or (n == 1 and dim <= 1)
        assert dim < n + 1


def test_jb_dimension_approaches_n_at_threshold():
    # tau_i -> (n+1)/n from above drives the dimension to n
    n = 3
    for eps_den in (10, 100, 1000):
        tau = [F(n + 1, n) + F(1, eps_den)] * n
        dim = jb_dimension(tau)
        assert n - dim < F(3, eps_den)


def test_rynne_dimension_values():
    assert rynne_dimension([F(3), F(2)]) == 1
    assert rynne_dimension([F(1)]) == 1
    # equal weights give the classical (n+1)/(tau+1)
    assert rynne_dimension([F(2), F(2)]) == 1
    assert rynne_dimension([F(3), F(3), F(3)]) == 1
    assert rynne_dimension([F(5), F(5)]) == F(1, 2)


def test_rynne_accepts_unsorted_input():
    assert rynne_dimension([F(2), F(3)]) == rynne_dimension([F(3), F(2)])


def test_waterfill_level():
    assert waterfill_level([F(3), F(2)], F(3)) == F(3, 2)
    assert waterfill_level([F(4), F(2), F(2)], F(4)) == F(4, 3)
    assert waterfill_level([F(2), F(2)], F(4)) == F(2)


def test_empty_inputs_are_refused_by_name():
    # waterfill_level([], 0) used to raise IndexError, and ww_exponent([], []) TypeError
    with pytest.raises(ValueError, match="^tau must not be empty$"):
        waterfill_level([], 0)
    with pytest.raises(ValueError, match="^a and t must not be empty$"):
        ww_exponent([], [])


def test_waterfill_alpha_examples():
    alpha, c = waterfill_alpha([F(3), F(2)])
    assert alpha == (F(3, 2), F(3, 2)) and c == F(3, 2)
    alpha, c = waterfill_alpha([F(4), F(2), F(2)])
    assert alpha == (F(4, 3), F(4, 3), F(4, 3))
    # equal weights: alpha_i = (n+1)/n
    alpha, _ = waterfill_alpha([F(3), F(3)])
    assert alpha == (F(3, 2), F(3, 2))


def test_waterfill_alpha_invariants_random():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 5)
        tau = [F(rng.randrange(11, 50), 10) for _ in range(n)]
        if sum(tau) <= n + 1:
            continue
        alpha, c = waterfill_alpha(tau)
        assert sum(alpha) == n + 1
        assert all(a <= t for a, t in zip(alpha, tau))
        assert all(a > 1 for a in alpha)
        assert all(a == min(t, c) for a, t in zip(alpha, tau))


def test_waterfill_v_examples():
    assert waterfill_v([F(12, 5), F(7, 5)], 1, 1) == (F(8, 5),)
    assert waterfill_v([F(2), F(2), F(3, 2)], 2, 1) == (F(5, 4), F(5, 4))


def test_waterfill_v_rejects_shallow_exponents():
    with pytest.raises(HypothesisError):
        # dependent sum too large
        waterfill_v([F(3), F(3, 2), F(3, 2)], 1, 2)


def test_ww_exponent_one_dimensional():
    # a = (2), t = (tau - 2): K2-sum gives 2/tau; the literal display gives 1
    for tau in (F(5, 2), F(3), F(4)):
        res = ww_exponent([F(2)], [tau - 2], "K2-sum")
        assert res.value == 2 / tau
        lit = ww_exponent([F(2)], [tau - 2], "K3-sum")
        assert lit.value == 1


def test_ww_exponent_matches_jb_via_waterfill():
    tau = [F(3), F(2)]
    alpha, _ = waterfill_alpha(tau)
    res = ww_exponent(alpha, [t - a for t, a in zip(tau, alpha)], "K2-sum")
    assert res.value == F(4, 3) == jb_dimension(tau)
    assert res.argmin == F(3)


def test_ww_exponent_zero_increments_give_full_dimension():
    res = ww_exponent([F(3, 2), F(3, 2)], [F(0), F(0)], "K2-sum")
    assert res.value == 2
    res3 = ww_exponent([F(3, 2), F(3, 2)], [F(0), F(0)], "K3-sum")
    assert res3.value == 2


def test_ww_exponent_formula_consistency_random_grid():
    rng = random.Random(71)
    checked = 0
    while checked < 200:
        n = rng.randrange(1, 5)
        tau = [F(rng.randrange(11, 60), rng.randrange(1, 11)) for _ in range(n)]
        tau = [t if t > 1 else t + 1 for t in tau]
        if sum(tau) <= n + 1:
            continue
        alpha, _ = waterfill_alpha(tau)
        t = [x - a for x, a in zip(tau, alpha)]
        assert ww_exponent(alpha, t, "K2-sum").value == jb_dimension(tau)
        checked += 1


def test_ww_exponent_monotone_in_increments():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randrange(1, 4)
        a = [F(rng.randrange(110, 300), 100) for _ in range(n)]
        t = [F(rng.randrange(0, 200), 100) for _ in range(n)]
        base = ww_exponent(a, t, "K2-sum").value
        j = rng.randrange(n)
        bumped = list(t)
        bumped[j] += F(rng.randrange(1, 100), 100)
        assert ww_exponent(a, bumped, "K2-sum").value <= base


def test_ww_exponent_literal_variant_is_not_monotone():
    # counterexample found by randomized search: bumping t_2 from 16/100 to
    # 82/100 RAISES the literal-display score. One more sign that the display's
    # t-sum over K3 is a typo for K2; kept as a regression anchor for the
    # surfaced discrepancy.
    a = [F(203, 100), F(225, 100)]
    low = ww_exponent(a, [F(95, 100), F(16, 100)], "K3-sum").value
    high = ww_exponent(a, [F(95, 100), F(82, 100)], "K3-sum").value
    assert high > low


def test_manifold_lower_bound_values():
    # ambient n = 2 split as d = 1, m = 1 with equal weight 8/5
    assert manifold_lower_bound([F(8, 5), F(8, 5)], 1, 1, "thm2.7") == F(7, 8)
    # m = 0: no upper bound on tau
    assert manifold_lower_bound([F(2), F(2)], 2, 0, "thm2.7") == F(3, 2)
    assert manifold_lower_bound([F(12, 5), F(7, 5)], 1, 1, "thm2.8") == F(2, 3)
    assert manifold_lower_bound([F(12, 5), F(7, 5)], 1, 1, "thm2.9") == F(2, 3)


def test_manifold_lower_bound_hypotheses_enumerated():
    with pytest.raises(HypothesisError, match="tau > 1 \\+ 1/n"):
        manifold_lower_bound([F(6, 5)] * 3, 2, 1, "thm2.7")
    with pytest.raises(HypothesisError, match="tau < 1 \\+ 1/m"):
        manifold_lower_bound([F(21, 10)] * 3, 2, 1, "thm2.7")
    with pytest.raises(HypothesisError, match="min indep tau >= max dep tau"):
        manifold_lower_bound([F(3, 2), F(8, 5)], 1, 1, "thm2.9")
    with pytest.raises(HypothesisError, match=r"sum\(dependent tau\) < m\+1"):
        manifold_lower_bound([F(6, 5), F(2)], 1, 1, "thm2.9")
    # d + m = n holds in each; m = -1 used to return 5/2, and d = 0 failed on a tau hypothesis
    for tau, d, m in [([F(2)] * 2, 3, -1), ([F(2)] * 2, 0, 2), ([F(3, 2)] * 2, 0, 2), ([F(2)] * 3, -1, 4)]:
        with pytest.raises(ValueError, match="thm2.7 needs d >= 1 and m >= 0"):
            manifold_lower_bound(tau, d, m, "thm2.7")
    # both formulas check the split before their hypotheses: unequal weights used to win for thm2.7
    for which in ("thm2.7", "thm2.9"):
        with pytest.raises(ValueError, match=f"^{which} needs d >= 1 and m >= 0$"):
            manifold_lower_bound([F(2), F(3)], 3, -1, which)


def test_thm29_reduces_to_jb_when_m_is_zero():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randrange(1, 5)
        tau = [F(rng.randrange(11, 40), 10) for _ in range(n)]
        if sum(tau) <= n + 1:
            continue
        assert manifold_lower_bound(tau, n, 0, "thm2.9") == jb_dimension(tau)


def test_thm29_equal_weights_match_thm27():
    tau = [F(8, 5)] * 3
    assert manifold_lower_bound(tau, 2, 1, "thm2.9") == manifold_lower_bound(tau, 2, 1, "thm2.7")


def test_boxdim_estimate_exact_shapes():
    counts = [(k, 3 ** (2 * k)) for k in range(2, 10)]
    fit = boxdim_estimate(counts, 3, drop_coarsest=0)
    assert abs(fit.slope - 2.0) < 1e-12
    single = [(k, 1) for k in range(2, 10)]
    fit0 = boxdim_estimate(single, 3, drop_coarsest=0)
    assert abs(fit0.slope) < 1e-12
    with pytest.raises(ValueError, match="at least 3"):
        boxdim_estimate([(1, 3), (2, 9)], 3, drop_coarsest=0)


def test_boxdim_estimate_drops_coarsest_levels():
    counts = [(1, 1), (2, 1)] + [(k, 2**k) for k in range(3, 9)]
    fit = boxdim_estimate(counts, 2)
    assert fit.levels == (3, 4, 5, 6, 7, 8)
    assert abs(fit.slope - 1.0) < 1e-12
    assert fit.r_squared > 0.999
    # a negative drop used to keep only the finest levels
    with pytest.raises(ValueError, match="need drop_coarsest >= 0, got -3"):
        boxdim_estimate(counts, 2, drop_coarsest=-3)
    # a negative level or count is refused, also at a level the drop would discard
    with pytest.raises(ValueError, match="counts have level -1; k must be >= 0"):
        boxdim_estimate([(-1, 1)] + counts, 2)
    with pytest.raises(ValueError, match="counts have N=-2 at level 1; N must be >= 0"):
        boxdim_estimate([(1, -2)] + counts[1:], 2)
