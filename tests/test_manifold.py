import random
from fractions import Fraction

import pytest

from padicapprox import manifold
from padicapprox.core import HypothesisError, PAdicInt, embed_rational
from padicapprox.manifold import (
    DirichletInstance,
    PolyMap,
    RationalPoint,
    cover_preimage,
    dirichlet_h0,
    dirichlet_solve,
    enumerate_S_tau,
    verify_dirichlet,
)

F = Fraction


def square_map(p=3):
    return PolyMap(p, 1, 1, (((F(1), (2,)),),))


def test_polymap_validation_and_eval():
    f = square_map()
    assert f.eval_exact((F(1, 2),)) == (F(1, 4),)
    # f(7) = 49 and f'(7) = 14, from the integer form
    assert f.forms[0].taylor([7], 3**12) == (49, [14])
    with pytest.raises(ValueError, match="not a p-adic integer"):
        PolyMap(3, 1, 1, (((F(1, 3), (2,)),),))


def test_polymap_json_roundtrip():
    f = PolyMap(3, 2, 1, (((F(1), (2, 0)), (F(-3, 2), (0, 1))),))
    assert PolyMap.from_json_dict(f.to_json_dict()) == f


def test_dqe_quadratic_error_inequality_spot_check():
    # f = x^2: f(y) - f(x) - 2x(y-x) = (y-x)^2 exactly
    f = square_map()
    for xr, yr in [(F(2), F(5)), (F(1, 2), F(1, 2) + 9), (F(4), F(4) + 27)]:
        lhs = f.eval_exact((yr,))[0] - f.eval_exact((xr,))[0] - 2 * xr * (yr - xr)
        assert lhs == (yr - xr) ** 2


def test_dirichlet_instance_hypotheses():
    f = square_map()
    x = (PAdicInt(3, 40, 11),)
    DirichletInstance(f, x, (F(7, 5),), (F(8, 5),), H=50)
    with pytest.raises(HypothesisError, match="tau_j > 1"):
        DirichletInstance(f, x, (F(1),), (F(2),), H=50)
    with pytest.raises(HypothesisError, match=r"sum\(tau\) < m\+1"):
        DirichletInstance(f, x, (F(2),), (F(1),), H=50)
    with pytest.raises(HypothesisError, match=r"sum\(v\)"):
        DirichletInstance(f, x, (F(7, 5),), (F(2),), H=50)
    with pytest.raises(HypothesisError, match="v_i > 1"):
        # sums are consistent (61/40 + 1 = 4 - 59/40) but v_2 = 1 is too small
        DirichletInstance(square_map_2d(), (PAdicInt(3, 40, 1), PAdicInt(3, 40, 2)),
                          (F(59, 40),), (F(61, 40), F(1)), H=50)


def square_map_2d(p=3):
    # f(x1, x2) = x1^2 + x2^2: d=2, m=1
    return PolyMap(p, 2, 1, (((F(1), (2, 0)), (F(1), (0, 2))),))


def test_dirichlet_h0_fixture_value():
    f = square_map()
    inst = DirichletInstance(f, (PAdicInt(3, 60, 7),), (F(7, 5),), (F(8, 5),), H=100)
    rep = dirichlet_h0(inst)
    # beta and gamma cases are both 3^{10/3} = 38.94...; alpha cases are 1
    assert rep.h0 == 38
    assert rep.cases["alpha1"]["h0"] == 1
    assert rep.cases["beta"]["value"] == "3^(10/3)"
    assert set(rep.cases) == {"alpha1", "alpha2", "beta", "gamma", "delta"}
    assert rep.admissible(39) and not rep.admissible(38)


def test_dirichlet_h0_names_the_feasible_height_past_the_digit_limit():
    # over Z_p with p = 2^521 - 1 and m = 45: H + 1 >= p^((m/d) / v) = p^30 has 4700 digits
    p, m = 2**521 - 1, 45
    f = PolyMap(p, 1, m, tuple(((F(1), (2,)),) for _ in range(m)))
    inst = DirichletInstance(f, (PAdicInt(p, 5, 1),), (1 + F(1, 2 * m),) * m, (F(3, 2),), H=50)
    delta = dirichlet_h0(inst).cases["delta"]
    assert delta["value"] == f"least feasible H = ceil({p}^(30)) - 1"
    assert delta["float"] is None and delta["h0"] == p**30 - 2
    with pytest.raises(HypothesisError, match=rf"H_0=floor\({p}\^\(92\)\)\)$"):
        dirichlet_solve(inst)


def test_dirichlet_h0_grows_with_smaller_v():
    f = square_map()
    x = (PAdicInt(3, 60, 7),)
    h_loose = dirichlet_h0(DirichletInstance(f, x, (F(7, 5),), (F(8, 5),), H=10)).h0
    # v closer to 1 blows up the beta/gamma cases
    h_tight = dirichlet_h0(
        DirichletInstance(f, x, (F(39, 20),), (F(21, 20),), H=10)
    ).h0
    assert h_tight > h_loose


def test_dirichlet_solve_random_points_verified():
    rng = random.Random(2718)
    f = square_map()
    for _ in range(5):
        x = (PAdicInt(3, 60, rng.randrange(3**60)),)
        for H in (40, 80, 320):
            inst = DirichletInstance(f, x, (F(7, 5),), (F(8, 5),), H=H)
            sol = dirichlet_solve(inst)
            assert sol.verified
            assert verify_dirichlet(inst, sol.point, sol.k)
            assert sol.point.a0 % 3 != 0 and sol.point.primitive
            assert 3**sol.k * sol.point.height <= H


def test_dirichlet_solve_below_threshold_rejected():
    f = square_map()
    inst = DirichletInstance(f, (PAdicInt(3, 60, 7),), (F(7, 5),), (F(8, 5),), H=20)
    with pytest.raises(HypothesisError, match="H > H_0"):
        dirichlet_solve(inst)


def test_dirichlet_solve_rational_point_exact_hit():
    f = square_map()
    x = (embed_rational(1, 2, p=3, precision=60),)
    inst = DirichletInstance(f, x, (F(7, 5),), (F(8, 5),), H=200)
    sol = dirichlet_solve(inst)
    a = sol.point.a
    assert F(a[1], a[0]) == F(1, 2)
    assert f.eval_exact((F(a[1], a[0]),))[0] == F(a[2], a[0])


def test_dirichlet_solve_2d_map():
    rng = random.Random(5)
    f = square_map_2d()
    x = (PAdicInt(3, 60, rng.randrange(3**60)), PAdicInt(3, 60, rng.randrange(3**60)))
    # n = 3: sum tau < 2, sum v = 4 - tau
    inst = DirichletInstance(f, x, (F(4, 3),), (F(4, 3), F(4, 3)), H=300)
    sol = dirichlet_solve(inst)
    assert sol.verified and len(sol.point.a) == 4


def test_enumerate_s_tau_contains_exact_curve_points():
    f = square_map()
    pts = enumerate_S_tau(f, [F(7, 5)], 20)
    coords = {pt.a for pt in pts}
    # (1, x, x^2) is an exact curve point: error 0 < h^{-tau}
    assert (1, 2, 4) in coords
    assert (1, 4, 16) in coords
    for pt in pts:
        assert pt.primitive and pt.a0 % 3 != 0
        assert 1 <= pt.height <= 20


def test_enumerate_s_tau_membership_is_sharp():
    f = square_map()
    tau = [F(7, 5)]
    pts = enumerate_S_tau(f, tau, 15)
    from test_resonant import _s_tau_member  # the Fraction oracle

    members = {pt.a for pt in pts}
    # resample the whole box by brute force and compare
    import itertools, math

    brute = set()
    for a0 in range(1, 16):
        if a0 % 3 == 0:
            continue
        for a1, a2 in itertools.product(range(-15, 16), repeat=2):
            a = (a0, a1, a2)
            h = max(abs(v) for v in a)
            g = math.gcd(math.gcd(a0, a1), a2)
            if g != 1:
                continue
            if _s_tau_member(f, tau, a, h):
                brute.add(a)
    assert members == brute


def test_s_tau_sign_symmetry_for_even_map():
    f = square_map()
    pts = enumerate_S_tau(f, [F(7, 5)], 25)
    coords = {pt.a for pt in pts}
    for a in coords:
        assert (a[0], -a[1], a[2]) in coords


def test_s_tau_counts_grow_with_height():
    f = square_map()
    c50 = len(enumerate_S_tau(f, [F(7, 5)], 50))
    c100 = len(enumerate_S_tau(f, [F(7, 5)], 100))
    assert c100 > c50 > 0


def test_cover_preimage_basics():
    f = square_map()
    tau = [F(12, 5), F(7, 5)]
    empty = cover_preimage(f, tau, F(1), 20, depth=10, points=[])
    assert empty.is_empty()
    small = cover_preimage(f, tau, F(1), 20, depth=10)
    big = cover_preimage(f, tau, F(1), 40, depth=12)
    assert small.measure() <= big.measure()
    shrunk = cover_preimage(f, tau, F(1, 3), 20, depth=12)
    assert shrunk.measure() <= small.measure()


def test_cover_preimage_weight_hypothesis():
    f = square_map()
    with pytest.raises(HypothesisError, match="min indep tau"):
        cover_preimage(f, [F(6, 5), F(7, 5)], F(1), 10, depth=10)
    # equality needs a Lipschitz bound
    with pytest.raises(HypothesisError, match="Lipschitz"):
        cover_preimage(f, [F(7, 5), F(7, 5)], F(1), 10, depth=10)
    out = cover_preimage(f, [F(7, 5), F(7, 5)], F(1), 10, depth=10, lipschitz_bound=F(1))
    assert out.measure() > 0


def test_cover_preimage_depth_guard():
    f = square_map()
    with pytest.raises(ValueError, match="insufficient depth"):
        cover_preimage(f, [F(12, 5), F(7, 5)], F(1), 200, depth=5)


@pytest.mark.parametrize("depth, message", [
    (-1, "depth must be >= 0"),
    (301, "depth 301 exceeds the trie depth limit MAX_DEPTH=300"),
])
def test_cover_preimage_refuses_a_bad_depth_before_enumerating(monkeypatch, depth, message):
    # the depth used to be checked against the boxes only, so 301 ran the whole
    # enumeration before the set builder refused it
    calls = []
    monkeypatch.setattr(manifold, "enumerate_S_tau", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=f"^{message}$"):
        cover_preimage(square_map(), [F(12, 5), F(7, 5)], F(1), 2000, depth)
    assert calls == []


def test_rational_point_flags():
    pt = RationalPoint((4, 2, 1))
    assert pt.height == 4 and pt.primitive and pt.a0 % 3 != 0
    assert pt.coordinates() == (F(1, 2), F(1, 4))
    assert not RationalPoint((6, 2, 4)).primitive


def test_floor_log_int_power_exact_everywhere():
    from padicapprox.manifold import floor_log_int_power

    for p in (2, 3, 5):
        for a in range(0, 30):
            for b in (1, 2, 3, 5):
                e = F(a, b)
                got = floor_log_int_power(p, e)
                assert F(got) ** b <= F(p) ** a < F(got + 1) ** b
    assert floor_log_int_power(3, F(-7, 2)) == 0
    # exponents far beyond float range stay exact
    assert floor_log_int_power(3, F(10000, 3)).bit_length() > 5000


def test_exhaustive_dirichlet_fallback_agrees():
    from padicapprox.manifold import _exhaustive_dirichlet

    rng = random.Random(99)
    f = square_map()
    x = (PAdicInt(3, 60, rng.randrange(3**60)),)
    inst = DirichletInstance(f, x, (F(7, 5),), (F(8, 5),), H=48)
    point, k = _exhaustive_dirichlet(inst)
    assert verify_dirichlet(inst, point, k)
    # the primary pipeline also solves it; both outputs verify
    sol = dirichlet_solve(inst)
    assert sol.verified


def test_dirichlet_solve_records_why_it_fell_back(monkeypatch, capsys):
    from padicapprox import cli, manifold

    rng = random.Random(99)
    f = square_map()
    x = (PAdicInt(3, 60, rng.randrange(3**60)),)
    inst = DirichletInstance(f, x, (F(7, 5),), (F(8, 5),), H=48)
    sol = dirichlet_solve(inst)
    assert sol.method == "congruence-scan" and sol.fallback is None
    scan_point = sol.point

    def failing_scan(sys):
        raise manifold.SolverError("no structured solution with x_0 in [1, H_0]")

    with monkeypatch.context() as m:
        m.setattr(manifold, "solve_structured", failing_scan)
        sol = dirichlet_solve(inst)
    assert sol.method == "exhaustive" and sol.verified
    assert sol.fallback == "solver-error: no structured solution with x_0 in [1, H_0]"

    # an exact re-check that rejects the scan's point, the first one it sees
    calls = []

    def reject_first_call(inst, point, k):
        calls.append(point)
        return len(calls) > 1 and verify_dirichlet(inst, point, k)

    with monkeypatch.context() as m:
        m.setattr(manifold, "verify_dirichlet", reject_first_call)
        sol = dirichlet_solve(inst)
        assert calls[0] == scan_point
        assert sol.method == "exhaustive" and sol.fallback == "verification-failed"
        assert verify_dirichlet(inst, sol.point, sol.k)
        # the CLI prints the method but never the reason
        calls.clear()
        argv = ["dirichlet-solve", "--map-json", '{"p":3,"d":1,"m":1,"polys":[[["1",[2]]]]}',
                "--x", str(x[0].residue), "--precision", "60", "--tau", "7/5", "--v", "8/5", "--H", "48"]
        assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert '"method": "exhaustive"' in out and "fallback" not in out and "verification" not in out


def test_ubiquity_fraction_restricted_to_a_ball():
    from padicapprox.approx import ubiquity_fraction
    from padicapprox.clopen import BallSpec, ClopenSet
    from padicapprox.core import Params

    params = Params(3, 1)
    ball = ClopenSet.empty(3, 1, 14).insert_rectangle(BallSpec((F(2),), (2,)))
    frac = ubiquity_fraction(params, [F(2)], M=3, k=2, depth=14, c1=F(9), ball=ball)
    assert F(0) < frac <= 1
