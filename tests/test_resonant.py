"""Differential tests of the integer-only resonant-point paths.

`enumerate_S_tau`, the per-height exponents of `cover_preimage` and
`verify_dirichlet` run on homogenized integer forms and per-level congruences.
The rational paths they replaced (Fraction evaluation, a valuation loop and an
exact power-product comparison per inequality, rectangle exponents per point)
are kept here as oracles and compared on random maps with p-unit denominators.
The residue-column kernel of `enumerate_S_tau` is also compared with the
per-point integer enumerator it replaced (`oracles.integer_enumerate_S_tau`).
"""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicapprox.clopen import BallSpec
from padicapprox.core import PAdicInt, embed_rational
from padicapprox.exactcmp import ball_exponent, cmp_powprod
from padicapprox.manifold import (
    DirichletInstance,
    PolyMap,
    RationalPoint,
    SolverError,
    cover_preimage,
    enumerate_S_tau,
    verify_dirichlet,
)

from oracles import (
    fraction_ball_exponent,
    integer_enumerate_S_tau,
    rectangles_oracle,
    unpinned_enumerate_S_tau,
)

F = Fraction

# ---------------------------------------------------------------------------
# Oracles: the previous Fraction / cmp_powprod paths
# ---------------------------------------------------------------------------


def _centered(target, mod, bound):
    if mod == 1:
        return list(range(-bound, bound + 1))
    t = target % mod
    first = t - ((t + bound) // mod) * mod
    return list(range(first, bound + 1, mod))


def _vp(w, p):
    num, den = w.numerator, w.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _s_tau_member(f, tau_dep, a, h):
    p = f.p
    y = tuple(Fraction(c, a[0]) for c in a[1 : f.d + 1])
    values = f.eval_exact(y)
    for j in range(f.m):
        w = values[j] - Fraction(a[f.d + j + 1], a[0])
        if w == 0:
            continue
        # need p^{-v} < h^{-tau_j}
        if cmp_powprod([(Fraction(p), Fraction(-_vp(w, p)))], [(Fraction(h), -tau_dep[j])]) >= 0:
            return False
    return True


def enumerate_oracle(f, tau_dep, h_max, h_min=1):
    p = f.p
    tau_dep = [Fraction(t) for t in tau_dep]
    found = []
    for a0 in range(1, h_max + 1):
        if a0 % p == 0:
            continue
        for combo in itertools.product(range(-h_max, h_max + 1), repeat=f.d):
            h_base = max(a0, *(abs(c) for c in combo))
            values = f.eval_exact(tuple(Fraction(c, a0) for c in combo))
            dep_cands = []
            for j in range(f.m):
                # the least level over the heights a tail can still reach
                level = min(
                    max(0, ball_exponent(p, [(Fraction(h), -tau_dep[j])]))
                    for h in range(max(h_base, h_min), h_max + 1)
                )
                mod = p**level
                w = values[j] * a0
                target = w.numerator * pow(w.denominator, -1, mod) % mod if mod > 1 else 0
                dep_cands.append(_centered(target, mod, h_max))
            for tail in itertools.product(*dep_cands):
                a = (a0,) + combo + tail
                h = max(abs(v) for v in a)
                if h > h_max or h < h_min or math.gcd(*a) != 1:
                    continue
                if _s_tau_member(f, tau_dep, a, h):
                    found.append(RationalPoint(a))
    return sorted(found, key=lambda pt: pt.a)


def cover_oracle(f, tau, delta, depth, points):
    """One Fraction-centred rectangle per point, with Fraction-kernel exponents,
    each built top-down and folded by binary union."""
    rects = []
    for pt in points:
        exps = tuple(
            max(0, fraction_ball_exponent(f.p, [(delta, Fraction(1)), (Fraction(pt.height), -tau[i])]))
            for i in range(f.d)
        )
        rects.append(BallSpec(pt.coordinates(f.d), exps))
    return rectangles_oracle(f.p, f.d, depth, rects)


def verify_oracle(inst, point, k):
    f = inst.f
    p = f.p
    a = point.a
    if k < 0 or a[0] % p == 0 or not point.primitive:
        return False
    if p**k * point.height > inst.H:
        return False
    prec = inst.precision
    for i in range(f.d):
        diff = inst.x[i].truncate(prec) - embed_rational(a[i + 1], a[0], p=p, precision=prec)
        vexp = prec if diff.residue == 0 else diff.valuation()
        bound = [(Fraction(p), inst.sigma_shift + k), (Fraction(inst.H), -inst.v[i])]
        if cmp_powprod([(Fraction(p), Fraction(-vexp))], bound) >= 0:
            if diff.residue == 0:
                raise SolverError("comparison below precision")
            return False
    values = f.eval_exact(point.coordinates(f.d))
    for j in range(f.m):
        w = values[j] - Fraction(a[f.d + j + 1], a[0])
        if w != 0:
            rhs = [(Fraction(p), k * inst.tau[j]), (Fraction(inst.H), -inst.tau[j])]
            if cmp_powprod([(Fraction(p), Fraction(-_vp(w, p)))], rhs) >= 0:
                return False
    return True


def _verdict(fn, inst, point, k):
    try:
        return fn(inst, point, k)
    except SolverError:
        return "raises"


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def poly_maps(draw, max_degree=3):
    """Maps with p-unit denominators, negative coefficients, and components that
    may be zero or constant."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    dens = [b for b in range(1, 8) if b % p]
    exps = [e for e in itertools.product(range(max_degree + 1), repeat=d) if sum(e) <= max_degree]
    polys = []
    for _ in range(m):
        kind = draw(st.sampled_from(["zero", "constant", "general", "general"]))
        if kind == "zero":
            polys.append(())
        elif kind == "constant":
            coeff = F(draw(st.integers(-6, 6)), draw(st.sampled_from(dens)))
            polys.append(((coeff, (0,) * d),))
        else:
            chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=4, unique=True))
            polys.append(tuple(
                (F(draw(st.integers(-6, 6)), draw(st.sampled_from(dens))), e) for e in chosen
            ))
    return PolyMap(p, d, m, tuple(polys))


taus = st.integers(1, 20).map(lambda k: 1 + F(k, 20))  # tau_j in (1, 2]


@st.composite
def enumeration_inputs(draw):
    f = draw(poly_maps())
    h_max = draw(st.integers(1, 14 if f.d == 1 else 5))
    h_min = draw(st.integers(1, h_max))
    tau_dep = [draw(taus) for _ in range(f.m)]
    return f, tau_dep, h_max, h_min


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


nonpositive_taus = st.sampled_from([F(-1, 2), F(0)])


@st.composite
def column_inputs(draw):
    """d = 1 heights up to 40, so that the weakest modulus is both at most 2H + 1
    (several tails per position) and above it (at most one tail); tau_j <= 0,
    whose level is p at h = 1 and 1 above it when tau_j < 0, and h_min = 1."""
    f = draw(poly_maps())
    tau_dep = [draw(st.one_of(taus, nonpositive_taus)) for _ in range(f.m)]
    # a level of at most p leaves many tails per position: keep those heights small
    positive = all(t > 0 for t in tau_dep)
    h_max = draw(st.integers(1, (40 if positive else 6) if f.d == 1 else (5 if positive else 3)))
    h_min = draw(st.one_of(st.just(1), st.integers(1, h_max)))
    return f, tau_dep, h_max, h_min


@settings(max_examples=120, deadline=None)
@given(column_inputs())
# x^2 + 1 over Z_3 with tau = -1/2: the level is 3 at h = 1 and 1 above it, so
# the top modulus is not the one at h_max
@example((PolyMap(3, 1, 1, (((F(1), (0,)), (F(1), (2,))),)), [F(-1, 2)], 4, 1))
def test_enumerate_matches_fraction_oracle(inputs):
    """The column kernel against the per-point integer enumerator, the
    Fraction oracle and, on small inputs, the unpinned oracle: same points in
    the same order, heights stored right."""
    f, tau_dep, h_max, h_min = inputs
    got = enumerate_S_tau(f, tau_dep, h_max, h_min=h_min)
    assert got == integer_enumerate_S_tau(f, tau_dep, h_max, h_min)
    assert got == enumerate_oracle(f, tau_dep, h_max, h_min)
    assert all(pt.height == max(map(abs, pt.a)) for pt in got)
    # the unpinned oracle walks every tail: only where that stays small
    if h_max * (2 * h_max + 1) ** f.n <= 200_000:
        assert got == unpinned_enumerate_S_tau(f, tau_dep, h_max, h_min)


PAIR = PolyMap(5, 1, 2, (((F(1), (2,)),), ((F(1), (3,)), (F(2), (1,)))))


@settings(max_examples=40, deadline=None)
@given(column_inputs())
# (x^2, x^3 + 2x) over Z_5 with tau = (1/2, 1/2): the pinning modulus is 5 <= 2 h_max
# at every height, so a surviving position has up to 5 tails per form, 25 in all
@example((PAIR, [F(1, 2), F(1, 2)], 12, 1))
def test_bulk_built_points_are_constructed_points(inputs):
    """The kernel sets the slots of its points directly: they hold plain ints and
    the true height, and equal and hash like the points the constructor builds."""
    f, tau_dep, h_max, h_min = inputs
    got = enumerate_S_tau(f, tau_dep, h_max, h_min=h_min)
    assert got == integer_enumerate_S_tau(f, tau_dep, h_max, h_min)
    for pt in got:
        assert type(pt.a) is tuple and all(type(c) is int for c in pt.a)
        assert type(pt.height) is int and pt.height == max(map(abs, pt.a))
        built = RationalPoint(pt.a)
        assert pt == built and hash(pt) == hash(built) and repr(pt) == repr(built)


def test_negative_tau_keeps_tails_above_the_pinning_height():
    # x^2 + 1 over Z_3, tau = -1/2: the level is 3 at h = 1 and 1 above it, so
    # a tail that lifts the height past 1 must not be pinned at height 1's class
    f = PolyMap(3, 1, 1, (((F(1), (0,)), (F(1), (2,))),))
    tails = {}
    for h_min in (1, 2):
        pts = enumerate_S_tau(f, [F(-1, 2)], 4, h_min=h_min)
        assert pts == unpinned_enumerate_S_tau(f, [F(-1, 2)], 4, h_min)
        tails[h_min] = [pt.a[2] for pt in pts if pt.a[:2] == (1, 0)]
    assert tails[2] == [-4, -3, -2, 2, 3, 4]
    assert tails[1] == [-4, -3, -2, 1, 2, 3, 4]


def test_column_kernel_matches_integer_oracle_on_benchmark_shapes():
    # the enum maps of the resonant-solve workload: x^2 over Z_3 and
    # (x^2, x^3 + 2x) over Z_5, at every hmax they run with hmin = hmax // 2
    square = PolyMap(3, 1, 1, (((F(1), (2,)),),))
    pair = PolyMap(5, 1, 2, (((F(1), (2,)),), ((F(1), (3,)), (F(2), (1,)))))
    shapes = [(square, [F(7, 5)], h) for h in range(20, 56, 2)]
    shapes += [(pair, [F(6, 5), F(6, 5)], h) for h in range(14, 32)]
    assert len(shapes) == 36
    for f, tau_dep, h_max in shapes:
        got = enumerate_S_tau(f, tau_dep, h_max, h_min=h_max // 2)
        assert got and got == integer_enumerate_S_tau(f, tau_dep, h_max, h_max // 2)


@settings(max_examples=25, deadline=None)
@given(
    enumeration_inputs(), st.sampled_from([F(1), F(1, 2), F(1, 9)]), st.integers(0, 5), st.integers(0, 4)
)
def test_cover_per_height_matches_per_point(inputs, delta, extra, spread):
    f, tau_dep, h_max, h_min = inputs
    # unequal independent exponents give boxes with wildcard levels when d = 2
    tau = [max(tau_dep) + F(extra + 1 + i * spread, 5) for i in range(f.d)] + list(tau_dep)
    worst = max(
        max(0, ball_exponent(f.p, [(delta, F(1)), (F(h_max), -t)])) for t in tau[: f.d]
    )
    depth = worst + 1
    points = enumerate_S_tau(f, tau_dep, h_max, h_min=h_min)
    got = cover_preimage(f, tau, delta, h_max, depth, h_min=h_min, points=points)
    want = cover_oracle(f, tau, delta, depth, points)
    assert got == want
    assert got.to_text() == want.to_text()
    # the enumerating call builds the same set
    assert cover_preimage(f, tau, delta, h_max, depth, h_min=h_min) == got


@st.composite
def dirichlet_inputs(draw, max_H=400):
    f = draw(poly_maps())
    n = f.n
    # tau_j > 1 with sum < m + 1, then v_i > 1 splitting n + 1 - sum(tau) evenly
    tau = tuple(1 + F(draw(st.integers(1, 9)), 10 * f.m) for _ in range(f.m))
    v = (F(n + 1 - sum(tau), f.d),) * f.d
    rng = random.Random(draw(st.integers(0, 2**32)))
    prec = draw(st.integers(2, 40))
    x = tuple(PAdicInt(f.p, prec, rng.randrange(f.p**prec)) for _ in range(f.d))
    H = draw(st.integers(1, max_H))
    return DirichletInstance(f, x, tau, v, H), rng


@settings(max_examples=80, deadline=None)
@given(dirichlet_inputs(), st.integers(0, 3))
def test_verify_dirichlet_matches_rational_oracle(inputs, k):
    inst, rng = inputs
    f, p = inst.f, inst.f.p
    Hk = max(1, inst.H // p**k)
    for trial in range(12):
        a0 = rng.randrange(1, Hk + 1)
        if trial % 2:
            # aim at the target balls, so that some points pass; at s = prec the
            # comparison can fall below the precision of x
            s = rng.randrange(0, 6) if trial % 4 == 1 else inst.precision
            mod = p**s
            c = [(a0 * xi.residue + rng.randrange(-1, 2) * mod) % mod for xi in inst.x]
            c = [ci - mod if ci > mod // 2 else ci for ci in c]
            form_vals = [form(a0, c) for form in f.forms]
            umod = p ** rng.randrange(0, 6)
            tail = []
            for form, val in zip(f.forms, form_vals):
                t = val * pow(form.unit(a0), -1, umod) % umod if a0 % p else 0
                tail.append(t - umod if t > umod // 2 else t)
            a = (a0, *c, *tail)
        else:
            a = (a0, *(rng.randrange(-Hk, Hk + 1) for _ in range(f.n)))
        point = RationalPoint(a)
        assert _verdict(verify_dirichlet, inst, point, k) == _verdict(verify_oracle, inst, point, k)


def exhaustive_oracle(inst):
    f, p, prec = inst.f, inst.f.p, inst.precision
    k = 0
    while p**k <= inst.H:
        Hk = inst.H // p**k
        s_exps = [
            max(0, ball_exponent(p, [(F(p), inst.sigma_shift + k), (F(inst.H), -v)])) for v in inst.v
        ]
        u_exps = [max(0, ball_exponent(p, [(F(p), k * t), (F(inst.H), -t)])) for t in inst.tau]
        if max(s_exps) > prec:
            raise SolverError("needed congruence level exceeds the base point precision")
        for a0 in range(1, Hk + 1):
            if a0 % p == 0:
                continue
            coords = [_centered(a0 * xi.residue, p**s, Hk) for xi, s in zip(inst.x, s_exps)]
            for combo in itertools.product(*coords):
                values = f.eval_exact(tuple(F(c, a0) for c in combo))
                dep = []
                for j in range(f.m):
                    mod = p ** u_exps[j]
                    w = values[j] * a0
                    target = w.numerator * pow(w.denominator, -1, mod) % mod if mod > 1 else 0
                    dep.append(_centered(target, mod, Hk))
                for tail in itertools.product(*dep):
                    a = (a0,) + combo + tail
                    if math.gcd(*a) == 1 and verify_oracle(inst, RationalPoint(a), k):
                        return RationalPoint(a), k
        k += 1
    raise SolverError("no solution found")


@settings(max_examples=30, deadline=None)
@given(dirichlet_inputs(max_H=60))
def test_exhaustive_dirichlet_matches_rational_oracle(inputs):
    from padicapprox.manifold import _exhaustive_dirichlet

    inst, _ = inputs

    def outcome(search):
        try:
            return search(inst)
        except SolverError:
            return "raises"

    assert outcome(_exhaustive_dirichlet) == outcome(exhaustive_oracle)


def test_verify_dirichlet_precision_boundary():
    # x = 1/2 in Z_3 and a = (2, 1, .) agree to every precision; the
    # independent level at k = 0 is 6, so precision 5 cannot decide the
    # inequality and precision 6 can
    f = PolyMap(3, 1, 1, (((F(1), (2,)),),))
    for prec, expected in ((5, "raises"), (6, False), (7, False)):
        x = (embed_rational(1, 2, p=3, precision=prec),)
        inst = DirichletInstance(f, x, (F(7, 5),), (F(8, 5),), H=200)
        assert inst.levels(0)[0] == (6,)
        point = RationalPoint((2, 1, 0))
        assert _verdict(verify_dirichlet, inst, point, 0) == expected
        assert _verdict(verify_oracle, inst, point, 0) == expected
