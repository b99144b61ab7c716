"""Differential tests of the integer power-product kernel and the bottom-up box builder.

`exactcmp.cmp_powprod`, `floor_log_powprod` and `ball_exponent` reduce a power
product to integers (s, N, D) with prod = (N/D)^(1/s); the Fraction kernel they
replaced is the oracle. `ClopenSet.from_rectangles` / `from_codes` build every
group of boxes with one exponent vector bottom-up from interleaved digit codes;
the top-down one-rectangle builder they replaced is the oracle.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicapprox.clopen import BallSpec, ClopenSet, box_code
from padicapprox.exactcmp import ball_exponent, cmp_powprod, floor_log_powprod

from oracles import (
    fraction_ball_exponent,
    fraction_cmp_powprod,
    fraction_floor_log_powprod,
    rectangle_node,
    rectangles_oracle,
)

F = Fraction
PRIMES = st.sampled_from([2, 3, 5, 7])

# ---------------------------------------------------------------------------
# Power-product kernel
# ---------------------------------------------------------------------------

int_bases = st.integers(1, 60)
fraction_bases = st.builds(F, st.integers(1, 60), st.integers(1, 60))  # often below 1
exponents = st.one_of(
    st.integers(-6, 6),
    st.builds(F, st.integers(-12, 12), st.integers(1, 6)),
    st.just(0),
    st.just(F(0)),
)


@st.composite
def boundary_factor(draw, p):
    """(p^(c*u), b/c) with value p^(u*b): an exact power of p, as an int or a Fraction."""
    c = draw(st.integers(1, 3))
    u = draw(st.integers(-3, 3))
    base = F(p) ** (c * u)
    if base.denominator == 1 and draw(st.booleans()):
        base = int(base)
    return base, F(draw(st.integers(-4, 4)), c)


@st.composite
def power_products(draw, p):
    factors = draw(st.lists(st.tuples(st.one_of(int_bases, fraction_bases), exponents), max_size=3))
    if draw(st.booleans()):
        # an exact power of p, plus a factor and its inverse: the product sits on a boundary
        factors.append(draw(boundary_factor(p)))
        if factors[:-1] and draw(st.booleans()):
            base, exp = factors[0]
            factors.append((base, -exp))
    return draw(st.permutations(factors))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_kernel_matches_fraction_oracle(data):
    p = data.draw(PRIMES)
    lhs = data.draw(power_products(p))
    rhs = data.draw(power_products(p))
    assert cmp_powprod(lhs, rhs) == fraction_cmp_powprod(lhs, rhs)
    assert floor_log_powprod(p, lhs) == fraction_floor_log_powprod(p, lhs)
    assert ball_exponent(p, lhs) == fraction_ball_exponent(p, lhs)
    # a power of p against the product: the comparisons floor_log_powprod makes
    e = data.draw(st.integers(-40, 40))
    assert cmp_powprod([(p, e)], lhs) == fraction_cmp_powprod([(p, e)], lhs)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("u", [-3, -1, 0, 1, 4])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_kernel_at_exact_powers(p, u, c):
    # (p^(c*u))^(b/c) = p^(u*b) exactly: the <= of the floor and the strict
    # radius of the ball are both decided on the boundary
    for b in range(-3, 4):
        factors = [(F(p) ** (c * u), F(b, c))]
        assert floor_log_powprod(p, factors) == u * b
        assert ball_exponent(p, factors) == 1 - u * b
        assert cmp_powprod(factors, [(p, u * b)]) == 0
        assert cmp_powprod(factors, [(p, u * b), (F(p + 1, p), F(1, 7))]) == -1


def test_kernel_named_boundaries():
    assert cmp_powprod([(9, F(3, 2))], [(3, 3)]) == 0
    assert cmp_powprod([(F(1, 9), F(3, 2))], [(3, -3)]) == 0
    assert cmp_powprod([(F(1, 9), F(-3, 2))], [(27, 1)]) == 0
    assert floor_log_powprod(3, [(9, F(3, 2))]) == 3
    assert floor_log_powprod(3, [(9, F(3, 2)), (F(26, 27), 1)]) == 2
    assert floor_log_powprod(3, [(F(1, 9), F(3, 2))]) == -3
    assert floor_log_powprod(2, [(F(1, 2), 5)]) == -5
    assert floor_log_powprod(2, [(3, -2)]) == -4  # 1/9 lies in [2^-4, 2^-3)
    # radius 3^-3 exactly: {|x| < 3^-3} = {|x| <= 3^-4}
    assert ball_exponent(3, [(9, F(-3, 2))]) == 4
    assert ball_exponent(3, [(F(1, 9), F(3, 2))]) == 4
    assert ball_exponent(3, [(10, F(-3, 2))]) == 4
    assert ball_exponent(3, [(8, F(-3, 2))]) == 3
    assert ball_exponent(2, []) == 1


@pytest.mark.parametrize("base", [0, -3, F(0), F(-1, 2)])
@pytest.mark.parametrize("exp", [0, 1, F(-3, 2)])
def test_kernel_rejects_non_positive_bases(base, exp):
    for call in (
        lambda: cmp_powprod([(base, exp)], [(2, 1)]),
        lambda: cmp_powprod([(2, 1)], [(base, exp)]),
        lambda: floor_log_powprod(3, [(base, exp)]),
        lambda: ball_exponent(3, [(5, 1), (base, exp)]),
    ):
        with pytest.raises(ValueError, match="bases must be positive"):
            call()


def test_kernel_builds_no_fraction(monkeypatch):
    built = []
    make = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return make(cls, *args, **kwargs)

    factors = [(F(7, 3), F(-5, 2)), (12, F(2, 3)), (F(1, 4), -2)]
    want = (floor_log_powprod(5, factors), ball_exponent(5, factors), cmp_powprod(factors, [(5, 1)]))
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    got = (floor_log_powprod(5, factors), ball_exponent(5, factors), cmp_powprod(factors, [(5, 1)]))
    assert built == []
    assert F(1, 2) + F(1, 3) == F(5, 6) and built  # the counter sees Fraction arithmetic
    monkeypatch.undo()
    assert got == want


def test_kernel_at_large_sizes():
    huge = [(F(3**400 + 1, 2**300), F(7, 3)), (5, F(-200, 7))]
    assert floor_log_powprod(2, huge) == fraction_floor_log_powprod(2, huge)
    assert ball_exponent(7, huge) == fraction_ball_exponent(7, huge)


# ---------------------------------------------------------------------------
# Bottom-up box builder
# ---------------------------------------------------------------------------

LEVELS = {1: {2: 6, 3: 5, 5: 3}, 2: {2: 5, 3: 3, 5: 2}, 3: {2: 3, 3: 2, 5: 1}}


@st.composite
def rectangle_lists(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    K = LEVELS[n][p]
    unit_dens = [d for d in range(1, 8) if d % p]
    bound = 3 * p**K  # residues negative and beyond p^t
    center = st.one_of(
        st.integers(-bound, bound),
        st.builds(F, st.integers(-bound, bound), st.sampled_from(unit_dens)),
    )
    rect = st.builds(
        BallSpec,
        st.tuples(*[center.map(F)] * n),
        st.tuples(*[st.integers(0, K)] * n),
    )
    pool = draw(st.lists(rect, max_size=6))
    # single, duplicate and empty lists all come out of sampling the pool with repeats
    rects = draw(st.lists(st.sampled_from(pool), max_size=8)) if pool else []
    return p, n, K, rects


def brute_cover(p, n, K, rects):
    """Level-K residue vectors in the union, by congruence tests."""
    out = set()
    for point in itertools.product(range(p**K), repeat=n):
        for rect in rects:
            if all(
                (x * c.denominator - c.numerator) % p**t == 0
                for x, c, t in zip(point, rect.center, rect.exponents)
            ):
                out.add(point)
                break
    return out


@settings(max_examples=250, deadline=None)
@given(rectangle_lists(), st.integers(0, 1))
def test_from_rectangles_matches_top_down_oracle(data, extra):
    p, n, K, rects = data
    depth = K + extra
    got = ClopenSet.from_rectangles(p, n, depth, rects)
    want = rectangles_oracle(p, n, depth, rects)
    assert got == want
    assert got.to_text() == want.to_text()
    assert got.depth == depth
    if p**(n * K) <= 4096:
        assert set(got.enumerate_cosets(K)) == brute_cover(p, n, K, rects)
    if rects:
        # insert_rectangle is a union with the one-rectangle build
        grown = ClopenSet.from_rectangles(p, n, depth, rects[1:]).insert_rectangle(rects[0])
        assert grown == got


@settings(max_examples=150, deadline=None)
@given(rectangle_lists())
def test_from_codes_groups_by_exponent_vector(data):
    p, n, K, rects = data
    groups = {}
    for rect in rects:
        residues = [c.numerator * pow(c.denominator, -1, p**t) for c, t in zip(rect.center, rect.exponents)]
        groups.setdefault(rect.exponents, []).append(box_code(p, residues, rect.exponents))
    got = ClopenSet.from_codes(p, n, K, groups)
    assert got == rectangles_oracle(p, n, K, rects)
    # one group per rectangle builds the same set
    single = [ClopenSet.from_codes(p, n, K, {t: codes}) for t, codes in groups.items()]
    assert ClopenSet.union_all(p, n, K, single) == got


VECTORS = [(0, 0), (3, 0), (0, 2), (1, 3), (3, 1), (2, 2), (0, 1, 2), (2, 0, 1), (3, 3, 0)]


@pytest.mark.parametrize(
    "p, t", [(p, t) for p in (2, 3, 5) for t in VECTORS if p ** (len(t) * max(t)) <= 5**4]
)
def test_single_boxes_match_top_down_oracle(p, t):
    # every residue vector of one exponent vector, one box each: a wildcard
    # slot on the wrong coordinate or a reversed interleave changes some box
    n = len(t)
    depth = max(t)
    for res in itertools.product(*[range(p**ti) for ti in t]):
        rect = BallSpec(tuple(F(r) for r in res), t)
        got = ClopenSet.from_rectangles(p, n, depth, [rect])
        assert got._root == rectangle_node(p, n, depth, rect), res


def test_box_code_interleaves_digits():
    # base-9 digit j of the code is digit j of r_0 plus 3 * digit j of r_1
    r0, r1 = 2 + 1 * 3 + 0 * 9, 1 + 2 * 3 + 2 * 9
    assert box_code(3, [r0, r1], [3, 3]) == (2 + 3 * 1) + (1 + 3 * 2) * 9 + (0 + 3 * 2) * 81
    # a coordinate past its exponent contributes 0: r_1 is cut to one digit
    assert box_code(3, [r0, r1], [3, 1]) == (2 + 3 * 1) + 1 * 9 + 0 * 81
    assert box_code(3, [-1], [4]) == 80
    assert box_code(2, [5, -1, 6], [3, 2, 0]) == (1 + 2) + (0 + 2) * 8 + 1 * 64


def test_from_codes_validates_groups():
    with pytest.raises(ValueError, match="insufficient depth"):
        ClopenSet.from_codes(3, 2, 2, {(3, 1): [0]})
    with pytest.raises(ValueError, match="entries"):
        ClopenSet.from_codes(3, 2, 4, {(1,): [0]})
    with pytest.raises(ValueError, match="prime"):
        ClopenSet.from_codes(4, 1, 2, {(1,): [0]})
    assert ClopenSet.from_codes(3, 2, 4, {}).is_empty()
    assert ClopenSet.from_codes(3, 2, 4, {(0, 0): [0]}) == ClopenSet.full(3, 2, 4)
    assert ClopenSet.from_codes(3, 2, 4, {(2, 1): []}).is_empty()
