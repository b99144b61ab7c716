"""Differential tests of the bulk trie kernels against the paths they replace.

Each fast path (coset builder, n-ary union, the one binary apply, box-count
profiles, memoized serialization, product builder) is checked against the
one-at-a-time construction or the plain recursion it replaced, kept here as the
oracle, and against brute force over residue vectors where the space is small.
"""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicapprox import approx, clopen
from padicapprox.approx import ApproxTuple, PowerLaw, ScaledPower, build_layer, partial_limsup
from padicapprox.cli import main
from padicapprox.clopen import EMPTY, FULL, MAX_DEPTH, BallSpec, ClopenSet, product_set
from padicapprox.core import Params
from padicapprox.exactcmp import ball_exponent

from oracles import (
    fraction_coordinate_residues,
    merged_range_union,
    per_call_product,
    per_layer_union,
    recursive_complement,
    recursive_difference,
    recursive_intersect,
    recursive_profile,
    recursive_union,
    rectangle_set,
    running_trie_sweep_rows,
)

# ---------------------------------------------------------------------------
# Oracles: the previous one-at-a-time and Fraction-recursive paths
# ---------------------------------------------------------------------------


def fold_insert(p, n, depth, rects):
    # the top-down oracle: insert_rectangle runs the bottom-up builder under test
    out = ClopenSet.empty(p, n, depth)
    for r in rects:
        out = out.union(rectangle_set(p, n, depth, r))
    return out


def fold_union(p, n, depth, sets):
    out = ClopenSet.empty(p, n, depth)
    for s in sets:
        out = out.union(s)
    return out


def fraction_measure(S):
    sp, memo = S._sp, {}

    def walk(a):
        if a == EMPTY:
            return Fraction(0)
        if a == FULL:
            return Fraction(1)
        if a not in memo:
            memo[a] = sum((walk(c) for c in sp._children[a]), Fraction(0)) / sp.width
        return memo[a]

    return walk(S._root)


def recursive_box_count(S, k):
    sp = S._sp

    def walk(a, k):
        if a == EMPTY:
            return 0
        if k == 0:
            return 1
        if a == FULL:
            return sp.width**k
        return sum(walk(c, k - 1) for c in sp._children[a])

    return walk(S._root, k)


def recursive_text(S):
    parts = []

    def walk(a):
        if a == EMPTY:
            parts.append("E")
        elif a == FULL:
            parts.append("F")
        else:
            parts.append("M")
            for c in S._sp._children[a]:
                walk(c)

    walk(S._root)
    return f"clopen 1 {S.p} {S.n} {S.depth}\n" + "".join(parts)


def divmod_product(factors):
    p, n = factors[0].p, len(factors)
    spn = ClopenSet.empty(p, n, 0)._sp
    sp1 = factors[0]._sp

    def build(ids):
        if any(i == EMPTY for i in ids):
            return EMPTY
        if all(i == FULL for i in ids):
            return FULL
        children = []
        for v in range(spn.width):
            digits = []
            for _ in range(n):
                v, d = divmod(v, p)
                digits.append(d)
            children.append(build(tuple(sp1._children[i][d] for i, d in zip(ids, digits))))
        return spn.node(tuple(children))

    return ClopenSet(p, n, max(f.depth for f in factors), build(tuple(f._root for f in factors)))


def brute_cover(p, n, K, rects):
    """Residue vectors mod p^K lying in some rectangle."""
    mod = p**K
    centers = [
        [(c.numerator * pow(c.denominator, -1, mod)) % mod for c in r.center] for r in rects
    ]
    return {
        x
        for x in itertools.product(range(mod), repeat=n)
        if any(
            all((xi - ci) % p**t == 0 for xi, ci, t in zip(x, cs, r.exponents))
            for cs, r in zip(centers, rects)
        )
    }


# ---------------------------------------------------------------------------
# Strategies: p in {2, 3, 5}, n in {1, 2}, spaces small enough for brute force
# ---------------------------------------------------------------------------

LEVELS = {2: 4, 3: 3, 5: 2}


@st.composite
def coset_data(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    t = draw(st.integers(0, LEVELS[p]))
    bound = p ** (t + 1)
    residues = draw(st.lists(st.integers(-bound, bound), max_size=2 * p**t))
    return p, t, residues


def rect_lists(p, n, K, min_size=0):
    unit_dens = [d for d in range(1, 8) if d % p]
    center = st.builds(Fraction, st.integers(-30, 30), st.sampled_from(unit_dens))
    rect = st.builds(
        BallSpec,
        st.tuples(*[center] * n),
        st.tuples(*[st.integers(0, K)] * n),
    )
    return st.lists(rect, min_size=min_size, max_size=8)


@st.composite
def rect_data(draw, min_size=0):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 2))
    K = LEVELS[p]
    return p, n, K, draw(rect_lists(p, n, K, min_size))


@st.composite
def algebra_operand(draw, p, n, K, complemented=True):
    """EMPTY, FULL, a rectangle union, a product of coset unions, or the complement of one."""
    kind = draw(st.sampled_from(["E", "F", "rects", "product", "complement"][: 5 if complemented else 4]))
    if kind == "E":
        return ClopenSet.empty(p, n, K)
    if kind == "F":
        return ClopenSet.full(p, n, K)
    if kind == "rects":
        return ClopenSet.from_rectangles(p, n, K, draw(rect_lists(p, n, K)))
    if kind == "complement":
        return draw(algebra_operand(p, n, K, complemented=False)).complement()
    residues = st.sets(st.integers(0, p**K - 1), max_size=8)
    return product_set([ClopenSet.from_cosets(p, K, draw(st.integers(0, K)), draw(residues)) for _ in range(n)])


# ---------------------------------------------------------------------------
# Coset builder
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(coset_data(), st.integers(0, 2))
def test_from_cosets_matches_rectangle_fold(data, extra):
    p, t, residues = data
    depth = t + extra
    got = ClopenSet.from_cosets(p, depth, t, residues)
    want = fold_insert(p, 1, depth, [BallSpec((Fraction(r),), (t,)) for r in residues])
    assert got == want and got.depth == depth
    assert got.measure() == Fraction(len({r % p**t for r in residues}), p**t)


def test_from_cosets_full_buckets_collapse():
    assert ClopenSet.from_cosets(3, 5, 4, range(3**4)) == ClopenSet.full(3, 1, 5)
    # every residue congruent to 2 mod 3^2 at level 4 is the level-2 ball around 2
    ball = ClopenSet.empty(3, 1, 5).insert_rectangle(BallSpec((Fraction(2),), (2,)))
    assert ClopenSet.from_cosets(3, 5, 4, range(2, 3**4, 9)) == ball
    assert ClopenSet.from_cosets(3, 5, 0, [7]) == ClopenSet.full(3, 1, 5)
    assert ClopenSet.from_cosets(3, 5, 3, []).is_empty()


def test_from_cosets_validates_level():
    with pytest.raises(ValueError, match="insufficient depth"):
        ClopenSet.from_cosets(3, 2, 3, [0])
    with pytest.raises(ValueError, match=">= 0"):
        ClopenSet.from_cosets(3, 2, -1, [0])
    with pytest.raises(ValueError, match="prime"):
        ClopenSet.from_cosets(4, 2, 1, [0])


# ---------------------------------------------------------------------------
# n-ary union
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(rect_data())
def test_from_rectangles_matches_insert_fold_and_brute_force(data):
    p, n, K, rects = data
    S = ClopenSet.from_rectangles(p, n, K, rects)
    assert S == fold_insert(p, n, K, rects)
    cover = brute_cover(p, n, K, rects)
    assert S.measure() == Fraction(len(cover), p ** (n * K))
    assert set(S.enumerate_cosets(K)) == cover


@settings(max_examples=80, deadline=None)
@given(rect_data(min_size=1), st.integers(1, 5), st.booleans())
def test_union_all_matches_binary_fold(data, parts, with_full):
    p, n, K, rects = data
    sets = [ClopenSet.from_rectangles(p, n, K, rects[i::parts]) for i in range(parts)]
    if with_full:
        sets.append(ClopenSet.full(p, n, K))
    got = ClopenSet.union_all(p, n, K, sets)
    assert got == fold_union(p, n, K, sets)
    if not with_full:
        assert got == ClopenSet.from_rectangles(p, n, K, rects)
    assert ClopenSet.union_all(p, n, K, sets + sets) == got


def test_union_all_edge_cases():
    assert ClopenSet.union_all(3, 2, 4, []) == ClopenSet.empty(3, 2, 4)
    S = ClopenSet.from_cosets(3, 2, 2, [1, 4])
    assert ClopenSet.union_all(3, 1, 1, [S]).depth == 2
    with pytest.raises(ValueError, match="mismatched"):
        ClopenSet.union_all(3, 2, 2, [S])


def test_union_memo_normalizes_its_keys():
    sets = [ClopenSet.from_cosets(5, 6, t, [r]) for t, r in ((1, 2), (2, 7), (3, 4), (4, 101))]
    U = ClopenSet.union_all(5, 1, 6, sets)
    sp = U._sp
    entries, nodes = len(sp._apply), len(sp._children)
    shuffled = [sets[2], sets[0], ClopenSet.empty(5, 1, 6), sets[3], sets[1], sets[0], sets[2]]
    assert ClopenSet.union_all(5, 1, 6, shuffled)._root == U._root
    assert (len(sp._apply), len(sp._children)) == (entries, nodes)
    # one memo for all set algebra: the n-ary union sits in _apply beside the binary ops
    assert not hasattr(sp, "_union_many")
    assert sp._apply[("|", *sorted(s._root for s in sets))] == U._root
    for key in sp._apply:
        assert type(key) is tuple and key[0] in ("|", "&", "-")
        ids = key[1:]
        assert len(ids) >= 2 and all(type(i) is int for i in ids)
        assert key[0] == "-" or list(ids) == sorted(ids)


def test_partial_limsup_matches_layer_fold():
    for p, n, psi, lo, hi, reduced in [
        (3, 1, ScaledPower(Fraction(1, 2), Fraction(1)), 1, 40, True),
        (2, 2, PowerLaw(Fraction(2)), 3, 14, False),
        (5, 2, ScaledPower(Fraction(3), Fraction(2)), 1, 12, True),
    ]:
        params, tup = Params(p, n), ApproxTuple.uniform(psi, n)
        depth = approx.required_depth(params, tup, lo, hi)
        layers = [build_layer(params, tup, a0, reduced, depth) for a0 in range(lo, hi + 1)]
        assert partial_limsup(params, tup, lo, hi, reduced, depth) == fold_union(p, n, depth, layers)


def test_ubiquity_fraction_matches_rectangle_path():
    params = Params(3, 1)
    alpha, M, k, depth, c1 = [Fraction(2)], 3, 2, 14, Fraction(9)
    t = max(0, ball_exponent(3, [(c1, Fraction(1)), (Fraction(M), -alpha[0] * (k + 1))]))
    acc = ClopenSet.empty(3, 1, depth)
    for a0 in range(M**k, M ** (k + 1) + 1):
        nums = approx.layer_numerators(a0, reduced=False)
        residues = fraction_coordinate_residues(3, a0, t, nums)
        acc = acc.union(fold_insert(3, 1, depth, [BallSpec((Fraction(r),), (t,)) for r in residues]))
    assert approx.ubiquity_fraction(params, alpha, M, k, depth, c1) == acc.measure()


@st.composite
def psi_1d(draw, p, lo, hi):
    kind = draw(st.sampled_from(["power", "scaled", "table"]))
    if kind == "power":
        return PowerLaw(draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)])))
    if kind == "scaled":
        c = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(5)]))
        return ScaledPower(c, draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)])))
    # values above 1 give step exponent 0; 1 gives 1
    values = st.sampled_from([Fraction(3), Fraction(1), Fraction(1, 2), Fraction(1, 9), Fraction(1, 40)])
    return approx.TableFunction(tuple((q, draw(values)) for q in range(lo, hi + 1)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 30), st.integers(0, 12), st.booleans(), st.integers(0, 2),
       st.data())
def test_range_union_matches_per_layer_oracle(p, lo, width, reduced, extra, data):
    # one-a0 ranges at width 0; most wider ranges hold some a0 divisible by p, and a
    # table psi gives t = 0 clamps and finer balls that come before a coarser one holding them
    hi = lo + width
    params = Params(p, 1)
    psi = ApproxTuple((data.draw(psi_1d(p, lo, hi)),))
    depth = approx.required_depth(params, psi, lo, hi) + extra
    layers = [(a0, approx.step_exponent(psi.components[0], a0, p)) for a0 in range(lo, hi + 1)]
    expected = per_layer_union(p, depth, layers, reduced)
    got = partial_limsup(params, psi, lo, hi, reduced, depth)
    assert got == expected and got.measure() == expected.measure() and got.depth == depth
    records = [approx._layer_record(p, a0, (t,), reduced)[0] for a0, t in layers]
    assert merged_range_union(p, depth, records) == expected
    # the ball tables of the sweep and of the plain path read what the sets read, and
    # every sweep row but the union matches the rows off a running union trie
    rows = list(approx.layer_sweep_rows(params, psi, lo, hi, reduced, depth))
    old = list(running_trie_sweep_rows(params, psi, lo, hi, reduced, depth))
    assert ["union" in row for row in rows] == [False] * width + [True]
    assert [{**row, "union": None} for row in rows] == [{**row, "union": None} for row in old]
    assert old[-1]["union"] == expected
    levels = range(depth + 1)
    for table in (rows[-1]["union"], approx._partial_union(params, psi, lo, hi, reduced, depth)):
        assert table.to_set() == expected and table.depth == depth and table.measure() == expected.measure()
        assert [table.box_count(k) for k in levels] == [expected.box_count(k) for k in levels]


@st.composite
def ball_layers(draw, p):
    """A depth and a list of (t, residues mod p^t) in any order of t, empty residue sets included."""
    depth = draw(st.integers(0, 6))
    layer = st.integers(0, depth).flatmap(
        lambda t: st.tuples(st.just(t), st.sets(st.integers(0, p**t - 1), max_size=2 * p)))
    return depth, draw(st.lists(layer, max_size=10))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_ball_table_matches_merged_and_running_unions(p, data):
    depth, layers = data.draw(ball_layers(p))
    table = approx._BallTable(p, depth)
    acc = ClopenSet.empty(p, 1, depth)
    for t, residues in layers:
        table.add(t, residues)
        acc = acc.union(ClopenSet.from_cosets(p, depth, t, residues))
        assert table.measure() == acc.measure()
    expected = merged_range_union(p, depth, layers)
    assert table.to_set() == expected == acc
    assert [table.box_count(k) for k in range(depth + 1)] == [expected.box_count(k) for k in range(depth + 1)]
    # the table keeps only maximal balls, and its count is theirs
    balls = [(t, r) for t, inner in table.balls.items() for r in inner]
    assert all(r % p**t != s for t, s in balls for u, r in balls if t < u)
    assert table.count == sum(p ** (depth - t) for t, _ in balls)
    for k in (-1, depth + 1):
        with pytest.raises(ValueError, match=rf"^level {k} outside \[0, depth={depth}\]$"):
            table.box_count(k)
    with pytest.raises(ValueError, match=f"^insufficient depth: boxes need level {depth + 1}, depth is {depth}$"):
        table.add(depth + 1, [0])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]),
       st.sampled_from([2, 3]), st.integers(0, 2), st.sampled_from([Fraction(1), Fraction(2), Fraction(9)]),
       st.integers(0, 2), st.one_of(st.none(), st.integers(0, 24)))
def test_ubiquity_fraction_matches_per_layer_oracle(p, alpha, M, k, c1, extra, centre):
    t = max(0, ball_exponent(p, [(c1, Fraction(1)), (Fraction(M), -alpha * (k + 1))]))
    depth = max(t, 2) + extra
    ball = None if centre is None else ClopenSet.from_cosets(p, depth, 2, [centre])
    acc = per_layer_union(p, depth, [(a0, t) for a0 in range(M**k, M ** (k + 1) + 1)], False)
    expected = acc.measure() if ball is None else acc.intersect(ball).measure() / ball.measure()
    assert approx.ubiquity_fraction(Params(p, 1), [alpha], M, k, depth, c1, ball) == expected


def test_rebuilding_an_interned_set_appends_no_node():
    rects = [BallSpec((Fraction(1, 2), Fraction(-7)), (1, 4)), BallSpec((Fraction(5), Fraction(2, 5)), (3, 2))]
    for sp, build in [
        (clopen._space(3, 1), lambda: ClopenSet.from_cosets(3, 6, 5, [1, 7, 40, 121, 200])),
        # unequal t: the levels below the smaller t_i take the wildcard fill
        (clopen._space(3, 2), lambda: ClopenSet.from_rectangles(3, 2, 5, rects)),
        (clopen._space(5, 2), lambda: ClopenSet.from_codes(5, 2, 4, {(2, 4): [3, 77, 401], (1, 1): [6]})),
    ]:
        first = build()
        nodes = len(sp._children)
        again = build()
        assert again._root == first._root and len(sp._children) == nodes


# ---------------------------------------------------------------------------
# Binary set algebra
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_set_algebra_matches_separate_recursions(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 2))
    K = LEVELS[p]
    A = data.draw(algebra_operand(p, n, K))
    B = A if data.draw(st.booleans()) else data.draw(algebra_operand(p, n, K))
    for X, Y in ((A, B), (B, A)):
        assert X.union(Y) == recursive_union(X, Y)
        assert X.intersect(Y) == recursive_intersect(X, Y)
        assert X.difference(Y) == recursive_difference(X, Y)
        assert X.complement() == recursive_complement(X)


def test_difference_interns_only_nodes_of_its_result():
    params, psi = Params(3, 1), ApproxTuple.uniform(PowerLaw(Fraction(5, 2)), 1)
    A = partial_limsup(params, psi, 60, 100, True, 14)
    B = partial_limsup(params, psi, 80, 120, True, 14)
    kids = A._sp._children
    before = len(kids)
    D = A.difference(B)
    reached, level = {D._root}, {D._root}
    while level:
        level = set().union(*map(kids.__getitem__, level)) - reached
        reached |= level
    assert set(range(before, len(kids))) <= reached  # no complement of B was interned
    assert D.measure() == A.measure() - A.intersect(B).measure()
    assert A.complement() == ClopenSet.full(3, 1, 14).difference(A)


# ---------------------------------------------------------------------------
# Box-count profiles
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(rect_data(), st.integers(0, 2))
def test_profile_measure_and_box_counts_match_recursion(data, extra):
    p, n, K, rects = data
    S = ClopenSet.from_rectangles(p, n, K + extra, rects)
    assert S.measure() == fraction_measure(S)
    assert S.measure() == Fraction(len(brute_cover(p, n, K, rects)), p ** (n * K))
    for k in range(S.depth + 1):
        assert S.box_count(k) == recursive_box_count(S, k)
    C = S.complement()
    assert C.measure() == fraction_measure(C) == 1 - S.measure()


@settings(max_examples=100, deadline=None)
@given(rect_data(), st.integers(0, 2))
def test_every_profile_matches_recursion_and_only_asked_roots_are_memoized(data, extra):
    p, n, K, rects = data
    S = ClopenSet.from_rectangles(p, n, K + extra, rects)
    sp = S._sp
    sets = (S, S.complement(), S.union(ClopenSet.from_rectangles(p, n, K + extra, rects[:1]).complement()))
    roots, before = {T._root for T in sets}, set(sp._profiles)
    reached, level = set(roots), set(roots)
    while level:
        level = {c for b in level for c in sp._children[b]} - reached
        reached |= level
    for T in sets:
        assert sp.profile(T._root) == recursive_profile(T, T._root)
    # the walks memoize the roots they were asked about and no node below them
    assert roots <= set(sp._profiles) and set(sp._profiles) - before <= roots
    for b in reached:
        assert sp.profile(b) == recursive_profile(S, b)


def test_profile_on_layers_with_shared_subtrees():
    params, psi = Params(3, 2), ApproxTuple.uniform(PowerLaw(Fraction(2)), 2)
    depth = approx.required_depth(params, psi, 1, 20)
    S = partial_limsup(params, psi, 1, 20, False, depth)
    assert S.measure() == fraction_measure(S)
    assert [S.box_count(k) for k in range(depth + 1)] == [
        recursive_box_count(S, k) for k in range(depth + 1)
    ]


# ---------------------------------------------------------------------------
# Product builder and serialization
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.lists(st.tuples(st.integers(0, 2), st.sets(st.integers(0, 24))),
                                           min_size=2, max_size=3))
def test_product_set_matches_divmod_builder(p, coords):
    factors = [ClopenSet.from_cosets(p, 2, t, residues) for t, residues in coords]
    prod = product_set(factors)
    assert prod == divmod_product(factors)
    want = Fraction(1)
    for f in factors:
        want *= f.measure()
    assert prod.measure() == want


def factor_spec():
    # EMPTY, FULL or a union of cosets at level t
    return st.one_of(st.sampled_from(["E", "F"]), st.tuples(st.integers(0, 3), st.sets(st.integers(0, 40))))


def build_factor(p, spec):
    if spec == "E":
        return ClopenSet.empty(p, 1, 3)
    if spec == "F":
        return ClopenSet.full(p, 1, 3)
    t, residues = spec
    return ClopenSet.from_cosets(p, 3, t, residues)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_product_memo_matches_per_call_builder(p, data):
    n = data.draw(st.integers(2, 3))
    pool = data.draw(st.lists(factor_spec(), min_size=1, max_size=3))
    specs = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    for _ in range(2):  # the same list built twice: the second call is answered by the memo
        factors = [build_factor(p, spec) for spec in specs]
        prod = product_set(factors)
        assert prod._root == per_call_product(factors)._root
        assert product_set(factors)._root == prod._root


def test_product_set_refuses_factors_of_a_replaced_space():
    a, b = ClopenSet.from_cosets(3, 4, 2, [1]), ClopenSet.from_cosets(3, 4, 1, [2])
    ClopenSet.from_cosets(3, 6, 6, range(0, 729, 7))  # enough (3, 1) nodes that fresh ids collide
    assert product_set([a, b]).measure() == Fraction(1, 27)
    saved = clopen._SPACES.pop((3, 1))
    try:
        c = ClopenSet.from_cosets(3, 4, 3, [5, 7, 8])
        with pytest.raises(ValueError, match="replaced"):
            product_set([a, b])
        # the (3, 2) memo, keyed by ids of the saved space, must not answer for the new one
        assert product_set([c, c]) == per_call_product([c, c])
        assert product_set([c, c]).measure() == c.measure() ** 2
    finally:
        clopen._SPACES[(3, 1)] = saved
    # nor may the entries made with the new space answer for the saved one
    d = ClopenSet(3, 1, 6, c._root)
    assert product_set([d, d]) == per_call_product([d, d])
    assert product_set([a, b]).measure() == Fraction(1, 27)


def test_set_ops_refuse_sets_of_a_replaced_space():
    saved = clopen._SPACES.pop((3, 1), None)  # None when no earlier test made the space
    try:
        a = ClopenSet.from_cosets(3, 4, 2, [1])  # in a fresh space, so its ids are small
        clopen._SPACES.pop((3, 1))
        c = ClopenSet.from_cosets(3, 4, 2, [5])
        b = ClopenSet.from_cosets(3, 4, 3, [5, 7, 8])  # disjoint from a, measure 1/9
        assert c._root == a._root and a != c  # equal ids of two spaces are two sets
        ops = [
            lambda: a.union(b),
            lambda: b.union(a),
            lambda: b.intersect(a),
            lambda: a.difference(b),
            a.complement,
            lambda: ClopenSet.union_all(3, 1, 4, [b, a]),
        ]
        for op in ops:
            with pytest.raises(ValueError, match=r"replaced \(3, 1\) space"):
                op()
        assert a.measure() == b.measure() == Fraction(1, 9)  # a set's own reads still work
        assert b.union(ClopenSet.from_cosets(3, 4, 2, [1])).measure() == Fraction(2, 9)
    finally:
        clopen._SPACES.pop((3, 1), None)
        if saved is not None:
            clopen._SPACES[(3, 1)] = saved


@settings(max_examples=60, deadline=None)
@given(rect_data())
def test_to_text_matches_recursive_walk(data):
    p, n, K, rects = data
    S = ClopenSet.from_rectangles(p, n, K, rects)
    text = S.to_text()
    assert text == recursive_text(S)
    assert ClopenSet.from_text(text) == S


def test_to_text_bytes_on_heavily_shared_sets():
    params, psi = Params(2, 2), ApproxTuple((PowerLaw(Fraction(2)), ScaledPower(Fraction(3), Fraction(2))))
    depth = approx.required_depth(params, psi, 1, 24)
    S = partial_limsup(params, psi, 1, 24, True, depth)
    texts = [S.to_text(), S.complement().to_text(), build_layer(params, psi, 17, True, depth).to_text()]
    for text, T in zip(texts, [S, S.complement(), build_layer(params, psi, 17, True, depth)]):
        assert text == recursive_text(T)
        assert ClopenSet.from_text(text).to_text() == text
    # a product of identical factors shares every subtree of one coordinate
    U = ClopenSet.from_cosets(3, 4, 4, range(0, 81, 2))
    P = product_set([U, U])
    assert P.to_text() == recursive_text(P) == P.to_text()


# ---------------------------------------------------------------------------
# Parser bounds and the depth limit
# ---------------------------------------------------------------------------


MALFORMED_TEXTS = [
    ("clopen 1 3 1 4\nMFE", "truncated"),
    ("clopen 1 3 1 4\n", "truncated"),
    ("clopen 1 3 1 4", "truncated"),
    ("", "header"),
    ("clopen 1 3 1\nF", "header"),
    ("clopen 2 3 1 4\nF", "header"),
    ("clopen 1 3 1 4\nFF", "trailing"),
    ("clopen 1 3 1 4\nMFEX", "bad node tag"),
    ("clopen 1 3 1 1\nMMFFFEE", "deeper than its depth"),
    ("clopen 1 3 1 x\nF", "invalid literal"),
    (f"clopen 1 3 1 {MAX_DEPTH + 1}\nF", f"MAX_DEPTH={MAX_DEPTH}"),
    ("clopen 1 3 40 4\nF", "MAX_WIDTH"),
]


@pytest.mark.parametrize("text,message", MALFORMED_TEXTS)
def test_from_text_rejects_malformed_input(text, message):
    with pytest.raises(ValueError, match=message):
        ClopenSet.from_text(text)


@pytest.mark.parametrize("body", ["MFE", "", "MFEEX"])
def test_boxdim_cli_rejects_malformed_set_file(tmp_path, capsys, body):
    path = tmp_path / "bad.clopen"
    path.write_text("clopen 1 3 1 4\n" + body)
    code = main(["boxdim", "--p", "3", "--set", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["error"]["kind"] == "invalid-input"


def test_depth_limit_boundary():
    d = MAX_DEPTH
    deep = [0, 2 ** (d - 1), 2 ** (d - 2)]
    ones = [ClopenSet.from_cosets(2, d, d, [r]) for r in deep]
    A = ClopenSet.union_all(2, 1, d, ones)
    assert A == fold_union(2, 1, d, ones)
    assert A.measure() == Fraction(3, 2**d)
    assert A.box_count(d) == 3 and A.box_count(d - 1) == 2
    assert A.complement().complement() == A
    assert A.difference(ones[0]).intersect(ones[1]) == ones[1]
    assert ClopenSet.from_text(A.to_text()) == A
    assert A.enumerate_cosets(d) == [(r,) for r in sorted(deep)]
    P = product_set([A, A.complement()])
    assert P.measure() == A.measure() * (1 - A.measure())
    rects = [BallSpec((Fraction(r), Fraction(r)), (d, d)) for r in deep]
    R = ClopenSet.from_rectangles(2, 2, d, rects)
    assert R.box_count(d) == 3 and ClopenSet.from_text(R.to_text()) == R
    for build in (
        lambda: ClopenSet.empty(2, 1, d + 1),
        lambda: ClopenSet.from_cosets(2, d + 1, d + 1, [0]),
        lambda: ClopenSet.from_rectangles(2, 1, d + 1, [BallSpec((Fraction(0),), (d + 1,))]),
        lambda: ClopenSet.from_text(f"clopen 1 2 1 {d + 1}\nF"),
    ):
        with pytest.raises(ValueError, match=f"exceeds the trie depth limit MAX_DEPTH={d}"):
            build()


# ---------------------------------------------------------------------------
# partial-limsup --csv builds each layer once
# ---------------------------------------------------------------------------


def test_partial_limsup_csv_reuses_sweep_union(tmp_path, capsys, monkeypatch):
    # every layer of either path is built from one (t_i, residues) record, whose
    # second argument is a0: one record per a0 means one layer per a0
    calls = []
    real = approx._layer_record

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(approx, "_layer_record", counting)
    argv = ["partial-limsup", "--p", "3", "--n", "2", "--psi", "q^-2", "--from", "2", "--to", "9",
            "--boxes", "1", "2", "3"]
    outputs = []
    for extra in ([], ["--csv", str(tmp_path / "sweep.csv")]):
        calls.clear()
        set_path = tmp_path / f"set{len(extra)}.clopen"
        assert main(argv + extra + ["--save-set", str(set_path)]) == 0
        outputs.append((capsys.readouterr().out, set_path.read_bytes()))
        assert sorted(calls) == list(range(2, 10))
    assert outputs[0] == outputs[1]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.sampled_from([1, 2]), st.integers(1, 20), st.integers(0, 8), st.booleans(),
       st.sampled_from([PowerLaw(Fraction(3, 2)), PowerLaw(Fraction(2)), ScaledPower(Fraction(1, 2), Fraction(1)),
                        ScaledPower(Fraction(3), Fraction(2))]))
def test_sweep_layer_measure_is_read_from_the_record(p, n, lo, width, reduced, psi):
    params, tup = Params(p, n), ApproxTuple.uniform(psi, n)
    hi = lo + width
    depth = approx.required_depth(params, tup, lo, hi)
    space = clopen._space(p, n)
    before, nodes = set(space._profiles), len(space._children)
    rows = list(approx.layer_sweep_rows(params, tup, lo, hi, reduced, depth))
    new = set(space._profiles) - before
    # only the last row carries the union; an n = 1 sweep builds no trie, and every profile an
    # n = 2 sweep memoizes is a running union's, never a layer root's alone
    assert ["union" in row for row in rows] == [False] * width + [True]
    if n == 1:
        assert (new, len(space._children)) == (set(), nodes)
    else:
        assert new <= {partial_limsup(params, tup, lo, a0, reduced, depth)._root for a0 in range(lo, hi + 1)}
    for row in rows:
        a0 = row["a0"]
        layer = build_layer(params, tup, a0, reduced, depth)
        assert row["layer_measure"] == approx.layer_measure(params, tup, a0, reduced) == layer.measure()
