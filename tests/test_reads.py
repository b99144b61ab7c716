"""Differential tests of the clopen read paths against the walks they replaced.

The flat `contains_residue` descent, the level-synchronous `enumerate_cosets`,
the `from_text` parser and one-probe `node()` interning are checked against
the previous per-coordinate descent, recursive coset collection,
per-character parser and collapse-first interning, kept here as oracles.
For n = 1 both walks read the set as integer residues: `contains_residue`
takes one floor digit per level and `enumerate_cosets` carries int
representatives; the same oracles check them, on negative and huge
coordinates too, and the row-read counts and FULL expansions are pinned for
n = 1 and n = 2. The descent also stops where no FULL node is within the
levels left; its shallowest-FULL column is checked against a recursion over
the node table while probes interleave with builds and space replacements.
Sets range over p in {2, 3, 5}, n in {1, 2, 3} (width at most 125) and depth
at most 8.
"""

import random
import sys
import tracemalloc
from contextlib import ExitStack, contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicapprox import clopen
from padicapprox.approx import ApproxTuple, PowerLaw, ScaledPower, partial_limsup
from padicapprox.clopen import EMPTY, FULL, BallSpec, ClopenSet, product_set
from padicapprox.core import Params
from test_bulk import MALFORMED_TEXTS

# ---------------------------------------------------------------------------
# Oracles: the previous read paths
# ---------------------------------------------------------------------------


class OracleSpace:
    """Collapse-first interning: uniform EMPTY/FULL tuples are tested before the lookup."""

    def __init__(self, width):
        self.width = width
        self.children = [None, None]
        self.intern = {}

    def node(self, children):
        first = children[0]
        if first in (EMPTY, FULL) and all(c == first for c in children):
            return first
        nid = self.intern.get(children)
        if nid is None:
            nid = len(self.children)
            self.children.append(children)
            self.intern[children] = nid
        return nid


def old_children(sp, nid):
    if nid == EMPTY:
        return (EMPTY,) * sp.width
    if nid == FULL:
        return (FULL,) * sp.width
    return sp._children[nid]


def old_contains_residue(S, point, level):
    node, p = S._root, S.p
    coords = list(point)
    for _ in range(level):
        if node == FULL:
            return True
        if node == EMPTY:
            return False
        v = 0
        for i in range(S.n):
            coords[i], d = coords[i] // p, coords[i] % p
            v += d * p**i
        node = old_children(S._sp, node)[v]
    return node == FULL


def shallowest_full(sp):
    """Per node id of space sp, the least level below it holding a FULL node, by recursion."""
    memo = {EMPTY: clopen.MAX_DEPTH + 1, FULL: 0}

    def reach(a):
        if a not in memo:
            memo[a] = 1 + min(map(reach, sp._children[a]))
        return memo[a]

    return [reach(a) for a in range(len(sp._children))]


def old_enumerate_cosets(S, k):
    out = []

    def collect(node, level, acc):
        if node == EMPTY:
            return
        if level == k:
            out.append(acc)
            return
        scale = S.p**level
        for v, child in enumerate(old_children(S._sp, node)):
            if child == EMPTY:
                continue
            nxt = list(acc)
            rem = v
            for i in range(S.n):
                rem, d = divmod(rem, S.p)
                nxt[i] += d * scale
            collect(child, level + 1, tuple(nxt))

    collect(S._root, 0, (0,) * S.n)
    return sorted(out)


def old_from_text(text):
    """Per-character parse into a fresh OracleSpace; returns (space, root id)."""
    header, _, body = text.partition("\n")
    fields = header.split()
    if len(fields) != 5 or fields[:2] != ["clopen", "1"]:
        raise ValueError("unrecognized clopen serialization header")
    p, n, depth = (int(f) for f in fields[2:])
    clopen._check_depth(depth)
    sp = OracleSpace(clopen._space(p, n).width)
    stack = []
    for pos, ch in enumerate(body):
        if ch == "M":
            if len(stack) >= depth:
                raise ValueError(f"clopen body nests deeper than its depth {depth}")
            stack.append([])
            continue
        if ch == "E":
            nid = EMPTY
        elif ch == "F":
            nid = FULL
        else:
            raise ValueError(f"bad node tag {ch!r}")
        while stack:
            kids = stack[-1]
            kids.append(nid)
            if len(kids) < sp.width:
                break
            stack.pop()
            nid = sp.node(tuple(kids))
        else:
            if pos + 1 != len(body):
                raise ValueError("trailing data in clopen serialization")
            return sp, nid
    raise ValueError("truncated clopen serialization")


@contextmanager
def fresh_space(p, n):
    """Swap in an empty (p, n) space, so node ids start at 2 as in a new process."""
    key = (p, n)
    saved = clopen._SPACES.pop(key, None)
    try:
        yield clopen._space(p, n)
    finally:
        clopen._SPACES.pop(key, None)
        if saved is not None:
            clopen._SPACES[key] = saved


def raised(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def read_sets(draw):
    """Sets from rectangles, cosets, products, complements and the EMPTY/FULL roots."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["rectangles", "cosets", "product", "empty", "full"]))
    n = 1 if kind == "cosets" else draw(st.integers(1, 3))
    depth = draw(st.integers(0, 8))

    def coset_factor():
        t = draw(st.integers(0, depth))
        bound = p ** (t + 1)
        return ClopenSet.from_cosets(p, depth, t, draw(st.lists(st.integers(-bound, bound), max_size=5)))

    if kind == "rectangles":
        center = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([d for d in range(1, 8) if d % p]))
        rect = st.builds(BallSpec, st.tuples(*[center] * n), st.tuples(*[st.integers(0, depth)] * n))
        S = ClopenSet.from_rectangles(p, n, depth, draw(st.lists(rect, max_size=6)))
    elif kind == "cosets":
        S = coset_factor()
    elif kind == "product":
        S = product_set([coset_factor() for _ in range(n)])
    else:
        S = ClopenSet.empty(p, n, depth) if kind == "empty" else ClopenSet.full(p, n, depth)
    return S.complement() if draw(st.booleans()) else S


COSET_LIMIT = 3000
# The text is a preorder walk of the expanded tree, so shared subtrees are
# written once per occurrence: a product of three p = 5 coset sets at depth 7
# has a body far larger than memory.
TEXT_LIMIT = 200_000


def old_text(S):
    """The body of S.to_text() by the recursive preorder walk, one call per occurrence."""
    kids = S._sp._children

    def walk(a):
        return "E" if a == EMPTY else "F" if a == FULL else "M" + "".join(map(walk, kids[a]))

    return walk(S._root)


def text_length(S):
    """Length of the body of S.to_text(), counted over the shared node table."""
    kids, memo = S._sp._children, {EMPTY: 1, FULL: 1}

    def length(a):
        if a not in memo:
            memo[a] = 1 + sum(length(c) for c in kids[a])
        return memo[a]

    return length(S._root)


# ---------------------------------------------------------------------------
# contains_residue
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(read_sets(), st.data())
def test_contains_residue_matches_per_coordinate_descent(S, data):
    big = S.p ** (S.depth + 3)
    coord = st.one_of(st.integers(-big, big), st.integers(-(10**40), 10**40))
    probes = data.draw(st.lists(
        st.tuples(st.tuples(*[coord] * S.n), st.integers(0, S.depth + 2)), min_size=1, max_size=40))
    for point, level in probes:
        assert S.contains_residue(point, level) == old_contains_residue(S, point, level)


@settings(max_examples=60, deadline=None)
@given(read_sets(), st.data())
def test_contains_residue_agrees_with_enumerated_cosets(S, data):
    # a coset lies in the set iff its level-depth subcosets are all in the set
    # (a level-depth coset meets the set only if it lies in it)
    k = data.draw(st.integers(0, S.depth))
    if S.p ** (S.n * (S.depth - k)) > COSET_LIMIT or S.box_count(S.depth) > COSET_LIMIT:
        return
    finest = set(S.enumerate_cosets(S.depth))
    top, step = S.p**S.depth, S.p**k
    point = data.draw(st.tuples(*[st.integers(0, step - 1)] * S.n))
    subcosets = [()]
    for c in point:
        subcosets = [s + (r,) for s in subcosets for r in range(c, top, step)]
    assert S.contains_residue(point, k) == all(s in finest for s in subcosets)


def test_contains_residue_input_contract():
    S = ClopenSet.from_rectangles(3, 2, 3, [BallSpec((Fraction(1), Fraction(2)), (1, 2))])
    with pytest.raises(ValueError, match="point dimension 1 != n=2"):
        S.contains_residue((1,), 2)
    with pytest.raises(ValueError, match="point dimension 3 != n=2"):
        S.contains_residue((1, 2, 3), 2)
    with pytest.raises(ValueError, match="level -1 must be >= 0"):
        S.contains_residue((1, 2), -1)
    # levels past the depth ask about finer cosets
    assert S.contains_residue((1 + 3**5, 2 - 9 * 3**4), 3**4)
    assert not S.contains_residue((0, 2), 7)
    assert not S.contains_residue((1, 2), 0) and ClopenSet.full(3, 2, 3).contains_residue((-5, 7), 0)
    assert S.contains_residue((-2, 11), 2) and not S.contains_residue((-2, 11), 1)


class CountingRows(list):
    """A child table that counts the rows read from it."""

    reads = 0

    def __getitem__(self, nid):
        self.reads += 1
        return super().__getitem__(nid)


def test_contains_residue_stops_at_terminal_nodes():
    # the descent reads one child row per mixed node and stops at EMPTY or FULL,
    # so a level far past the depth costs no more than the depth
    with fresh_space(3, 2) as sp:
        half = ClopenSet.from_rectangles(3, 2, 4, [BallSpec((Fraction(1), Fraction(0)), (1, 1))])
        deep = ClopenSet.from_rectangles(3, 2, 4, [BallSpec((Fraction(5), Fraction(7)), (4, 3))])
        sp._children = CountingRows(sp._children)
        for S, point, want, rows in [
            (ClopenSet.full(3, 2, 4), (2, 2), True, 0),
            (ClopenSet.empty(3, 2, 4), (2, 2), False, 0),
            (half, (1, 0), True, 1),
            (half, (2, 0), False, 1),
            (deep, (5, 7), True, 4),
            (deep, (5, 7 + 3**3), True, 4),
            (deep, (5 + 3**3, 7), False, 4),
        ]:
            sp._children.reads = 0
            assert S.contains_residue(point, S.depth + 40) is want
            assert sp._children.reads == rows
    # n = 1: one digit (r % p, then r //= p) and one row read per mixed node, for any sign and size
    with fresh_space(3, 1) as sp:
        ninth = ClopenSet.from_cosets(3, 4, 2, [1])  # 1 + 9 Z_3
        deep = ClopenSet.from_cosets(3, 6, 6, [5])  # 5 + 3^6 Z_3
        sp._children = CountingRows(sp._children)
        for S, point, want, rows in [
            (ClopenSet.full(3, 1, 4), (2,), True, 0),
            (ClopenSet.empty(3, 1, 4), (2,), False, 0),
            (ninth, (1,), True, 2),
            (ninth, (-8,), True, 2),
            (ninth, (1 + 9 * 10**30,), True, 2),
            (ninth, (4,), False, 2),
            (ninth, (2,), False, 1),
            (deep, (5,), True, 6),
            (deep, (5 - 7 * 3**6,), True, 6),
            (deep, (5 + 3**3,), False, 4),
        ]:
            sp._children.reads = 0
            assert S.contains_residue(point, S.depth + 40) is want
            assert sp._children.reads == rows


def test_contains_residue_stops_where_no_full_node_is_in_reach():
    # a mixed node whose shallowest FULL node lies below the levels left answers
    # False without reading a row; extending the column reads no row by id
    with fresh_space(3, 1) as sp:
        deep = ClopenSet.from_cosets(3, 6, 6, [5])  # 5 + 3^6 Z_3: FULL only at level 6
        sp._children = CountingRows(sp._children)
        for level, want, rows in [(3, False, 0), (5, False, 0), (6, True, 6)]:
            sp._children.reads = 0
            assert deep.contains_residue((5,), level) is want
            assert sp._children.reads == rows
    with fresh_space(3, 2) as sp:
        deep = ClopenSet.from_rectangles(3, 2, 4, [BallSpec((Fraction(5), Fraction(7)), (4, 3))])
        sp._children = CountingRows(sp._children)
        for level, want, rows in [(3, False, 0), (4, True, 4)]:
            sp._children.reads = 0
            assert deep.contains_residue((5, 7), level) is want
            assert sp._children.reads == rows


def test_contains_residue_extends_the_column_over_a_large_table():
    # every other test starts from empty spaces (conftest.py); here the first probe
    # extends the _shallow column over a (3, 2) table of some 12 000 nodes, and
    # each later one over the ids that the builds and ops since then interned
    params = Params(3, 2)
    psi = ApproxTuple((ScaledPower(Fraction(1, 2), Fraction(1)), PowerLaw(Fraction(2))))
    sweep = partial_limsup(params, psi, 1, 60, True, 10)
    sp = sweep._sp
    assert len(sp._children) > 10_000 and len(sp._shallow) == 2
    rng = random.Random(23)
    sets = [sweep]
    for lo in (None, 61, 71):
        if lo is not None:
            more = partial_limsup(params, psi, lo, lo + 9, True, 10)
            sets += [more, sweep.union(more), sweep.difference(more), more.complement()]
        for S in sets:
            for _ in range(100):
                point, level = (rng.randrange(3**12), rng.randrange(3**12)), rng.randrange(12)
                assert S.contains_residue(point, level) == old_contains_residue(S, point, level)
        assert sp._shallow == shallowest_full(sp)


@st.composite
def space_sets(draw, p, n):
    """A set of rectangles of depth at most 6 in the current (p, n) space, maybe complemented."""
    depth = draw(st.integers(0, 6))
    center = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([d for d in range(1, 8) if d % p]))
    rect = st.builds(BallSpec, st.tuples(*[center] * n), st.tuples(*[st.integers(0, depth)] * n))
    S = ClopenSet.from_rectangles(p, n, depth, draw(st.lists(rect, min_size=1, max_size=5)))
    return S.complement() if draw(st.booleans()) else S


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.data())
def test_contains_residue_across_builds_and_space_replacements(p, n, data):
    # builds between probes intern new ids, so each probe extends the column first;
    # a replaced space keeps its own table and column for the sets built in it
    steps = data.draw(st.lists(st.sampled_from(["build", "probe", "replace"]), min_size=1, max_size=12))
    with ExitStack() as stack:
        sets = []
        for step in steps:
            if step == "replace":
                stack.enter_context(fresh_space(p, n))
            elif step == "build" or not sets:
                sets.append(data.draw(space_sets(p, n)))
            else:
                S = data.draw(st.sampled_from(sets))
                coord = st.integers(-(p ** (S.depth + 2)), p ** (S.depth + 2))
                probes = data.draw(st.lists(
                    st.tuples(st.tuples(*[coord] * n), st.integers(0, S.depth + 2)), min_size=1, max_size=10))
                for point, level in probes:
                    assert S.contains_residue(point, level) == old_contains_residue(S, point, level)
                assert S._sp._shallow == shallowest_full(S._sp)
        for S in sets:
            assert S.contains_residue((1,) * n, S.depth) == old_contains_residue(S, (1,) * n, S.depth)
            assert S._sp._shallow == shallowest_full(S._sp)


# ---------------------------------------------------------------------------
# enumerate_cosets
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(read_sets())
def test_enumerate_cosets_matches_recursive_collect(S):
    for k in range(S.depth + 1):
        if S.box_count(k) > COSET_LIMIT:
            break
        got = S.enumerate_cosets(k)
        assert got == old_enumerate_cosets(S, k)
        assert len(got) == S.box_count(k)


def test_enumerate_cosets_expands_full_nodes_at_every_level():
    # a FULL child at level 1 and a FULL subtree at level 3 in one trie
    S = ClopenSet.from_rectangles(2, 2, 4, [
        BallSpec((Fraction(1), Fraction(0)), (1, 1)),
        BallSpec((Fraction(2), Fraction(6)), (3, 3)),
    ])
    for k in range(5):
        assert S.enumerate_cosets(k) == old_enumerate_cosets(S, k)
    assert ClopenSet.full(3, 2, 3).enumerate_cosets(2) == [(a, b) for a in range(9) for b in range(9)]
    assert ClopenSet.empty(3, 2, 3).enumerate_cosets(2) == []
    assert ClopenSet.full(3, 1, 3).enumerate_cosets(0) == [(0,)]
    # n = 1: a FULL child at level 1 (2 + 3 Z_3) and a FULL subtree at level 4 (28 + 81 Z_3)
    T = ClopenSet.from_cosets(3, 5, 1, [2]).union(ClopenSet.from_cosets(3, 5, 4, [28]))
    for k in range(6):
        got = T.enumerate_cosets(k)
        assert got == old_enumerate_cosets(T, k)
        assert all(type(r) is tuple and len(r) == 1 and type(r[0]) is int for r in got)
    assert T.enumerate_cosets(0) == [(0,)]
    assert T.enumerate_cosets(2) == [(1,), (2,), (5,), (8,)]
    assert T.enumerate_cosets(4) == sorted([(r,) for r in range(2, 81, 3)] + [(28,)])
    # a FULL root expands at level 0, an EMPTY root lists nothing at any level
    assert ClopenSet.full(3, 1, 4).enumerate_cosets(3) == [(a,) for a in range(27)]
    assert ClopenSet.empty(3, 1, 4).enumerate_cosets(0) == ClopenSet.empty(3, 1, 4).enumerate_cosets(3) == []


# ---------------------------------------------------------------------------
# from_text and node interning
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(read_sets())
def test_to_text_matches_the_recursive_walk_and_count(S):
    want = text_length(S)
    order, lengths = S._sp.text_lengths(S._root)
    assert lengths[S._root] == want
    assert order == sorted(order) and S._root in order
    if want > clopen.TEXT_BUDGET:
        with pytest.raises(ValueError, match=f"clopen text of {want} characters exceeds"):
            S.to_text()
    elif want <= TEXT_LIMIT:
        assert S.to_text().partition("\n")[2] == old_text(S)


def test_to_text_keeps_nothing_beyond_the_text():
    # a text memo on the space kept 14 MB of node texts beyond this 4.44 M-character body
    S = ClopenSet.from_cosets(3, 14, 14, range(0, 3**14, 7))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = S.to_text()
        kept = tracemalloc.get_traced_memory()[0] - before - sys.getsizeof(text)
    finally:
        tracemalloc.stop()
    assert len(text.partition("\n")[2]) == text_length(S) > 4 * 10**6
    assert kept <= 64 * 1024


def test_to_text_refuses_a_body_over_the_text_budget():
    # shared subtrees are written once per occurrence: next to two full factors,
    # five cosets at level 7 make a body of about 1.6e11 characters, which ran
    # out of memory before the budget
    factors = [ClopenSet.full(5, 1, 7), ClopenSet.full(5, 1, 7), ClopenSet.from_cosets(5, 7, 7, [1, 2, 3, 4, 6])]
    S = product_set(factors)
    length = S._sp.text_lengths(S._root)[1][S._root]
    assert length == text_length(S) > 10**11
    with pytest.raises(ValueError) as exc:
        S.to_text()
    assert str(exc.value) == (
        f"clopen text of {length} characters exceeds the text budget TEXT_BUDGET={clopen.TEXT_BUDGET}"
    )
    assert S.measure() == Fraction(5, 5**7)  # the set itself is small and usable


def test_enumerate_cosets_refuses_more_than_the_coset_budget(monkeypatch):
    assert clopen.COSET_BUDGET >= 1 << 22 and clopen.COSET_BUDGET & (clopen.COSET_BUDGET - 1) == 0
    # Z_2 at level 23 has 2^23 cosets, twice the budget: refused before listing
    full = ClopenSet.full(2, 1, 30)
    with pytest.raises(ValueError) as exc:
        full.enumerate_cosets(23)
    assert str(exc.value) == (
        f"{2**23} cosets at level 23 exceed the coset budget COSET_BUDGET={clopen.COSET_BUDGET}"
    )
    # the count is box_count(k), and a set at exactly the budget is listed
    S = ClopenSet.from_cosets(3, 6, 4, [1, 2, 5, 40])
    count = S.box_count(6)
    monkeypatch.setattr(clopen, "COSET_BUDGET", count)
    assert len(S.enumerate_cosets(6)) == count
    monkeypatch.setattr(clopen, "COSET_BUDGET", count - 1)
    with pytest.raises(ValueError, match=f"{count} cosets at level 6 exceed the coset budget COSET_BUDGET={count - 1}"):
        S.enumerate_cosets(6)


@settings(max_examples=150, deadline=None)
@given(read_sets())
def test_from_text_builds_the_same_node_ids_as_the_per_character_parser(S):
    if text_length(S) > TEXT_LIMIT:
        return
    text = S.to_text()
    assert len(text.partition("\n")[2]) == text_length(S)
    oracle, root = old_from_text(text)
    with fresh_space(S.p, S.n) as sp:
        T = ClopenSet.from_text(text)
        assert T._root == root
        assert sp._children[2:] == oracle.children[2:]
        assert T.to_text() == text


@pytest.mark.parametrize("text,message", MALFORMED_TEXTS)
def test_from_text_error_messages_match_the_per_character_parser(text, message):
    want = raised(old_from_text, text)
    assert want is not None and message in want
    assert raised(ClopenSet.from_text, text) == want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (5, 3)]),
       st.integers(0, 2**32))
def test_node_ids_match_collapse_first_interning(pn, seed):
    p, n = pn
    rng = random.Random(seed)
    with fresh_space(p, n) as sp:
        oracle = OracleSpace(sp.width)
        ids, seen = [EMPTY, FULL], []
        for _ in range(40):
            roll = rng.random()
            if roll < 0.2:
                children = (rng.choice([EMPTY, FULL]),) * sp.width
            elif roll < 0.35 and seen:
                children = rng.choice(seen)
            else:
                children = tuple(rng.choice(ids[-4:] + [EMPTY, FULL]) for _ in range(sp.width))
            nid = sp.node(children)
            assert nid == oracle.node(children)
            seen.append(children)
            ids.append(nid)
        assert sp._children[2:] == oracle.children[2:]
        assert sp._children[EMPTY] == (EMPTY,) * sp.width and sp._children[FULL] == (FULL,) * sp.width
