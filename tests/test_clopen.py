import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicapprox.clopen import BallSpec, ClopenSet, product_set


# ---------------------------------------------------------------------------
# Brute-force reference model: a set is the collection of residue vectors mod
# p^K it covers. Rectangles, algebra, measure, and box counts all have obvious
# definitions there, independent of the trie.
# ---------------------------------------------------------------------------


def ref_rectangle(p, n, K, rect):
    centers = []
    for c, t in zip(rect.center, rect.exponents):
        centers.append((c.numerator * pow(c.denominator, -1, p**K)) % p**K)
    cover = set()
    import itertools

    ranges = []
    for i, t in enumerate(rect.exponents):
        base = centers[i] % p**t
        ranges.append([base + j * p**t for j in range(p ** (K - t))])
    for combo in itertools.product(*ranges):
        cover.add(combo)
    return cover


def ref_measure(cover, p, n, K):
    return Fraction(len(cover), p ** (n * K))


def ref_box_count(cover, p, n, K, k):
    return len({tuple(c % p**k for c in v) for v in cover})


def random_rects(rng, p, n, K, count):
    rects = []
    for _ in range(count):
        center = []
        exps = []
        for _ in range(n):
            den = 1
            if rng.random() < 0.5:
                den = rng.choice([d for d in range(2, 8) if d % p != 0])
            center.append(Fraction(rng.randrange(-20, 21), den))
            exps.append(rng.randrange(0, K + 1))
        rects.append(BallSpec(tuple(center), tuple(exps)))
    return rects


@pytest.mark.parametrize("p,n,K", [(2, 1, 5), (3, 1, 4), (2, 2, 4), (3, 2, 3), (5, 1, 3)])
def test_rectangles_match_reference_model(p, n, K):
    rng = random.Random(1000 * p + 10 * n + K)
    for trial in range(8):
        rects = random_rects(rng, p, n, K, rng.randrange(1, 5))
        S = ClopenSet.from_rectangles(p, n, K, rects)
        cover = set()
        for r in rects:
            cover |= ref_rectangle(p, n, K, r)
        assert S.measure() == ref_measure(cover, p, n, K)
        for k in range(K + 1):
            assert S.box_count(k) == ref_box_count(cover, p, n, K, k)
        reps = S.enumerate_cosets(K)
        assert set(reps) == cover
        assert len(reps) == S.box_count(K)


def test_single_coset_insert_examples():
    S = ClopenSet.empty(3, 1, 4).insert_rectangle(BallSpec((Fraction(0),), (1,)))
    assert S.measure() == Fraction(1, 3)
    twice = S.insert_rectangle(BallSpec((Fraction(0),), (1,)))
    assert twice == S
    # centers 1/2 and -1/2 at level 2 are disjoint cosets in Z_3
    T = ClopenSet.from_rectangles(
        3, 1, 4, [BallSpec((Fraction(1, 2),), (2,)), BallSpec((Fraction(-1, 2),), (2,))]
    )
    assert T.measure() == Fraction(2, 9)


def test_full_and_empty_measures():
    assert ClopenSet.full(3, 2, 4).measure() == 1
    assert ClopenSet.empty(3, 2, 4).measure() == 0
    assert ClopenSet.empty(3, 1, 4).complement().measure() == 1


def test_measure_plus_complement_is_one_exactly():
    rng = random.Random(7)
    for _ in range(10):
        rects = random_rects(rng, 3, 2, 3, 3)
        S = ClopenSet.from_rectangles(3, 2, 3, rects)
        assert S.measure() + S.complement().measure() == 1


def test_product_measure_of_rectangles():
    # measure(rectangle t=(1,2), p=3, n=2) = 3^{-1} * 3^{-2} = 1/27
    S = ClopenSet.empty(3, 2, 4).insert_rectangle(BallSpec((Fraction(0), Fraction(0)), (1, 2)))
    assert S.measure() == Fraction(1, 27)


def test_box_count_trivial_cases():
    full = ClopenSet.full(3, 2, 5)
    for k in range(6):
        assert full.box_count(k) == 3 ** (2 * k)
    ball = ClopenSet.empty(2, 1, 6).insert_rectangle(BallSpec((Fraction(1),), (2,)))
    for k in range(2, 7):
        assert ball.box_count(k) == 2 ** (k - 2)
    assert ClopenSet.empty(2, 1, 6).box_count(3) == 0


def test_box_count_level_bounds():
    S = ClopenSet.full(2, 1, 3)
    with pytest.raises(ValueError, match="outside"):
        S.box_count(4)
    with pytest.raises(ValueError, match="outside"):
        S.enumerate_cosets(9)


def test_insufficient_depth_rejected():
    with pytest.raises(ValueError, match="insufficient depth"):
        ClopenSet.empty(3, 1, 2).insert_rectangle(BallSpec((Fraction(0),), (3,)))


def test_center_with_p_denominator_rejected():
    with pytest.raises(ValueError, match="not a p-adic integer"):
        ClopenSet.empty(3, 1, 3).insert_rectangle(BallSpec((Fraction(1, 3),), (2,)))


def test_algebra_against_reference():
    rng = random.Random(99)
    p, n, K = 3, 2, 3
    for _ in range(6):
        ra = random_rects(rng, p, n, K, 3)
        rb = random_rects(rng, p, n, K, 3)
        A = ClopenSet.from_rectangles(p, n, K, ra)
        B = ClopenSet.from_rectangles(p, n, K, rb)
        ca = set()
        for r in ra:
            ca |= ref_rectangle(p, n, K, r)
        cb = set()
        for r in rb:
            cb |= ref_rectangle(p, n, K, r)
        assert A.union(B).measure() == ref_measure(ca | cb, p, n, K)
        assert A.intersect(B).measure() == ref_measure(ca & cb, p, n, K)
        assert A.difference(B).measure() == ref_measure(ca - cb, p, n, K)
        # inclusion-exclusion
        assert A.union(B).measure() == A.measure() + B.measure() - A.intersect(B).measure()


def test_mismatched_spaces_rejected():
    A = ClopenSet.empty(3, 1, 2)
    with pytest.raises(ValueError, match="mismatched"):
        A.union(ClopenSet.empty(5, 1, 2))
    with pytest.raises(ValueError, match="mismatched"):
        A.union(ClopenSet.empty(3, 2, 2))


def test_intersect_idempotent_and_complement_involution():
    rng = random.Random(3)
    S = ClopenSet.from_rectangles(3, 2, 3, random_rects(rng, 3, 2, 3, 4))
    assert S.intersect(S) == S
    assert S.complement().complement() == S


def test_canonicalization_confluent_under_insertion_order():
    rng = random.Random(5)
    rects = random_rects(rng, 2, 2, 4, 5)
    for seed in range(4):
        shuffled = rects[:]
        random.Random(seed).shuffle(shuffled)
        assert ClopenSet.from_rectangles(2, 2, 4, shuffled) == ClopenSet.from_rectangles(2, 2, 4, rects)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(1, 4))
def test_box_count_dominates_measure(bits, k):
    # build an arbitrary union of level-2 cosets of Z_2^2 from the bitmask
    p, n, K = 2, 2, 4
    S = ClopenSet.empty(p, n, K)
    for idx in range(16):
        if bits >> idx & 1:
            S = S.insert_rectangle(BallSpec((Fraction(idx % 4), Fraction(idx // 4)), (2, 2)))
    assert S.box_count(k) * Fraction(1, p ** (n * k)) >= S.measure()
    if k >= 2:
        assert S.box_count(k) * Fraction(1, p ** (n * k)) == S.measure()


def test_enumerate_cosets_examples():
    ball = ClopenSet.empty(3, 1, 2).insert_rectangle(BallSpec((Fraction(0),), (1,)))
    assert ball.enumerate_cosets(1) == [(0,)]
    full = ClopenSet.full(2, 2, 2)
    assert len(full.enumerate_cosets(1)) == 4


def test_product_set_matches_rectangle_construction():
    p, K = 3, 3
    U = ClopenSet.from_rectangles(
        p, 1, K, [BallSpec((Fraction(1),), (1,)), BallSpec((Fraction(5),), (2,))]
    )
    V = ClopenSet.from_rectangles(p, 1, K, [BallSpec((Fraction(2),), (2,))])
    prod = product_set([U, V])
    assert prod.measure() == U.measure() * V.measure()
    # reference: every pair of 1-D cosets appears as a rectangle
    ref = ClopenSet.empty(p, 2, K)
    for (u,) in U.enumerate_cosets(K):
        for (v,) in V.enumerate_cosets(K):
            ref = ref.insert_rectangle(BallSpec((Fraction(u), Fraction(v)), (K, K)))
    assert prod == ref


def test_serialization_roundtrip():
    rng = random.Random(11)
    S = ClopenSet.from_rectangles(3, 2, 3, random_rects(rng, 3, 2, 3, 4))
    text = S.to_text()
    T = ClopenSet.from_text(text)
    assert T == S and T.depth == S.depth
    assert T.to_text() == text


def test_contains_residue():
    S = ClopenSet.empty(3, 1, 3).insert_rectangle(BallSpec((Fraction(4),), (2,)))
    assert S.contains_residue((4,), 2)
    assert S.contains_residue((13,), 2)
    assert not S.contains_residue((5,), 2)
    assert not S.contains_residue((4,), 1)


def test_set_algebra_methods():
    A = ClopenSet.empty(3, 1, 3).insert_rectangle(BallSpec((Fraction(0),), (1,)))
    B = ClopenSet.empty(3, 1, 3).insert_rectangle(BallSpec((Fraction(1),), (1,)))
    assert A.union(B).measure() == Fraction(2, 3)
    assert A.intersect(B).is_empty()
    assert A.difference(B) == A
    assert A.complement().measure() == Fraction(2, 3)
