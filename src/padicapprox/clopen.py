"""Exact clopen subsets of Z_p^n as hash-consed digit-prefix tries.

A node at level j stands for a coset c + (p^j Z_p)^n and is either full, empty,
or carries p^n children, one per next-digit vector. Nodes are interned per
(p, n) space, so identical subtrees share one id: a rectangle with very unequal
radii costs O(depth) nodes instead of exponentially many, and canonical form is
structural equality of ids. Union, intersection and difference are one apply
with one memo, keyed (op, id, id), or ("|", *sorted ids) for an n-ary union; a
complement is FULL minus the set, and no other difference builds one.

Sets are built in bulk: boxes of one exponent vector are bucketed by digit
codes bottom-up, and many-operand unions are the n-ary apply. Products of
one-dimensional sets are memoized on the space by factor-id tuples, like the
other set operations. A node's box counts at each level below it come from one
walk that counts the paths reaching each node, memoized only for the roots
asked about; measures (exact Fractions with denominator dividing p^{n*K}) and
box counts are read from those. Containment probes read one more column, one
int per node id: the least level below the node at which a FULL node occurs.
Probes extend it over the ids interned since the last probe, so builds never
pay for it, and a descent stops at a mixed node with no FULL node in reach.
Serialization keeps nothing; all other tables live for the whole process.
Node ids index one space, so once a (p, n) space is replaced, sets built in
the old one are refused by every operation that combines or complements sets
(their own reads still work).

Set algebra and products recurse once per level (two interpreter frames
each), so depth is capped at MAX_DEPTH, well inside the interpreter's default
recursion limit. _check_depth states the depth rules once (depth in [0,
MAX_DEPTH], then the deepest boxes fit), and every builder, here and in approx
and manifold, runs it before any work; _check_level refuses a read past it.
The box-count walk and the reads that walk one path or one frontier
(containment, coset enumeration, the .clopen parser and writer) are
iterative; the parser checks nesting against the header depth.
(p, n) is core.Params' rule and a box center core._residue's; _space adds
MAX_WIDTH where it makes a space: a wider p^n is refused before any node is
interned, a .clopen body longer than TEXT_BUDGET before any of it is written,
and more than COSET_BUDGET coset representatives before any is listed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from operator import add, itemgetter
from typing import Iterable, Mapping, Sequence

from .core import Params, _residue

EMPTY = 0
FULL = 1
MAX_DEPTH = 300
MAX_WIDTH = 4096  # largest branching factor p^n; every interior node holds p^n child ids
TEXT_BUDGET = 1 << 24  # longest .clopen body to_text builds, in characters (16 MiB)
COSET_BUDGET = 1 << 22  # most coset representatives enumerate_cosets lists


def _check_depth(depth: int, level: int = 0) -> None:
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds the trie depth limit MAX_DEPTH={MAX_DEPTH}")
    if level > depth:
        raise ValueError(f"insufficient depth: boxes need level {level}, depth is {depth}")


def _check_level(k: int, depth: int) -> None:
    if k < 0 or k > depth:
        raise ValueError(f"level {k} outside [0, depth={depth}]")


class _Space:
    """Interned trie nodes and op caches for one (p, n) branching alphabet."""

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.width = p**n
        # rows EMPTY and FULL hold the uniform child tuples, so every id indexes
        # its children; uniform tuples are never interned (node() collapses them)
        self._children: list[tuple[int, ...]] = [(EMPTY,) * self.width, (FULL,) * self.width]
        self._intern: dict[tuple[int, ...], int] = {}
        # the one set-algebra memo: (op, a, b), and ("|", *sorted ids) for n-ary unions
        self._apply: dict[tuple, int] = {}
        # product_set on factor-id tuples, last factor first, of the (p, 1) space _product_of
        self._product: dict[tuple[int, ...], int] = {}
        self._product_of: _Space | None = None
        # box-count profiles of the roots asked about, not of every node
        self._profiles: dict[int, tuple[int, ...]] = {EMPTY: (0,), FULL: (1,)}
        # per node id, the least level below it holding a FULL node (EMPTY: none
        # within MAX_DEPTH); shallow() extends it when a probe runs, never a build
        self._shallow: list[int] = [MAX_DEPTH + 1, 0]

    def node(self, children: tuple[int, ...]) -> int:
        nid = self._intern.get(children)
        if nid is None:
            first = children[0]
            if first < 2 and children.count(first) == self.width:
                return first
            nid = len(self._children)
            self._children.append(children)
            self._intern[children] = nid
        return nid

    def cosets(self, t: Sequence[int], codes: Iterable[int]) -> int:
        """Union of the boxes with exponent vector t and the given codes (see box_code), bottom-up.

        Level j holds one node per code mod width^j. A coordinate with t_i <= j
        is a wildcard at level j: slots that differ from a filled one only in
        wildcard digits get its child. A row already interned is found without a
        call; node() runs on a miss, collapsing a uniform row or appending a new one.
        """
        p, width, node, interned = self.p, self.width, self.node, self._intern.get
        top, low_t = max(t, default=0), min(t, default=0)
        blank = [EMPTY] * width
        scale = width**top
        level = dict.fromkeys(sorted({c % scale for c in codes}), FULL)
        for j in range(top - 1, -1, -1):
            scale //= width
            buckets: dict[int, list[int]] = {}
            bucket = buckets.get
            for code, nid in level.items():
                slot, low = divmod(code, scale)
                kids = bucket(low)
                if kids is None:
                    kids = buckets[low] = blank.copy()
                kids[slot] = nid
            if j < low_t:
                children = tuple
            elif j + 1 in t:  # the wildcard set changes only just below some t_i
                children = _wildcard_fill(p, width, tuple([p**i for i, ti in enumerate(t) if ti <= j]))
            level = {}
            for low, kids in buckets.items():
                row = children(kids)
                level[low] = interned(row) or node(row)  # interned ids are >= 2, never falsy
        return level.get(0, EMPTY)

    def apply(self, op: str, a: int, b: int) -> int:
        """Union "|", intersection "&" or difference "-" of nodes a and b (Bryant's apply).

        "|" and "&" sort their operands, so a terminal a is the identity of op or
        absorbs b. "-" recurses as is: FULL - b reads the stored all-FULL row."""
        if op == "-":
            if a == EMPTY or b == FULL or a == b:
                return EMPTY
            if b == EMPTY:
                return a
        else:
            if a > b:
                a, b = b, a
            if a == (EMPTY if op == "|" else FULL):
                return b
            if a < 2 or a == b:  # a terminal a that is not the identity absorbs b
                return a
        key = (op, a, b)
        out = self._apply.get(key)
        if out is None:
            ca, cb = self._children[a], self._children[b]
            out = self.node(tuple([self.apply(op, x, y) for x, y in zip(ca, cb)]))
            self._apply[key] = out
        return out

    def union_many(self, ids: Iterable[int]) -> int:
        """n-ary union (Bryant's apply), memoized in _apply on ("|", *sorted ids)."""
        ids = set(ids)
        if FULL in ids:
            return FULL
        ids.discard(EMPTY)
        # binary unions keep apply: its int compares cost less than a set per call
        if len(ids) < 3:
            return self.apply("|", *ids) if len(ids) == 2 else next(iter(ids), EMPTY)
        key = ("|", *sorted(ids))
        out = self._apply.get(key)
        if out is None:
            rows = [self._children[i] for i in ids]
            out = self.node(tuple([self.union_many(col) for col in zip(*rows)]))
            self._apply[key] = out
        return out

    def profile(self, a: int) -> tuple[int, ...]:
        """Box counts of node a at levels 0..height(a); deeper levels scale the last by width.

        One walk down the levels, mapping each node of a level to the number of paths from a
        reaching it; FULL children add theirs to a running count scaled by width per level."""
        out = self._profiles.get(a)
        if out is None:
            kids, width = self._children, self.width
            counts, full, level = [1], 0, {a: 1}
            while level:
                full *= width
                below: dict[int, int] = {}
                for b, paths in level.items():
                    for c in kids[b]:
                        if c == FULL:
                            full += paths
                        elif c != EMPTY:
                            below[c] = below.get(c, 0) + paths
                level = below
                counts.append(full + sum(level.values()))
            out = self._profiles[a] = tuple(counts)
        return out

    def shallow(self) -> list[int]:
        """The _shallow column, extended over the ids interned since the last call.

        A child's id is below its parent's, so one ascending pass over the new rows
        suffices; it iterates them rather than indexing the child table by id."""
        sh = self._shallow
        if len(sh) < len(self._children):
            get, append = sh.__getitem__, sh.append
            for row in islice(self._children, len(sh), None):
                append(1 + min(map(get, row)))
        return sh

    def measure(self, a: int) -> Fraction:
        prof = self.profile(a)
        return Fraction(prof[-1], self.width ** (len(prof) - 1))

    def box_count(self, a: int, k: int) -> int:
        prof = self.profile(a)
        if k < len(prof):
            return prof[k]
        return prof[-1] * self.width ** (k - len(prof) + 1)

    def text_lengths(self, a: int) -> tuple[list[int], dict[int, int]]:
        """The nodes reachable from a in ascending id order, and the text length of each.

        Nodes are interned after their children, so a child's id is below its
        parent's: lengths fill in ascending id order, once per node, without
        building any text.
        """
        kids = self._children
        reached, level = {a}, {a}
        while level:
            level = set().union(*map(kids.__getitem__, level)) - reached
            reached |= level
        order = sorted(reached)
        lengths = {EMPTY: 1, FULL: 1}
        get = lengths.__getitem__
        for b in order:
            if b > FULL:
                lengths[b] = 1 + sum(map(get, kids[b]))
        return order, lengths

    def text(self, a: int) -> str:
        """Preorder serialization of node a: F/E terminals, M plus the children.

        The text writes a shared subtree once per occurrence, so its length can
        grow exponentially with depth while the node table stays small: it is
        counted first, and a text over TEXT_BUDGET is refused before any of it
        is built. The texts of the reachable nodes are then built in ascending
        id order in the same local dict, which is dropped on return.
        """
        order, texts = self.text_lengths(a)
        if texts[a] > TEXT_BUDGET:
            raise ValueError(
                f"clopen text of {texts[a]} characters exceeds the text budget TEXT_BUDGET={TEXT_BUDGET}"
            )
        texts[EMPTY], texts[FULL] = "E", "F"
        kids, get = self._children, texts.__getitem__
        for b in order:
            if b > FULL:
                texts[b] = "".join(["M", *map(get, kids[b])])  # one copy of the children's texts
        return texts[a]


_SPACES: dict[tuple[int, int], _Space] = {}


def _space(p: int, n: int) -> _Space:
    sp = _SPACES.get((p, n))
    if sp is None:
        Params(p, n)  # p prime and n >= 1
        # p >= 2, so a large n fails the first test before p**n is formed
        if n >= MAX_WIDTH.bit_length() or p**n > MAX_WIDTH:
            raise ValueError(f"p^n = {p}^{n} exceeds the trie width limit MAX_WIDTH={MAX_WIDTH}")
        sp = _SPACES[p, n] = _Space(p, n)
    return sp


def _live(p: int, n: int, sets: Iterable[ClopenSet]) -> _Space:
    """The current (p, n) space, once every set is checked to live in it."""
    sp = _space(p, n)
    for s in sets:
        if s._sp is not sp:
            if s.p != p or s.n != n:
                raise ValueError("mismatched p or n")
            raise ValueError(f"sets belong to a replaced ({p}, {n}) space; build them again")
    return sp


@dataclass(frozen=True)
class BallSpec:
    """A closed-ball rectangle: per coordinate, {x : |x - center_i|_p <= p^{-t_i}}.

    Centers are rationals with p-unit denominators; exponents t_i are the
    closed-ball radii exponents (already converted from any strict bound).
    """

    center: tuple[Fraction, ...]
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.center) != len(self.exponents):
            raise ValueError("center and exponents must have equal length")
        if any(t < 0 for t in self.exponents):
            raise ValueError("radius exponents must be nonnegative")


@functools.cache
def _wildcard_fill(p: int, width: int, wild: tuple[int, ...]) -> itemgetter:
    """Child tuple whose slot v reads slot v with its digits at the places `wild` zeroed."""
    return itemgetter(*[v - sum(v // w % p * w for w in wild) for v in range(width)])


def box_code(p: int, residues: Sequence[int], exponents: Sequence[int]) -> int:
    """Code of the box prod_i (r_i + p^(t_i) Z_p): base-p^n digit j is its child slot
    at level j, whose base-p digit i is digit j of r_i mod p^(t_i) (0 once j >= t_i)."""
    if len(residues) == 1:
        return residues[0] % p ** exponents[0]
    width = p ** len(residues)
    code = 0
    for i, (r, t) in enumerate(zip(residues, exponents)):
        r %= p**t
        place = p**i
        while r:
            r, digit = divmod(r, p)
            code += digit * place
            place *= width
    return code


class ClopenSet:
    """Immutable clopen subset of Z_p^n, canonical by construction."""

    __slots__ = ("p", "n", "depth", "_root", "_sp")

    def __init__(self, p: int, n: int, depth: int, _root: int):
        _check_depth(depth)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "_sp", _space(p, n))
        object.__setattr__(self, "_root", _root)

    def __setattr__(self, *args):
        raise AttributeError("ClopenSet is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, p: int, n: int, depth: int) -> "ClopenSet":
        return cls(p, n, depth, EMPTY)

    @classmethod
    def full(cls, p: int, n: int, depth: int) -> "ClopenSet":
        return cls(p, n, depth, FULL)

    @classmethod
    def from_rectangles(cls, p: int, n: int, depth: int, rects: Sequence[BallSpec]) -> "ClopenSet":
        _space(p, n)  # p and n are valid before any residue is taken mod p^t
        groups: dict[tuple[int, ...], list[int]] = {}
        for rect in rects:
            residues = [_residue(c, p, t) for c, t in zip(rect.center, rect.exponents)]
            groups.setdefault(rect.exponents, []).append(box_code(p, residues, rect.exponents))
        return cls.from_codes(p, n, depth, groups)

    @classmethod
    def from_codes(
        cls, p: int, n: int, depth: int, groups: Mapping[tuple[int, ...], Iterable[int]]
    ) -> ClopenSet:
        """Union over exponent vectors t of the boxes whose box_code at t is listed under t.

        Every vector and the depth are checked before the first box is built, so a
        refused call interns no node."""
        sp = _space(p, n)
        for t in groups:
            if len(t) != n or min(t) < 0:
                raise ValueError(f"exponent vector {t} needs {n} entries >= 0")
        _check_depth(depth, max(map(max, groups), default=0))
        return cls(p, n, depth, sp.union_many([sp.cosets(t, codes) for t, codes in groups.items()]))

    @classmethod
    def from_cosets(cls, p: int, depth: int, t: int, residues: Iterable[int]) -> "ClopenSet":
        """Union of the cosets r + p^t Z_p in Z_p over the integer residues r: the one
        group of from_codes at n = 1, whose checks refuse t < 0 and t > depth."""
        return cls.from_codes(p, 1, depth, {(t,): residues})

    @classmethod
    def union_all(cls, p: int, n: int, depth: int, sets: Iterable["ClopenSet"]) -> "ClopenSet":
        """Union of many sets in one n-ary apply; the depth is the max of depth and theirs."""
        sets = list(sets)
        sp = _live(p, n, sets)
        depth = max([depth, *[s.depth for s in sets]])
        return cls(p, n, depth, sp.union_many([s._root for s in sets]))

    # -- algebra -----------------------------------------------------------

    def insert_rectangle(self, rect: BallSpec) -> "ClopenSet":
        return self.union(ClopenSet.from_rectangles(self.p, self.n, self.depth, [rect]))

    def _binary(self, other: "ClopenSet", op: str) -> "ClopenSet":
        sp = _live(self.p, self.n, (self, other))
        return ClopenSet(self.p, self.n, max(self.depth, other.depth), sp.apply(op, self._root, other._root))

    def union(self, other: "ClopenSet") -> "ClopenSet":
        return self._binary(other, "|")

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        return self._binary(other, "&")

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        return self._binary(other, "-")

    def complement(self) -> "ClopenSet":
        sp = _live(self.p, self.n, (self,))
        return ClopenSet(self.p, self.n, self.depth, sp.apply("-", FULL, self._root))

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return self._root == EMPTY

    def measure(self) -> Fraction:
        return self._sp.measure(self._root)

    def box_count(self, k: int) -> int:
        _check_level(k, self.depth)
        return self._sp.box_count(self._root, k)

    def enumerate_cosets(self, k: int) -> list[tuple[int, ...]]:
        """Representatives (one integer mod p^k per coordinate) of level-k cosets meeting the set.

        Level-synchronous expansion: the frontier holds the nodes of one level
        and, in a parallel list, their representatives; a FULL node at level
        j < k yields its p^(n(k-j)) cosets arithmetically. For n = 1 a
        representative is a bare int, rep + v*p^j for the child in slot v, a
        FULL node yields range(rep, p^k, p^j), and the sorted ints are wrapped
        in 1-tuples once at the end. The count is read off the box-count
        profile first, and more than COSET_BUDGET cosets raise ValueError
        before any is listed.
        """
        _check_level(k, self.depth)
        count = self._sp.box_count(self._root, k)
        if count > COSET_BUDGET:
            raise ValueError(
                f"{count} cosets at level {k} exceed the coset budget COSET_BUDGET={COSET_BUDGET}"
            )
        p, n, kids = self.p, self.n, self._sp._children
        top = p**k
        one = n == 1
        out: list = []
        # parallel lists, not (node, rep) pairs: a level's frontier outlives
        # young-generation GC passes, and pair tuples doubled what they promote
        nodes, reps = ([], []) if self._root == EMPTY else ([self._root], [0 if one else (0,) * n])
        for j in range(k):
            scale = p**j
            # slot v holds digit (v // p^i) % p of coordinate i
            offsets = [v * scale if one else tuple([v // p**i % p * scale for i in range(n)])
                       for v in range(self._sp.width)]
            below, below_reps = [], []
            for node, rep in zip(nodes, reps):
                if node == FULL:
                    out.extend(range(rep, top, scale) if one else product(*[range(a, top, scale) for a in rep]))
                    continue
                for v, child in enumerate(kids[node]):
                    if child != EMPTY:
                        below.append(child)
                        below_reps.append(rep + offsets[v] if one else tuple(map(add, rep, offsets[v])))
            nodes, reps = below, below_reps
        out.extend(reps)
        out.sort()
        return [(r,) for r in out] if one else out

    def contains_residue(self, point: tuple[int, ...], level: int) -> bool:
        """True iff the coset point + (p^level Z_p)^n is entirely contained in the set.

        point holds one integer per coordinate (any sign, any size: only its
        residues mod p^level matter). level >= 0; a level beyond the depth asks
        about finer cosets, which is well defined. A point of another arity or a
        negative level raises ValueError. The descent stops at the first EMPTY
        or FULL node, and at a mixed node with no FULL node within the levels
        left (read from the space's shallowest-FULL column), answering False.
        For n = 1 the slot at each level is the next floor digit, r % p, and
        r //= p drops it; for n >= 2 it is formed by Horner over the
        coordinates' digits.
        """
        n = self.n
        if len(point) != n:
            raise ValueError(f"point dimension {len(point)} != n={n}")
        if level < 0:
            raise ValueError(f"level {level} must be >= 0")
        sp, p = self._sp, self.p
        sh, kids = sp.shallow(), sp._children
        node = self._root
        if n == 1:
            # the slot index is the coordinate's next floor digit
            r = point[0]
            while sh[node] <= level and node > 1:
                node = kids[node][r % p]
                r //= p
                level -= 1
            return node == FULL
        rev = point[::-1]
        scale = 1
        while sh[node] <= level and node > 1:
            # slot index sum_i digit_i p^i by Horner, last coordinate first
            v = 0
            for c in rev:
                v = v * p + c // scale % p
            node = kids[node][v]
            scale *= p
            level -= 1
        return node == FULL

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClopenSet)
            and self._sp is other._sp
            and self._root == other._root
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self._root))

    def __repr__(self) -> str:
        return f"ClopenSet(p={self.p}, n={self.n}, depth={self.depth}, measure={self.measure()})"

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Deterministic preorder walk: F/E terminals, M plus p^n children; a body
        over TEXT_BUDGET raises ValueError before any of it is built."""
        return f"clopen 1 {self.p} {self.n} {self.depth}\n" + self._sp.text(self._root)

    @classmethod
    def from_text(cls, text: str) -> "ClopenSet":
        header, _, body = text.partition("\n")
        fields = header.split()
        if len(fields) != 5 or fields[:2] != ["clopen", "1"]:
            raise ValueError("unrecognized clopen serialization header")
        p, n, depth = (int(f) for f in fields[2:])
        _check_depth(depth)
        sp = _space(p, n)
        # Iterative preorder parse: one open child list per pending M node, so
        # nesting is bounded by the header depth and never by the call stack.
        width, node = sp.width, sp.node
        stack: list[list[int]] = []
        chars = iter(body)
        for ch in chars:
            if ch == "E":
                nid = EMPTY
            elif ch == "F":
                nid = FULL
            elif ch == "M":
                if len(stack) >= depth:
                    raise ValueError(f"clopen body nests deeper than its depth {depth}")
                stack.append([])
                continue
            else:
                raise ValueError(f"bad node tag {ch!r}")
            while stack:
                kids = stack[-1]
                kids.append(nid)
                if len(kids) < width:
                    break
                stack.pop()
                nid = node(tuple(kids))
            else:
                if next(chars, None) is not None:
                    raise ValueError("trailing data in clopen serialization")
                return cls(p, n, depth, nid)
        raise ValueError("truncated clopen serialization")


def product_set(factors: Sequence[ClopenSet]) -> ClopenSet:
    """Cartesian product of one-dimensional clopen sets as a set in Z_p^n.

    Memoized on the n-dimensional space by factor node-id tuples, so layers share
    sub-products and a repeated product is one lookup. The ids index the current
    (p, 1) space, so factors built in a space since replaced are refused.
    """
    if not factors:
        raise ValueError("need at least one factor")
    p = factors[0].p
    if any(f.p != p for f in factors) or any(f.n != 1 for f in factors):
        raise ValueError("factors must be one-dimensional sets over a common prime")
    n = len(factors)
    sp1, spn = _live(p, 1, factors), _space(p, n)
    if spn._product_of is not sp1:  # the memo's keys index one (p, 1) space
        spn._product, spn._product_of = {}, sp1
    kids, node, memo = sp1._children, spn.node, spn._product
    depth = max(f.depth for f in factors)

    def build(ids: tuple[int, ...]) -> int:
        # ids run from the last factor to the first, so itertools.product
        # varies the first coordinate's digit fastest, as the slot order does
        if EMPTY in ids:
            return EMPTY
        if ids.count(FULL) == n:
            return FULL
        out = memo.get(ids)
        if out is None:
            out = memo[ids] = node(tuple([build(c) for c in product(*[kids[i] for i in ids])]))
        return out

    return ClopenSet(p, n, depth, build(tuple(f._root for f in reversed(factors))))
