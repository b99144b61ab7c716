"""Approximation layers in Z_p^n, their exact Haar measures, and volume series.

A layer at denominator a0 is the union over admissible numerator vectors of
open rectangles |x_i - a_i/a0|_p < psi_i(a0). Each open bound is converted to
the equivalent closed-ball exponent t_i(a0) (the unique t with
p^{-t} < psi_i(a0) <= p^{-t+1}), which makes every layer an exact clopen set.

Because the numerator constraints are independent per coordinate, a layer is a
cartesian product of one-dimensional coset unions; measures and intersections
factor accordingly and are computed exactly.

Reduced layers use the positive residue system 1 <= a_i <= a0 coprime to a0,
which has exactly phi(a0) numerators per coordinate and makes the layers
disjoint unions for every proper psi (distinct numerators differ by less than
a0 < p^{t_i}, so they land in distinct cosets). Non-reduced layers range over
|a_i| <= a0.

partial_limsup, layer_sweep_rows, required_depth and build_layer decide a
denominator range in one pass: 1 <= lo <= hi, one step-exponent vector per
a0, and a depth that covers them all, before any layer is built.
partial_limsup, ubiquity_fraction and layer_sweep_rows take an n = 1 layer,
the level-t cosets of its residues, into a table of the maximal balls of the
union: balls of Z_p are nested or disjoint, so measures and box counts are
integer sums over them, and one coset build per t makes the set when asked.
No depth or space rule is stated here: the range pass (before any step
exponent), the union of a range, the table (when made and per level added)
and the n >= 2 layers refuse through clopen's _check_depth and _space, so
every entry point gives clopen's message for its own (p, n).
n >= 2 layers go to one n-ary union, or one union per sweep row. The rows read
each layer measure from the layer record, not from a built set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

from .clopen import ClopenSet, _check_depth, _check_level, _space, product_set
from .core import ExactnessError, Params, _split_power, euler_phi, totient_sieve
from .exactcmp import ball_exponent, cmp_powprod, frac_pow

# ---------------------------------------------------------------------------
# Approximation functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerLaw:
    """psi(q) = q^{-tau}: the ScaledPower with c = 1 and e = tau."""

    tau: Fraction
    c = Fraction(1)  # a class constant, not a field: init, equality and repr see tau only

    def __post_init__(self):
        if Fraction(self.tau) <= 0:
            raise ValueError("tau must be positive")
        object.__setattr__(self, "tau", Fraction(self.tau))

    @property
    def e(self) -> Fraction:
        return self.tau


@dataclass(frozen=True)
class ScaledPower:
    """psi(q) = c * q^{-e}."""

    c: Fraction
    e: Fraction

    def __post_init__(self):
        if Fraction(self.c) <= 0:
            raise ValueError("c must be positive")
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "e", Fraction(self.e))


@dataclass(frozen=True)
class TableFunction:
    """Explicit finite table of exact values."""

    values: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        vals = tuple(sorted((int(q), Fraction(v)) for q, v in self.values))
        for (q, _), (q2, _) in zip(vals, vals[1:]):
            if q == q2:
                raise ValueError(f"table gives q={q} twice")
        if vals and vals[0][0] < 1:
            raise ValueError(f"table has q={vals[0][0]}; q must be >= 1")
        if any(v <= 0 for _, v in vals):
            raise ValueError("table values must be positive")
        object.__setattr__(self, "values", vals)

    def lookup(self, q: int) -> Fraction:
        for key, v in self.values:
            if key == q:
                return v
        raise ValueError(f"table has no value at q={q}")


PsiComponent = PowerLaw | ScaledPower | TableFunction


def psi_powprod(comp: PsiComponent, q: int):
    """psi(q) as an exact power product for threshold comparisons."""
    if isinstance(comp, TableFunction):
        return [(comp.lookup(q), Fraction(1))]
    return [(comp.c, Fraction(1)), (Fraction(q), -comp.e)]


def psi_value(comp: PsiComponent, q: int) -> Fraction:
    """Exact rational value of psi(q); raises ExactnessError when irrational."""
    if isinstance(comp, TableFunction):
        return comp.lookup(q)
    return comp.c * frac_pow(q, -comp.e)


def step_exponent(comp: PsiComponent, a0: int, p: int) -> int:
    """The unique t >= 1 with p^{-t} < psi(a0) <= p^{-t+1}, clamped to 0 when psi(a0) > 1.

    The clamped case still describes the exact set: an open ball of radius
    greater than 1 around a point of Z_p is all of Z_p, i.e. exponent 0.
    """
    if a0 < 1:
        raise ValueError("a0 must be a positive integer")
    t = ball_exponent(p, psi_powprod(comp, a0))
    return max(t, 0)


def _below_inverse(comp: PsiComponent, q: int) -> bool:
    """psi(q) < 1/q, exact."""
    return cmp_powprod(psi_powprod(comp, q), [(q, -1)]) < 0


@dataclass(frozen=True)
class ApproxTuple:
    """The n-tuple Psi = (psi_1, ..., psi_n)."""

    components: tuple[PsiComponent, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one component")
        object.__setattr__(self, "components", tuple(self.components))

    @classmethod
    def uniform(cls, comp: PsiComponent, n: int) -> "ApproxTuple":
        return cls((comp,) * n)

    @property
    def n(self) -> int:
        return len(self.components)

    def proper_at(self, q: int) -> bool:
        """psi_i(q) < 1/q for every component."""
        return all(_below_inverse(c, q) for c in self.components)

    def proper_on(self, lo: int, hi: int) -> bool:
        for c in self.components:
            if isinstance(c, TableFunction):
                for q, _ in c.values:
                    if lo <= q <= hi and not _below_inverse(c, q):
                        return False
            else:
                probe = lo if c.e >= 1 else hi  # q psi(q) = c q^{1-e} is monotone in q
                if not _below_inverse(c, probe):
                    return False
        return True

    def step_exponents(self, a0: int, p: int) -> tuple[int, ...]:
        return tuple(step_exponent(c, a0, p) for c in self.components)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


def layer_numerators(a0: int, reduced: bool) -> list[int]:
    if a0 < 1:
        raise ValueError("a0 must be a positive integer")
    if reduced:
        return [a for a in range(1, a0 + 1) if math.gcd(a, a0) == 1]
    return list(range(-a0, a0 + 1))


def _coordinate_residues(p: int, a0: int, t: int, numerators: Sequence[int]) -> set[int]:
    """Distinct level-t cosets met by the admissible centers a/a0, as residues mod p^t.

    With a0 = p^v u and p not dividing u, the center a/a0 lies in Z_p exactly
    when p^v divides a, and its residue is then (a / p^v) u^{-1}; a center
    outside Z_p contributes nothing.
    """
    mod = p**t
    if mod == 1:
        return {0}
    v, u = _split_power(a0, p)
    pv = p**v
    inv = pow(u, -1, mod)
    return {a // pv * inv % mod for a in numerators if a % pv == 0}


def _layer_record(p: int, a0: int, exps: Sequence[int], reduced: bool) -> list[tuple[int, set[int]]]:
    """Per coordinate: (closed-ball exponent t_i, residue set mod p^{t_i}) of the layer at a0."""
    if reduced and a0 % p == 0:
        return [(0, set()) for _ in exps]
    nums = layer_numerators(a0, reduced)
    return [(t, _coordinate_residues(p, a0, t, nums)) for t in exps]


def layer_coordinate_data(
    params: Params, psi: ApproxTuple, a0: int, reduced: bool
) -> list[tuple[int, set[int]]]:
    """Per coordinate: (closed-ball exponent t_i, residue set mod p^{t_i})."""
    _check_n(params, psi)
    return _layer_record(params.p, a0, psi.step_exponents(a0, params.p), reduced)


def _check_n(params: Params, psi: ApproxTuple) -> None:
    if psi.n != params.n:
        raise ValueError(f"psi has {psi.n} components, params.n = {params.n}")


def layer_measure(params: Params, psi: ApproxTuple, a0: int, reduced: bool) -> Fraction:
    """Exact Haar measure of the layer, via its product structure."""
    return _data_measure(params.p, layer_coordinate_data(params, psi, a0, reduced))


def _data_measure(p: int, data: Sequence[tuple[int, set[int]]]) -> Fraction:
    """Measure of the product layer given by layer_coordinate_data records."""
    mu = Fraction(1)
    for t, residues in data:
        mu *= Fraction(len(residues), p**t)
    return mu


def reference_measure(params: Params, psi: ApproxTuple, a0: int) -> Fraction:
    """phi(a0)^n * prod_i p^{-t_i(a0)}: the disjoint-union value for reduced layers."""
    return _reference(params, a0, (step_exponent(c, a0, params.p) for c in psi.components))


def _reference(params: Params, a0: int, exps: Iterable[int]) -> Fraction:
    """reference_measure from the step exponents of a0, which are not read when p | a0."""
    if a0 % params.p == 0:
        return Fraction(0)
    mu = Fraction(euler_phi(a0)) ** params.n
    for t in exps:
        mu /= params.p**t
    return mu


def build_layer(params: Params, psi: ApproxTuple, a0: int, reduced: bool, depth: int) -> ClopenSet:
    """The layer as an exact ClopenSet in Z_p^n: partial_limsup over [a0, a0]."""
    return partial_limsup(params, psi, a0, a0, reduced, depth)


def _layer(params: Params, record: Sequence[tuple[int, set[int]]], depth: int) -> ClopenSet:
    """Product over coordinates of the unions of level-t_i cosets of a layer record.

    from_cosets refuses a level t_i past depth. A coordinate without residues
    (the reduced case p | a0, where every coordinate is (0, {})) is the empty
    factor, so the product is empty."""
    return product_set([ClopenSet.from_cosets(params.p, depth, t, residues) for t, residues in record])


class _BallTable:
    """A finite union of balls r + p^t Z_p as its maximal balls {t: residues mod p^t}, which are
    disjoint (balls of Z_p are nested or disjoint). measure, box_count, to_text and depth read
    what the union's ClopenSet reads; only to_set builds it."""

    def __init__(self, p: int, depth: int):
        _check_depth(depth)
        _space(p, 1)  # the rule of the set it stands for; its empty space interns no node
        self.p, self.depth = p, depth
        self.balls: dict[int, set[int]] = {}

    def add(self, t: int, residues: Iterable[int]) -> None:
        """Join the level-t balls of the residues (each in [0, p^t)); a level past depth is refused."""
        _check_depth(self.depth, t)
        p, balls = self.p, self.balls
        new, mod = set(residues), p**t
        for j, inner in balls.items():  # drop the balls a ball at a level j <= t already holds
            if j <= t and new:
                coarse = p**j
                new = {r for r in new if r % coarse not in inner}
        for j, inner in balls.items():  # drop the finer balls the new ones hold
            if j > t and new:
                inner -= {s for s in inner if s % mod in new}
        balls.setdefault(t, set()).update(new)

    def measure(self) -> Fraction:
        return Fraction(self.box_count(self.depth), self.p**self.depth)

    def box_count(self, k: int) -> int:
        _check_level(k, self.depth)
        p, mod = self.p, self.p**k
        finer = {r % mod for t, inner in self.balls.items() if t > k for r in inner}
        return len(finer) + sum(len(inner) * p ** (k - t) for t, inner in self.balls.items() if t <= k)

    def to_set(self) -> ClopenSet:
        return ClopenSet.from_codes(self.p, 1, self.depth, {(t,): inner for t, inner in self.balls.items()})

    def to_text(self) -> str:
        return self.to_set().to_text()


def _range_exponents(
    params: Params, psi: ApproxTuple, lo: int, hi: int, depth: int | None
) -> tuple[list[tuple[int, ...]], int]:
    """The step exponents of every a0 in [lo, hi], each evaluated once, and the depth.

    Their maximum is the depth when none is given, and a short depth fails
    before any layer; a bad range, a depth out of bounds or a (p, n) space clopen
    refuses before any exponent."""
    if lo > hi or lo < 1:
        raise ValueError("need 1 <= lo <= hi")
    _check_n(params, psi)
    _check_depth(0 if depth is None else depth)
    _space(params.p, params.n)
    exps = [psi.step_exponents(a0, params.p) for a0 in range(lo, hi + 1)]
    need = max(map(max, exps))
    if depth is None:
        return exps, need
    _check_depth(depth, need)
    return exps, depth


def required_depth(params: Params, psi: ApproxTuple, lo: int, hi: int) -> int:
    """Max closed-ball exponent over the range; the depth a sweep must provision."""
    return _range_exponents(params, psi, lo, hi, None)[1]


def partial_limsup(
    params: Params, psi: ApproxTuple, lo: int, hi: int, reduced: bool, depth: int | None = None
) -> ClopenSet:
    """Union of the layers for a0 in [lo, hi], exact, from one range pass."""
    union = _partial_union(params, psi, lo, hi, reduced, depth)
    return union.to_set() if params.n == 1 else union


def _partial_union(params: Params, psi: ApproxTuple, lo: int, hi: int, reduced: bool, depth: int | None):
    """partial_limsup before any trie is built: for n = 1 the range's ball table."""
    exps, depth = _range_exponents(params, psi, lo, hi, depth)
    return _range_union(params, range(lo, hi + 1), exps, reduced, depth)


def _range_union(params: Params, a0s: range, exps: Iterable[Sequence[int]], reduced: bool, depth: int):
    """Union of the layers of the a0s at their step exponents: for n = 1 their ball table."""
    _space(params.p, params.n)  # before the (p, 1) factors of a first n >= 2 layer
    if params.n == 1:
        table = _BallTable(params.p, depth)
        for a0, e in zip(a0s, exps):
            table.add(*_layer_record(params.p, a0, e, reduced)[0])
        return table
    layers = (_layer(params, _layer_record(params.p, a0, e, reduced), depth) for a0, e in zip(a0s, exps))
    return ClopenSet.union_all(params.p, params.n, depth, layers)


def divergence_curve(
    params: Params,
    psi: ApproxTuple,
    n_max: int,
    depth: int,
    reduced: bool = True,
    stop_above: Fraction | None = None,
) -> list[tuple[int, Fraction]]:
    """Measure of partial_limsup[1, N] for N = 1..n_max: the union column of layer_sweep_rows.

    Stops early once the measure exceeds stop_above, if given. The step
    exponents are evaluated lazily, one a0 per row, so an early stop reads
    none past it; a level past depth is refused when its layer joins the union.
    """
    _check_n(params, psi)
    exps = (psi.step_exponents(a0, params.p) for a0 in range(1, n_max + 1))
    out: list[tuple[int, Fraction]] = []
    for row in _sweep_rows(params, psi, 1, n_max, exps, reduced, depth):
        mu = row["union_measure"]
        out.append((row["a0"], mu))
        if stop_above is not None and mu > stop_above:
            break
    return out


# ---------------------------------------------------------------------------
# Volume series
# ---------------------------------------------------------------------------


def _series_terms(
    params: Params, psi: ApproxTuple, lo: int, hi: int
) -> Iterator[tuple[Fraction, Fraction]]:
    """(q^n prod_i psi_i(q), phi(q)^n prod_i psi_i(q)) for q = lo..hi.

    Each psi_i(q) is evaluated once; the first irrational value raises
    ExactnessError. Terms, not running sums, so a caller that needs one series
    does not pay for adding up the other. The totient sieve grows with q: to 2q
    while that is at most hi / 2, then to hi. A caller that stops early sieves
    about as far as it read, and one that reads every term less than twice to hi.
    """
    phi: list[int] = []
    for q in range(lo, hi + 1):
        if q >= len(phi):
            phi = totient_sieve(hi if 4 * q > hi else 2 * q)
        term = Fraction(1)
        for comp in psi.components:
            term *= psi_value(comp, q)
        yield Fraction(q) ** params.n * term, Fraction(phi[q]) ** params.n * term


def khintchine_sum(params: Params, psi: ApproxTuple, n_terms: int) -> Fraction:
    """sum_{q=1}^{N} q^n prod_i psi_i(q), exact rational."""
    return sum((kh for kh, _ in _series_terms(params, psi, 1, n_terms)), Fraction(0))


def duffin_schaeffer_sum(
    params: Params, psi: ApproxTuple, n_terms: int
) -> tuple[Fraction, Fraction | None]:
    """sum_{q=1}^{N} phi(q)^n prod_i psi_i(q) and its ratio to the khintchine sum."""
    kh = ds = Fraction(0)
    for k, d in _series_terms(params, psi, 1, n_terms):
        kh += k
        ds += d
    return ds, (ds / kh if kh else None)


def layer_reference_sum(params: Params, psi: ApproxTuple, lo: int, hi: int) -> Fraction:
    """sum over a0 in [lo, hi] coprime to p of phi(a0)^n prod p^{-t_i(a0)}.

    Always rational, so it serves as the exact convergence-tail bound even for
    power laws whose psi values are irrational.
    """
    total = Fraction(0)
    for a0 in range(lo, hi + 1):
        total += reference_measure(params, psi, a0)
    return total


# ---------------------------------------------------------------------------
# The measure claims
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimsReport:
    a0: int
    b0: int
    measure_a: Fraction
    reference_a: Fraction
    equal_a: bool
    measure_b: Fraction
    reference_b: Fraction
    equal_b: bool
    intersection_measure: Fraction
    ratio_denominator: Fraction
    ratio: Fraction | None


def intersection_measure(params: Params, psi: ApproxTuple, a0: int, b0: int, reduced: bool = True) -> Fraction:
    """Exact measure of layer(a0) cap layer(b0), via coordinatewise coset filtering."""
    da = layer_coordinate_data(params, psi, a0, reduced)
    db = layer_coordinate_data(params, psi, b0, reduced)
    return _data_intersection(params.p, da, db)


def _data_intersection(
    p: int, da: Sequence[tuple[int, set[int]]], db: Sequence[tuple[int, set[int]]]
) -> Fraction:
    """Measure of the intersection of two layers given by layer_coordinate_data records.

    Per coordinate, a finer coset lies in the coarser union iff its residue
    reduces into the coarser residue set.
    """
    mu = Fraction(1)
    for (ta, ra), (tb, rb) in zip(da, db):
        if ta > tb:
            (ta, ra), (tb, rb) = (tb, rb), (ta, ra)
        mod = p**ta
        count = sum(1 for r in rb if r % mod in ra)
        mu *= Fraction(count, p**tb)
    return mu


def _ratio_denominator(
    n: int, a0: int, b0: int, values: Iterable[tuple[Fraction, Fraction]]
) -> Fraction:
    """a0^n b0^n prod_i psi_i(a0) psi_i(b0), from the pairs (psi_i(a0), psi_i(b0))."""
    denom = Fraction(a0 * b0) ** n
    for va, vb in values:
        denom *= va * vb
    return denom


def measure_claims_check(params: Params, psi: ApproxTuple, a0: int, b0: int) -> ClaimsReport:
    """Exact check of the layer-measure identity and the pairwise intersection bound.

    The ratio compares mu(layer(a0) cap layer(b0)) against
    a0^n b0^n prod_i psi_i(a0) psi_i(b0); it is None on the diagonal a0 = b0,
    where the intersection is the layer itself and the bound does not apply.
    """
    if math.gcd(a0, params.p) != 1 or math.gcd(b0, params.p) != 1:
        raise ValueError("a0 and b0 must be coprime to p")
    da = layer_coordinate_data(params, psi, a0, True)
    db = layer_coordinate_data(params, psi, b0, True)
    mu_a = _data_measure(params.p, da)
    mu_b = _data_measure(params.p, db)
    ref_a = _reference(params, a0, (t for t, _ in da))
    ref_b = _reference(params, b0, (t for t, _ in db))
    mu_ab = _data_intersection(params.p, da, db)
    denom = _ratio_denominator(
        params.n, a0, b0, ((psi_value(c, a0), psi_value(c, b0)) for c in psi.components)
    )
    ratio = None if a0 == b0 else mu_ab / denom
    return ClaimsReport(
        a0=a0,
        b0=b0,
        measure_a=mu_a,
        reference_a=ref_a,
        equal_a=mu_a == ref_a,
        measure_b=mu_b,
        reference_b=ref_b,
        equal_b=mu_b == ref_b,
        intersection_measure=mu_ab,
        ratio_denominator=denom,
        ratio=ratio,
    )


def claim_c_max_ratio(
    params: Params, psi: ApproxTuple, bound: int
) -> tuple[Fraction, tuple[int, int]]:
    """Max off-diagonal intersection ratio over 1 <= a0 < b0 <= bound coprime to p."""
    best = Fraction(0)
    arg = (0, 0)
    pairs = [q for q in range(1, bound + 1) if math.gcd(q, params.p) == 1]
    data = {q: layer_coordinate_data(params, psi, q, True) for q in pairs}
    psis = {q: [psi_value(c, q) for c in psi.components] for q in pairs}
    for i, a0 in enumerate(pairs):
        for b0 in pairs[i + 1 :]:
            mu = _data_intersection(params.p, data[a0], data[b0])
            ratio = mu / _ratio_denominator(params.n, a0, b0, zip(psis[a0], psis[b0]))
            if ratio > best:
                best, arg = ratio, (a0, b0)
    return best, arg


# ---------------------------------------------------------------------------
# Local ubiquity check
# ---------------------------------------------------------------------------


def ubiquity_fraction(
    params: Params,
    alpha: Sequence[Fraction],
    M: int,
    k: int,
    depth: int,
    c1: Fraction = Fraction(1),
    ball: ClopenSet | None = None,
) -> Fraction:
    """mu(B cap union_{M^k <= a0 <= M^{k+1}} Delta(R_a0, (c1/M^{k+1})^alpha)) / mu(B).

    Rectangles of the fixed dyadic-block radius around every rational point
    a/a0 with |a_i| <= a0; the local-ubiquity experiment reports how much of
    the ball the block covers. Its exponents are step_exponent(ScaledPower(c1,
    alpha_i), M^{k+1}); the first layer refuses a bad depth or a level past it.
    """
    if len(alpha) != params.n:
        raise ValueError("alpha must have n components")
    if M < 2 or k < 0:
        raise ValueError(f"need M >= 2 and k >= 0, got M={M}, k={k}")
    exps = [step_exponent(ScaledPower(c1, a), M ** (k + 1), params.p) for a in alpha]
    acc = _range_union(params, range(M**k, M ** (k + 1) + 1), repeat(exps), False, depth)
    if ball is not None:
        acc = (acc.to_set() if params.n == 1 else acc).intersect(ball)
        return acc.measure() / ball.measure()
    return acc.measure()


# ---------------------------------------------------------------------------
# Sweep rows for CSV emission
# ---------------------------------------------------------------------------


def layer_sweep_rows(
    params: Params, psi: ApproxTuple, lo: int, hi: int, reduced: bool, depth: int | None = None
) -> Iterator[Mapping[str, object]]:
    """One row per a0: layer measure, the phi-formula reference, the running
    union measure, and both partial series (series skipped if irrational).

    The last row also carries the union itself under "union": partial_limsup
    over the same range, for n = 1 as its ball table (read it as a set with
    to_set()). The range pass of partial_limsup runs in this call, before any
    row: a bad range or a short depth raises here, and the step exponents of
    each a0 give its layer and its reference."""
    exps, depth = _range_exponents(params, psi, lo, hi, depth)
    return _sweep_rows(params, psi, lo, hi, exps, reduced, depth)


def _sweep_rows(
    params: Params, psi: ApproxTuple, lo: int, hi: int, exps: Iterable[Sequence[int]], reduced: bool, depth: int
) -> Iterator[Mapping[str, object]]:
    """layer_sweep_rows: an n = 1 layer joins a ball table, an n >= 2 one a running union set."""
    acc = _BallTable(params.p, depth) if params.n == 1 else ClopenSet.empty(params.p, params.n, depth)
    series = _series_terms(params, psi, lo, hi)
    kh = ds = Fraction(0)
    for a0, e in zip(range(lo, hi + 1), exps):
        record = _layer_record(params.p, a0, e, reduced)
        if params.n == 1:
            acc.add(*record[0])
        else:
            acc = acc.union(_layer(params, record, depth))
        if series is not None:
            try:
                k, d = next(series)
                kh += k
                ds += d
            except ExactnessError:
                series = kh = ds = None
        yield {
            "a0": a0,
            "layer_measure": _data_measure(params.p, record),
            "reference": _reference(params, a0, e),
            "union_measure": acc.measure(),
            "khintchine_partial": kh,
            "duffin_schaeffer_partial": ds,
            **({"union": acc} if a0 == hi else {}),
        }
