"""Constructive small solutions of p-adic linear-form systems by pigeonhole.

Given n forms L_i in (x_0, ..., x_n) with p-adic integer coefficients, height
bounds H_j, exponents tau (summing to n+1) and shifts sigma (summing to n), the
pigeonhole argument buckets the value vectors (L_i(x) mod p^{delta_i}) over the
box 0 <= x_j <= H_j and returns the difference of the first colliding pair in
lex order. The bucket exponents delta_i are the exact integers with
p^{delta_i - 1} <= p^{-sigma_i} T^{tau_i} < p^{delta_i}, T^{n+1} = prod(H_j+1).

Computed at exact T (no epsilon perturbation): the bucket bound p^{-delta_i} is
then strictly below p^{sigma_i} T^{-tau_i}, so any collision difference
satisfies the target system outright. The only loss is that the pigeonhole
surplus may be non-strict (p^{sum delta} = T^{n+1}); such runs are flagged
"boundary" and fall back to exhaustive search if no collision appears.

The collision is computed without walking the box. Every collision difference
lies in the kernel lattice {x : L_i(x) = 0 mod p^{delta_i}}, and the first
collision is its box vector v > 0 (lex) with the lex-least z(v) = max(0, v)
(see `_first_collision`). Lattice points in a box are listed by Fincke-Pohst
enumeration over an LLL-reduced basis, on exact integer Gram-Schmidt data, so
the cost depends on the number of lattice points near the box, not on H.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .core import PAdicInt, _split_power
from .exactcmp import floor_log_powprod


class BelowThresholdError(ValueError):
    """T is too small: some bucket exponent would be negative."""


class SolverError(RuntimeError):
    pass


class _PrecisionError(ValueError, SolverError):
    """A congruence the search needs lies beyond the known p-adic digits of the
    coefficients (or of a Dirichlet base point): bad input to a caller
    (ValueError), and a failed search to code that handles SolverError."""


@dataclass(frozen=True)
class LinearFormSystem:
    """n forms in n+1 unknowns, with box heights and exponent data."""

    p: int
    n: int
    coeffs: tuple[tuple[PAdicInt, ...], ...]
    heights: tuple[int, ...]
    tau: tuple[Fraction, ...]
    sigma: tuple[Fraction, ...]

    def __post_init__(self):
        n = self.n
        if len(self.coeffs) != n or any(len(row) != n + 1 for row in self.coeffs):
            raise ValueError("need n forms with n+1 coefficients each")
        if len(self.heights) != n + 1 or any(h < 1 for h in self.heights):
            raise ValueError("need n+1 heights, all >= 1")
        object.__setattr__(self, "tau", tuple(Fraction(t) for t in self.tau))
        object.__setattr__(self, "sigma", tuple(Fraction(s) for s in self.sigma))
        if len(self.tau) != n or len(self.sigma) != n:
            raise ValueError("tau and sigma must have n entries")
        if sum(self.tau) != n + 1:
            raise ValueError(f"sum(tau) must be n+1, got {sum(self.tau)}")
        if any(t <= 0 for t in self.tau):
            raise ValueError("tau entries must be positive")
        if sum(self.sigma) != n:
            raise ValueError(f"sum(sigma) must be n, got {sum(self.sigma)}")
        for row in self.coeffs:
            for c in row:
                if c.prime != self.p:
                    raise ValueError("coefficient prime differs from system prime")

    @property
    def precision(self) -> int:
        return min(c.precision for row in self.coeffs for c in row)

    @property
    def t_power(self) -> int:
        """T^{n+1} = prod (H_j + 1); T itself is generally irrational."""
        return math.prod(h + 1 for h in self.heights)


def bucket_exponents(sys: LinearFormSystem) -> tuple[int, ...]:
    """The unique integers with p^{delta_i-1} <= p^{-sigma_i} T^{tau_i} < p^{delta_i}."""
    out = []
    for i in range(sys.n):
        value = [
            (Fraction(sys.p), -sys.sigma[i]),
            (Fraction(sys.t_power), sys.tau[i] / (sys.n + 1)),
        ]
        delta = floor_log_powprod(sys.p, value) + 1
        if delta < 0:
            raise BelowThresholdError(
                f"below H_sigma threshold: bucket exponent {delta} < 0 for form {i}"
            )
        out.append(delta)
    return tuple(out)


@dataclass(frozen=True)
class MinkowskiSolution:
    x: tuple[int, ...]
    bucket_exponents: tuple[int, ...]
    verified: bool
    boundary: bool
    method: str


def lemma_thresholds(sys: LinearFormSystem) -> tuple[int, ...]:
    """m_i = least v with p^{-v} <= p^{sigma_i} T^{-tau_i}; always m_i <= delta_i."""
    p, t_power = Fraction(sys.p), Fraction(sys.t_power)
    return tuple(
        -floor_log_powprod(sys.p, [(p, s), (t_power, -t / (sys.n + 1))])
        for s, t in zip(sys.sigma, sys.tau)
    )


def _lemma_moduli(sys: LinearFormSystem) -> list[int]:
    """The lemma bound |L_i(x)|_p <= p^{sigma_i} T^{-tau_i} as the congruences
    L_i(x) = 0 mod p^{min(precision, max(0, m_i))}: a form that vanishes to the
    working precision meets any m_i, and one that does not has valuation below
    the precision."""
    k = sys.precision
    return [sys.p ** min(k, max(0, m)) for m in lemma_thresholds(sys)]


def _form_values(sys: LinearFormSystem, x: Sequence[int]) -> list[int]:
    """sum_j c_ij x_j on the coefficient residues, one integer per form."""
    return [sum(c.residue * xj for c, xj in zip(row, x)) for row in sys.coeffs]


def satisfies_lemma_bound(sys: LinearFormSystem, x: Sequence[int]) -> bool:
    """Exact check of |L_i(x)|_p <= p^{sigma_i} T^{-tau_i} for all i, decided
    at the working precision (see `_lemma_moduli`)."""
    return all(value % mod == 0 for value, mod in zip(_form_values(sys, x), _lemma_moduli(sys)))


def verify_solution(
    sys: LinearFormSystem,
    x: Sequence[int],
    deltas: Sequence[int] | None = None,
) -> bool:
    """Height bounds, nonzero, and the lemma bound, all exact.

    Given deltas, the stricter method-internal congruences
    L_i(x) == 0 mod p^{delta_i} are asserted too; brute-force fallback
    solutions are passed none and held only to the lemma bound. Each form is
    evaluated once for both checks.
    """
    if all(v == 0 for v in x):
        return False
    if any(abs(v) > h for v, h in zip(x, sys.heights)):
        return False
    values = _form_values(sys, x)
    if deltas is not None and any(value % sys.p**delta for value, delta in zip(values, deltas)):
        return False
    return all(value % mod == 0 for value, mod in zip(values, _lemma_moduli(sys)))


def _checked_buckets(sys: LinearFormSystem) -> tuple[tuple[int, ...], bool]:
    """The bucket exponents, refused above the working precision, and whether
    the pigeonhole surplus is non-strict (the "boundary" flag)."""
    deltas = bucket_exponents(sys)
    if max(deltas) > sys.precision:
        raise _PrecisionError(
            f"coefficient precision {sys.precision} below max bucket exponent {max(deltas)}"
        )
    return deltas, sys.t_power == sys.p ** sum(deltas)


def solve(sys: LinearFormSystem) -> MinkowskiSolution:
    """Pigeonhole solver: the first collision of the row-major walk over the box.

    Deterministic for a fixed system. Falls back to brute force in the flagged
    boundary regime when the non-strict pigeonhole happens to admit no
    collision.
    """
    deltas, boundary = _checked_buckets(sys)
    lattice = _congruence_lattice(_residues(sys), [sys.p**d for d in deltas])
    x = _first_collision(lattice, sys.heights)
    if x is not None:
        ok = verify_solution(sys, x, deltas)
        return MinkowskiSolution(x, deltas, ok, boundary, "bucket")
    # no collision: only possible when the surplus is non-strict
    x = brute_force(sys)
    if x is None:
        raise SolverError("no solution found in boundary regime")
    return MinkowskiSolution(x, deltas, verify_solution(sys, x), boundary, "brute-force")


def _residues(sys: LinearFormSystem) -> list[list[int]]:
    return [[c.residue for c in row] for row in sys.coeffs]


def brute_force(sys: LinearFormSystem) -> tuple[int, ...] | None:
    """Lexicographically smallest nonzero vector in the box satisfying the lemma bound.

    The fallback of `solve` in the boundary regime. The lemma bound on form i is the
    congruence L_i(x) = 0 mod p^{min(precision, max(0, m_i))}, so the answer is
    the lex-least nonzero point of that congruence lattice in the box
    |x_j| <= H_j, found by a lex-ordered search.
    """
    heights = sys.heights
    x = _least_point(
        [0] * len(heights), _congruence_lattice(_residues(sys), _lemma_moduli(sys)),
        [-h for h in heights], list(heights), 0, None,
    )
    return tuple(x) if x is not None and any(x) else None


def pigeonhole_surplus(sys: LinearFormSystem) -> bool:
    """True when prod(H_j+1) strictly exceeds the bucket count p^{sum delta_i}."""
    return sys.t_power > sys.p ** sum(bucket_exponents(sys))


# ---------------------------------------------------------------------------
# Kernel lattices: basis, LLL, box enumeration, lex-ordered search
# ---------------------------------------------------------------------------

# box points one enumeration lists before a lex-ordered search splits the box
ENUM_CAP = 1 << 12


def _first_collision(lattice: list[list[int]], heights: Sequence[int]) -> tuple[int, ...] | None:
    """The difference of the first colliding pair of the lex walk over
    0 <= x_j <= H_j, for the bucket kernel lattice; None if nothing collides.

    A collision difference v = z - w (w before z) is a lattice vector v > 0
    (lex) with |v_j| <= H_j. The lex-least z with z and z - v both in the box
    is z(v) = max(0, v) coordinatewise, so the walk stops at the least z(v),
    and that v is unique: two of them would give two earlier points with
    equal keys, an earlier collision. When the lattice has too many box points
    to list, the v whose first nonzero coordinate comes last has the least
    z(v), so the regions {v_0 = ... = v_{k-1} = 0 < v_k} are searched for
    k = n, n - 1, ..., 0.
    """
    m = len(heights)
    zero = [0] * m
    points = _box_points(zero, lattice, [-h for h in heights], list(heights), ENUM_CAP, half=True)
    if len(points) < ENUM_CAP:
        positive = (v if v > zero else [-x for x in v] for v in points)
        v = min(positive, key=_collision_point, default=None)
        return None if v is None else tuple(v)
    for k in reversed(range(m)):
        lo = [0] * k + [1] + [-h for h in heights[k + 1 :]]
        hi = [0] * k + list(heights[k:])
        v = _least_point(zero, lattice, lo, hi, k, _collision_point)
        if v is not None:
            return tuple(v)
    return None


def _collision_point(v: Sequence[int]) -> list[int]:
    """z(v): the first point of the walk whose key repeats at z - v."""
    return [max(0, x) for x in v]


def _least_point(t, rows, lo, hi, j, key):
    """The point of t + span(rows) in the box [lo, hi] that is least under key
    (lex order for key None), with coordinates before j already decided.

    If the box holds fewer than ENUM_CAP points they are listed and compared.
    Otherwise coordinate j is decided first: under `_collision_point` any value
    in lo_j..0 gives z_j = 0, so that range is kept if it meets the lattice;
    else x_j is fixed at the least value the box allows, found by bisection
    with one emptiness test per step.
    """
    sliced = _fix(t, rows, lo, hi)
    if sliced is None:
        return None
    t, rows = sliced
    points = _box_points(t, rows, lo, hi, ENUM_CAP)
    if len(points) < ENUM_CAP or j == len(lo):
        return min(points, key=key, default=None)

    def upto(c):
        return [*hi[:j], c, *hi[j + 1 :]]

    if key is _collision_point and lo[j] <= 0:
        if _box_points(t, rows, lo, upto(min(0, hi[j])), 1):
            return _least_point(t, rows, lo, upto(min(0, hi[j])), j + 1, key)
        lo = [*lo[:j], 1, *lo[j + 1 :]]
    a, b = lo[j], hi[j]
    while a < b:
        c = (a + b) // 2
        if _box_points(t, rows, lo, upto(c), 1):
            b = c
        else:
            a = c + 1
    return _least_point(t, rows, [*lo[:j], a, *lo[j + 1 :]], upto(a), j + 1, key)


def _congruence_lattice(forms: Sequence[Sequence[int]], moduli: Sequence[int]) -> list[list[int]]:
    """A basis (rows) of {x in Z^m : sum_j forms[i][j] x_j = 0 mod moduli[i] for all i}.

    From the identity, one form at a time: unimodular row operations make the
    form's values on the rows (g, 0, ..., 0); then row 0 is scaled by the
    least s with s g = 0 mod the modulus, s = modulus / gcd(g, modulus).
    """
    m = len(forms[0]) if forms else 0
    rows = [[int(i == j) for j in range(m)] for i in range(m)]
    for form, mod in zip(forms, moduli):
        rows, g = _clear(rows, [sum(map(mul, form, r)) % mod for r in rows])
        scale = mod // math.gcd(g, mod)
        rows[0] = [scale * x for x in rows[0]]
    return rows


def _clear(rows: list[list[int]], values: list[int]) -> tuple[list[list[int]], int]:
    """Unimodular row operations, applied to values alongside, until the values
    read (g, 0, ..., 0) with g = gcd(values) >= 0; returns the rows and g."""
    rows = list(rows)
    g = values[0] if values else 0
    for k in range(1, len(rows)):
        b = values[k]
        if b == 0:
            continue
        # x0 g + y0 b = r0 = gcd(g, b), by the extended Euclidean algorithm
        r0, r1, x0, x1, y0, y1 = g, b, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
        if r0 < 0:
            r0, x0, y0 = -r0, -x0, -y0
        a, c = rows[0], rows[k]
        rows[0] = [x0 * u + y0 * w for u, w in zip(a, c)]
        rows[k] = [b // r0 * u - g // r0 * w for u, w in zip(a, c)]
        g = r0
    if g < 0:
        rows[0] = [-u for u in rows[0]]
    return rows, abs(g)


def _slice(t, rows, j, c):
    """t + span(rows) restricted to x_j = c, as (t', rows') or None if empty."""
    rows, g = _clear(rows, [r[j] for r in rows])
    if g == 0:
        return (t, rows) if t[j] == c else None
    q, r = divmod(c - t[j], g)
    if r:
        return None
    return [u + q * w for u, w in zip(t, rows[0])], rows[1:]


def _fix(t, rows, lo, hi):
    """t + span(rows) sliced at every coordinate with lo_j = hi_j, as (t', rows'),
    or None if the box is empty or misses the slice."""
    for j, (a, e) in enumerate(zip(lo, hi)):
        if a > e:
            return None
        if a == e:
            sliced = _slice(t, rows, j, a)
            if sliced is None:
                return None
            t, rows = sliced
    return t, rows


def _lll(rows: list[list[int]], w2: Sequence[int]):
    """Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7, with delta = 3/4) under the inner product sum_j w2_j u_j v_j.

    Takes at least one row. Returns the reduced rows with their Gram-Schmidt
    data as integers: d[i + 1] is the Gram determinant of rows 0..i
    (d[0] = 1), and lam[k][i] = d[i + 1] mu_{k,i} for i < k.
    """
    b = [list(r) for r in rows]
    size = len(b)

    def dot(u, v):
        return sum(map(mul, map(mul, u, v), w2))

    d = [1] * (size + 1)
    lam = [[0] * size for _ in range(size)]
    d[1] = dot(b[0], b[0])

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [u - q * w for u, w in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    while k < size:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            lk = lam[k][k - 1]
            swapped = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (swapped * t + lk * lam[i][k]) // d[k + 1]
            d[k] = swapped
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return b, d, lam, dot


def _box_points(t, rows, lo, hi, cap, half=False):
    """Points of the affine lattice t + span(rows) in the box lo <= x <= hi, at
    most cap of them (a list of cap points means there may be more). With half,
    for a lattice (t = 0) and a box symmetric about 0, one of each pair +-v of
    nonzero points: the one whose last nonzero basis coefficient is positive.

    Coordinates with lo_j = hi_j are sliced off first. The rest is Fincke-Pohst
    enumeration of the ellipsoid sum_j (w_j (x_j - c_j))^2 <= r L^2 around the
    box centre c, with w_j = L / R_j for the half-widths R_j and L = lcm(R_j),
    which holds the box; at the last level the box itself cuts the range.
    With N_i = lam_e[i] + d[i+1] u_i + sum_{k>i} lam[k][i] u_k, the squared
    length is sum_i N_i^2 / (d[i] d[i+1]), so every bound is an integer square
    root and no fraction or float decides which points are listed.
    """
    sliced = _fix(t, rows, lo, hi)
    if sliced is None:
        return []
    t, rows = sliced
    if not rows:
        return [list(t)]
    centre = [(a + c) // 2 for a, c in zip(lo, hi)]
    widths = [max(c - a, e - c) for a, c, e in zip(lo, centre, hi)]
    scale = math.lcm(*(w for w in widths if w))
    rows, d, lam, dot = _lll(rows, [(scale // w) ** 2 if w else 0 for w in widths])
    size = len(rows)
    offset = [u - c for u, c in zip(t, centre)]
    lam_e = []
    for j in range(size):
        u = dot(offset, rows[j])
        for i in range(j):
            u = (d[i + 1] * u - lam_e[i] * lam[j][i]) // d[i]
        lam_e.append(u)
    denoms = [d[i] * d[i + 1] for i in range(size)]
    common = math.lcm(*denoms)
    weights = [common // q for q in denoms]
    found: list[list[int]] = []
    coeffs = [0] * size

    def descend(i, budget, point, signed):
        # budget = common * (r L^2 - sum over levels above i of N^2 / (d d));
        # signed: some coefficient above i is nonzero, or both signs are wanted
        s = lam_e[i] + sum(lam[k][i] * coeffs[k] for k in range(i + 1, size))
        step = d[i + 1]
        reach = math.isqrt(budget // weights[i])
        first, last = -((reach + s) // step), (reach - s) // step
        if not signed:
            first = max(first, 0 if i else 1)
        row = rows[i]
        if i:
            # centre out, so that a capped listing of a dense box stops early
            mid = min(max(first, -s // step), last + 1)
            for u in itertools.chain(range(mid, last + 1), range(mid - 1, first - 1, -1)):
                coeffs[i] = u
                n_i = step * u + s
                x = [a + u * r for a, r in zip(point, row)]
                if descend(i - 1, budget - n_i * n_i * weights[i], x, signed or u != 0):
                    return True
            return False
        # last level: the box itself bounds u, one interval per coordinate
        for a, e, x, r in zip(lo, hi, point, row):
            if r > 0:
                first, last = max(first, -((x - a) // r)), min(last, (e - x) // r)
            elif r < 0:
                first, last = max(first, -((e - x) // -r)), min(last, (x - a) // -r)
            elif not a <= x <= e:
                return False
        for u in range(first, min(last, first + cap - len(found) - 1) + 1):
            found.append([a + u * r for a, r in zip(point, row)])
        return len(found) >= cap

    descend(size - 1, size * scale * scale * common, list(t), not half)
    return found


# ---------------------------------------------------------------------------
# Structured congruence scan
# ---------------------------------------------------------------------------


def solve_structured(sys: LinearFormSystem) -> MinkowskiSolution:
    """Solve the bucket congruences by back-substitution for triangular systems.

    Form i resolves x_{i+1} once x_0, ..., x_i are fixed: its coefficients on
    x_{i+2}, ..., x_n must vanish mod p^{delta_i}. This is exactly the shape of
    the linearized systems built by the manifold solver, and scanning
    x_0 = 1..H_0 costs O(H_0) instead of enumerating the whole box. The
    solutions found satisfy the same congruences a bucket collision
    difference would.
    """
    deltas, boundary = _checked_buckets(sys)
    n, p = sys.n, sys.p
    pivot_data = []
    for i, row in enumerate(sys.coeffs):
        for j in range(i + 2, n + 1):
            if row[j].residue % p ** deltas[i] != 0:
                raise ValueError(f"form {i} touches variable {j} before it is pivoted")
        if row[i + 1].residue == 0:
            raise ValueError(f"form {i} has zero-to-precision pivot coefficient")
        pivot_data.append(_split_power(row[i + 1].residue, p))

    def extend(x: list[int]) -> list[int] | None:
        i = len(x) - 1
        if i == n:
            return x
        nu, unit = pivot_data[i]
        mod = p ** deltas[i]
        partial = sum(c.residue * v for c, v in zip(sys.coeffs[i], x)) % mod
        if nu >= deltas[i]:
            # pivot contributes nothing mod p^delta: need partial == 0 already
            candidates = [0] if partial == 0 else []
        elif partial % p**nu != 0:
            return None
        else:
            step = p ** (deltas[i] - nu)
            y0 = -(partial // p**nu) * pow(unit, -1, step)
            candidates = _centered_candidates(y0, step, sys.heights[i + 1])
        for y in candidates:
            out = extend(x + [y])
            if out is not None:
                return out
        return None

    for x0 in range(1, sys.heights[0] + 1):
        x = extend([x0])
        if x is not None:
            x = tuple(x)
            ok = verify_solution(sys, x, deltas)
            return MinkowskiSolution(x, deltas, ok, boundary, "congruence-scan")
    raise SolverError("no structured solution with x_0 in [1, H_0]")


def _centered_candidates(target: int, mod: int, bound: int) -> list[int]:
    """Integers congruent to target mod `mod` within [-bound, bound], ascending."""
    t = target % mod
    first = t - ((t + bound) // mod) * mod
    return list(range(first, bound + 1, mod))
