"""Polynomial maps on Z_p^d with certified quadratic-error Taylor bounds, and
the constructive Dirichlet-style approximation machinery on their graphs.

The maps are restricted to polynomials with p-integral coefficients, which
fixes their quadratic-error constants at C = epsilon = 1 and lambda = 0: the
first-order Taylor remainder is a polynomial with p-integral coefficients all
of degree >= 2 in the displacement, so C = 1 is certified coefficientwise on
the whole of Z_p^d (epsilon = 1), and every partial derivative has norm at
most 1 there, so p^lambda = max(1, max |df_j/dx_i|_p) = 1. Every solver
output is re-verified against the target inequality system before it is
returned, as integer congruences on the homogenized forms of the components.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .clopen import ClopenSet, box_code
from .core import HypothesisError, PAdicInt, _rationals, _split_power, is_prime, parse_fraction
from .exactcmp import ball_exponent, int_root_floor
from .minkowski import (
    LinearFormSystem,
    SolverError,
    _centered_candidates,
    _PrecisionError,
    solve_structured,
)

Monomial = tuple[Fraction, tuple[int, ...]]
S_TAU_BUDGET = 30_000_000  # largest (2 h_max + 1)^d * h_max that enumerate_S_tau takes on


@dataclass(frozen=True)
class IntegerForm:
    """The homogenization F(a_0, c) = scale * a_0^degree * f(c / a_0) of one
    component f, as integer terms (coefficient, a_0 exponent, c exponents).

    scale is the lcm of the coefficient denominators (a p-unit) and
    degree = max(1, deg f). For a_0 prime to p,
        f(c / a_0) - t / a_0 = (F(a_0, c) - unit(a_0) * t) / (scale * a_0^degree),
    so the left side has the p-valuation of the integer F(a_0, c) - unit(a_0) * t.
    """

    scale: int
    degree: int
    terms: tuple[tuple[int, int, tuple[int, ...]], ...]

    def unit(self, a0: int) -> int:
        """scale * a_0^(degree-1): the multiplier of t, a p-unit when a_0 is."""
        return self.scale * a0 ** (self.degree - 1)

    def at(self, a0: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """F(a_0, .) for a fixed a_0, as integer monomials in c."""
        return tuple((coeff * a0**k, exps) for coeff, k, exps in self.terms)

    def __call__(self, a0: int, c: Sequence[int]) -> int:
        return _eval_monomials(self.at(a0), c)

    def taylor(self, c: Sequence[int], mod: int) -> tuple[int, list[int]]:
        """f(c) and the gradient of f at c, mod `mod` (a power of p): F(1, c) =
        scale * f(c) with scale a p-unit, so both are scale^-1 times F(1, .)
        and its partial derivatives at c."""
        inv = pow(self.scale, -1, mod)
        grad = []
        for i in range(len(c)):
            partial = [(coeff * e[i], e[:i] + (e[i] - 1,) + e[i + 1 :]) for coeff, _, e in self.terms if e[i]]
            grad.append(_eval_monomials(partial, c) * inv % mod)
        return self(1, c) * inv % mod, grad


def _eval_monomials(monos: Sequence[tuple[int, tuple[int, ...]]], c: Sequence[int]) -> int:
    """Value of an integer polynomial, given as (coefficient, exponents), at c."""
    total = 0
    for coeff, exps in monos:
        for x, e in zip(c, exps):
            coeff *= x**e
        total += coeff
    return total


@dataclass(frozen=True)
class PolyMap:
    """f = (f_1, ..., f_m): Z_p^d -> Z_p^m with p-integral coefficients.

    Each component is a tuple of (coefficient, exponent-vector) monomials;
    `forms` holds the integer homogenization of each component.
    """

    p: int
    d: int
    m: int
    polys: tuple[tuple[Monomial, ...], ...]
    forms: tuple[IntegerForm, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.d < 1 or self.m < 1:
            raise ValueError("d >= 1 and m >= 1 required")
        if len(self.polys) != self.m:
            raise ValueError(f"need {self.m} component polynomials")
        normalized = []
        for poly in self.polys:
            mono = []
            for coeff, exps in poly:
                coeff = Fraction(coeff)
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.d or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps}")
                if coeff.denominator % self.p == 0:
                    raise ValueError(f"coefficient {coeff} is not a p-adic integer")
                if coeff != 0:
                    mono.append((coeff, exps))
            normalized.append(tuple(sorted(mono, key=lambda t: t[1])))
        object.__setattr__(self, "polys", tuple(normalized))
        forms = []
        for poly in normalized:
            scale = math.lcm(1, *(c.denominator for c, _ in poly))
            degree = max([1] + [sum(e) for _, e in poly])
            terms = tuple(
                (c.numerator * (scale // c.denominator), degree - sum(e), e) for c, e in poly
            )
            forms.append(IntegerForm(scale, degree, terms))
        object.__setattr__(self, "forms", tuple(forms))

    @property
    def n(self) -> int:
        return self.d + self.m

    def eval_exact(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Value at a rational point with p-unit denominators; exact."""
        out = []
        for poly in self.polys:
            total = Fraction(0)
            for coeff, exps in poly:
                term = coeff
                for x, e in zip(point, exps):
                    term *= Fraction(x) ** e
                total += term
            out.append(total)
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "m": self.m,
            "polys": [
                [[str(c), list(e)] for c, e in poly] for poly in self.polys
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PolyMap":
        """Inverse of to_json_dict; ValueError on any malformed part."""
        if not isinstance(data, dict):
            raise ValueError("map JSON must be an object")
        missing = [key for key in ("p", "d", "m", "polys") if key not in data]
        if missing:
            raise ValueError(f"map JSON lacks {', '.join(missing)}")
        if not isinstance(data["polys"], list):
            raise ValueError("map JSON 'polys' must be a list of monomial lists")
        polys = []
        for poly in data["polys"]:
            if not isinstance(poly, list):
                raise ValueError(f"component {poly!r} is not a list of monomials")
            mono = []
            for term in poly:
                if not (isinstance(term, list) and len(term) == 2 and isinstance(term[1], list)):
                    raise ValueError(f"monomial {term!r} is not [coefficient, [exponents]]")
                coeff, exps = term
                mono.append((parse_fraction(_json_scalar(coeff)), tuple(_json_int(e) for e in exps)))
            polys.append(tuple(mono))
        return cls(_json_int(data["p"]), _json_int(data["d"]), _json_int(data["m"]), tuple(polys))


def _json_scalar(value) -> int | str:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer or a string in map JSON, got {value!r}")
    return value


def _json_int(value) -> int:
    return int(_json_scalar(value))


@dataclass(frozen=True, slots=True)
class RationalPoint:
    """Integer vector (a_0, ..., a_n) seen as the rational point (a_1/a_0, ..., a_n/a_0)."""

    a: tuple[int, ...]
    height: int = field(init=False, compare=False, repr=False)  # max |a_i|, stored once

    def __post_init__(self):
        a = tuple(map(int, self.a))
        if a[0] == 0:
            raise ValueError("a_0 must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "height", max(map(abs, a)))

    @property
    def a0(self) -> int:
        return self.a[0]

    @property
    def primitive(self) -> bool:
        return math.gcd(*self.a) == 1

    def coordinates(self, count: int | None = None) -> tuple[Fraction, ...]:
        vals = self.a[1:] if count is None else self.a[1 : count + 1]
        return tuple(Fraction(v, self.a0) for v in vals)


def _known_points(vectors: Iterable[tuple[int, ...]], heights: Iterable[int]) -> list[RationalPoint]:
    """RationalPoints from tuples of ints with a_0 != 0 and their heights max |a_i|,
    already known to the caller: the two slots are set directly, so __post_init__
    neither converts the entries again nor recomputes the height."""
    vectors = list(vectors)
    points = list(map(object.__new__, itertools.repeat(RationalPoint, len(vectors))))
    collections.deque(map(_POINT_A.__set__, points, vectors), maxlen=0)
    collections.deque(map(_POINT_HEIGHT.__set__, points, heights), maxlen=0)
    return points


_POINT_A = RationalPoint.__dict__["a"]
_POINT_HEIGHT = RationalPoint.__dict__["height"]


@dataclass(frozen=True)
class DirichletInstance:
    """A base point on the graph of f with approximation exponents.

    tau are the dependent-block exponents (length m), v the independent-block
    exponents (length d); hypotheses checked on construction.
    """

    f: PolyMap
    x: tuple[PAdicInt, ...]
    tau: tuple[Fraction, ...]
    v: tuple[Fraction, ...]
    H: int
    _levels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        f = self.f
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "tau", tuple(Fraction(t) for t in self.tau))
        object.__setattr__(self, "v", tuple(Fraction(t) for t in self.v))
        if len(self.x) != f.d:
            raise ValueError("x must have d coordinates")
        if any(xi.prime != f.p for xi in self.x):
            raise ValueError("x coordinates must live over the map's prime")
        if len(self.tau) != f.m or len(self.v) != f.d:
            raise ValueError("tau must have m entries and v must have d entries")
        if sum(self.tau) >= f.m + 1:
            raise HypothesisError("sum(tau) < m+1", f"got {sum(self.tau)}")
        if any(t <= 1 for t in self.tau):
            raise HypothesisError("tau_j > 1", f"got {_rationals(self.tau)}")
        if sum(self.v) != f.n + 1 - sum(self.tau):
            raise HypothesisError(
                "sum(v) = n+1-sum(tau)", f"got {sum(self.v)} != {f.n + 1 - sum(self.tau)}"
            )
        if any(t <= 1 for t in self.v):
            raise HypothesisError("v_i > 1", f"got {_rationals(self.v)}")
        if self.H < 1:
            raise ValueError("H >= 1 required")

    @property
    def precision(self) -> int:
        return min(xi.precision for xi in self.x)

    @property
    def sigma_shift(self) -> Fraction:
        """(n + m*lambda)/d with lambda = 0."""
        return Fraction(self.f.n, self.f.d)

    def levels(self, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Closed-ball exponents (at least 0) of the target balls at shift k:
        s_i for |x_i - a_i/a_0|_p < p^(sigma+k) H^(-v_i) and u_j for
        |f_j(a/a_0) - a_(d+j)/a_0|_p < (p^(-k) H)^(-tau_j). Cached per k."""
        out = self._levels.get(k)
        if out is None:
            p, H = self.f.p, self.H
            s_exps = tuple(
                max(0, ball_exponent(p, [(p, self.sigma_shift + k), (H, -v)])) for v in self.v
            )
            u_exps = tuple(max(0, ball_exponent(p, [(p, k * t), (H, -t)])) for t in self.tau)
            out = self._levels[k] = (s_exps, u_exps)
        return out


@dataclass(frozen=True)
class H0Report:
    h0: int
    cases: dict

    def admissible(self, H: int) -> bool:
        return H > self.h0


def floor_log_int_power(p: int, exponent: Fraction) -> int:
    """floor(p^exponent) for a rational exponent, exact at any size (1 at exponent 0)."""
    exponent = Fraction(exponent)
    a, b = exponent.numerator, exponent.denominator
    if a < 0:
        return 0  # p^e < 1 for negative e
    return int_root_floor(p**a, b)


def dirichlet_h0(inst: DirichletInstance) -> H0Report:
    """The height threshold above which the constructive system is solvable.

    Four of the entries are rational powers p^e of p. With the DQE constants
    C = epsilon = 1 and lambda = 0 of every p-integral map (module docstring),
    alpha_1 and alpha_2 are p^0, and beta and gamma are both
    p^(sigma / (v_min - 1)). The fifth is the least height whose pigeonhole
    bucket exponents are all nonnegative. Returns the largest inadmissible
    integer, so the guarantee reads "every integer H > h0 works"; all five case
    values are logged in the report.
    """
    f = inst.f
    beta = inst.sigma_shift / (min(inst.v) - 1)
    cases = {}
    for name, e in (("alpha1", 0), ("alpha2", 0), ("beta", beta), ("gamma", beta)):
        # the largest H with NOT (H > p^e) is floor(p^e), at least 1 since e >= 0
        cases[name] = {"value": f"{f.p}^({e})", "float": _float_or_none(f.p, e), "h0": floor_log_int_power(f.p, e)}
    feas = _bucket_feasible_height(inst)
    named = f"ceil({f.p}^({_feasible_exponent(inst)})) - 1"
    cases["delta"] = {
        "value": f"least feasible H = {_decimal(feas, named)}", "float": _float_or_none(feas), "h0": feas - 1
    }
    return H0Report(h0=max(case["h0"] for case in cases.values()), cases=cases)


def _float_or_none(base: int, exponent: Fraction | int = 1) -> float | None:
    """float(base) ** float(exponent), or None past the float range."""
    try:
        return float(base) ** float(exponent)
    except OverflowError:
        return None


def _decimal(value: int, name: str) -> str:
    """value in decimal, or name when it has more digits than int-to-str conversion allows."""
    try:
        return str(value)
    except ValueError:
        return name


def _feasible_exponent(inst: DirichletInstance) -> Fraction:
    """The largest (sigma_i - 1) / tau_i over the forms: H + 1 >= p^e is the feasibility bound."""
    return max((inst.sigma_shift - 1) / v for v in inst.v)


def _bucket_feasible_height(inst: DirichletInstance) -> int:
    """Least H >= 1 whose linearized system has all bucket exponents >= 0.

    Form i has delta_i >= 0 exactly when p^{-sigma_i} (H+1)^{tau_i} >= p^{-1},
    that is H + 1 >= p^{(sigma_i - 1) / tau_i}. The dependent forms (sigma = 0)
    meet it at every H; the independent ones have sigma - 1 = m/d > 0, so H + 1
    is the least integer at or above p^e for the largest such exponent e.
    """
    p = inst.f.p
    e = _feasible_exponent(inst)
    root = floor_log_int_power(p, e)
    return max(1, root - 1 if root**e.denominator == p**e.numerator else root)


def _linearized_system(inst: DirichletInstance) -> LinearFormSystem:
    """Forms of the proof, as integer rows mod p^K at the base point's precision K:
    x_i b_0 - b_i for the independent block, and for the dependent block the
    first-order Taylor forms (lambda = 0) from `IntegerForm.taylor` at x."""
    f = inst.f
    prec = inst.precision
    x = [xi.residue for xi in inst.x]
    rows = []
    for i in range(f.d):
        row = [0] * (f.n + 1)
        row[0], row[i + 1] = x[i], -1
        rows.append(row)
    for j, form in enumerate(f.forms):
        value, grad = form.taylor(x, f.p**prec)
        row = [value - sum(map(operator.mul, grad, x)), *grad] + [0] * f.m
        row[f.d + j + 1] = -1
        rows.append(row)
    coeffs = tuple(tuple(PAdicInt(f.p, prec, r) for r in row) for row in rows)
    sigma = [inst.sigma_shift] * f.d + [Fraction(0)] * f.m
    tau = list(inst.v) + list(inst.tau)
    return LinearFormSystem(f.p, f.n, coeffs, (inst.H,) * (f.n + 1), tuple(tau), tuple(sigma))


@dataclass(frozen=True)
class DirichletSolution:
    point: RationalPoint
    k: int
    verified: bool
    method: str
    h0_report: H0Report  # the threshold report H was checked against
    # why the exhaustive search ran: None when the scan's point verified,
    # "solver-error: <message>" or "verification-failed"
    fallback: str | None = None


def verify_dirichlet(inst: DirichletInstance, point: RationalPoint, k: int) -> bool:
    """Exact re-check of the full inequality system and side conditions.

    Each inequality |w|_p < r is the congruence w = 0 mod p^t at the level t
    of `DirichletInstance.levels`, checked on integers: a_0 x_i - a_i for the
    independent block and the homogenized form of f_j for the dependent one.
    """
    f = inst.f
    p = f.p
    a = point.a
    if k < 0 or a[0] % p == 0 or not point.primitive:
        return False
    # heights: max |a_i| <= p^{-k} H, i.e. p^k max|a_i| <= H
    if p**k * point.height > inst.H:
        return False
    s_exps, u_exps = inst.levels(k)
    prec = inst.precision
    for i in range(f.d):
        diff = (a[0] * inst.x[i].residue - a[i + 1]) % p**prec
        if s_exps[i] > prec:
            if diff == 0:
                raise SolverError(
                    f"comparison below precision {prec}: increase the base point precision"
                )
            return False
        if diff % p ** s_exps[i]:
            return False
    c = a[1 : f.d + 1]
    for j, form in enumerate(f.forms):
        if (form(a[0], c) - form.unit(a[0]) * a[f.d + j + 1]) % p ** u_exps[j]:
            return False
    return True


def dirichlet_solve(inst: DirichletInstance) -> DirichletSolution:
    """Constructive solution of the approximation system at height H.

    Runs the pigeonhole solver on the linearized system (as a structured
    congruence scan), divides the scan vector by its gcd g, takes k as the
    p-adic valuation of g, verifies everything exactly, and falls back to
    exhaustive search if any step fails. Requires H above the computed
    threshold.
    """
    report = dirichlet_h0(inst)
    if not report.admissible(inst.H):
        # the first case at H_0 is a power p^e: delta's exponent m/(d v) is below beta's n/(d (v - 1))
        setter = next(c["value"] for c in report.cases.values() if c["h0"] == report.h0)
        raise HypothesisError("H > H_0", f"H={inst.H}, H_0={_decimal(report.h0, f'floor({setter})')}")
    fallback = "verification-failed"
    sys = _linearized_system(inst)
    try:
        x = solve_structured(sys).x  # x_0 >= 1
        g = math.gcd(*x)
        point = RationalPoint(tuple(v // g for v in x))
        k = _split_power(g, inst.f.p)[0]
        if verify_dirichlet(inst, point, k):
            return DirichletSolution(point, k, True, "congruence-scan", report)
    except SolverError as exc:
        # the scan refuses a base point coarser than a bucket exponent
        # (_PrecisionError); the search may still do with it
        fallback = f"solver-error: {exc}"
    point, k = _exhaustive_dirichlet(inst)
    return DirichletSolution(point, k, True, "exhaustive", report, fallback)


def _exhaustive_dirichlet(inst: DirichletInstance) -> tuple[RationalPoint, int]:
    """Direct search: for each admissible a_0 and shift k, the congruences pin
    every other coordinate to at most a few candidates."""
    f = inst.f
    p = f.p
    prec = inst.precision
    k = 0
    while p**k <= inst.H:
        Hk = inst.H // p**k
        s_exps, u_exps = inst.levels(k)
        if max(s_exps, default=0) > prec:
            raise _PrecisionError("needed congruence level exceeds the base point precision")
        moduli = [p**u for u in u_exps]
        for a0 in range(1, Hk + 1):
            if a0 % p == 0:
                continue
            coords = [
                _centered_candidates(a0 * xi.residue, p**s, Hk) for xi, s in zip(inst.x, s_exps)
            ]
            fixed = [form.at(a0) for form in f.forms]
            inverses = [pow(form.unit(a0), -1, mod) for form, mod in zip(f.forms, moduli)]
            for combo in itertools.product(*coords):
                dep = [
                    _centered_candidates(_eval_monomials(monos, combo) * inv, mod, Hk)
                    for monos, inv, mod in zip(fixed, inverses, moduli)
                ]
                for tail in itertools.product(*dep):
                    point = RationalPoint((a0, *combo, *tail))
                    if verify_dirichlet(inst, point, k):
                        return point, k
        k += 1
    raise SolverError("no solution found: H below threshold or an implementation bug")


# ---------------------------------------------------------------------------
# Resonant integer points and preimage covers
# ---------------------------------------------------------------------------


def _residue_column(
    form: IntegerForm, a0: int, prefix: Sequence[int], inv: int, top: int, bound: int
) -> list[int]:
    """Integers congruent to inv * F(a_0, prefix, x) mod top, for x = -bound..bound.

    F(a_0, prefix, .) is a polynomial of degree k in the last coordinate: its
    k + 1 leading differences at x = -bound, reduced mod top, are summed back
    up by k passes of `accumulate`.
    """
    poly = [0] * (1 + max((exps[-1] for _, _, exps in form.terms), default=0))
    for coeff, k, exps in form.terms:
        for x, e in zip(prefix, exps):
            coeff *= x**e
        poly[exps[-1]] += coeff * a0**k
    values = [inv * sum(c * x**i for i, c in enumerate(poly)) for x in range(-bound, -bound + len(poly))]
    leads = []
    while values:
        leads.append(values[0] % top)
        values = [b - a for a, b in zip(values, values[1:])]
    size = 2 * bound + 1
    column = [leads.pop()] * size
    while leads:
        column = list(itertools.accumulate(itertools.islice(column, size - 1), initial=leads.pop()))
    return column


def enumerate_S_tau(
    f: PolyMap,
    tau_dep: Sequence[Fraction],
    h_max: int,
    h_min: int = 1,
) -> list[RationalPoint]:
    """All primitive (a_0, ..., a_n), gcd(a_0, p)=1, height in [h_min, h_max],
    with |f_j(a_1/a_0, ..., a_d/a_0) - a_{d+j}/a_0|_p < h^{-tau_{d+j}} for all j,
    in lexicographic order.

    All of it runs on integers. With F_j the homogenized form of f_j, the error
    has the p-valuation of F_j(a_0, c) - unit_j(a_0) * a_{d+j}, and the strict
    inequality is that this integer vanishes mod M_j(h) = p^level(h, j). Every
    M_j(h) divides top_j = max_h M_j(h), so with r_j = F_j * unit_j^-1 mod top_j
    the condition reads r_j = a_{d+j} mod M_j(h). For each a_0 and prefix
    (c_1, ..., c_{d-1}), r_j is one column over the last coordinate; the
    dependent coordinates are pinned by their class modulo the least M_j over
    the heights a tail can still reach (those >= max(h_base, h_min)). The tails
    of the surviving positions of a column are then decided together, by
    height, primitivity and the congruence at M_j(h), in passes of `map`.
    """
    p = f.p
    tau_dep = [Fraction(t) for t in tau_dep]
    if len(tau_dep) != f.m:
        raise ValueError("need one dependent exponent per component")
    if (2 * h_max + 1) ** f.d * h_max > S_TAU_BUDGET:
        raise ValueError("enumeration budget exceeded")
    if max(1, h_min) > h_max:
        return []
    # M_j(h) indexed by h = 0..h_max; heights below h_min read h_min's level
    heights = range(max(1, h_min), h_max + 1)
    moduli = []
    for t in tau_dep:
        levels = [p ** max(0, ball_exponent(p, [(h, -t)])) for h in heights]
        moduli.append([levels[0]] * heights.start + levels)
    top = [max(mods) for mods in moduli]
    # the pinning modulus at h: min M_j over heights >= h, which all the others
    # divide; it is M_j(h) itself unless some tau_j < 0 makes M_j fall with h
    pins = [list(itertools.accumulate(reversed(mods), min))[::-1] for mods in moduli]
    span = range(-h_max, h_max + 1)
    repeat = itertools.repeat
    chain = itertools.chain.from_iterable
    found: list[RationalPoint] = []
    for a0 in range(1, h_max + 1):
        if a0 % p == 0:
            continue
        inverses = [pow(form.unit(a0), -1, t) for form, t in zip(f.forms, top)]
        for prefix in itertools.product(span, repeat=f.d - 1):
            hp = max([a0, *map(abs, prefix)])
            columns = [
                _residue_column(form, a0, prefix, inv, t, h_max)
                for form, inv, t in zip(f.forms, inverses, top)
            ]
            # the pinning modulus at max(hp, |x|) and (r + h_max) mod it, per position
            lows = [pin[h_max:hp:-1] + [pin[hp]] * (2 * hp + 1) + pin[hp + 1 :] for pin in pins]
            offsets = [
                list(map(operator.mod, map(operator.add, col, repeat(h_max)), low))
                for col, low in zip(columns, lows)
            ]
            # a position survives when every least candidate offset - h_max is <= h_max
            keep = map((2 * h_max).__ge__, map(max, repeat(0), *offsets))
            # the candidates as parallel lists, one entry per (position, tail) in
            # lex order: positions ascend, and form j repeats every candidate of the
            # forms before it once per tail of its position, tails ascending
            pos = list(itertools.compress(range(len(span)), keep))
            tails: list[list[int]] = []
            for off, low in zip(offsets, lows):
                ranges = list(
                    map(range, map(h_max.__rsub__, map(off.__getitem__, pos)), repeat(h_max + 1),
                        map(low.__getitem__, pos))
                )
                counts = list(map(len, ranges))
                pos = list(chain(map(repeat, pos, counts)))
                tails = [list(chain(map(repeat, col, counts))) for col in tails]
                tails.append(list(chain(ranges)))
            xs = list(map(h_max.__rsub__, pos))
            hs = list(map(max, repeat(hp), map(abs, xs), *(map(abs, col) for col in tails)))
            # a candidate is kept when h >= h_min, gcd(a) = 1 and every
            # (r_j - t_j) mod M_j(h) is 0, that is when the largest of h_min - h,
            # gcd - 1 and those remainders is at most 0
            bad = map(
                max,
                map(h_min.__sub__, hs),
                map((-1).__add__, map(math.gcd, repeat(math.gcd(a0, *prefix)), xs, *tails)),
                *(
                    map(operator.mod, map(operator.sub, map(column.__getitem__, pos), col),
                        map(mods.__getitem__, hs))
                    for column, col, mods in zip(columns, tails, moduli)
                ),
            )
            chosen = list(map(operator.not_, bad))
            vectors = zip(
                repeat(a0), *map(repeat, prefix), itertools.compress(xs, chosen),
                *(itertools.compress(col, chosen) for col in tails),
            )
            found += _known_points(vectors, itertools.compress(hs, chosen))
    return found


def cover_preimage(
    f: PolyMap,
    tau: Sequence[Fraction],
    delta: Fraction,
    h_max: int,
    depth: int,
    h_min: int = 1,
    points: Sequence[RationalPoint] | None = None,
    lipschitz_bound: Fraction | None = None,
) -> ClopenSet:
    """Union over resonant points of the rectangles
    prod_{i <= d} {|x_i - a_i/a_0|_p < delta * h^{-tau_i}}, as a set in Z_p^d.

    A finite-level inner approximation of the preimage of the weighted
    approximable set under x -> (x, f(x)).
    Given `points` must have a_0 prime to p, as the points of S_tau do.
    """
    p = f.p
    tau = [Fraction(t) for t in tau]
    if len(tau) != f.n:
        raise ValueError("tau must carry all n exponents")
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("need 0 < delta <= 1")
    indep_min = min(tau[: f.d])
    dep_max = max(tau[f.d :])
    if indep_min < dep_max:
        raise HypothesisError("min indep tau >= max dep tau", f"{indep_min} < {dep_max}")
    if indep_min == dep_max:
        if lipschitz_bound is None:
            raise HypothesisError(
                "min indep tau > max dep tau",
                "equality requires a Lipschitz bound and delta <= min(1, 1/L)",
            )
        if delta > min(Fraction(1), 1 / lipschitz_bound):
            raise ValueError("delta too large for the Lipschitz bound")
    negs = [-t for t in tau[: f.d]]

    @functools.cache
    def exponents(h: int) -> tuple[int, ...]:
        """Rectangle exponents at height h, computed once per distinct height."""
        return tuple(max(0, ball_exponent(p, [(delta, 1), (h, neg)])) for neg in negs)

    worst = max(exponents(h_max))
    if worst > depth:
        raise ValueError(f"insufficient depth: need {worst}, have {depth}")
    if points is None:
        points = enumerate_S_tau(f, tau[f.d :], h_max, h_min=h_min)

    @functools.cache
    def inverse(a0: int) -> int:
        """a_0^-1 mod p^depth, once per distinct a_0; it is a_0^-1 mod every p^t_i of a box."""
        return pow(a0, -1, p**depth)

    # box codes grouped by exponent vector; centre a_i/a_0 is a_i * a_0^-1 mod p^t_i,
    # and box_code reduces each residue mod its p^t_i
    groups: dict[tuple[int, ...], list[int]] = {}
    for pt in points:
        t = exponents(pt.height)
        inv = inverse(pt.a[0])
        residues = [c * inv for c in pt.a[1 : f.d + 1]]
        groups.setdefault(t, []).append(box_code(p, residues, t))
    return ClopenSet.from_codes(p, f.d, depth, groups)
