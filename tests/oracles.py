"""Previous implementations kept as differential oracles.

- The Fraction power-product kernel (`_normalized`, `cmp_powprod`,
  `powprod_log_estimate`, `floor_log_powprod`, `ball_exponent`) that the
  integer (s, N, D) kernel of `exactcmp` replaced.
- The top-down one-rectangle trie builder (`ClopenSet._rectangle_node`) that
  the bottom-up coset builder of `clopen` replaced, and the box counts of a
  node by plain recursion over its children, which the one-walk profiles of
  `clopen` replaced, and the product builder with a memo that lives for one
  call, which the space-level product memo of `clopen` replaced.
- The separate union, intersection and complement recursions, with difference
  as intersection with the complement, which the one apply of `clopen`
  replaced.
- The per-point integer resonant-point enumerator that the residue-column
  kernel of `manifold.enumerate_S_tau` replaced, and an unpinned enumerator
  that tests every tail at its true height.
- The dictionary walk over the box and the product-loop brute force that the
  kernel-lattice solver of `minkowski` replaced.
- The lemma bound checked through the valuation of each form, which the
  congruences mod p^min(precision, max(0, m_i)) of `minkowski` replaced; the
  stepped search for the least feasible Dirichlet height, which the closed
  form of `manifold` replaced; and the structured scan with an explicit pivot
  list.
- The layer residues read off one `Fraction(a, a0)` per numerator, which the
  split a0 = p^v u of `approx` replaced, and the three-branch `psi_powprod` /
  `psi_value`, which reading `PowerLaw` as the scaled power with c = 1
  replaced.
- The one-dimensional range union as one coset trie per layer and one n-ary
  union, which one coset build per step exponent over the merged residues of
  `approx` replaced; and that merged build, and the sweep rows read off a
  running union trie (one layer trie, one binary union and one profile walk
  per row), which the ball table of maximal balls of `approx` replaced.
- The reduction of a Dirichlet scan vector in three passes (strip the gcd's
  part prime to p, flip the sign, divide by p^k for k = v_p(b_0)), which one
  gcd of `manifold.dirichlet_solve` replaced.
- The H_0 report of `manifold.dirichlet_h0` from its general formulas (the
  lambda = 0 and C = p^0 of a p-integral map, and tau_max), which the fixed
  cases alpha_1 = alpha_2 = p^0 and gamma = beta replaced.
- The Taylor data of a `PolyMap` from its `Fraction` monomials: the partial
  derivatives, their evaluation at p-adic integers, and the linearized
  Dirichlet rows built by `PAdicInt` truncate, - and *, which
  `IntegerForm.taylor` replaced.
- The sorted loop of `dimension.rynne_dimension`, which the numerator of
  `jb_dimension` replaced.
- The CLI emitter that rendered Fractions by a recursive copy of the payload
  and wrote it with `json.dump` (the pure-Python encoder), which one
  `json.dumps` through the C encoder with a Fraction `default` hook replaced.

Only the public trie primitives (`_space`, `node`, the child table), the
layer records, layer sets, series terms and reference values of `approx` (in
the merged build and the running-trie rows only, whose target is the ball
table), the integer forms of `PolyMap`, `ball_exponent`, `floor_log_powprod`, `frac_pow`,
the exact bucket exponents of `minkowski` with its precision refusal, the least
feasible Dirichlet height with its float and decimal renderings, and the
fields of the approximation functions are shared with the code under test, so
a fault in the new builders, the profiles, the ball table, the column kernel,
the lattice search, the lemma congruences, the residue rule, the power-law
dispatch or the fixed H_0 cases cannot leak into the oracles.
"""

import functools
import io
import itertools
import json
import math
from fractions import Fraction

from padicapprox.approx import PowerLaw, ScaledPower, _data_measure, _layer, _layer_record, _reference, _series_terms
from padicapprox.clopen import EMPTY, FULL, ClopenSet, _space
from padicapprox.core import ExactnessError, HypothesisError, PAdicInt, _split_power
from padicapprox.exactcmp import ball_exponent, floor_log_powprod, frac_pow
from padicapprox.manifold import (
    H0Report,
    RationalPoint,
    _bucket_feasible_height,
    _decimal,
    _feasible_exponent,
    _float_or_none,
)
from padicapprox.minkowski import MinkowskiSolution, SolverError, _PrecisionError, bucket_exponents

# ---------------------------------------------------------------------------
# Fraction power-product kernel
# ---------------------------------------------------------------------------


def _normalized(factors):
    out = []
    for base, exp in factors:
        base = Fraction(base)
        exp = Fraction(exp)
        if base <= 0:
            raise ValueError("power product bases must be positive")
        if base != 1 and exp != 0:
            out.append((base, exp))
    return out


def fraction_cmp_powprod(lhs, rhs):
    left = _normalized(lhs)
    right = _normalized(rhs)
    scale = 1
    for _, exp in left + right:
        scale = scale * exp.denominator // math.gcd(scale, exp.denominator)
    lval = Fraction(1)
    for base, exp in left:
        lval *= base ** int(exp * scale)
    rval = Fraction(1)
    for base, exp in right:
        rval *= base ** int(exp * scale)
    if lval < rval:
        return -1
    if lval > rval:
        return 1
    return 0


def _log_int(n):
    bits = n.bit_length()
    if bits <= 900:
        return math.log(n)
    return math.log(n >> (bits - 900)) + (bits - 900) * math.log(2)


def _powprod_log_estimate(factors):
    total = 0.0
    for base, exp in _normalized(factors):
        total += float(exp) * (_log_int(base.numerator) - _log_int(base.denominator))
    return total


def fraction_floor_log_powprod(p, factors):
    est = int(_powprod_log_estimate(factors) / math.log(p))
    while fraction_cmp_powprod([(p, est)], factors) > 0:
        est -= 1
    while fraction_cmp_powprod([(p, est + 1)], factors) <= 0:
        est += 1
    return est


def fraction_ball_exponent(p, radius):
    inverted = [(base, -Fraction(exp)) for base, exp in radius]
    return fraction_floor_log_powprod(p, inverted) + 1


# ---------------------------------------------------------------------------
# Top-down rectangle builder
# ---------------------------------------------------------------------------


def rectangle_node(p, n, depth, rect):
    """Node id of one BallSpec rectangle, built top-down one level at a time."""
    if len(rect.center) != n:
        raise ValueError(f"rectangle dimension {len(rect.center)} != n={n}")
    if max(rect.exponents, default=0) > depth:
        raise ValueError(
            f"insufficient depth: rectangle needs level {max(rect.exponents)}, depth is {depth}"
        )
    sp = _space(p, n)
    tmax = max(rect.exponents, default=0)
    digits = []
    for c, t in zip(rect.center, rect.exponents):
        c = Fraction(c)
        if c.denominator % p == 0:
            raise ValueError(f"center {c} is not a p-adic integer for p={p}")
        res = (c.numerator * pow(c.denominator, -1, p**t)) % p**t if t > 0 else 0
        digs = []
        for _ in range(t):
            res, d = divmod(res, p)
            digs.append(d)
        digits.append(digs)
    node = FULL
    for level in range(tmax - 1, -1, -1):
        children = [EMPTY] * sp.width
        slots = [0]
        for i in range(n):
            if level < rect.exponents[i]:
                slots = [s + digits[i][level] * p**i for s in slots]
            else:
                slots = [s + d * p**i for s in slots for d in range(p)]
        for s in slots:
            children[s] = node
        node = sp.node(tuple(children))
    return node


def recursive_profile(S, a):
    """Box counts of node a of S's space at levels 0..height(a), by recursion over the children."""
    kids, width = S._sp._children, S._sp.width

    @functools.cache
    def height(b):
        return 0 if b in (EMPTY, FULL) else 1 + max(map(height, kids[b]))

    @functools.cache
    def count(b, k):
        if b == EMPTY:
            return 0
        if k == 0:
            return 1
        if b == FULL:
            return width**k
        return sum(count(c, k - 1) for c in kids[b])

    return tuple(count(a, k) for k in range(height(a) + 1))


def per_call_product(factors):
    """Cartesian product of one-dimensional sets, memoized on factor-id tuples for this call only."""
    p, n = factors[0].p, len(factors)
    sp1, spn = _space(p, 1), _space(p, n)
    memo = {}

    def build(ids):
        # ids run from the last factor to the first, so itertools.product
        # varies the first coordinate's digit fastest, as the slot order does
        if EMPTY in ids:
            return EMPTY
        if ids.count(FULL) == n:
            return FULL
        if ids not in memo:
            memo[ids] = spn.node(tuple(build(c) for c in itertools.product(*[sp1._children[i] for i in ids])))
        return memo[ids]

    return ClopenSet(p, n, max(f.depth for f in factors), build(tuple(f._root for f in reversed(factors))))


def rectangle_set(p, n, depth, rect):
    return ClopenSet(p, n, depth, rectangle_node(p, n, depth, rect))


def rectangles_oracle(p, n, depth, rects):
    """Union of the rectangles, each built top-down, folded by binary union."""
    out = ClopenSet.empty(p, n, depth)
    for rect in rects:
        out = out.union(rectangle_set(p, n, depth, rect))
    return out


# ---------------------------------------------------------------------------
# Separate set-algebra recursions
# ---------------------------------------------------------------------------


def _memoized_binary(A, B, terminal):
    """A's and B's roots combined child by child, memoized on the sorted id pair
    for this call only; terminal(a, b) answers a pair or returns None."""
    sp, memo = A._sp, {}

    def walk(a, b):
        out = terminal(a, b)
        if out is None:
            key = (a, b) if a < b else (b, a)
            out = memo.get(key)
            if out is None:
                ca, cb = sp._children[a], sp._children[b]
                out = memo[key] = sp.node(tuple([walk(x, y) for x, y in zip(ca, cb)]))
        return out

    return ClopenSet(A.p, A.n, max(A.depth, B.depth), walk(A._root, B._root))


def _union_terminal(a, b):
    if a == FULL or b == FULL:
        return FULL
    if a == EMPTY:
        return b
    if b == EMPTY or a == b:
        return a
    return None


def _intersect_terminal(a, b):
    if a == EMPTY or b == EMPTY:
        return EMPTY
    if a == FULL:
        return b
    if b == FULL or a == b:
        return a
    return None


def recursive_union(A, B):
    return _memoized_binary(A, B, _union_terminal)


def recursive_intersect(A, B):
    return _memoized_binary(A, B, _intersect_terminal)


def recursive_complement(A):
    sp, memo = A._sp, {}

    def walk(a):
        if a == EMPTY:
            return FULL
        if a == FULL:
            return EMPTY
        if a not in memo:
            memo[a] = sp.node(tuple([walk(c) for c in sp._children[a]]))
        return memo[a]

    return ClopenSet(A.p, A.n, A.depth, walk(A._root))


def recursive_difference(A, B):
    return recursive_intersect(A, recursive_complement(B))


# ---------------------------------------------------------------------------
# Per-point integer resonant-point enumerator
# ---------------------------------------------------------------------------


def _eval_monomials(monos, c):
    total = 0
    for coeff, exps in monos:
        for x, e in zip(c, exps):
            if e:
                coeff *= x**e
        total += coeff
    return total


def _centered_candidates(target, mod, bound):
    if mod == 1:
        return list(range(-bound, bound + 1))
    t = target % mod
    first = t - ((t + bound) // mod) * mod
    return list(range(first, bound + 1, mod))


def integer_enumerate_S_tau(f, tau_dep, h_max, h_min=1):
    """S_tau point by point: every independent block is evaluated on its own,
    the dependent coordinates are pinned at the least modulus over the heights
    a tail can reach, and each candidate is checked at its height from a
    per-height level table."""
    p = f.p
    tau_dep = [Fraction(t) for t in tau_dep]
    if max(1, h_min) > h_max:
        return []
    heights = range(max(1, h_min), h_max + 1)
    moduli = [
        {h: p ** max(0, ball_exponent(p, [(h, -t)])) for h in heights} for t in tau_dep
    ]
    top = [max(mods.values()) for mods in moduli]
    found = []
    for a0 in range(1, h_max + 1):
        if a0 % p == 0:
            continue
        fixed = [form.at(a0) for form in f.forms]
        units = [form.unit(a0) for form in f.forms]
        inverses = [pow(u, -1, mod) for u, mod in zip(units, top)]
        for combo in itertools.product(range(-h_max, h_max + 1), repeat=f.d):
            h_base = max(a0, *map(abs, combo))
            h_low = max(h_base, h_min)
            values = [_eval_monomials(monos, combo) for monos in fixed]
            pins = [min(mods[h] for h in range(h_low, h_max + 1)) for mods in moduli]
            dep = [
                _centered_candidates(value * inv % pin, pin, h_max)
                for value, inv, pin in zip(values, inverses, pins)
            ]
            for tail in itertools.product(*dep):
                h = max(h_base, *map(abs, tail))
                if h < h_min:
                    continue
                a = (a0, *combo, *tail)
                if math.gcd(*a) != 1:
                    continue
                if all(
                    (value - unit * t) % mods[h] == 0
                    for value, unit, t, mods in zip(values, units, tail, moduli)
                ):
                    found.append(RationalPoint(a))
    return found


def unpinned_enumerate_S_tau(f, tau_dep, h_max, h_min=1):
    """S_tau with no pinning: every tail in [-h_max, h_max]^m is tested by the
    congruence at the point's true height."""
    p = f.p
    tau_dep = [Fraction(t) for t in tau_dep]
    moduli = [
        {h: p ** max(0, ball_exponent(p, [(h, -t)])) for h in range(1, h_max + 1)} for t in tau_dep
    ]
    span = range(-h_max, h_max + 1)
    found = []
    for a0 in range(1, h_max + 1):
        if a0 % p == 0:
            continue
        units = [form.unit(a0) for form in f.forms]
        for combo in itertools.product(span, repeat=f.d):
            values = [form(a0, combo) for form in f.forms]
            for tail in itertools.product(span, repeat=f.m):
                a = (a0, *combo, *tail)
                h = max(map(abs, a))
                if h < h_min or math.gcd(*a) != 1:
                    continue
                if all(
                    (value - unit * t) % mods[h] == 0
                    for value, unit, t, mods in zip(values, units, tail, moduli)
                ):
                    found.append(RationalPoint(a))
    return found


# ---------------------------------------------------------------------------
# Pigeonhole solver: dictionary walk and product-loop brute force
# ---------------------------------------------------------------------------


def bucket_walk_solve(sys):
    """Row-major walk over 0 <= x_j <= H_j with the bucket keys in a
    dictionary; the first collision wins, brute force when none appears."""
    deltas = bucket_exponents(sys)
    if max(deltas) > sys.precision:
        raise _PrecisionError(
            f"coefficient precision {sys.precision} below max bucket exponent {max(deltas)}"
        )
    mods = [sys.p**d for d in deltas]
    boundary = sys.t_power == sys.p ** sum(deltas)
    n = sys.n
    coeffs = [[c.residue for c in row] for row in sys.coeffs]
    buckets = {}
    last = sys.heights[n]
    for prefix in itertools.product(*(range(h + 1) for h in sys.heights[:n])):
        key_vals = [sum(coeffs[i][j] * prefix[j] for j in range(n)) % mods[i] for i in range(n)]
        for xn in range(last + 1):
            key = tuple(key_vals)
            other = buckets.get(key)
            if other is not None:
                x = tuple(a - b for a, b in zip(prefix + (xn,), other))
                ok = valuation_verify_solution(sys, x, deltas, require_buckets=True)
                return MinkowskiSolution(x, deltas, ok, boundary, "bucket")
            buckets[key] = prefix + (xn,)
            key_vals = [(key_vals[i] + coeffs[i][n]) % mods[i] for i in range(n)]
    x = product_brute_force(sys)
    if x is None:
        raise SolverError("no solution found in boundary regime")
    return MinkowskiSolution(x, deltas, valuation_verify_solution(sys, x), boundary, "brute-force")


def product_brute_force(sys):
    """The first nonzero x of the product loop over [-H_j, H_j] that satisfies
    the lemma bound."""
    thresholds = factor_lemma_thresholds(sys)
    for x in itertools.product(*(range(-h, h + 1) for h in sys.heights)):
        if any(x) and valuation_satisfies_lemma_bound(sys, x, thresholds):
            return x
    return None


# ---------------------------------------------------------------------------
# Lemma bound by valuations
# ---------------------------------------------------------------------------


def factor_lemma_thresholds(sys):
    """m_i = -floor(log_p(p^{sigma_i} T^{-tau_i})), from the power product
    p^{sigma_i} T^{-tau_i} written out per form."""
    out = []
    for i in range(sys.n):
        factors = [
            (Fraction(sys.p), sys.sigma[i]),
            (Fraction(sys.t_power), -sys.tau[i] / (sys.n + 1)),
        ]
        out.append(-fraction_floor_log_powprod(sys.p, factors))
    return tuple(out)


def _norm_exponent(sys, x, i):
    """Valuation of L_i(x) when visible at the working precision, else None."""
    residue = 0
    for c, xj in zip(sys.coeffs[i], x):
        residue += c.residue * xj
    residue %= sys.p**sys.precision
    if residue == 0:
        return None
    return _split_power(residue, sys.p)[0]


def valuation_satisfies_lemma_bound(sys, x, thresholds=None):
    """|L_i(x)|_p <= p^{sigma_i} T^{-tau_i} for all i, read off the valuation
    of each form; a form that vanishes to the working precision passes."""
    if thresholds is None:
        thresholds = factor_lemma_thresholds(sys)
    for i in range(sys.n):
        v = _norm_exponent(sys, x, i)
        if v is not None and v < thresholds[i]:
            return False
    return True


def valuation_verify_solution(sys, x, deltas=None, require_buckets=False):
    """Nonzero, within the heights, the bucket congruences on request, and the
    lemma bound by valuations; each form is evaluated once per check."""
    if all(v == 0 for v in x):
        return False
    if any(abs(v) > h for v, h in zip(x, sys.heights)):
        return False
    if require_buckets:
        if deltas is None:
            deltas = bucket_exponents(sys)
        for i, delta in enumerate(deltas):
            residue = sum(c.residue * xj for c, xj in zip(sys.coeffs[i], x))
            if residue % sys.p**delta != 0:
                return False
    return valuation_satisfies_lemma_bound(sys, x)


# ---------------------------------------------------------------------------
# Stepped feasible height, the pivoted structured scan and the three-pass reduction
# ---------------------------------------------------------------------------


def stepped_feasible_height(inst, limit):
    """Least H in 1..limit whose linearized Dirichlet system has every bucket
    exponent >= 0, stepping H up by one; None if there is none."""
    f = inst.f
    sigma = [inst.sigma_shift] * f.d + [Fraction(0)] * f.m
    tau = list(inst.v) + list(inst.tau)
    for H in range(1, limit + 1):
        t_power = (H + 1) ** (f.n + 1)
        if all(
            floor_log_powprod(f.p, [(f.p, -s), (t_power, t / (f.n + 1))]) + 1 >= 0
            for s, t in zip(sigma, tau)
        ):
            return H
    return None


def pivoted_solve_structured(sys, pivots):
    """The structured congruence scan with form i resolving variable pivots[i]."""
    deltas = bucket_exponents(sys)
    if max(deltas) > sys.precision:
        raise _PrecisionError(
            f"coefficient precision {sys.precision} below max bucket exponent {max(deltas)}"
        )
    n = sys.n
    if sorted(pivots) != sorted(set(pivots)) or len(pivots) != n or 0 in pivots:
        raise ValueError("pivots must be n distinct variable indices, excluding 0")
    allowed = {0}
    pivot_data = []
    for i, piv in enumerate(pivots):
        row = sys.coeffs[i]
        for j, c in enumerate(row):
            if j != piv and j not in allowed and c.residue % sys.p**deltas[i] != 0:
                raise ValueError(f"form {i} touches variable {j} before it is pivoted")
        c_piv = row[piv]
        if c_piv.residue == 0:
            raise ValueError(f"form {i} has zero-to-precision pivot coefficient")
        nu, unit = _split_power(c_piv.residue, sys.p)
        pivot_data.append((piv, nu, unit))
        allowed.add(piv)
    boundary = sys.t_power == sys.p ** sum(deltas)

    def extend(i, assign):
        if i == n:
            return assign
        piv, nu, unit = pivot_data[i]
        delta = deltas[i]
        mod = sys.p**delta
        partial = sum(
            sys.coeffs[i][j].residue * v for j, v in assign.items() if j != piv
        ) % mod
        h = sys.heights[piv]
        if nu >= delta:
            if partial % mod != 0:
                return None
            candidates = [0]
        else:
            if partial % sys.p**nu != 0:
                return None
            step = sys.p ** (delta - nu)
            inv = pow(unit, -1, step)
            y0 = (-(partial // sys.p**nu) * inv) % step
            first = y0 - ((y0 + h) // step) * step
            candidates = list(range(first, h + 1, step))
        for y in candidates:
            if abs(y) > h:
                continue
            assign[piv] = y
            out = extend(i + 1, assign)
            if out is not None:
                return out
            del assign[piv]
        return None

    for x0 in range(1, sys.heights[0] + 1):
        assign = extend(0, {0: x0})
        if assign is not None:
            x = tuple(assign.get(j, 0) for j in range(n + 1))
            ok = valuation_verify_solution(sys, x, deltas, require_buckets=True)
            return MinkowskiSolution(x, deltas, ok, boundary, "congruence-scan")
    raise SolverError("no structured solution with x_0 in [1, H_0]")


def strip_flip_divide(p, x):
    """(point, k) from a scan vector x with x_0 != 0 by the three former passes,
    or None where not every entry is divisible by p^k."""
    g = 0
    for v in x:
        g = math.gcd(g, v)
    while g % p == 0:
        g //= p
    b = [v // g for v in x] if g > 1 else list(x)
    if b[0] < 0:
        b = [-v for v in b]
    k = 0
    while b[0] % p ** (k + 1) == 0:
        k += 1
    if not all(v % p**k == 0 for v in b):
        return None
    return RationalPoint(tuple(v // p**k for v in b)), k


# ---------------------------------------------------------------------------
# The general H_0 formulas
# ---------------------------------------------------------------------------


def _floor_power(p, e):
    """floor(p^e) for a rational e, by bisection on r^b <= p^a."""
    a, b = e.numerator, e.denominator
    if a == 0:
        return 1
    if a < 0:
        return 0
    n = p**a
    lo, hi = 1, 1 << (n.bit_length() // b + 1)  # lo^b <= n < hi^b
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**b <= n:
            lo = mid
        else:
            hi = mid
    return lo


def general_dirichlet_h0(inst):
    """dirichlet_h0 from the general formulas: lambda = 0 and C = p^c0 with
    c0 = 0 for a p-integral map, alpha_1 over 2 v_min - tau_max, gamma with n lambda."""
    f = inst.f
    v_min = min(inst.v)
    tau_max = max(inst.tau)
    lam = 0
    c0 = Fraction(0)
    exps = {
        "alpha1": 2 * c0 / (2 * v_min - tau_max),
        "alpha2": c0 / (v_min - 1),
        "beta": (Fraction(f.n + f.m * lam, f.d)) / (v_min - 1),
        "gamma": Fraction(f.n + f.n * lam, f.d) / (v_min - 1),
    }
    cases = {}
    h0 = 1
    for name, e in exps.items():
        thr = max(1, _floor_power(f.p, e))
        cases[name] = {"value": f"{f.p}^({e})", "float": _float_or_none(f.p, e), "h0": thr}
        h0 = max(h0, thr)
    feas = _bucket_feasible_height(inst)
    named = f"ceil({f.p}^({_feasible_exponent(inst)})) - 1"
    cases["delta"] = {
        "value": f"least feasible H = {_decimal(feas, named)}", "float": _float_or_none(feas), "h0": feas - 1
    }
    return H0Report(h0=max(h0, feas - 1), cases=cases)


# ---------------------------------------------------------------------------
# Fraction layer residues and the three-branch approximation functions
# ---------------------------------------------------------------------------


def fraction_coordinate_residues(p, a0, t, numerators):
    """Residues mod p^t of the centers a/a0 that lie in Z_p, one Fraction per numerator."""
    mod = p**t
    if mod == 1:
        return {0}
    out = set()
    for a in numerators:
        c = Fraction(a, a0)
        if c.denominator % p == 0:
            continue
        out.add(c.numerator * pow(c.denominator, -1, mod) % mod)
    return out


def per_layer_union(p, depth, layers, reduced):
    """Union of the one-dimensional layers at (a0, t): one from_cosets trie per
    layer, from residues read off one Fraction per numerator, and one union_all."""
    sets = []
    for a0, t in layers:
        nums = [a for a in range(1, a0 + 1) if math.gcd(a, a0) == 1] if reduced else range(-a0, a0 + 1)
        mod = p**t
        residues = {
            c.numerator * pow(c.denominator, -1, mod) % mod
            for c in (Fraction(a, a0) for a in nums)
            if c.denominator % p
        }
        sets.append(ClopenSet.from_cosets(p, depth, t, residues))
    return ClopenSet.union_all(p, 1, depth, sets)


def merged_range_union(p, depth, records):
    """The one-dimensional range union of the layer records (t, residues) as one
    from_codes call: one group per distinct t over the merged residues with that t."""
    groups = {}
    for t, residues in records:
        groups.setdefault((t,), set()).update(residues)
    return ClopenSet.from_codes(p, 1, depth, groups)


def running_trie_sweep_rows(params, psi, lo, hi, reduced, depth):
    """The sweep rows off a running union trie: per row one layer trie, one binary
    union into the running set and one profile walk for its measure; every row
    carries its running union."""
    acc = ClopenSet.empty(params.p, params.n, depth)
    series = _series_terms(params, psi, lo, hi)
    kh = ds = Fraction(0)
    for a0 in range(lo, hi + 1):
        exps = psi.step_exponents(a0, params.p)
        record = _layer_record(params.p, a0, exps, reduced)
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
            "reference": _reference(params, a0, exps),
            "union_measure": acc.measure(),
            "union": acc,
            "khintchine_partial": kh,
            "duffin_schaeffer_partial": ds,
        }


def branched_psi_powprod(comp, q):
    if isinstance(comp, PowerLaw):
        return [(Fraction(q), -comp.tau)]
    if isinstance(comp, ScaledPower):
        return [(comp.c, Fraction(1)), (Fraction(q), -comp.e)]
    return [(comp.lookup(q), Fraction(1))]


def branched_psi_value(comp, q):
    if isinstance(comp, PowerLaw):
        return frac_pow(q, -comp.tau)
    if isinstance(comp, ScaledPower):
        return comp.c * frac_pow(q, -comp.e)
    return comp.lookup(q)


# ---------------------------------------------------------------------------
# Taylor data through the Fraction monomials
# ---------------------------------------------------------------------------


def fraction_partial(f, j, i):
    """d f_j / d x_i as a tuple of (Fraction, exponents) monomials."""
    out = []
    for coeff, exps in f.polys[j]:
        if exps[i] == 0:
            continue
        new = list(exps)
        new[i] -= 1
        out.append((coeff * exps[i], tuple(new)))
    return tuple(out)


def fraction_eval_padic(f, mono, x):
    """A Fraction monomial list at a vector of p-adic integers, as a PAdicInt
    at their least precision."""
    prec = min(v.precision for v in x)
    mod = f.p**prec
    total = 0
    for coeff, exps in mono:
        term = (coeff.numerator * pow(coeff.denominator, -1, mod)) % mod
        for v, e in zip(x, exps):
            if e:
                term = term * pow(v.residue, e, mod) % mod
        total += term
    return PAdicInt(f.p, prec, total)


def padic_linearized_rows(inst):
    """The coefficient rows of the linearized Dirichlet system, each entry
    built through PAdicInt truncate, - and *."""
    f = inst.f
    prec = inst.precision
    zero = PAdicInt(f.p, prec, 0)
    minus_one = PAdicInt(f.p, prec, -1)
    rows = []
    for i in range(f.d):
        row = [zero] * (f.n + 1)
        row[0] = inst.x[i].truncate(prec)
        row[i + 1] = minus_one
        rows.append(tuple(row))
    for j in range(f.m):
        row = [zero] * (f.n + 1)
        const = fraction_eval_padic(f, f.polys[j], inst.x).truncate(prec)
        for i in range(f.d):
            dji = fraction_eval_padic(f, fraction_partial(f, j, i), inst.x).truncate(prec)
            row[i + 1] = dji
            const = const - dji * inst.x[i].truncate(prec)
        row[0] = const
        row[f.d + j + 1] = minus_one
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# The sorted Rynne loop
# ---------------------------------------------------------------------------


def sorted_rynne_dimension(tau):
    """min_k (n+1 + sum_{i>=k}(tau_k - tau_i)) / (tau_k + 1) over tau sorted descending."""
    tau = tuple(Fraction(t) for t in tau)
    n = len(tau)
    if sum(tau) < 1:
        raise HypothesisError("sum(tau_i) >= 1", f"got {sum(tau)}")
    if any(t <= 0 for t in tau):
        raise HypothesisError("tau_i > 0", "got (" + ", ".join(map(str, tau)) + ")")
    srt = tuple(sorted(tau, reverse=True))
    best = None
    for k in range(n):
        num = Fraction(n + 1) + sum((srt[k] - srt[i] for i in range(k, n)), Fraction(0))
        cand = num / (srt[k] + 1)
        best = cand if best is None else min(best, cand)
    return best


def old_fmt(value):
    """Render exact values for JSON: Fractions as strings, containers recursively."""
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: old_fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [old_fmt(v) for v in value]
    return value


def old_emit_text(payload):
    """The stdout text of the old `cli.emit(payload)`."""
    out = io.StringIO()
    json.dump(old_fmt({"schema_version": "1", **payload}), out, sort_keys=True)
    out.write("\n")
    return out.getvalue()
