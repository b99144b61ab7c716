"""Previous implementations kept as differential oracles.

- The Fraction power-product kernel (`_normalized`, `cmp_powprod`,
  `powprod_log_estimate`, `floor_log_powprod`, `ball_exponent`) that the
  integer (s, N, D) kernel of `exactcmp` replaced.
- The top-down one-rectangle trie builder (`ClopenSet._rectangle_node`) that
  the bottom-up coset builder of `clopen` replaced.

Only the public trie primitives (`_space`, `node`) are shared with the code
under test, so a fault in the new builders cannot leak into the oracles.
"""

import math
from fractions import Fraction

from padicapprox.clopen import EMPTY, FULL, ClopenSet, _space

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


def rectangle_set(p, n, depth, rect):
    return ClopenSet(p, n, depth, rectangle_node(p, n, depth, rect))


def rectangles_oracle(p, n, depth, rects):
    """Union of the rectangles, each built top-down, folded by binary union."""
    out = ClopenSet.empty(p, n, depth)
    for rect in rects:
        out = out.union(rectangle_set(p, n, depth, rect))
    return out
