"""Exact p-adic integer arithmetic at finite precision and basic number theory.

Everything here is exact: valuations and norms of rationals are computed from
integer factor counts, p-adic integers are residue classes mod p^K, and no
floating point enters any value that a caller might compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class HypothesisError(ValueError):
    """A stated hypothesis of an operation failed; names the failed inequality."""

    def __init__(self, failed: str, detail: str = ""):
        self.failed = failed
        super().__init__(f"hypothesis violated: {failed}" + (f" ({detail})" if detail else ""))


class ExactnessError(ValueError):
    """Requested value has no exact rational representation."""


def _rationals(values) -> str:
    """A tuple of rationals for an error detail, each as "num/den" or an integer."""
    return f"({', '.join(map(str, values))})"


def parse_fraction(text: str | int) -> Fraction:
    """A rational from text such as '3', '-7/5' or '1.25'; ValueError on a zero denominator."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any prime used here."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    r, d = _split_power(n - 1, 2)
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(x: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational: x = p^v * (a/b) with p coprime to a, b."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation undefined (infinite) for 0")
    return _split_power(x.numerator, p)[0] - _split_power(x.denominator, p)[0]


def _split_power(x: int, p: int) -> tuple[int, int]:
    """(v, u) with x = p^v * u and p not dividing u, for a nonzero integer x."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def norm(x: int | Fraction, p: int) -> Fraction:
    """p-adic absolute value |x|_p = p^{-v_p(x)}, with |0|_p = 0. Exact rational."""
    x = Fraction(x)
    if x == 0:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return Fraction(0)
    return Fraction(p) ** -valuation(x, p)


def euler_phi(q: int) -> int:
    """Euler totient via trial-division factorization."""
    if q < 1:
        raise ValueError("euler_phi needs q >= 1")
    result = q
    n = q
    d = 2
    while d * d <= n:
        if n % d == 0:
            result -= result // d
            n = _split_power(n, d)[1]
        d += 1 if d == 2 else 2
    if n > 1:
        result -= result // n
    return result


def totient_sieve(limit: int) -> list[int]:
    """phi(0..limit) as a list; phi[0] set to 0."""
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:  # i prime
            for j in range(i, limit + 1, i):
                phi[j] -= phi[j] // i
    if limit >= 0:
        phi[0] = 0
    return phi


@dataclass(frozen=True)
class Params:
    """Ambient configuration: a prime p and the dimension n >= 1 of Z_p^n."""

    p: int
    n: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.n < 1:
            raise ValueError("n >= 1 required")


@dataclass(frozen=True)
class PAdicInt:
    """A p-adic integer known modulo p^precision, stored as its canonical residue.

    The residue-class representation keeps arithmetic fast and equality canonical;
    digits are derived on demand.
    """

    prime: int
    precision: int
    residue: int

    def __post_init__(self):
        if not is_prime(self.prime):
            raise ValueError(f"prime must be prime, got {self.prime}")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        object.__setattr__(self, "residue", self.residue % self.prime**self.precision)

    def valuation(self) -> int:
        """Valuation of the class; defined only when the residue is nonzero."""
        if self.residue == 0:
            raise ValueError("zero to known precision: valuation not determined")
        return _split_power(self.residue, self.prime)[0]

    def norm(self) -> Fraction:
        """|x|_p when determined; zero-to-precision classes have no exact norm."""
        return Fraction(1, self.prime ** self.valuation())

    def digits(self) -> tuple[int, ...]:
        """Base-p digits (a_0, ..., a_{K-1}) of the residue."""
        out = []
        r = self.residue
        for _ in range(self.precision):
            r, dgt = divmod(r, self.prime)
            out.append(dgt)
        return tuple(out)

    def _check_compatible(self, other: "PAdicInt") -> int:
        if self.prime != other.prime:
            raise ValueError(f"mismatched primes {self.prime} and {other.prime}")
        return min(self.precision, other.precision)

    def __add__(self, other: "PAdicInt") -> "PAdicInt":
        k = self._check_compatible(other)
        return PAdicInt(self.prime, k, self.residue + other.residue)

    def __sub__(self, other: "PAdicInt") -> "PAdicInt":
        k = self._check_compatible(other)
        return PAdicInt(self.prime, k, self.residue - other.residue)

    def __mul__(self, other: "PAdicInt") -> "PAdicInt":
        k = self._check_compatible(other)
        return PAdicInt(self.prime, k, self.residue * other.residue)

    def truncate(self, precision: int) -> "PAdicInt":
        if precision > self.precision:
            raise ValueError("cannot raise precision by truncation")
        return PAdicInt(self.prime, precision, self.residue)

    def __repr__(self) -> str:
        return f"PAdicInt({self.residue} mod {self.prime}^{self.precision})"


def embed_rational(a: int | Fraction, b: int = 1, *, p: int, precision: int) -> PAdicInt:
    """Embed a/b into Z_p mod p^precision; requires b != 0 and the reduced denominator coprime to p."""
    if not is_prime(p):
        raise ValueError(f"prime must be prime, got {p}")
    if b == 0:
        raise ZeroDivisionError("b must be nonzero")
    frac = Fraction(a) / b
    if precision < 1:
        raise ValueError("precision must be >= 1")
    mod = p**precision
    den = frac.denominator
    if den % p == 0:
        raise ValueError(f"not a p-adic integer: denominator {den} divisible by {p}")
    inv = pow(den, -1, mod)
    return PAdicInt(p, precision, frac.numerator * inv)


def shift_map(x: PAdicInt) -> PAdicInt:
    """Digit shift used by the zero-one law: drop the leading digit, re-seed 1 if it was nonzero.

    Output precision is one digit lower than the input's.
    """
    if x.precision < 2:
        raise ValueError("shift_map needs precision >= 2")
    a0 = x.residue % x.prime
    shifted = x.residue // x.prime
    if a0 != 0:
        shifted += 1
    return PAdicInt(x.prime, x.precision - 1, shifted)

