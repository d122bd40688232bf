"""Exact scalar arithmetic: the rationals and odd prime fields.

Every number in this package is either a ``fractions.Fraction`` or an
``FpElement``; there is no floating point anywhere.  A ``Field`` object
(``QQ`` or ``PrimeField(p)``) constructs, parses and formats scalars and is
carried by polynomials, dual elements and matrices so that mixed-field
operations fail loudly instead of coercing.  Scalars are immutable, so each
field stores its ``zero`` and ``one`` once and hands out the same objects.
Each field owns the one int encoding of its scalars, which every matrix
and int form is built on: ``to_ints`` writes scalars s as (L, ints), s =
x / L, and ``from_int`` boxes x / L.  Over GF(p) the ints are the residues
and L = 1; over Q, L is the least common denominator, so gcd(L, ints) = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

DEFAULT_PRIME = 32003

# psi_13, the least strong pseudoprime to all 13 prime bases 2..41
# (Sorenson and Webster, Math. Comp. 2017): Miller-Rabin on those bases is
# exact below it.
MILLER_RABIN_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class FieldMismatchError(TypeError):
    """Operands belong to different fields."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2..41; exact for
    n < MILLER_RABIN_BOUND, not a proof above it."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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


class FpElement:
    """A canonical residue in Z/p.  Mixes with ints but not with other moduli."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"cannot combine residues mod {self.p} and mod {other.p}")
            return other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.value, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return FpElement(self.value * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return FpElement(v * pow(self.value, -1, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __pow__(self, e: int):
        if e < 0 and self.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return FpElement(pow(self.value, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.value != 0

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"FpElement({self.value}, p={self.p})"

    def __str__(self):
        return str(self.value)


Scalar = Union[Fraction, FpElement]


class RationalField:
    """The field of rationals, backed by arbitrary-precision Fraction."""

    tag = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, n) -> Fraction:
        return Fraction(n)

    def parse(self, text: str) -> Fraction:
        """Integers, num/den and decimals; exponent notation is refused,
        since "1e999999999" would build a billion-digit integer."""
        if "e" in text.lower():
            raise ValueError(f"cannot parse rational scalar {text!r}")
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational scalar {text!r}") from exc

    def format(self, s: Scalar) -> str:
        return str(s)

    def contains(self, s) -> bool:
        return isinstance(s, Fraction)

    def to_ints(self, scalars: Sequence[Fraction]) -> Tuple[int, List[int]]:
        L = math.lcm(*(s.denominator for s in scalars))
        return L, [s.numerator * (L // s.denominator) for s in scalars]

    def from_int(self, x: int, L: int) -> Fraction:
        return Fraction(x, L)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for an odd prime p (default 32003) below MILLER_RABIN_BOUND,
    where primality is proven."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if p >= MILLER_RABIN_BOUND:
            raise ValueError(f"modulus {p} is not below {MILLER_RABIN_BOUND}, "
                             "where primality can be proven")
        if p == 2 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        self.p = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    @property
    def tag(self) -> str:
        return f"Fp:{self.p}"

    def of(self, n) -> FpElement:
        if isinstance(n, Fraction):
            if n.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"denominator of {n} vanishes in GF({self.p})")
            return FpElement(n.numerator * pow(n.denominator, -1, self.p), self.p)
        return FpElement(int(n), self.p)

    def parse(self, text: str) -> FpElement:
        try:
            return FpElement(int(text.strip()), self.p)
        except ValueError as exc:
            raise ValueError(f"cannot parse GF({self.p}) scalar {text!r}") from exc

    def format(self, s: Scalar) -> str:
        return str(s)

    def contains(self, s) -> bool:
        return isinstance(s, FpElement) and s.p == self.p

    def to_ints(self, scalars: Sequence[FpElement]) -> Tuple[int, List[int]]:
        return 1, [s.value for s in scalars]

    def from_int(self, x: int, L: int) -> FpElement:
        return FpElement(x if L == 1 else x * pow(L, -1, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


Field = Union[RationalField, PrimeField]

QQ = RationalField()


def field_from_tag(tag: str) -> Field:
    """Resolve a field declaration string: "Q" or "Fp:<p>"."""
    if not isinstance(tag, str):
        raise ValueError(f"field tag must be a string, got {tag!r}")
    tag = tag.strip()
    if tag == "Q":
        return QQ
    if tag.startswith("Fp:"):
        try:
            p = int(tag[3:])
        except ValueError as exc:
            raise ValueError(f"bad field tag {tag!r}") from exc
        return PrimeField(p)
    raise ValueError(f"bad field tag {tag!r} (expected 'Q' or 'Fp:<p>')")

