"""Monomials, homogeneous polynomials, and their graded duals in x, y, z.

The polynomial ring is k[x, y, z]; a degree-d polynomial lives in the span of
the degree-d monomials.  A dual element of degree d is a linear functional on
that space, stored as coefficients on the dual monomial basis: the entry for
monomial m is the coefficient of m*.  The ring acts on the dual by
contraction: a monomial u sends m* to (m/u)* when u divides m and to 0
otherwise, extended bilinearly.

Every monomial list in this package (``monomials_of_degree``) uses one
fixed order: x^a y^b z^c precedes x^A y^B z^C iff A < a, or A = a and
B < b.  The pure y,z-monomials therefore always come last, ordered y^d,
y^{d-1}z, ..., z^d.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .scalars import Field, FieldMismatchError, Scalar, field_from_tag

VARS = ("x", "y", "z")

# The largest degree an inverse-system record may declare, checked before any
# basis is built.  Socle degree 63 is n = 32, where the catalecticant p of the
# linear path is already 528 x 528; an absurd degree is refused at once
# instead of exhausting memory.
MAX_DEGREE = 63


class Monomial(NamedTuple):
    a: int
    b: int
    c: int

    @property
    def degree(self) -> int:
        return self.a + self.b + self.c

    def __mul__(self, other: "Monomial") -> "Monomial":  # type: ignore[override]
        # tuple.__new__ skips the Python frame of the NamedTuple constructor
        return tuple.__new__(Monomial, (self.a + other.a, self.b + other.b,
                                        self.c + other.c))

    def divides(self, other: "Monomial") -> bool:
        return self.a <= other.a and self.b <= other.b and self.c <= other.c

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other; caller must ensure other divides self."""
        return Monomial(self.a - other.a, self.b - other.b, self.c - other.c)

    def sort_key(self) -> Tuple[int, int]:
        return (-self.a, -self.b)

    def __str__(self) -> str:
        return "".join([v if e == 1 else f"{v}^{e}"
                        for v, e in zip(VARS, self) if e]) or "1"


X = Monomial(1, 0, 0)
Y = Monomial(0, 1, 0)
Z = Monomial(0, 0, 1)
ONE = Monomial(0, 0, 0)


def monomials_of_degree(degree: int, x_free: bool = False) -> List[Monomial]:
    """All degree-d monomials in the fixed order (x-free ones only if asked)."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    out = []
    a_range = (0,) if x_free else range(degree, -1, -1)
    for a in a_range:
        for b in range(degree - a, -1, -1):
            out.append(Monomial(a, b, degree - a - b))
    return out


class _CoeffMap:
    """Shared plumbing for Polynomial and DualElement: a homogeneous
    coefficient map over monomials of one degree."""

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field: Field, degree: int, coeffs: Dict[Monomial, Scalar]):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: Dict[Monomial, Scalar] = {}
        for m, c in coeffs.items():
            if m.degree != degree:
                raise ValueError(
                    f"monomial {m} has degree {m.degree}, expected {degree}")
            if not field.contains(c):
                c = field.of(c)
            if c:
                clean[m] = c
        self.field = field
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def zero(cls, field: Field, degree: int):
        return cls(field, degree, {})

    @classmethod
    def _trusted(cls, field: Field, degree: int, coeffs: Dict[Monomial, Scalar]):
        """The element with these coefficients, built without the checks of
        the constructor: the caller guarantees that every monomial has the
        degree and every coefficient is a nonzero scalar of the field."""
        out = cls.__new__(cls)
        out.field, out.degree, out.coeffs = field, degree, coeffs
        return out

    def _check_same_kind(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with "
                            f"{type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError("operands live in different fields")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, m: Monomial) -> Scalar:
        return self.coeffs.get(m, self.field.zero)

    def sorted_terms(self) -> List[Tuple[Monomial, Scalar]]:
        return sorted(self.coeffs.items(), key=lambda t: t[0].sort_key())

    def __add__(self, other):
        self._check_same_kind(other)
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        coeffs = dict(self.coeffs)
        for m, c in other.coeffs.items():
            coeffs[m] = coeffs.get(m, self.field.zero) + c
        return type(self)(self.field, self.degree, coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.field, self.degree,
                          {m: -c for m, c in self.coeffs.items()})

    def scaled(self, s: Scalar):
        if not self.field.contains(s):
            s = self.field.of(s)
        return type(self)(self.field, self.degree,
                          {m: c * s for m, c in self.coeffs.items()})

    def __eq__(self, other):
        return (type(other) is type(self) and other.field == self.field
                and other.degree == self.degree and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((type(self).__name__, self.degree,
                     tuple(self.sorted_terms())))


class Polynomial(_CoeffMap):
    """A homogeneous polynomial in x, y, z.  The zero polynomial keeps an
    explicit degree tag so degree preconditions stay checkable."""

    @classmethod
    def monomial(cls, field: Field, m: Monomial, coeff=1) -> "Polynomial":
        return cls(field, m.degree, {m: field.of(coeff)})

    @classmethod
    def variable(cls, field: Field, name: str) -> "Polynomial":
        try:
            i = VARS.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None
        return cls.monomial(field, Monomial(*(1 if j == i else 0 for j in range(3))))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_kind(other)
        out: Dict[Monomial, Scalar] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = m1 * m2
                prev = out.get(m)
                out[m] = c1 * c2 if prev is None else prev + c1 * c2
        return Polynomial(self.field, self.degree + other.degree, out)

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial(self.field, 0, {ONE: self.field.one})
        for _ in range(e):
            result = result * self
        return result

    def __str__(self) -> str:
        return format_terms(self)

    def __repr__(self):
        return f"Polynomial({self})"


class DualElement(_CoeffMap):
    """A degree-d functional on degree-d polynomials, on the dual monomial
    basis: ``coeffs[m]`` is the coefficient of m*."""

    @classmethod
    def dual_monomial(cls, field: Field, m: Monomial, coeff=1) -> "DualElement":
        return cls(field, m.degree, {m: field.of(coeff)})

    def __str__(self) -> str:
        return format_terms(self, dual=True)

    def __repr__(self):
        return f"DualElement({self})"

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.tag,
            "degree": self.degree,
            "coeffs": {f"{m.a},{m.b},{m.c}": self.field.format(c)
                       for m, c in self.sorted_terms()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "DualElement":
        """Validate and build a record; every defect raises ValueError, such
        as two keys "1,0,0" and "01,0,0" that name one monomial.  The degree
        is checked against MAX_DEGREE before anything is built."""
        if not isinstance(data, dict):
            raise ValueError("malformed dual-element record: not a JSON object")
        try:
            field, degree, raw = data["field"], data["degree"], data["coeffs"]
        except KeyError as exc:
            raise ValueError(
                f"malformed dual-element record: missing {exc}") from exc
        field = field_from_tag(field)
        if type(degree) is not int:
            raise ValueError(f"degree must be an integer, got {degree!r}")
        if not 0 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree {degree} is outside 0..{MAX_DEGREE}")
        if not isinstance(raw, dict):
            raise ValueError("coeffs must be a JSON object")
        coeffs: Dict[Monomial, Scalar] = {}
        for key, val in raw.items():
            parts = key.split(",")
            if len(parts) != 3:
                raise ValueError(f"bad exponent triple {key!r}")
            try:
                m = Monomial(*(int(p) for p in parts))
            except ValueError as exc:
                raise ValueError(f"bad exponent triple {key!r}") from exc
            if min(m) < 0:
                raise ValueError(f"negative exponent in {key!r}")
            if m in coeffs:
                raise ValueError(f"{key!r} names the monomial {m} again")
            if not isinstance(val, str):
                raise ValueError(f"coefficient of {key!r} must be a string")
            coeffs[m] = field.parse(val)
        return cls(field, degree, coeffs)

    @classmethod
    def from_json(cls, text: str) -> "DualElement":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)


def contract(u: Polynomial, w: DualElement) -> DualElement:
    """Apply the polynomial u (degree i) to the dual element w (degree j),
    yielding a degree j-i functional.  On monomials: u sends m* to (m/u)*
    when u divides m, else to 0."""
    if u.field != w.field:
        raise FieldMismatchError("operands live in different fields")
    if u.degree > w.degree:
        raise ValueError(
            f"cannot contract degree-{w.degree} dual by degree-{u.degree} polynomial")
    out: Dict[Monomial, Scalar] = {}
    for mu, cu in u.coeffs.items():
        for mw, cw in w.coeffs.items():
            if mu.divides(mw):
                q = mw.quotient(mu)
                prev = out.get(q)
                term = cu * cw
                out[q] = term if prev is None else prev + term
    return DualElement(w.field, w.degree - u.degree, out)


def position(m: Tuple[int, int, int]) -> int:
    """The index of m = x^a y^b z^c in ``monomials_of_degree(a + b + c)``:
    T(b + c) + c, T(k) = k (k + 1) / 2, as the T(b + c) monomials with a
    higher power of x come first, then y^(b+c), ..., z^(b+c)."""
    _, b, c = m
    return (b + c) * (b + c + 1) // 2 + c


def dense(coeffs: Dict[Monomial, int], degree: int) -> List[int]:
    """The int coefficients ``coeffs`` of one degree as a list in the fixed
    order, 0 where a monomial is missing."""
    out = [0] * ((degree + 1) * (degree + 2) // 2)
    for m, x in coeffs.items():
        out[position(m)] = x
    return out


def catalecticant(phi: List[int], rows: Sequence[Monomial], d: int,
                  x_free: bool = False) -> List[List[int]]:
    """Rows of the catalecticant of the functional of degree s whose int
    coefficients are ``phi`` (``dense``): the entry (mr, mc) is the
    coefficient of mr * mc (Iarrobino-Kanev, LNM 1721, 1999), mr running
    over ``rows``, of degree s - d, and mc over the degree-d monomials
    (x-free ones only if asked).  For those rows its kernel is the degree-d
    annihilator.  By index: the columns with b' + c' = k form one run,
    c' = 0, ..., k, and x^a y^b z^c times them sits at T(b + c + k) + c + c'
    (``position``), so a row is d + 1 contiguous runs of phi, the x-free
    columns its last."""
    runs = (d,) if x_free else range(d + 1)
    out = []
    for _, b, c in rows:
        row: List[int] = []
        for k in runs:
            o = position((0, b + k, c))
            row += phi[o:o + k + 1]
        out.append(row)
    return out


def random_dual_element(field: Field, degree: int, rng) -> DualElement:
    """A dense random dual element; used by property tests and CLI tooling."""
    coeffs: Dict[Monomial, Scalar] = {}
    for m in monomials_of_degree(degree):
        if hasattr(field, "p"):
            coeffs[m] = field.of(rng.randrange(field.p))
        else:
            coeffs[m] = field.of(rng.randint(-20, 20))
    return DualElement(field, degree, coeffs)


# ---------------------------------------------------------------------------
# Text form: "(-1/6)x^2 + (1/6)xz + (-1/6)z^2"; parsing also accepts the bare
# style "-x^2+xz-z^2", "2/3*y", "x - y".

def format_terms(p: _CoeffMap, dual: bool = False) -> str:
    if p.is_zero:
        return "0"
    star = "*" if dual else ""
    parts = [f"({p.field.format(c)}){m}{star}" for m, c in p.sorted_terms()]
    return " + ".join(parts)


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:\((?P<paren>[^()]+)\)|(?P<coeff>\d+(?:/\d+)?))?
        \s*\*?\s*
        (?P<mono>1|(?:[xyz](?:\^\d+)?\s*\*?\s*)*)
    """,
    re.VERBOSE,
)


def _parse_monomial(text: str) -> Monomial:
    exps = {"x": 0, "y": 0, "z": 0}
    for var, exp in re.findall(r"([xyz])(?:\^(\d+))?", text):
        exps[var] += int(exp) if exp else 1
    return Monomial(exps["x"], exps["y"], exps["z"])


def parse_polynomial(text: str, field: Field) -> Polynomial:
    """Parse a polynomial in x, y, z with rational or residue coefficients.

    The input must be homogeneous (all terms one degree); "0" parses to the
    zero polynomial of degree 0 unless a degree is imposed by the caller.
    """
    s = text.strip()
    if s in ("0", "(0)", ""):
        return Polynomial.zero(field, 0)
    coeffs: Dict[Monomial, Scalar] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r} at {s[pos:]!r}")
        sign, paren, coeff, mono = m.group("sign", "paren", "coeff", "mono")
        if sign is None and not first:
            raise ValueError(f"missing +/- between terms in {text!r}")
        if paren is None and coeff is None and not mono.strip():
            raise ValueError(f"empty term in polynomial {text!r}")
        c_text = paren if paren is not None else coeff
        c = field.one if c_text is None else field.parse(c_text)
        if sign == "-":
            c = -c
        mon = _parse_monomial(mono)
        coeffs[mon] = coeffs.get(mon, field.zero) + c
        pos = m.end()
        first = False
    degrees = {m.degree for m in coeffs}
    if len(degrees) > 1:
        raise ValueError(f"polynomial {text!r} is not homogeneous")
    return Polynomial(field, degrees.pop() if degrees else 0, coeffs)


def parse_linear_form(text: str, field: Field) -> Polynomial:
    """Parse a nonzero linear form like "x", "y-z" or "2/3*x+1*y"."""
    p = parse_polynomial(text, field)
    if p.is_zero or p.degree != 1:
        raise ValueError(f"{text!r} is not a nonzero linear form")
    return p
