"""Monomials, homogeneous polynomials, and their graded duals in x, y, z.

The polynomial ring is k[x, y, z]; a degree-d polynomial lives in the span of
the degree-d monomials.  A dual element of degree d is a linear functional on
that space, stored as coefficients on the dual monomial basis: the entry for
monomial m is the coefficient of m*.  The ring acts on the dual by
contraction: a monomial u sends m* to (m/u)* when u divides m and to 0
otherwise, extended bilinearly.

Every ordered basis in this package uses one fixed monomial order:
x^a y^b z^c precedes x^A y^B z^C iff A < a, or A = a and B < b.  The pure
y,z-monomials therefore always come last, ordered y^d, y^{d-1}z, ..., z^d.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, NamedTuple, Tuple

from .scalars import Field, FieldMismatchError, Scalar, field_from_tag

VARS = ("x", "y", "z")

# Basis space names. SYM_U / DUAL_U index all monomials of a degree;
# SYM_U0 / DUAL_U0 only the x-free ones.
SYM_U = "SymU"
SYM_U0 = "SymU0"
DUAL_U = "DualU"
DUAL_U0 = "DualU0"
_SPACES = (SYM_U, SYM_U0, DUAL_U, DUAL_U0)


class Monomial(NamedTuple):
    a: int
    b: int
    c: int

    @property
    def degree(self) -> int:
        return self.a + self.b + self.c

    def __mul__(self, other: "Monomial") -> "Monomial":  # type: ignore[override]
        return Monomial(self.a + other.a, self.b + other.b, self.c + other.c)

    def divides(self, other: "Monomial") -> bool:
        return self.a <= other.a and self.b <= other.b and self.c <= other.c

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other; caller must ensure other divides self."""
        return Monomial(self.a - other.a, self.b - other.b, self.c - other.c)

    def sort_key(self) -> Tuple[int, int]:
        return (-self.a, -self.b)

    def __str__(self) -> str:
        if self.degree == 0:
            return "1"
        parts = []
        for v, e in zip(VARS, self):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "".join(parts)


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


class Basis:
    """An ordered monomial basis with O(1) position lookup."""

    def __init__(self, space: str, degree: int):
        if space not in _SPACES:
            raise ValueError(f"unknown space {space!r}")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.space = space
        self.degree = degree
        self.monomials: Tuple[Monomial, ...] = tuple(
            monomials_of_degree(degree, x_free=space in (SYM_U0, DUAL_U0)))
        self.position: Dict[Monomial, int] = {
            m: i for i, m in enumerate(self.monomials)}

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __getitem__(self, i: int) -> Monomial:
        return self.monomials[i]

    def __repr__(self):
        return f"Basis({self.space}, {self.degree}, {len(self)} monomials)"


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
            if c != field.zero:
                clean[m] = c
        self.field = field
        self.degree = degree
        self.coeffs = clean

    def _check_same_kind(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with "
                            f"{type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError("operands live in different fields")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

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

    def to_coords(self, basis: Basis) -> List[Scalar]:
        if basis.degree != self.degree:
            raise ValueError("basis degree mismatch")
        return [self.coefficient(m) for m in basis]


class Polynomial(_CoeffMap):
    """A homogeneous polynomial in x, y, z.  The zero polynomial keeps an
    explicit degree tag so degree preconditions stay checkable."""

    @classmethod
    def zero(cls, field: Field, degree: int) -> "Polynomial":
        return cls(field, degree, {})

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

    @classmethod
    def from_coords(cls, field: Field, basis: Basis,
                    coords: Iterable[Scalar]) -> "Polynomial":
        coords = list(coords)
        if len(coords) != len(basis):
            raise ValueError("coordinate vector has wrong length")
        return cls(field, basis.degree, dict(zip(basis.monomials, coords)))

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
    def zero(cls, field: Field, degree: int) -> "DualElement":
        return cls(field, degree, {})

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
        try:
            field = field_from_tag(data["field"])
            degree = int(data["degree"])
            raw = data["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed dual-element record: {exc}") from exc
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
            coeffs[m] = field.parse(val)
        return cls(field, degree, coeffs)

    @classmethod
    def from_json(cls, text: str) -> "DualElement":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
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


def evaluate(w: DualElement, u: Polynomial) -> Scalar:
    """The pairing w(u) for equal degrees: sum of matching coefficient
    products."""
    if u.field != w.field:
        raise FieldMismatchError("operands live in different fields")
    if u.degree != w.degree:
        raise ValueError(
            f"cannot evaluate degree-{w.degree} dual on degree-{u.degree} polynomial")
    small, large = (u.coeffs, w.coeffs) if len(u.coeffs) <= len(w.coeffs) \
        else (w.coeffs, u.coeffs)
    total = w.field.zero
    for m, c in small.items():
        other = large.get(m)
        if other is not None:
            total = total + c * other
    return total


def _det3(g: List[List[Scalar]]) -> Scalar:
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))


def substitute(w: DualElement, g) -> DualElement:
    """Precompose w with the degree-d extension of the linear change of
    variables g (an invertible 3x3 matrix, column j = image of variable j):
    the result sends every degree-d polynomial u to w(g . u).

    Consequently the annihilator of the result is the g-preimage of the
    annihilator of w.
    """
    rows = [list(r) for r in getattr(g, "entries", g)]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("change of variables must be a 3x3 matrix")
    field = w.field
    rows = [[c if field.contains(c) else field.of(c) for c in r] for r in rows]
    if _det3(rows) == field.zero:
        raise ValueError("change of variables is singular")
    images = [
        Polynomial(field, 1, {Monomial(*(1 if k == i else 0 for k in range(3))):
                              rows[i][j] for i in range(3)})
        for j in range(3)
    ]
    # Cache powers of each variable image; degree-d basis is small.
    d = w.degree
    powers = []
    for img in images:
        ps = [Polynomial(field, 0, {ONE: field.one})]
        for _ in range(d):
            ps.append(ps[-1] * img)
        powers.append(ps)
    out: Dict[Monomial, Scalar] = {}
    for m in monomials_of_degree(d):
        image = powers[0][m.a] * powers[1][m.b] * powers[2][m.c]
        val = evaluate(w, image)
        if val != field.zero:
            out[m] = val
    return DualElement(field, d, out)


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
