"""Dense exact matrices over a field and over the polynomial ring.

``Matrix`` holds the matrix algebra once: transpose, sum, difference,
negation, product, scaling, equality, row and column selection, the zero
test, the text form and stacking.  Its two kinds differ only in their
entries.  A FieldMatrix holds scalars, which count as forms of degree 0; a
PolyMatrix holds homogeneous polynomials that all share one declared
degree.  A sum or product that meets both kinds is a PolyMatrix; only the
sum promotes the scalar operand with ``as_poly_matrix``, a re-tag that
boxes nothing, and stacking refuses to mix them.

A matrix M stores plain ints: L M = sum_u u C_u, one int matrix C_u (a
"slice") per monomial u that occurs, rows of ints.  Over GF(p), L = 1 and
the slices hold residues in [0, p); over Q, L is the least common
denominator of the entries, so gcd(L, every numerator) = 1.  No all-zero
slice is kept, so the form is canonical and equality compares (field,
degree, shape, L, slices).  The public constructors validate boxed entries
and compute the slices once; every operation works on the slices and
builds its result from ints, with no validation, taking the result back to
the canonical form after every sum, product and selection.  The slices are
never changed in place, so results share rows freely.  ``entries`` is a
read-only view, boxed as ``Fraction``, ``FpElement`` or ``Polynomial`` on
first read and then kept; ``to_strings`` reads the slices and boxes
nothing.

A product multiplies the slices with int dot products: (L_a A)(L_b B) =
sum_(u,v) uv C_u D_v over L_a L_b, made canonical.  Kernel, determinant and
inverse come from one Gauss-Jordan routine on the int rows of L m
(``_rref_ints``) that takes the first nonzero pivot in column order, so
results are deterministic: the determinant is the product of the pivots
times the sign of the row swaps, and the inverse is the right half of the
reduced [L m | I].  Over GF(p) it runs on residues, each row packed into
one int once it is first updated (``residues.rref_mod``); over Q,
fraction-free (``_rref_int``, after Bareiss), where the rows end as the
RREF times the last pivot.  The RREF is unique, so both give the rational
answer.  The reduced rows stay ints: ``kernel`` boxes only the free
columns, and ``invert`` returns its slices over the last pivot, boxing
nothing.  The rank takes the same loops forward only, on whichever of M
and M^T has fewer rows.  A zero-row matrix keeps its column count.

Pfaffians take one polynomial-time path for both kinds.
Every call first checks, on the slices, that the matrix is strictly
alternating (zero diagonal, M + M^T = 0).  For an m x m matrix of degree-d
forms, the Pfaffian (m even) and each maximal-order Pfaffian (m odd) is a
form of degree D = (m // 2) d.  The kernel works on plain ints mod a prime
q > D:

- it takes the entries above the diagonal at the lattice points
  (1, a, b), a + b <= D, which are unisolvent for degree-D forms because
  0, ..., D are distinct mod q: each entry becomes one lane list, its
  values at all the points;
- one skew-symmetric elimination with 2 x 2 pivots (``_skew_mod``,
  O(m^3) list operations) runs on all the points at once, as lanes, and
  gives each point's Pfaffian as the signed product of its pivots; for
  odd m it also gives the null vector, which that product scales into the
  whole signed row.  It stores and updates the triangle above the
  diagonal only, as skew-symmetric L T L^T codes do (Bunch 1982;
  M. Wimmer, ACM TOMS 38, 2012): the one below is its negation, and its
  cells hold the multipliers;
- Newton forward differences on the lattice interpolate all the forms in
  O(D^3) vector operations (``residues.interpolate_mod``).

The forms come back as one 1 x k matrix of the input's kind, built from
their int coefficients and never boxed: the signed row itself, or the 1 x 1
Pfaffian, whose one entry ``pfaffian`` reads.

Over GF(p) with p > D, q = p.  Over Q, and over GF(p) with p <= D, the kernel
runs on the integer matrix L M (residues above the diagonal lifted to
(-p/2, p/2)) modulo primes below 2^61, combined by the CRT until their
product exceeds twice sqrt(prod_i max(1, r_i)), r_i being the sum of the
coefficient 1-norms of row i, which bounds every coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import (Monomial, ONE, Polynomial, monomials_of_degree,
                   parse_polynomial)
from .residues import interpolate_mod
from .residues import rref_mod as _rref_mod
from .scalars import (Field, FieldMismatchError, FpElement, PrimeField, Scalar,
                      is_prime)

Slices = Dict[Monomial, List[List[int]]]


def _width(rows: List[list], cols: Optional[int]) -> int:
    width = cols if cols is not None else len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    return width


def _int_slices(field: Field, boxed: dict) -> Tuple[int, Slices]:
    """(L, slices) of the matrix whose coefficients of each monomial u are
    the scalars boxed[u]: L the least common denominator, which leaves
    gcd(L, all numerators) = 1, and all-zero slices dropped."""
    if getattr(field, "p", None):
        L, ints = 1, {u: [[e.value for e in r] for r in s]
                      for u, s in boxed.items()}
    else:
        L = math.lcm(*(e.denominator for s in boxed.values() for r in s for e in r))
        ints = {u: [[e.numerator * (L // e.denominator) for e in r] for r in s]
                for u, s in boxed.items()}
    return L, {u: s for u, s in ints.items() if any(map(any, s))}


def _scaled_slice(s: List[List[int]], f: int) -> List[List[int]]:
    return s if f == 1 else [[x * f for x in r] for r in s]


class Matrix:
    """A rectangular matrix over one field whose entries are forms of one
    degree, stored as L M = sum_u u C_u (see the module docstring): the
    attributes ``L`` and ``slices`` = {u: C_u}.  Each kind supplies three
    hooks:

    - ``_zero(degree)``: the zero entry of that degree;
    - ``_element(degree, coeffs)``: the degree-``degree`` entry whose
      nonzero coefficients are the {monomial: scalar} map ``coeffs``;
    - ``_affixes(name)``: the texts around a coefficient in the term of
      the monomial named ``name``.

    Entries are zero exactly when they are falsy."""

    field: Field
    degree: int
    rows: int
    cols: int
    L: int
    slices: Slices

    @classmethod
    def _from_slices(cls, field: Field, degree: int, rows: int, cols: int,
                     L: int, slices: Slices):
        """The matrix with these canonical slices, built without any check."""
        m = cls.__new__(cls)
        m.field, m.degree, m.rows, m.cols = field, degree, rows, cols
        m.L, m.slices, m._entries = L, slices, None
        return m

    def _result(self, degree: int, rows: int, cols: int, L: int,
                slices: Slices, reduce: bool = False) -> "Matrix":
        """A matrix of self's kind from slices taken to the canonical form:
        over GF(p) the residues (reduced mod p first when ``reduce``) and
        L = 1; over Q, L > 0 and L / g with every numerator divided by
        g = gcd(L, all numerators).  All-zero slices are dropped."""
        p = getattr(self.field, "p", None)
        if p and reduce:
            slices = {u: [[x % p for x in r] for r in s] for u, s in slices.items()}
        slices = {u: s for u, s in slices.items() if any(map(any, s))}
        if not p:
            g = math.gcd(L, *chain.from_iterable(chain.from_iterable(slices.values())))
            if L < 0:
                g = -g
            if g != 1:
                slices = {u: [[x // g for x in r] for r in s]
                          for u, s in slices.items()}
            L //= g
        return type(self)._from_slices(self.field, degree, rows, cols, L, slices)

    @property
    def entries(self) -> list:
        """The boxed entries, a list of rows: built on first read and then
        kept.  Read only; the matrix is its slices."""
        if self._entries is None:
            self._entries = self._box()
        return self._entries

    def _box(self) -> list:
        """Each entry from the {monomial: scalar} map of its nonzero
        coefficients, each boxed once as x / L."""
        maps = [[{} for _ in range(self.cols)] for _ in range(self.rows)]
        for u, s in self.slices.items():
            for row, ints in zip(maps, s):
                for c, x in zip(row, ints):
                    if x:
                        c[u] = _scalar(self.field, x, self.L)
        return [[self._element(self.degree, c) for c in row] for row in maps]

    def _kind(self, other: "Matrix") -> "Matrix":
        """The operand whose kind the sum or product of self and other
        takes: the PolyMatrix one, if either is."""
        if self.field != other.field:
            raise FieldMismatchError("matrices live in different fields")
        return other if isinstance(other, PolyMatrix) else self

    def transpose(self) -> "Matrix":
        return type(self)._from_slices(
            self.field, self.degree, self.cols, self.rows, self.L,
            {u: [list(c) for c in zip(*s)] for u, s in self.slices.items()})

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """(L_a A)(L_b B) = sum_(u,v) uv C_u D_v on plain ints, with a
        scalar operand's single slice C_1, over L_a L_b."""
        kind = self._kind(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        b_cols = [(v, list(zip(*d))) for v, d in other.slices.items()]
        sums: Slices = {}
        for u, c in self.slices.items():
            for v, d_cols in b_cols:
                prod = [[sum(map(mul, row, col)) for col in d_cols] if any(row)
                        else [0] * other.cols for row in c]
                w = u * v
                acc = sums.get(w)
                sums[w] = prod if acc is None else [
                    list(map(add, r1, r2)) for r1, r2 in zip(acc, prod)]
        return kind._result(self.degree + other.degree, self.rows, other.cols,
                            self.L * other.L, sums, reduce=True)

    def __add__(self, other: "Matrix") -> "Matrix":
        a, b = self, other
        if isinstance(self._kind(other), PolyMatrix):
            a, b = as_poly_matrix(self), as_poly_matrix(other)
        if (a.rows, a.cols) != (b.rows, b.cols):
            raise ValueError("shape mismatch in matrix sum")
        if a.degree != b.degree:
            raise ValueError("degree mismatch in matrix sum")
        L = math.lcm(a.L, b.L)
        fa, fb = L // a.L, L // b.L
        out = {u: _scaled_slice(s, fa) for u, s in a.slices.items()}
        for u, s in b.slices.items():
            acc = out.get(u)
            s = _scaled_slice(s, fb)
            out[u] = s if acc is None else [list(map(add, r1, r2))
                                            for r1, r2 in zip(acc, s)]
        return a._result(a.degree, a.rows, a.cols, L, out, reduce=True)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return self.scaled(-1)

    def scaled(self, s) -> "Matrix":
        """s times the matrix, for a scalar s of the field or an int."""
        s = s if self.field.contains(s) else self.field.of(s)
        if getattr(self.field, "p", None):
            num, den = s.value, 1
        else:
            num, den = s.numerator, s.denominator
        return self._result(self.degree, self.rows, self.cols, self.L * den,
                            {u: _scaled_slice(c, num)
                             for u, c in self.slices.items()}, reduce=True)

    def __eq__(self, other):
        return (type(other) is type(self) and other.field == self.field
                and other.degree == self.degree and other.rows == self.rows
                and other.cols == self.cols and other.L == self.L
                and other.slices == self.slices)

    def _select(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """The submatrix on these row and column indices, in this order."""
        return self._result(self.degree, len(rows), len(cols), self.L,
                            {u: [[s[i][j] for j in cols] for i in rows]
                             for u, s in self.slices.items()})

    def deleted(self, rows: Sequence[int] = (), cols: Sequence[int] = ()) -> "Matrix":
        """Copy with the given 0-based rows and columns removed."""
        rs, cs = set(rows), set(cols)
        return self._select([i for i in range(self.rows) if i not in rs],
                            [j for j in range(self.cols) if j not in cs])

    def take_cols(self, indices: Sequence[int]) -> "Matrix":
        return self._select(range(self.rows), list(indices))

    def take_rows(self, indices: Sequence[int]) -> "Matrix":
        return self._select(list(indices), range(self.cols))

    def is_zero(self) -> bool:
        return not self.slices

    def to_strings(self) -> List[List[str]]:
        """The entries as text, read off the slices: boxes nothing.  Each
        monomial is named once, and x / L is written as the reduced
        fraction (x / g) / (L / g), g = gcd(x, L)."""
        L = self.L
        monos = sorted(self.slices, key=Monomial.sort_key)
        affixes = [self._affixes(str(u)) for u in monos]
        tables = [self.slices[u] for u in monos]

        def scalar(x: int) -> str:
            g = math.gcd(x, L)
            return str(x // g) if g == L else f"{x // g}/{L // g}"

        fmt = str if L == 1 else scalar
        return [[" + ".join([a + fmt(x) + b for (a, b), x in zip(affixes, col)
                             if x]) or "0"
                 for col in (zip(*[t[i] for t in tables]) if tables
                             else [()] * self.cols)]
                for i in range(self.rows)]


class FieldMatrix(Matrix):
    """A rectangular matrix of scalars from one field."""

    degree = 0

    def __init__(self, field: Field, entries: Sequence[Sequence],
                 cols: Optional[int] = None):
        """``cols`` fixes the width; it is needed only when there are no
        rows, and is otherwise the length of the first row."""
        rows = [[e if field.contains(e) else field.of(e) for e in r]
                for r in entries]
        self.field, self.rows, self.cols = field, len(rows), _width(rows, cols)
        self.L, self.slices = _int_slices(field, {ONE: rows})
        self._entries = rows

    @classmethod
    def _from_ints(cls, field: Field, rows: List[List[int]],
                   cols: int) -> "FieldMatrix":
        """The matrix whose entries are these ints, built without any
        check: L = 1, the residues in [0, p) over GF(p), and no slice for
        an all-zero matrix."""
        return cls._from_slices(field, 0, len(rows), cols, 1,
                                {ONE: rows} if any(map(any, rows)) else {})

    @classmethod
    def identity(cls, field: Field, n: int) -> "FieldMatrix":
        return cls._from_ints(field, [[int(i == j) for j in range(n)]
                                      for i in range(n)], n)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "FieldMatrix":
        return cls._from_slices(field, 0, rows, cols, 1, {})

    def _zero(self, degree: int) -> Scalar:
        return self.field.zero

    def _element(self, degree: int, coeffs: dict) -> Scalar:
        return coeffs.get(ONE, self.field.zero)

    def _affixes(self, name: str) -> Tuple[str, str]:
        return "", ""

    @classmethod
    def from_strings(cls, field: Field, rows: Sequence[Sequence[str]]) -> "FieldMatrix":
        return cls(field, [[field.parse(e) for e in r] for r in rows])

    def __repr__(self):
        return f"FieldMatrix({self.rows}x{self.cols} over {self.field!r})"


class PolyMatrix(Matrix):
    """A rectangular matrix of homogeneous polynomials sharing one degree."""

    def __init__(self, field: Field, degree: int,
                 entries: Sequence[Sequence[Polynomial]],
                 cols: Optional[int] = None):
        """``cols`` fixes the width, as for ``FieldMatrix``."""
        rows = [list(r) for r in entries]
        width = _width(rows, cols)
        boxed: dict = {}
        for i, r in enumerate(rows):
            for j, e in enumerate(r):
                if not isinstance(e, Polynomial):
                    raise TypeError("PolyMatrix entries must be Polynomial")
                if e.field != field:
                    raise FieldMismatchError("entry in a different field")
                if e.is_zero:
                    r[j] = Polynomial.zero(field, degree)
                elif e.degree != degree:
                    raise ValueError(
                        f"entry of degree {e.degree} in a degree-{degree} matrix")
                for u, c in e.coeffs.items():
                    if u not in boxed:
                        boxed[u] = [[field.zero] * width for _ in rows]
                    boxed[u][i][j] = c
        self.field, self.degree, self.rows, self.cols = field, degree, len(rows), width
        self.L, self.slices = _int_slices(field, boxed)
        self._entries = rows

    @classmethod
    def zeros(cls, field: Field, degree: int, rows: int, cols: int) -> "PolyMatrix":
        return cls._from_slices(field, degree, rows, cols, 1, {})

    def _zero(self, degree: int) -> Polynomial:
        return Polynomial.zero(self.field, degree)

    def _element(self, degree: int, coeffs: dict) -> Polynomial:
        return Polynomial._trusted(self.field, degree, coeffs)

    def _affixes(self, name: str) -> Tuple[str, str]:
        return "(", ")" + name

    def times_monomial(self, m: Monomial) -> "PolyMatrix":
        return PolyMatrix._from_slices(
            self.field, self.degree + m.degree, self.rows, self.cols, self.L,
            {u * m: s for u, s in self.slices.items()})

    @classmethod
    def from_strings(cls, field: Field, degree: int,
                     rows: Sequence[Sequence[str]]) -> "PolyMatrix":
        return cls(field, degree, [[parse_polynomial(text, field) for text in r]
                                   for r in rows])

    def __repr__(self):
        return (f"PolyMatrix({self.rows}x{self.cols}, degree {self.degree} "
                f"over {self.field!r})")


def as_poly_matrix(m: Matrix) -> PolyMatrix:
    """Promote a scalar matrix to a degree-0 polynomial matrix, a re-tag of
    its slices; a PolyMatrix passes through unchanged."""
    if isinstance(m, PolyMatrix):
        return m
    return PolyMatrix._from_slices(m.field, 0, m.rows, m.cols, m.L, m.slices)


def _stack_kind(mats: Sequence[Matrix]) -> Matrix:
    first = mats[0]
    for m in mats[1:]:
        if type(m) is not type(first) or m.field != first.field:
            raise TypeError("cannot stack matrices of different kinds/fields")
        if m.degree != first.degree:
            raise ValueError("cannot stack polynomial matrices of different degrees")
    return first


def hstack(*mats: Matrix) -> Matrix:
    first = _stack_kind(mats)
    if any(m.rows != first.rows for m in mats):
        raise ValueError("row count mismatch in hstack")
    return vstack(*[m.transpose() for m in mats]).transpose()


def vstack(*mats: Matrix) -> Matrix:
    """The rows of mats, all of one kind, over the LCM of their L: for each
    monomial, each block's slice (scaled to the common L) or zeros.  The
    LCM of canonical denominators keeps the form canonical, and a slice
    that occurs is nonzero."""
    first = _stack_kind(mats)
    if any(m.cols != first.cols for m in mats):
        raise ValueError("column count mismatch in vstack")
    L = math.lcm(*(m.L for m in mats))
    slices: Slices = {}
    for u in dict.fromkeys(chain.from_iterable(m.slices for m in mats)):
        slices[u] = [r for m in mats for r in (
            _scaled_slice(m.slices[u], L // m.L) if u in m.slices
            else [[0] * m.cols] * m.rows)]
    return type(first)._from_slices(first.field, first.degree,
                                    sum(m.rows for m in mats), first.cols, L,
                                    slices)


def block(grid: Sequence[Sequence[Matrix]]) -> Matrix:
    return vstack(*[hstack(*row) for row in grid])


# ---------------------------------------------------------------------------
# Gaussian elimination: rank, kernel, determinant, inverse.

def _rref_int(rows: List[List[int]], full: bool = True
              ) -> Tuple[List[List[int]], List[int], int]:
    """Fraction-free Gauss-Jordan on integer rows, in place (E. H. Bareiss,
    Math. Comp. 22, 1968): (rows, pivot columns, d).  A pivot piv turns
    every other row a into (piv a - a[c] pivot_row) // prev, prev the pivot
    before it: an exact division, since every entry stays a minor of the
    input.  Every pivot ends equal to the last, so the rows are that pivot
    times the RREF, and d, the last pivot times the sign of the row swaps,
    is the product of the pivots of the rational elimination times that
    sign.  With ``full`` false only the rows below each pivot change.

    Each column c in order with a nonzero entry in row r or below, r the
    number of pivots so far, takes the first such row as its pivot row,
    swapped up to r."""
    pivots: List[int] = []
    sign = prev = 1
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        pivot_row = rows[r]
        piv = pivot_row[c]
        for i in range(0 if full else r + 1, len(rows)):
            if i != r:
                row = rows[i]
                f = row[c]
                # below the pivot row both rows are zero left of c
                lo = 0 if i < r else c
                row[lo:] = [(piv * a - f * b) // prev
                            for a, b in zip(row[lo:], pivot_row[lo:])]
        prev = piv
        pivots.append(c)
        r += 1
    return rows, pivots, sign * prev


def _rref_ints(rows: List[List[int]], field: Field
               ) -> Tuple[List[List[int]], List[int], int, int]:
    """Gauss-Jordan on the int rows of L m, in place: residues over GF(p)
    (``_rref_mod``), integers over Q (``_rref_int``).  Returns (rows, pivot
    columns, d, last): the reduced rows are last times the RREF, last being
    1 over GF(p) and the last pivot over Q, and d is the product of the
    pivots of the rational elimination of these rows times the sign of the
    row swaps (mod p over GF(p)); for a square matrix of full rank it is
    det(L m)."""
    if isinstance(field, PrimeField):
        red, pivots, d = _rref_mod(rows, field.p)
        return red, pivots, d, 1
    red, pivots, d = _rref_int(rows)
    return red, pivots, d, red[0][pivots[0]] if pivots else 1


def _int_rows(m: FieldMatrix) -> List[List[int]]:
    """A fresh copy of the rows of L m, for the in-place eliminations."""
    s = m.slices.get(ONE)
    return ([list(r) for r in s] if s is not None
            else [[0] * m.cols for _ in range(m.rows)])


def _scalar(field: Field, x: int, den: int) -> Scalar:
    """The scalar x / den: a residue over GF(p), where den is 1."""
    p = getattr(field, "p", None)
    return FpElement(x, p) if p else Fraction(x, den)


def _shorter(rows: List[list]) -> List[list]:
    """The rows, or the rows of the transpose when that has fewer; the rank
    is the same."""
    if rows and len(rows) > len(rows[0]):
        return [list(c) for c in zip(*rows)]
    return rows


def _rank_mod(rows: List[List[int]], q: int) -> int:
    """Rank of a residue matrix mod q by forward elimination; may
    overwrite rows."""
    return len(_rref_mod(_shorter(rows), q, full=False)[1])


def rank(m: FieldMatrix) -> int:
    """By forward elimination on the int rows of L m."""
    if isinstance(m.field, PrimeField):
        return _rank_mod(_int_rows(m), m.field.p)
    return len(_rref_int(_shorter(_int_rows(m)), full=False)[1])


def kernel(m: FieldMatrix) -> List[List[Scalar]]:
    """A basis of the right null space; empty iff full column rank.

    Deterministic: one basis vector per free column f, in column order, with
    a 1 at f, -red[r][f] at the r-th pivot column and zeros elsewhere.
    """
    field = m.field
    zero, one = field.zero, field.one
    if m.rows == 0:
        return [[one if j == i else zero for j in range(m.cols)]
                for i in range(m.cols)]
    red, pivots, _, last = _rref_ints(_int_rows(m), field)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f not in pivot_set:
            v = [zero] * m.cols
            v[f] = one
            for r, c in enumerate(pivots):
                v[c] = _scalar(field, -red[r][f], last)
            basis.append(v)
    return basis


def det(m: FieldMatrix) -> Scalar:
    """From the int rows of L m: det m = det(L m) / L^n."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d, _ = _rref_ints(_int_rows(m), m.field)
    if len(pivots) < m.rows:
        return m.field.zero
    return _scalar(m.field, d, m.L ** m.rows)


@dataclass
class InversionResult:
    """Outcome of an exact inversion attempt.  Singularity is a meaningful
    result, not an exception: callers branch on ``invertible``."""

    inverse: Optional[FieldMatrix]
    rank: int

    @property
    def invertible(self) -> bool:
        return self.inverse is not None


def invert(m: FieldMatrix) -> InversionResult:
    """Gauss-Jordan on [L m | I], whose reduced right half X is last times
    (L m)^{-1}: m^{-1} = L X / last, stored as those slices, made
    canonical.  Nothing is boxed."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = [r + [int(j == i) for j in range(n)]
           for i, r in enumerate(_int_rows(m))]
    red, pivots, _, last = _rref_ints(aug, m.field)
    r = sum(1 for c in pivots if c < n)
    if r < n:
        return InversionResult(None, r)
    right = _scaled_slice([row[n:] for row in red], m.L)
    return InversionResult(m._result(0, n, n, last, {ONE: right}), n)


# ---------------------------------------------------------------------------
# Pfaffians.

def assert_alternating(m: Matrix) -> None:
    """Strict check: zero diagonal and M + M^T = 0, on the slices."""
    if m.rows != m.cols:
        raise ValueError("alternating matrix must be square")
    p = getattr(m.field, "p", None)
    tables = list(m.slices.values())
    for i in range(m.rows):
        if any(s[i][i] for s in tables):
            raise ValueError(f"nonzero diagonal entry at ({i},{i})")
        for j in range(i + 1, m.cols):
            if any((s[i][j] + s[j][i]) % p if p else s[i][j] + s[j][i]
                   for s in tables):
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) do not cancel")


def is_alternating(m: Matrix) -> bool:
    try:
        assert_alternating(m)
    except ValueError:
        return False
    return True


def _crt_primes():
    """Proven primes counting down from 2^61 - 1, itself prime."""
    q = 2 ** 61 - 1
    while True:
        if is_prime(q):
            yield q
        q -= 2


def _neg(v: List[int]) -> List[int]:
    return [-x for x in v]


def _swap(a: List[list], k: int, perm: List[int], s: int, t: int) -> None:
    """Swap indices s < t, both at least k, of perm and of the alternating
    matrix of lane lists that a stores above its diagonal, where the cells
    [:k] of each row hold multipliers.  Rows s and t trade their
    multipliers; entry (i, s) trades with (i, t) for k <= i < s; for
    s < j < t the pair ((s, j), (j, t)) becomes (-(j, t), -(s, j)); (s, t)
    is negated; and rows s and t trade their entries right of t.  Rows above
    k are done and stay as they are."""
    rs, rt = a[s], a[t]
    rs[:k], rt[:k] = rt[:k], rs[:k]
    for i in range(k, s):
        r = a[i]
        r[s], r[t] = r[t], r[s]
    for j in range(s + 1, t):
        r = a[j]
        rs[j], r[t] = _neg(r[t]), _neg(rs[j])
    rs[t] = _neg(rs[t])
    rs[t + 1:], rt[t + 1:] = rt[t + 1:], rs[t + 1:]
    perm[s], perm[t] = perm[t], perm[s]


def _skew_mod(a: List[list], q: int) -> List[List[int]]:
    """For each lane, [Pf] for even m and the signed maximal Pfaffians for
    odd m, from one skew-symmetric elimination mod q with 2 x 2 pivots
    (J. R. Bunch, Math. Comp. 38, 1982) of the m x m alternating matrices
    that a holds as lane lists: cell (i, j) is the list of the entries
    (i, j) of all lanes, at least one lane.  Destroys a.  Only the cells
    above the diagonal are read for their values: one below is -a[j][i],
    and the cells there hold the multipliers.

    Step k moves the first j > k with a[k][j] != 0 to index k + 1 and
    pivots on p = a[k][k+1]: each later row i takes u = -a[k+1][i] / p and
    w = -a[k][i] / p, keeps the multipliers (u, -w) in its columns k, k + 1
    and turns into a[i][j] - u a[k][j] + w a[k+1][j] right of its diagonal,
    the Schur complement, which stays alternating.  Each swap of two
    indices (``_swap``) flips ``sign`` and is kept in ``perm``, so the
    permuted matrix is L T L^T: L unit lower triangular with the
    multipliers below its diagonal, T block diagonal with the blocks
    [[0, p], [-p, 0]].  A zero row at step k makes Pf = 0 for even m.  For
    odd m the first zero row is moved to the last index, one more swap; a
    second one means rank < m - 1, where every maximal Pfaffian vanishes.

    The lanes of a group share perm, sign and the moved flag, so every
    update is one list operation over the group.  Where row k is zero in
    some lanes at the first j any lane has nonzero, the group splits in
    two, the lanes zero there and the others, and both run step k again;
    each lane thus takes its own scalar pivot sequence.  The groups wait on
    a worklist.

    For odd m at rank m - 1, L^T x = e_last gives the null vector x of the
    permuted matrix, so the signed row, which annihilates a, is lambda x
    carried back through perm.  Its entry at f = perm[m - 1], where x is 1,
    is lambda = (-1)^f Pf(a without f).  Without its last index the
    permuted matrix has Pfaffian prod p, and it lists the other indices in
    an order of sign sign (-1)^(m - 1 - f), since the m - 1 - f indices
    above f all precede it.  As m - 1 is even, lambda = sign prod p."""
    m = len(a)
    odd = m % 2
    count = len(a[0][0]) if m else 1
    # a group that meets a zero row it cannot move leaves its lanes at zero
    out = [[0] * (m if odd else 1) for _ in range(count)]
    work = [(list(range(count)), a, list(range(m)), 1, False, [1] * count, 0)]
    while work:
        lanes, a, perm, sign, moved, pf, k = work.pop()
        while k < m - odd:
            row = a[k]
            j = next((j for j in range(k + 1, m) if any(row[j])), None)
            if j is None:
                if not odd or moved:
                    break
                moved = True
                _swap(a, k, perm, k, m - 1)
                sign = -sign
                continue
            if not all(row[j]):
                group = lanes, a, perm, sign, moved, pf, k
                work += [_pick(group, row[j], f) for f in (False, True)]
                break
            if j != k + 1:
                _swap(a, k, perm, k + 1, j)
                sign = -sign
            row1 = a[k + 1]
            pf = [x * y % q for x, y in zip(pf, row[k + 1])]
            inv = [pow(x, -1, q) for x in row[k + 1]]
            for i in range(k + 2, m):
                r = a[i]
                # the multipliers u and -w
                r[k] = u = [-x * y % q for x, y in zip(row1[i], inv)]
                r[k + 1] = v = [x * y % q for x, y in zip(row[i], inv)]
                if any(u) or any(v):
                    for j in range(i + 1, m):
                        r[j] = [(x - s * y - t * z) % q for x, y, z, s, t in
                                zip(r[j], row[j], row1[j], u, v)]
            # only the multipliers of the pivot rows are read again
            del row[k:], row1[k:]
            k += 2
        else:
            cols = [[sign * x % q for x in pf]]
            if odd:
                lam, x = cols[0], [[]] * (m - 1) + [[1] * len(lanes)]
                # acc[s] = sum of a[t][s] x[t] over the rows t found so far
                acc = a[m - 1][:m - 1]
                for k in range(m - 3, -1, -2):
                    x[k + 1] = y = [-c % q for c in acc[k + 1]]
                    x[k] = z = [-c % q for c in acc[k]]
                    acc[:k] = [[(c + s * e + t * f) % q for c, s, t, e, f in
                                zip(cs, u, v, y, z)] for cs, u, v in
                               zip(acc[:k], a[k + 1][:k], a[k][:k])]
                cols = [[]] * m
                for t, i in enumerate(perm):
                    cols[i] = [e * f % q for e, f in zip(lam, x[t])]
            for lane, vec in zip(lanes, zip(*cols)):
                out[lane] = list(vec)
    return out


def _pick(group: tuple, flags: List[int], nonzero: bool) -> tuple:
    """The lane group (lanes, a, perm, sign, moved, pf, k) of ``_skew_mod``
    on its lanes where bool(flags) is ``nonzero``, copied."""
    lanes, a, perm, sign, moved, pf, k = group
    ts = [t for t, f in enumerate(flags) if bool(f) is nonzero]

    def sub(v: list) -> list:
        return [v[t] for t in ts]

    return (sub(lanes), [list(map(sub, r)) for r in a], perm[:], sign, moved,
            sub(pf), k)


def _pfaffians_mod(positions: List[Tuple[int, int]], slices: dict, size: int,
                   degree: int, q: int) -> List[List[int]]:
    """Coefficient vectors mod q, on the degree-D monomials in the fixed
    order, of the Pfaffian (even size) or the signed maximal Pfaffians (odd
    size) of the alternating matrix whose entry positions[t] = (i, j),
    i < j, has the value sum y^e z^f slices[e, f][t] at the point (1, y, z),
    over the y and z exponents (e, f) of the slices; every other entry above
    the diagonal is zero.

    The lattice points (1, a, b), a + b <= D, are the lanes: each position's
    lane list of values is sum c a^e b^f, built once, and one ``_skew_mod``
    call runs them all.  ``interpolate_mod`` turns the values into
    coefficients; both need q > D, which the caller guarantees."""
    points = [(a, b) for b in range(degree + 1) for a in range(degree + 1 - b)]
    zero = [0] * len(points)
    a = [[zero] * size for _ in range(size)]
    for (e, f), v in slices.items():
        lane = [pow(y, e, q) * pow(z, f, q) for y, z in points]
        for (i, j), c in zip(positions, v):
            if c % q:
                a[i][j] = [x + c * y for x, y in zip(a[i][j], lane)]
    for i, j in positions:
        a[i][j] = [x % q for x in a[i][j]]
    return interpolate_mod(_skew_mod(a, q), degree, q)


def _pfaffian_coefficients(m: Matrix) -> Matrix:
    """The 1 x k matrix of m's kind holding Pf(m) (k = 1) for even size or
    its signed maximal Pfaffians (k = size) for odd size: forms of degree
    D = (size // 2) * degree, built from their int coefficient vectors.

    The entries above the diagonal are read off the slices as one int
    vector per monomial over the nonzero positions.  Over GF(p) with p > D
    this is ``_pfaffians_mod`` with q = p.  Otherwise the integer matrix
    L m runs modulo primes below 2^61.  L clears the denominators; over
    GF(p), residues are lifted to (-p/2, p/2), which keeps the bound below
    small.  Only entries above the diagonal are lifted and the kernel reads
    no other, so the integer matrix is alternating and reduces to m mod p.
    The primes run until their product exceeds twice the bound
    sqrt(prod_i max(1, r_i)), r_i the sum of the coefficient 1-norms of
    row i.  No coefficient can exceed it: ||Pf||_1 <= haf(B) <= sqrt(per(B))
    <= sqrt(prod r_i) for B the matrix of entry 1-norms, and the same holds
    for every maximal minor.  The symmetric residues, over L^(size // 2),
    are the exact coefficients; L is 1 over GF(p), where they are reduced
    mod p."""
    size = m.rows
    degree = (size // 2) * m.degree
    monos = monomials_of_degree(degree)
    p = getattr(m.field, "p", None)
    tables = m.slices.values()
    positions = [(i, j) for i in range(size) for j in range(i + 1, size)
                 if any(c[i][j] for c in tables)]
    slices = {(u.b, u.c): [c[i][j] for i, j in positions]
              for u, c in m.slices.items()}
    if p is not None and p > degree:
        vecs = _pfaffians_mod(positions, slices, size, degree, p)
    else:
        if p is not None:
            slices = {ef: [x if 2 * x < p else x - p for x in v]
                      for ef, v in slices.items()}
        norms = [0] * size
        for (i, j), *xs in zip(positions, *slices.values()):
            s = sum(map(abs, xs))
            norms[i] += s
            norms[j] += s
        bound = math.prod(max(1, r) for r in norms)
        residues = [[0] * len(monos)] * (size if size % 2 else 1)
        modulus = 1
        primes = _crt_primes()
        while modulus * modulus <= 4 * bound:
            q = next(primes)
            u = pow(modulus, -1, q)
            residues = [[x + modulus * ((y - x) * u % q) for x, y in zip(xs, ys)]
                        for xs, ys in zip(residues, _pfaffians_mod(
                            positions, slices, size, degree, q))]
            modulus *= q
        vecs = [[x - modulus if 2 * x > modulus else x for x in vec]
                for vec in residues]
    return m._result(degree, 1, len(vecs), m.L ** (size // 2),
                     {u: [list(c)] for u, c in zip(monos, zip(*vecs))},
                     reduce=True)


def pfaffian(m: Matrix):
    """Exact Pfaffian; sign fixed by Pf([[0, a], [-a, 0]]) = a.  Odd sizes
    give 0.  Raises on non-alternating input."""
    assert_alternating(m)
    if m.rows % 2:
        return m._zero((m.rows // 2) * m.degree)
    return _pfaffian_coefficients(m).entries[0][0]


def signed_maximal_pfaffians(m: Matrix) -> Matrix:
    """For odd-size alternating M, the 1 x m row (M_1, ..., M_m), of M's
    kind, with M_j = (-1)^(j+1) Pf(M with row and column j removed).  This
    row annihilates M."""
    assert_alternating(m)
    if m.rows % 2 == 0:
        raise ValueError("signed maximal-order Pfaffians need odd size")
    return _pfaffian_coefficients(m)
