"""Dense exact matrices over a field and over the polynomial ring.

FieldMatrix holds scalars; PolyMatrix holds homogeneous polynomials that all
share one declared degree.  Rank, kernel, determinant and inverse all come
from one Gauss-Jordan routine that takes the first nonzero pivot in column
order, so results are deterministic: the determinant is the product of the
pivots times the sign of the row swaps, and the inverse is the right half of
the reduced [m | I].  Pfaffians use the recursive first-row expansion
Pf(M) = sum_{j>=2} (-1)^j M[1,j] Pf(M with rows/cols 1, j removed),
memoized on index subsets; the same code path serves scalar and polynomial
entries.  Every Pfaffian call first checks that the matrix is strictly
alternating (zero diagonal, M + M^T = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .poly import Monomial, ONE, Polynomial, X, parse_polynomial
from .scalars import Field, FieldMismatchError, Scalar


class FieldMatrix:
    """A rectangular matrix of scalars from one field."""

    def __init__(self, field: Field, entries: Sequence[Sequence]):
        rows = [list(r) for r in entries]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        self.field = field
        self.entries: List[List[Scalar]] = [
            [e if field.contains(e) else field.of(e) for e in r] for r in rows]
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0

    @classmethod
    def identity(cls, field: Field, n: int) -> "FieldMatrix":
        return cls(field, [[field.one if i == j else field.zero
                            for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "FieldMatrix":
        return cls(field, [[field.zero] * cols for _ in range(rows)])

    def _check_field(self, other):
        if self.field != other.field:
            raise FieldMismatchError("matrices live in different fields")

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.field,
                           [[self.entries[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    def __matmul__(self, other):
        if isinstance(other, PolyMatrix):
            return as_poly_matrix(self) @ other
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        z = self.field.zero
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if a != z:
                        acc = acc + a * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return FieldMatrix(self.field, out)

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return FieldMatrix(self.field,
                           [[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        return self + (-other)

    def __neg__(self) -> "FieldMatrix":
        return FieldMatrix(self.field, [[-e for e in r] for r in self.entries])

    def scaled(self, s) -> "FieldMatrix":
        s = s if self.field.contains(s) else self.field.of(s)
        return FieldMatrix(self.field, [[e * s for e in r] for r in self.entries])

    def __eq__(self, other):
        return (isinstance(other, FieldMatrix) and other.field == self.field
                and other.entries == self.entries)

    def deleted(self, rows: Sequence[int] = (), cols: Sequence[int] = ()) -> "FieldMatrix":
        """Copy with the given 0-based rows and columns removed."""
        rs, cs = set(rows), set(cols)
        return FieldMatrix(self.field,
                           [[e for j, e in enumerate(r) if j not in cs]
                            for i, r in enumerate(self.entries) if i not in rs])

    def take_cols(self, indices: Sequence[int]) -> "FieldMatrix":
        return FieldMatrix(self.field,
                           [[r[j] for j in indices] for r in self.entries])

    def take_rows(self, indices: Sequence[int]) -> "FieldMatrix":
        return FieldMatrix(self.field, [self.entries[i] for i in indices])

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(e == z for r in self.entries for e in r)

    def to_strings(self) -> List[List[str]]:
        return [[self.field.format(e) for e in r] for r in self.entries]

    @classmethod
    def from_strings(cls, field: Field, rows: Sequence[Sequence[str]]) -> "FieldMatrix":
        return cls(field, [[field.parse(e) for e in r] for r in rows])

    def __repr__(self):
        return f"FieldMatrix({self.rows}x{self.cols} over {self.field!r})"


class PolyMatrix:
    """A rectangular matrix of homogeneous polynomials sharing one degree."""

    def __init__(self, field: Field, degree: int, entries: Sequence[Sequence[Polynomial]]):
        rows = [list(r) for r in entries]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        fixed: List[List[Polynomial]] = []
        for r in rows:
            row = []
            for e in r:
                if not isinstance(e, Polynomial):
                    raise TypeError("PolyMatrix entries must be Polynomial")
                if e.field != field:
                    raise FieldMismatchError("entry in a different field")
                if e.is_zero:
                    e = Polynomial.zero(field, degree)
                elif e.degree != degree:
                    raise ValueError(
                        f"entry of degree {e.degree} in a degree-{degree} matrix")
                row.append(e)
            fixed.append(row)
        self.field = field
        self.degree = degree
        self.entries = fixed
        self.rows = len(fixed)
        self.cols = len(fixed[0]) if fixed else 0

    @classmethod
    def zeros(cls, field: Field, degree: int, rows: int, cols: int) -> "PolyMatrix":
        z = Polynomial.zero(field, degree)
        return cls(field, degree, [[z] * cols for _ in range(rows)])

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.field, self.degree,
                          [[self.entries[i][j] for i in range(self.rows)]
                           for j in range(self.cols)])

    def __matmul__(self, other):
        if isinstance(other, FieldMatrix):
            other = as_poly_matrix(other)
        if self.field != other.field:
            raise FieldMismatchError("matrices live in different fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        deg = self.degree + other.degree
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Polynomial.zero(self.field, deg)
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not a.is_zero and not b.is_zero:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.field, deg, out)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.field != other.field:
            raise FieldMismatchError("matrices live in different fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        if self.degree != other.degree:
            raise ValueError("degree mismatch in matrix sum")
        return PolyMatrix(self.field, self.degree,
                          [[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.field, self.degree,
                          [[-e for e in r] for r in self.entries])

    def scaled(self, s) -> "PolyMatrix":
        return PolyMatrix(self.field, self.degree,
                          [[e.scaled(s) for e in r] for r in self.entries])

    def times_monomial(self, m: Monomial) -> "PolyMatrix":
        factor = Polynomial.monomial(self.field, m)
        return PolyMatrix(self.field, self.degree + m.degree,
                          [[e * factor for e in r] for r in self.entries])

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and other.field == self.field
                and other.degree == self.degree and other.entries == self.entries)

    def deleted(self, rows: Sequence[int] = (), cols: Sequence[int] = ()) -> "PolyMatrix":
        rs, cs = set(rows), set(cols)
        return PolyMatrix(self.field, self.degree,
                          [[e for j, e in enumerate(r) if j not in cs]
                           for i, r in enumerate(self.entries) if i not in rs])

    def is_zero(self) -> bool:
        return all(e.is_zero for r in self.entries for e in r)

    def to_strings(self) -> List[List[str]]:
        return [[str(e) for e in r] for r in self.entries]

    @classmethod
    def from_strings(cls, field: Field, degree: int,
                     rows: Sequence[Sequence[str]]) -> "PolyMatrix":
        out = []
        for r in rows:
            row = []
            for text in r:
                p = parse_polynomial(text, field)
                if p.is_zero:
                    p = Polynomial.zero(field, degree)
                row.append(p)
            out.append(row)
        return cls(field, degree, out)

    def __repr__(self):
        return (f"PolyMatrix({self.rows}x{self.cols}, degree {self.degree} "
                f"over {self.field!r})")


Matrix = Union[FieldMatrix, PolyMatrix]


def as_poly_matrix(m: FieldMatrix) -> PolyMatrix:
    """Promote a scalar matrix to a degree-0 polynomial matrix."""
    f = m.field
    return PolyMatrix(f, 0, [[Polynomial(f, 0, {ONE: e}) for e in r]
                             for r in m.entries])


def times_variable(m: FieldMatrix, var: Monomial = X) -> PolyMatrix:
    return as_poly_matrix(m).times_monomial(var)


def _stack_kind(mats: Sequence[Matrix]):
    first = mats[0]
    for m in mats[1:]:
        if type(m) is not type(first) or m.field != first.field:
            raise TypeError("cannot stack matrices of different kinds/fields")
        if isinstance(first, PolyMatrix) and m.degree != first.degree:
            raise ValueError("cannot stack polynomial matrices of different degrees")
    return first


def hstack(*mats: Matrix) -> Matrix:
    first = _stack_kind(mats)
    if any(m.rows != first.rows for m in mats):
        raise ValueError("row count mismatch in hstack")
    rows = [[e for m in mats for e in m.entries[i]] for i in range(first.rows)]
    if isinstance(first, PolyMatrix):
        return PolyMatrix(first.field, first.degree, rows)
    return FieldMatrix(first.field, rows)


def vstack(*mats: Matrix) -> Matrix:
    first = _stack_kind(mats)
    if any(m.cols != first.cols for m in mats):
        raise ValueError("column count mismatch in vstack")
    rows = [r for m in mats for r in m.entries]
    if isinstance(first, PolyMatrix):
        return PolyMatrix(first.field, first.degree, rows)
    return FieldMatrix(first.field, rows)


def block(grid: Sequence[Sequence[Matrix]]) -> Matrix:
    return vstack(*[hstack(*row) for row in grid])


# ---------------------------------------------------------------------------
# Gaussian elimination: rank, kernel, determinant, inverse.

def _rref(entries: List[List[Scalar]], field: Field
          ) -> Tuple[List[List[Scalar]], List[int], Scalar]:
    """Reduced row echelon form in place; returns (rows, pivot columns, d),
    where d is the product of the pivots times the sign of the row swaps.
    For a square matrix of full rank, d is its determinant."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    zero = field.zero
    d = field.one
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if entries[i][c] != zero), None)
        if pr is None:
            continue
        if pr != r:
            entries[r], entries[pr] = entries[pr], entries[r]
            d = -d
        d = d * entries[r][c]
        inv = field.one / entries[r][c]
        entries[r] = [e * inv for e in entries[r]]
        for i in range(rows):
            if i != r and entries[i][c] != zero:
                f = entries[i][c]
                entries[i] = [a - f * b for a, b in zip(entries[i], entries[r])]
        pivots.append(c)
        r += 1
    return entries, pivots, d


def rank(m: FieldMatrix) -> int:
    _, pivots, _ = _rref([list(r) for r in m.entries], m.field)
    return len(pivots)


def kernel(m: FieldMatrix) -> List[List[Scalar]]:
    """Basis of the right null space; empty iff full column rank.

    Deterministic: one basis vector per free column, in column order, with a
    1 in the free position.
    """
    if m.rows == 0:
        return [[m.field.one if j == i else m.field.zero for j in range(m.cols)]
                for i in range(m.cols)]
    red, pivots, _ = _rref([list(r) for r in m.entries], m.field)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [m.field.zero] * m.cols
        v[f] = m.field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][f]
        basis.append(v)
    return basis


def det(m: FieldMatrix) -> Scalar:
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d = _rref([list(r) for r in m.entries], m.field)
    return d if len(pivots) == m.rows else m.field.zero


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
    """Gauss-Jordan on [m | I]: the right half of the result is m^{-1}."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    field = m.field
    aug = [list(r) + [field.one if j == i else field.zero for j in range(n)]
           for i, r in enumerate(m.entries)]
    red, pivots, _ = _rref(aug, field)
    r = sum(1 for c in pivots if c < n)
    if r < n:
        return InversionResult(None, r)
    return InversionResult(FieldMatrix(field, [row[n:] for row in red]), n)


# ---------------------------------------------------------------------------
# Pfaffians.

def _entry_is_zero(e, field: Field) -> bool:
    if isinstance(e, Polynomial):
        return e.is_zero
    return e == field.zero


def assert_alternating(m: Matrix) -> None:
    """Strict check: zero diagonal and M + M^T = 0."""
    if m.rows != m.cols:
        raise ValueError("alternating matrix must be square")
    for i in range(m.rows):
        if not _entry_is_zero(m.entries[i][i], m.field):
            raise ValueError(f"nonzero diagonal entry at ({i},{i})")
        for j in range(i + 1, m.cols):
            s = m.entries[i][j] + m.entries[j][i]
            if not _entry_is_zero(s, m.field):
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) do not cancel")


def is_alternating(m: Matrix) -> bool:
    try:
        assert_alternating(m)
    except ValueError:
        return False
    return True


def _ring_one(m: Matrix):
    if isinstance(m, PolyMatrix):
        return Polynomial(m.field, 0, {ONE: m.field.one})
    return m.field.one


def _ring_zero(m: Matrix, degree: int):
    if isinstance(m, PolyMatrix):
        return Polynomial.zero(m.field, degree)
    return m.field.zero


def _pfaffian_on(m: Matrix, indices: Tuple[int, ...],
                 memo: Dict[Tuple[int, ...], object]):
    """Pfaffian of the submatrix on the given (even-length) index tuple."""
    if not indices:
        return _ring_one(m)
    cached = memo.get(indices)
    if cached is not None:
        return cached
    i0 = indices[0]
    rest = indices[1:]
    target_degree = (len(indices) // 2) * getattr(m, "degree", 0)
    acc = None
    for k, j in enumerate(rest):
        e = m.entries[i0][j]
        if _entry_is_zero(e, m.field):
            continue
        sub = tuple(i for i in rest if i != j)
        term = e * _pfaffian_on(m, sub, memo)
        if k % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        acc = _ring_zero(m, target_degree)
    memo[indices] = acc
    return acc


def pfaffian(m: Matrix):
    """Exact Pfaffian; sign fixed by Pf([[0, a], [-a, 0]]) = a.  Odd sizes
    give 0.  Raises on non-alternating input."""
    assert_alternating(m)
    n = m.rows
    if n % 2 == 1:
        return _ring_zero(m, (n // 2) * getattr(m, "degree", 0))
    return _pfaffian_on(m, tuple(range(n)), {})


def signed_maximal_pfaffians(m: Matrix) -> list:
    """For odd-size alternating M, the row (M_1, ..., M_m) with
    M_j = (-1)^(j+1) Pf(M with row and column j removed).  This row
    annihilates M."""
    assert_alternating(m)
    n = m.rows
    if n % 2 == 0:
        raise ValueError("signed maximal-order Pfaffians need odd size")
    memo: Dict[Tuple[int, ...], object] = {}
    out = []
    for j in range(n):
        idx = tuple(i for i in range(n) if i != j)
        val = _pfaffian_on(m, idx, memo)
        out.append(val if j % 2 == 0 else -val)
    return out


def congruence_pfaffian_check(a: FieldMatrix, m: FieldMatrix) -> bool:
    """Whether Pf(m^T a m) = det(m) Pf(a); a self-test of the Pfaffian
    kernel against the determinant kernel."""
    if a.rows != a.cols or m.rows != m.cols or a.rows != m.rows:
        raise ValueError("congruence check needs square matrices of equal size")
    assert_alternating(a)
    lhs = pfaffian(m.transpose() @ a @ m)
    rhs = det(m) * pfaffian(a)
    return lhs == rhs


def denominator_lcm(m: Matrix) -> int:
    """LCM of all rational coefficient denominators (1 for prime fields)."""
    L = 1
    for row in m.entries:
        for e in row:
            if isinstance(m, PolyMatrix):
                for c in e.coeffs.values():
                    if hasattr(c, "denominator"):
                        L = math.lcm(L, c.denominator)
            elif hasattr(e, "denominator"):
                L = math.lcm(L, e.denominator)
    return L
