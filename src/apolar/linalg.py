"""Dense exact matrices over a field, whose entries are forms of one degree.

``Matrix`` is the one matrix class: a matrix over one field whose entries
are homogeneous forms in x, y, z of one ``degree``, degree 0 meaning
scalars.  It holds the algebra: transpose, sum, difference, negation,
product, scaling, equality, column selection, the zero test and the text
form.  Sums take one field and one degree; a product adds the degrees, and
``times_monomial(u)`` is u times the matrix, of degree ``degree + deg u``.
Nothing is stacked: a matrix made of blocks is written by index into int
rows and made canonical once.

A matrix M stores plain ints: L M = sum_u u C_u, one int matrix C_u (a
"slice") per monomial u that occurs, rows of ints, on the field's int
encoding (``Field.to_ints``): over GF(p), L = 1 and the slices hold
residues in [0, p); over Q, L is the least common denominator of the
entries, so gcd(L, all ints) = 1.  No all-zero slice is kept, so the form
is canonical and equality compares (field, degree, shape, L, slices).  The
constructor validates boxed entries and computes the slices once;
``Matrix._from_ints`` takes ints and their L.  Every operation builds
its result from the slices, with no validation, taking it back to the
canonical form after every sum, product and selection.  The slices are
never changed in place, so results share rows freely.  ``entries`` is a
read-only view, each coefficient boxed by ``Field.from_int`` on first read
and then kept; ``to_strings`` reads the slices and boxes nothing: a matrix
of scalars one map per row, a matrix of forms one join per entry.

A product is (L_a A)(L_b B) = sum_(u,v) uv C_u D_v over L_a L_b, made
canonical, by ``residues.product``: ints packed along the rows of each D_v
or along the monomials uv of the result, whichever takes fewer big-int
multiply-adds, one per nonzero entry of C_u or of D_v, summed and then
unpacked and reduced once.

Kernel and solve come from the RREF of int rows (``_rref_ints``), first
nonzero pivot in column order, so results are deterministic: ``solve``
reads m^{-1} b off the reduced [m | b], scaled to ints.  Over GF(p) it is
Gauss-Jordan on packed residues (``residues.rref_mod``); over Q it is
lifted from residues and proven by one exact product
(``residues.rref_lift``), or else, and below ``BAREISS_BELOW`` rows,
fraction-free (``_rref_int``, after Bareiss).  Either way the rows end as
the unique RREF times one denominator.  ``invert`` runs no [m | I] but
Gauss-Jordan in place at width N (``residues.invert_mod``, lifted over Q
by ``residues.invert_lift``), and the solve against I only when that
gives None.  The determinant is the product of the pivots times the sign
of the row swaps.  The reduced rows stay ints: ``kernel``
boxes only the nonzero coordinates, and ``solve`` returns slices, boxing
nothing.  The rank takes the same loops forward only, on whichever of M
and M^T has fewer rows.  A zero-row matrix keeps its column count.
Elimination takes matrices of scalars: it refuses degree >= 1.

``pfaffian`` takes the Pfaffian of an alternating matrix of scalars by one
skew elimination with 2 x 2 pivots.  No Pfaffian of forms is computed:
``resolution`` reads both Pfaffian rows off the explicit generator row and
proves them by one product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import (DualElement, Monomial, ONE, Polynomial, catalecticant,
                   dense)
from .residues import (invert_lift as _invert_lift,
                       invert_mod as _invert_mod, product as _product,
                       rref_lift as _rref_lift, rref_mod as _rref_mod)
from .scalars import Field, FieldMismatchError, Scalar

Slices = Dict[Monomial, List[List[int]]]


def _width(rows: List[list], cols: Optional[int]) -> int:
    width = cols if cols is not None else len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    return width


def _int_slices(field: Field, boxed: dict) -> Tuple[int, Slices]:
    """(L, slices) of the matrix whose coefficients of each monomial u are
    the scalars boxed[u], on one ``field.to_ints``, zero slices dropped."""
    L, flat = field.to_ints([e for s in boxed.values() for r in s for e in r])
    flat = iter(flat)
    ints = {u: [list(islice(flat, len(r))) for r in s] for u, s in boxed.items()}
    return L, {u: s for u, s in ints.items() if any(map(any, s))}


def _scaled_slice(s: List[List[int]], f: int) -> List[List[int]]:
    return s if f == 1 else [[x * f for x in r] for r in s]


class Matrix:
    """A rectangular matrix over one field whose entries are forms of one
    ``degree``, degree 0 meaning scalars, stored as L M = sum_u u C_u (see
    the module docstring): the attributes ``L`` and ``slices`` = {u: C_u}.
    Entries are zero exactly when they are falsy."""

    field: Field
    degree: int
    rows: int
    cols: int
    L: int
    slices: Slices

    def __init__(self, field: Field, entries: Sequence[Sequence],
                 cols: Optional[int] = None, degree: int = 0):
        """``cols`` fixes the width; it is needed only when there are no
        rows, and is otherwise the length of the first row.  An entry is a
        ``Polynomial`` of this degree or zero, or, at degree 0 only, a
        scalar of the field or an int or Fraction that it takes."""
        rows = [list(r) for r in entries]
        width = _width(rows, cols)
        boxed: dict = {}
        for i, r in enumerate(rows):
            for j, e in enumerate(r):
                if isinstance(e, Polynomial):
                    if e.field != field:
                        raise FieldMismatchError("entry in a different field")
                    if e and e.degree != degree:
                        raise ValueError(
                            f"entry of degree {e.degree} in a degree-{degree} matrix")
                    terms = e.coeffs.items()
                elif degree:
                    raise TypeError(f"scalar entry in a degree-{degree} matrix")
                else:
                    terms = [(ONE, e if field.contains(e) else field.of(e))]
                for u, c in terms:
                    if u not in boxed:
                        boxed[u] = [[field.zero] * width for _ in rows]
                    boxed[u][i][j] = c
        self.field, self.degree, self.rows, self.cols = field, degree, len(rows), width
        self.L, self.slices = _int_slices(field, boxed)
        self._entries = None

    @classmethod
    def _from_slices(cls, field: Field, degree: int, rows: int, cols: int,
                     L: int, slices: Slices) -> "Matrix":
        """The matrix with these canonical slices, built without any check."""
        m = cls.__new__(cls)
        m.field, m.degree, m.rows, m.cols = field, degree, rows, cols
        m.L, m.slices, m._entries = L, slices, None
        return m

    @classmethod
    def _from_ints(cls, field: Field, rows: List[List[int]], cols: int,
                   L: int = 1) -> "Matrix":
        """The matrix of the scalars x / L on the field's encoding, x the
        ints of ``rows``, unchecked and made canonical by ``_result``,
        which does not reduce them: over GF(p) they must already be
        residues in [0, p)."""
        return cls._result(field, 0, len(rows), cols, L, {ONE: rows})

    @classmethod
    def _result(cls, field: Field, degree: int, rows: int, cols: int, L: int,
                slices: Slices, reduce: bool = False) -> "Matrix":
        """A matrix over the field from slices taken to the canonical
        form: over GF(p) the residues (reduced mod p first when ``reduce``)
        and L = 1; over Q, L > 0 and L / g with every numerator divided by
        g = gcd(L, all numerators).  All-zero slices are dropped."""
        p = getattr(field, "p", None)
        if p and reduce:
            slices = {u: [[x % p for x in r] for r in s] for u, s in slices.items()}
        slices = {u: s for u, s in slices.items() if any(map(any, s))}
        if not p and L != 1:
            g = math.gcd(L, *chain.from_iterable(chain.from_iterable(slices.values())))
            if L < 0:
                g = -g
            if g != 1:
                slices = {u: [[x // g for x in r] for r in s]
                          for u, s in slices.items()}
            L //= g
        return cls._from_slices(field, degree, rows, cols, L, slices)

    @property
    def entries(self) -> list:
        """The boxed entries, a list of rows: built on first read and then
        kept.  Read only; the matrix is its slices."""
        if self._entries is None:
            self._entries = self._box()
        return self._entries

    def _box(self) -> list:
        """Each entry from the {monomial: scalar} map of its nonzero
        coefficients, each boxed once as x / L: a scalar at degree 0 and a
        ``Polynomial`` above it, the one place an entry's type is decided."""
        maps = [[{} for _ in range(self.cols)] for _ in range(self.rows)]
        box, L = self.field.from_int, self.L
        for u, s in self.slices.items():
            for row, ints in zip(maps, s):
                for c, x in zip(row, ints):
                    if x:
                        c[u] = box(x, L)
        if self.degree:
            return [[Polynomial._trusted(self.field, self.degree, c)
                     for c in row] for row in maps]
        zero = self.field.zero
        return [[c.get(ONE, zero) for c in row] for row in maps]

    def transpose(self) -> "Matrix":
        return self._from_slices(
            self.field, self.degree, self.cols, self.rows, self.L,
            {u: [list(c) for c in zip(*s)] for u, s in self.slices.items()})

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """(L_a A)(L_b B) = sum_(u,v) uv C_u D_v by ``residues.product``,
        over L_a L_b, of degree the sum of the degrees."""
        if self.field != other.field:
            raise FieldMismatchError("matrices live in different fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        return self._result(self.field, self.degree + other.degree, self.rows,
                            other.cols, self.L * other.L, _product(
                                self.slices, other.slices, other.cols,
                                getattr(self.field, "p", 0)))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatchError("matrices live in different fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        if self.degree != other.degree:
            raise ValueError("degree mismatch in matrix sum")
        L = math.lcm(self.L, other.L)
        fa, fb = L // self.L, L // other.L
        out = {u: _scaled_slice(s, fa) for u, s in self.slices.items()}
        for u, s in other.slices.items():
            acc = out.get(u)
            s = _scaled_slice(s, fb)
            out[u] = s if acc is None else [list(map(add, r1, r2))
                                            for r1, r2 in zip(acc, s)]
        return self._result(self.field, self.degree, self.rows, self.cols, L,
                            out, reduce=True)

    def times_monomial(self, m: Monomial) -> "Matrix":
        """m times the matrix: each slice moves to u * m."""
        return self._from_slices(
            self.field, self.degree + m.degree, self.rows, self.cols, self.L,
            {u * m: s for u, s in self.slices.items()})

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return self.scaled(-1)

    def scaled(self, s) -> "Matrix":
        """s times the matrix, for a scalar s of the field or an int."""
        den, (num,) = self.field.to_ints(
            [s if self.field.contains(s) else self.field.of(s)])
        return self._result(self.field, self.degree, self.rows, self.cols,
                            self.L * den, {u: _scaled_slice(c, num)
                             for u, c in self.slices.items()}, reduce=True)

    def __eq__(self, other):
        return (type(other) is type(self) and other.field == self.field
                and other.degree == self.degree and other.rows == self.rows
                and other.cols == self.cols and other.L == self.L
                and other.slices == self.slices)

    def _select(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """The submatrix on these row and column indices, in this order."""
        return self._result(self.field, self.degree, len(rows), len(cols),
                            self.L, {u: [[s[i][j] for j in cols] for i in rows]
                             for u, s in self.slices.items()})

    def take_cols(self, indices: Sequence[int]) -> "Matrix":
        return self._select(range(self.rows), list(indices))

    def is_zero(self) -> bool:
        return not self.slices

    def to_strings(self) -> List[List[str]]:
        """The entries as text, read off the slices: boxes nothing.  x / L
        is written as the reduced fraction (x / g) / (L / g),
        g = gcd(x, L).  A matrix of scalars writes each row in one map; a
        matrix of forms joins the nonzero terms of each entry in one list,
        the monomials in order, each named once.  An entry with no term is
        "0"."""
        L = self.L

        def scalar(x: int) -> str:
            g = math.gcd(x, L)
            return str(x // g) if g == L else f"{x // g}/{L // g}"
        text = str if L == 1 else scalar
        if not self.slices:
            return [["0"] * self.cols for _ in range(self.rows)]
        if ONE in self.slices:  # the only slice of a matrix of scalars
            return [list(map(text, r)) for r in self.slices[ONE]]
        order = sorted(self.slices, key=Monomial.sort_key)
        names = [f"){u}" for u in order]
        coeffs = zip(*[chain.from_iterable(self.slices[u]) for u in order])
        flat = [" + ".join([f"({text(x)}{name}" for x, name in zip(xs, names)
                            if x]) or "0" for xs in coeffs]
        return [flat[i:i + self.cols] for i in range(0, len(flat), self.cols)]

    def __repr__(self):
        return (f"Matrix({self.rows}x{self.cols}, degree {self.degree} "
                f"over {self.field!r})")


def catalecticants(phi: DualElement, *shapes) -> List[Matrix]:
    """The catalecticants of phi on (rows, column degree d, x_free) shapes
    (``poly.catalecticant``), read off one dense int form of phi
    (``Field.to_ints``) with its L."""
    L, ints = phi.field.to_ints(list(phi.coeffs.values()))
    coeffs = dense(dict(zip(phi.coeffs, ints)), phi.degree)
    return [Matrix._from_ints(phi.field, catalecticant(coeffs, rows, d, x_free),
                              d + 1 if x_free else (d + 1) * (d + 2) // 2, L)
            for rows, d, x_free in shapes]


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


BAREISS_BELOW = 8


def _rref_ints(rows: List[List[int]], field: Field
               ) -> Tuple[List[List[int]], List[int], int]:
    """(rows, pivot columns, last) for the int rows of L m, the rows last
    times the RREF: mod p in place (``_rref_mod``), last = 1; over Q by
    ``_rref_lift`` from ``BAREISS_BELOW`` rows on, or else fraction-free in
    place (``_rref_int``).  That crossover is read off [m | I] for the
    family's m, lift against Bareiss, best of 5 on a 2-core VM: A' 2 x 2
    46 / 7 us, p 6 x 6 129 / 59 us, A' 6 x 6 133 / 80 us, A' 8 x 8 184 /
    199 us, p 10 x 10 251 / 293 us, p 21 x 21 849 / 3200 us.  ``invert``
    keeps it for its lift in place (``residues.invert_lift``), against
    Bareiss on [m | I], best of 300 interleaved calls on the same VM:
    A' 2 x 2 37 / 17 us, p 6 x 6 103 / 78 us, A' 6 x 6 115 / 99 us,
    A' 8 x 8 163 / 224 us, p 10 x 10 186 / 290 us, p 21 x 21 627 /
    2977 us; it also routes the solve of [p | r | E] in ``verify``."""
    if getattr(field, "p", None):
        return _rref_mod(rows, field.p)[:2] + (1,)
    lifted = _rref_lift(rows) if len(rows) >= BAREISS_BELOW else None
    if lifted is not None:
        return lifted
    red, pivots, _ = _rref_int(rows)
    return red, pivots, red[0][pivots[0]] if pivots else 1


def _int_rows(m: Matrix) -> List[List[int]]:
    """A fresh copy of the rows of L m, for the in-place eliminations,
    which take matrices of scalars only."""
    if m.degree:
        raise TypeError("elimination takes a matrix of scalars")
    s = m.slices.get(ONE)
    return ([list(r) for r in s] if s is not None
            else [[0] * m.cols for _ in range(m.rows)])


def _shorter(rows: List[list]) -> List[list]:
    """The rows, or the rows of the transpose when that has fewer; the rank
    is the same."""
    if rows and len(rows) > len(rows[0]):
        return [list(c) for c in zip(*rows)]
    return rows


def _rank_mod(rows: List[List[int]], q: int) -> int:
    """Rank mod q of a matrix of ints by forward elimination."""
    return len(_rref_mod(_shorter([[x % q for x in r] for r in rows]), q,
                         full=False)[1])


def rank(m: Matrix) -> int:
    """By forward elimination on the int rows of L m."""
    if getattr(m.field, "p", None):
        return _rank_mod(_int_rows(m), m.field.p)
    return len(_rref_int(_shorter(_int_rows(m)), full=False)[1])


def kernel(m: Matrix) -> List[List[Scalar]]:
    """A basis of the right null space; empty iff full column rank.

    Deterministic: one basis vector per free column f, in column order, with
    a 1 at f, -red[r][f] at the r-th pivot column and zeros elsewhere.
    """
    field = m.field
    red, pivots, last = _rref_ints(_int_rows(m), field)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f not in pivot_set:
            v = [field.zero] * m.cols
            v[f] = field.one
            for r, c in enumerate(pivots):
                if red[r][f]:
                    v[c] = field.from_int(-red[r][f], last)
            basis.append(v)
    return basis


def det(m: Matrix) -> Scalar:
    """From the int rows of L m: det m = det(L m) / L^n."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    p = getattr(m.field, "p", None)
    rows = _int_rows(m)
    _, pivots, d = _rref_mod(rows, p) if p else _rref_int(rows)
    if len(pivots) < m.rows:
        return m.field.zero
    return m.field.from_int(d, m.L ** m.rows)


@dataclass
class InversionResult:
    """Outcome of an exact inversion attempt.  Singularity is a meaningful
    result, not an exception: callers branch on ``invertible``."""

    inverse: Optional[Matrix]
    rank: int

    @property
    def invertible(self) -> bool:
        return self.inverse is not None


def solve(m: Matrix, b: Matrix) -> Tuple[int, Optional[Matrix]]:
    """(rank of m, m^{-1} b, or None when m is singular) for a square m and
    a b of scalars with as many rows, by one Gauss-Jordan on
    [L_b L m | L_m L b] = L_m L_b [m | b]: its pivots in the first m.rows
    columns count the rank of m, and when they are all there its reduced
    right half X is last times m^{-1} b, stored as those slices over last,
    made canonical.  Nothing is boxed."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    if b.field != m.field:
        raise FieldMismatchError("matrices live in different fields")
    if b.rows != m.rows:
        raise ValueError("shape mismatch in a solve")
    n = m.rows
    aug = [r + s for r, s in zip(_scaled_slice(_int_rows(m), b.L),
                                 _scaled_slice(_int_rows(b), m.L))]
    red, pivots, last = _rref_ints(aug, m.field)
    r = sum(1 for c in pivots if c < n)
    if r < n:
        return r, None
    return n, Matrix._result(m.field, 0, n, b.cols, last,
                             {ONE: [row[n:] for row in red]})


def invert(m: Matrix) -> InversionResult:
    """m^{-1} by Gauss-Jordan in place on the int rows of L m, at width N:
    over GF(p) by ``residues.invert_mod``, over Q from ``BAREISS_BELOW``
    rows on lifted to m^{-1} = F / D (``residues.invert_lift``).  When that
    gives None (m singular, a prime dividing det(L m), or no proven
    candidate) and below ``BAREISS_BELOW`` rows over Q, it is ``solve``
    against the identity, whose pivots count the rank."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    rows, p = _int_rows(m), getattr(m.field, "p", None)
    F, D = None, 1
    if p:
        F = _invert_mod(rows, p)
    elif m.rows >= BAREISS_BELOW:
        F, D = _invert_lift(rows, m.L) or (None, 1)
    if F is not None:
        return InversionResult(Matrix._result(m.field, 0, m.rows, m.rows, D,
                                              {ONE: F}), m.rows)
    eye = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    rank, inverse = solve(m, Matrix._from_ints(m.field, eye, m.rows))
    return InversionResult(inverse, rank)


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


def pfaffian(m: Matrix) -> Scalar:
    """Exact Pfaffian of an alternating matrix of scalars; sign fixed by
    Pf([[0, a], [-a, 0]]) = a, and odd sizes give 0.  Raises ValueError on
    a non-alternating matrix and TypeError at degree >= 1: the package
    takes Pfaffians of constant matrices only (``resolution`` reads the
    Pfaffian rows of its matrices of forms off the explicit row).

    One skew elimination with 2 x 2 pivots (J. R. Bunch, Math. Comp. 38,
    1982).  Step k swaps index k + 1 with the first j > k where a[k][j] is
    nonzero, which negates Pf, and pivots on p = a[k][k+1]: by
    Pf([[P, B], [-B^T, C]]) = Pf(P) Pf(C + B^T P^{-1} B) with Pf(P) = p,
    what is left becomes a[i][j] + (a[k+1][i] a[k][j] - a[k][i] a[k+1][j]) / p.
    A row with no such j has Pf = 0."""
    if m.degree:
        raise TypeError("pfaffian takes a matrix of scalars")
    assert_alternating(m)
    size, zero = m.rows, m.field.zero
    if size % 2:
        return zero
    a = [[m.field.from_int(x, m.L) for x in r] for r in _int_rows(m)]
    pf = m.field.one
    for k in range(0, size, 2):
        j = next((j for j in range(k + 1, size) if a[k][j]), None)
        if j is None:
            return zero
        if j != k + 1:
            a[k + 1], a[j] = a[j], a[k + 1]
            for r in a:
                r[k + 1], r[j] = r[j], r[k + 1]
            pf = -pf
        r0, r1 = a[k], a[k + 1]
        p = r0[k + 1]
        pf *= p
        for i in range(k + 2, size):
            u, v = r1[i] / p, r0[i] / p
            r = a[i]
            for c in range(k + 2, size):
                r[c] = r[c] + u * r0[c] - v * r1[c]
    return pf
