"""Reference matrix product and Gauss-Jordan elimination on boxed scalars,
one field operation at a time, for checking the plain-int kernels of
``apolar.linalg`` against the straightforward loops.

- ``reference_product(a, b)``: the triple loop over entries, for matrices
  of any degrees (when the product has degree >= 1, a scalar entry c of a
  degree-0 factor enters as the form c * 1).
- ``reference_rref(entries, field)``: the reduced row echelon form, with the
  first nonzero pivot in column order, as (rows, pivot columns, d), d the
  product of the pivots times the sign of the row swaps.
- ``reference_rank``, ``reference_kernel``, ``reference_det`` and
  ``reference_inverse`` read their answers off ``reference_rref``.
"""

from __future__ import annotations

from typing import List, Optional

from apolar import Matrix, Polynomial
from apolar.poly import ONE


def _entries(m, degree: int) -> List[list]:
    """m's entries, scalars as forms of degree 0 when ``degree`` >= 1."""
    if m.degree or not degree:
        return m.entries
    return [[Polynomial(m.field, 0, {ONE: e}) for e in r] for r in m.entries]


def reference_product(a, b):
    assert a.cols == b.rows
    degree = a.degree + b.degree
    zero = Polynomial.zero(a.field, degree) if degree else a.field.zero
    b_entries = _entries(b, degree)
    out = []
    for row in _entries(a, degree):
        out_row = []
        for j in range(b.cols):
            acc = zero
            for x, b_row in zip(row, b_entries):
                y = b_row[j]
                if x and y:
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return Matrix(a.field, out, b.cols, degree)


def reference_rref(entries: List[list], field):
    entries = [list(r) for r in entries]
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


def reference_rank(m: Matrix) -> int:
    return len(reference_rref(m.entries, m.field)[1])


def reference_kernel(m: Matrix) -> List[list]:
    field = m.field
    red, pivots, _ = reference_rref(m.entries, field)
    out = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [field.zero] * m.cols
        v[f] = field.one
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        out.append(v)
    return out


def reference_det(m: Matrix):
    _, pivots, d = reference_rref(m.entries, m.field)
    return d if len(pivots) == m.rows else m.field.zero


def reference_inverse(m: Matrix) -> Optional[Matrix]:
    field, n = m.field, m.rows
    aug = [list(r) + [field.one if j == i else field.zero for j in range(n)]
           for i, r in enumerate(m.entries)]
    red, pivots, _ = reference_rref(aug, field)
    if sum(1 for c in pivots if c < n) < n:
        return None
    return Matrix(field, [row[n:] for row in red], n)
