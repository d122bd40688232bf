"""Reference Pfaffians by memoized first-row expansion,
Pf(M) = sum_{j>=2} (-1)^j M[1,j] Pf(M with rows/cols 1, j removed),
for checking ``linalg.pfaffian`` and the Pfaffian rows that ``resolution``
reads off the explicit row against an independent algorithm.  The cost
grows exponentially with the size, so it is meant for Pfaffians of order up
to 12: even matrices up to 12 x 12, odd ones up to 13 x 13.

``congruence_pfaffian_check`` tests the package's Pfaffian kernel against
its determinant kernel instead, at any size.
"""

from __future__ import annotations

from typing import Dict, Tuple

from apolar import Polynomial, assert_alternating, det, pfaffian
from apolar.poly import ONE

MAX_ORDER = 12


def _is_zero(e) -> bool:
    return e.is_zero if isinstance(e, Polynomial) else not e


def _ring_one(m):
    if m.degree:
        return Polynomial(m.field, 0, {ONE: m.field.one})
    return m.field.one


def _ring_zero(m, degree: int):
    if m.degree:
        return Polynomial.zero(m.field, degree)
    return m.field.zero


def _pfaffian_on(m, indices: Tuple[int, ...], memo: Dict[Tuple[int, ...], object]):
    """Pfaffian of the submatrix on the given (even-length) index tuple."""
    if not indices:
        return _ring_one(m)
    cached = memo.get(indices)
    if cached is not None:
        return cached
    i0, rest = indices[0], indices[1:]
    acc = _ring_zero(m, (len(indices) // 2) * m.degree)
    for k, j in enumerate(rest):
        e = m.entries[i0][j]
        if _is_zero(e):
            continue
        term = e * _pfaffian_on(m, tuple(i for i in rest if i != j), memo)
        acc = acc - term if k % 2 else acc + term
    memo[indices] = acc
    return acc


def _check(m, order: int) -> None:
    assert_alternating(m)
    if order > MAX_ORDER:
        raise ValueError(f"reference Pfaffian is for orders up to {MAX_ORDER}")


def reference_pfaffian(m):
    _check(m, m.rows)
    if m.rows % 2:
        return _ring_zero(m, (m.rows // 2) * m.degree)
    return _pfaffian_on(m, tuple(range(m.rows)), {})


def reference_signed_maximal_pfaffians(m) -> list:
    _check(m, m.rows - 1)
    if m.rows % 2 == 0:
        raise ValueError("signed maximal-order Pfaffians need odd size")
    memo: Dict[Tuple[int, ...], object] = {}
    out = []
    for j in range(m.rows):
        val = _pfaffian_on(m, tuple(i for i in range(m.rows) if i != j), memo)
        out.append(-val if j % 2 else val)
    return out


def congruence_pfaffian_check(a, m) -> bool:
    """Whether Pf(m^T a m) = det(m) Pf(a), for square scalar matrices a
    (alternating) and m of one size."""
    if a.rows != a.cols or m.rows != m.cols or a.rows != m.rows:
        raise ValueError("congruence check needs square matrices of equal size")
    assert_alternating(a)
    return pfaffian(m.transpose() @ a @ m) == det(m) * pfaffian(a)
