"""Tests of the Pfaffians against the memoized expansion in
``pfaffian_reference``: ``linalg.pfaffian`` on random alternating matrices
of scalars (dense, sparse and rank-deficient, over Q, GF(32003), GF(3) and
GF(5)), and the Pfaffian rows b1 of b2 and c1 of c2, which ``resolution``
reads off the explicit row, for n <= 6 over Q and four prime fields (GF(3)
and GF(5) are fields at or below the Pfaffian degree) and, one Pfaffian of
a constant matrix per entry, at a point for n = 8 and 10."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from apolar import (FpElement, Matrix, PrimeField, QQ,
                    build_linear_presentation, build_quadratic_presentation,
                    family_phi, pfaffian, random_dual_element)
from pfaffian_reference import (reference_pfaffian,
                                reference_signed_maximal_pfaffians)

GF = PrimeField(32003)
FIELDS = (QQ, GF, PrimeField(3), PrimeField(5))
ROW_FIELDS = (QQ, PrimeField(3), PrimeField(5), PrimeField(7), GF)
SETTINGS = settings(max_examples=100, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def scalars(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
    return st.builds(field.of, st.integers(0, field.p - 1))


@st.composite
def alternating(draw, max_size):
    """An alternating Matrix, sparse in half the draws; a third of the
    draws are congruent images P^T A P of a smaller A, so of lower rank."""
    field = draw(st.sampled_from(FIELDS))
    size = draw(st.integers(0, max_size))
    deficient = size > 2 and draw(st.integers(0, 2)) == 0
    inner = draw(st.integers(1, size - 1)) if deficient else size
    sparse = draw(st.booleans())
    rows = [[field.zero] * inner for _ in range(inner)]
    for i in range(inner):
        for j in range(i + 1, inner):
            if sparse and draw(st.integers(0, 3)):
                continue
            e = draw(scalars(field))
            rows[i][j], rows[j][i] = e, -e
    m = Matrix(field, rows, inner)
    if deficient:
        p = Matrix(field, [[draw(scalars(field)) for _ in range(size)]
                                for _ in range(inner)], size)
        m = p.transpose() @ m @ p
    return m


@SETTINGS
@given(alternating(max_size=10))
def test_scalar_pfaffians_match_the_expansion(m):
    pf = pfaffian(m)
    assert pf == reference_pfaffian(m)
    if m.field is QQ:
        assert type(pf) is Fraction
    else:
        assert type(pf) is FpElement and pf.p == m.field.p


@pytest.mark.parametrize("field", [QQ, GF, PrimeField(3)], ids=str)
def test_pfaffian_swaps_a_distant_partner_and_stops_at_a_zero_row(field):
    """Pf = a02 a13 (-1) + a03 a12 when a01 = 0: step 0 swaps index 2 in."""
    a = {(0, 2): 2, (0, 3): 5, (1, 2): 7, (1, 3): 3}
    rows = [[field.zero] * 4 for _ in range(4)]
    for (i, j), v in a.items():
        rows[i][j], rows[j][i] = field.of(v), -field.of(v)
    assert pfaffian(Matrix(field, rows)) == field.of(-2 * 3 + 5 * 7)
    rows[0] = [field.zero] * 4
    for r in rows:
        r[0] = field.zero
    assert pfaffian(Matrix(field, rows)) == field.zero
    assert pfaffian(Matrix(field, [], cols=0)) == field.one
    assert pfaffian(Matrix(field, [[field.zero]])) == field.zero


def presented(field, n, seed, quadratic):
    """The first seeded random input of degree 2n - 1 over field with an
    invertible p, and an invertible A' when ``quadratic``."""
    rng = random.Random(seed)
    while True:
        lin = build_linear_presentation(
            random_dual_element(field, 2 * n - 1, rng))
        if not lin.linearly_presented:
            continue
        quad = build_quadratic_presentation(lin)
        if quad.quadratically_presented or not quadratic:
            return lin, quad


def check_rows(lin, quad):
    """b1, and c1 when c2 was assembled, are the reference rows, in the
    canonical form of the public constructor."""
    n, fld = lin.n, lin.field
    assert lin.b1 == Matrix(fld, [reference_signed_maximal_pfaffians(lin.b2)],
                            degree=n)
    if quad.quadratically_presented:
        assert quad.c1 == Matrix(
            fld, [reference_signed_maximal_pfaffians(quad.c2)], degree=n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("field", ROW_FIELDS, ids=str)
def test_pfaffian_rows_match_the_expansion(field, n):
    for seed in range(2):
        check_rows(*presented(field, n, 10 * n + seed, quadratic=n % 2 == 0))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_family_rows_match_the_expansion(n):
    lin = build_linear_presentation(family_phi(n))
    quad = build_quadratic_presentation(lin)
    assert quad.quadratically_presented
    check_rows(lin, quad)


def at(m, point):
    """The scalar matrix of m's entries at a point of the field."""
    fld = m.field

    def value(e):
        total = fld.zero
        for u, c in e.coeffs.items():
            for v, k in zip(point, u):
                c = c * v ** k
            total = total + c
        return total

    return Matrix(fld, [[value(e) for e in r] for r in m.entries], m.cols)


def check_rows_at(row, m, point):
    """row_j(point) = (-1)^j Pf(m(point) without row and column j)."""
    values = at(m, point)
    signed = []
    for j in range(m.rows):
        keep = [i for i in range(m.rows) if i != j]
        signed.append(pfaffian(values._select(keep, keep)))
    assert at(row, point).entries[0] == [-v if j % 2 else v
                                         for j, v in enumerate(signed)]


@pytest.mark.parametrize("kind, n", [("gf", 8), ("gf", 10), ("family", 8)])
def test_pfaffian_rows_at_a_point(kind, n):
    if kind == "family":
        lin = build_linear_presentation(family_phi(n))
        quad = build_quadratic_presentation(lin)
        rng = random.Random(n)
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
    else:
        lin, quad = presented(GF, n, n, quadratic=True)
        rng = random.Random(n)
        point = [GF.of(rng.randrange(1, GF.p)) for _ in range(3)]
    check_rows_at(lin.b1, lin.b2, point)
    check_rows_at(quad.c1, quad.c2, point)


def test_resolve_at_n10_over_gf32003():
    phi = random_dual_element(GF, 19, random.Random(10))
    t0 = time.perf_counter()
    lin = build_linear_presentation(phi)
    elapsed = time.perf_counter() - t0
    assert lin.linearly_presented and lin.b2.rows == 21
    assert (lin.b1 @ lin.b2).is_zero()
    # g = eps_n b1 with eps_10 = (-1)^45 = -1
    assert lin.generator_row == lin.b1.scaled(-1)
    assert elapsed < 10
