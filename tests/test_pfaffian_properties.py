"""Tests of the Pfaffian kernel against the memoized expansion in
``pfaffian_reference``: property tests on random alternating matrices of
scalars and of forms of degree 0, 1 and 2 (dense, sparse and
rank-deficient, over Q, GF(32003), and GF(3) and GF(5), where the Pfaffian
degree can reach p), and fixed cases for each branch of the skew
elimination and for the smallest primes the field path takes."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from apolar import (FieldMatrix, FpElement, PolyMatrix, Polynomial,
                    PrimeField, QQ, as_poly_matrix, build_linear_presentation,
                    family_phi, linalg, pfaffian, proportionality_unit,
                    random_dual_element, rank, signed_maximal_pfaffians)
from apolar.poly import monomials_of_degree
from pfaffian_reference import (reference_pfaffian,
                                reference_signed_maximal_pfaffians)

GF = PrimeField(32003)
FIELDS = (QQ, GF, PrimeField(3), PrimeField(5))
SETTINGS = settings(max_examples=100, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def scalars(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
    return st.builds(field.of, st.integers(0, field.p - 1))


@st.composite
def entries(draw, field, degree, sparse):
    """A form of the given degree (a scalar when degree is None)."""
    if sparse and draw(st.integers(0, 3)):
        return field.zero if degree is None else Polynomial.zero(field, degree)
    if degree is None:
        return draw(scalars(field))
    monos = monomials_of_degree(degree)
    chosen = draw(st.lists(st.sampled_from(monos), max_size=len(monos)))
    return Polynomial(field, degree, {m: draw(scalars(field)) for m in chosen})


@st.composite
def alternating(draw, poly, max_size):
    """An alternating FieldMatrix (poly False) or PolyMatrix; a third of the
    draws are congruent images P^T A P of a smaller A, so of lower rank."""
    field = draw(st.sampled_from(FIELDS))
    degree = draw(st.integers(0, 2)) if poly else None
    size = draw(st.integers(0, max_size))
    deficient = size > 2 and draw(st.integers(0, 2)) == 0
    inner = draw(st.integers(1, size - 1)) if deficient else size
    sparse = draw(st.booleans())
    zero = field.zero if degree is None else Polynomial.zero(field, degree)
    rows = [[zero] * inner for _ in range(inner)]
    for i in range(inner):
        for j in range(i + 1, inner):
            e = draw(entries(field, degree, sparse))
            rows[i][j], rows[j][i] = e, -e
    m = FieldMatrix(field, rows, inner) if degree is None \
        else PolyMatrix(field, degree, rows, inner)
    if deficient:
        p = FieldMatrix(field, [[draw(scalars(field)) for _ in range(size)]
                                for _ in range(inner)], size)
        if poly:
            p = as_poly_matrix(p)
        m = p.transpose() @ m @ p
    return m


def assert_exact_coefficients(value, field):
    coeffs = value.coeffs.values() if isinstance(value, Polynomial) else [value]
    for c in coeffs:
        if field is QQ:
            assert type(c) is Fraction
        else:
            assert type(c) is FpElement and c.p == field.p


def canonical_row(m, entries):
    """The 1 x k matrix of m's kind that the public constructor builds from
    the boxed Pfaffian row ``entries`` of m."""
    if isinstance(m, PolyMatrix):
        return PolyMatrix(m.field, (m.rows // 2) * m.degree, [entries])
    return FieldMatrix(m.field, [entries])


def check_against_reference(m):
    pf = pfaffian(m)
    assert pf == reference_pfaffian(m)
    assert_exact_coefficients(pf, m.field)
    if m.rows % 2:
        row = signed_maximal_pfaffians(m)
        expected = reference_signed_maximal_pfaffians(m)
        assert row.entries[0] == expected
        for e in row.entries[0]:
            assert_exact_coefficients(e, m.field)
        # built from ints, the row is in the constructor's canonical form:
        # == compares the kind, the degree, L and the slices
        assert row == canonical_row(m, expected)


@SETTINGS
@given(alternating(poly=False, max_size=10))
def test_scalar_pfaffians_match_the_expansion(m):
    check_against_reference(m)


@SETTINGS
@given(alternating(poly=True, max_size=7))
def test_polynomial_pfaffians_match_the_expansion(m):
    check_against_reference(m)


def record_moduli(monkeypatch):
    """The list that every later ``_pfaffians_mod`` call appends its q to."""
    moduli = []
    original = linalg._pfaffians_mod

    def spy(*args):
        moduli.append(args[-1])
        return original(*args)

    monkeypatch.setattr(linalg, "_pfaffians_mod", spy)
    return moduli


def test_small_fields_below_the_pfaffian_degree_take_the_integer_path(monkeypatch):
    """Over GF(3) a 7x7 matrix of quadrics has Pfaffian degree 6 >= 3, so the
    kernel runs modulo 61-bit primes on centred lifts, never modulo 3."""
    moduli = record_moduli(monkeypatch)
    rng = random.Random(3)
    for p in (3, 5):
        field = PrimeField(p)
        monos = monomials_of_degree(2)
        rows = [[Polynomial.zero(field, 2)] * 7 for _ in range(7)]
        for i in range(7):
            for j in range(i + 1, 7):
                e = Polynomial(field, 2,
                               {m: field.of(rng.randrange(p)) for m in monos})
                rows[i][j], rows[j][i] = e, -e
        m = PolyMatrix(field, 2, rows)
        moduli.clear()
        assert signed_maximal_pfaffians(m).entries[0] == \
            reference_signed_maximal_pfaffians(m)
        assert moduli and min(moduli) > 2 ** 60


def test_family_row_at_n6_needs_several_crt_primes(monkeypatch):
    moduli = record_moduli(monkeypatch)
    lin = build_linear_presentation(family_phi(6), with_pfaffian_row=False)
    row = signed_maximal_pfaffians(lin.b2)
    assert len(moduli) > 1
    assert row.entries[0] == reference_signed_maximal_pfaffians(lin.b2)


def random_form(field, degree, rng):
    """A scalar (degree None) or a form with small random coefficients."""
    if degree is None:
        return field.of(rng.randrange(-9, 10))
    return Polynomial(field, degree, {m: field.of(rng.randrange(-9, 10))
                                      for m in monomials_of_degree(degree)})


def congruent(field, size, dependent, rng, degree=None):
    """C^T B C for a random alternating B of size ``size - len(dependent)``
    and a random C with ``size`` columns, whose column t, for t in
    ``dependent``, is a random combination of the columns before it (zero
    for t = 0), so row t of the result depends on the rows before it.  When
    no swap moves it, the skew elimination meets such a row at an even
    t < size - 1 as a zero row, and moves it last; at t = size - 1 it is
    already last."""
    inner = size - len(dependent)
    zero = field.zero if degree is None else Polynomial.zero(field, degree)
    rows = [[zero] * inner for _ in range(inner)]
    for i in range(inner):
        for j in range(i + 1, inner):
            e = random_form(field, degree, rng)
            rows[i][j], rows[j][i] = e, -e
    b = FieldMatrix(field, rows, inner) if degree is None \
        else PolyMatrix(field, degree, rows, inner)
    cols = []
    for t in range(size):
        if t in dependent:
            weights = [field.of(rng.randrange(-3, 4)) for _ in cols]
            cols.append([sum((w * c[r] for w, c in zip(weights, cols)),
                             field.zero) for r in range(inner)])
        else:
            cols.append([random_form(field, None, rng) for _ in range(inner)])
    c = FieldMatrix(field, [list(r) for r in zip(*cols)], size)
    if degree is not None:
        c = as_poly_matrix(c)
    return c.transpose() @ b @ c


def is_zero_entry(e):
    return e.is_zero if isinstance(e, Polynomial) else not e


@pytest.mark.parametrize("field", [GF, QQ])
@pytest.mark.parametrize("degree", [None, 1])
@pytest.mark.parametrize("dependent", [0, 4, 8])
def test_odd_rank_m_minus_1_with_the_dependent_index_first_middle_last(
        field, degree, dependent):
    rng = random.Random(100 * dependent + (degree or 0))
    m = congruent(field, 9, {dependent}, rng, degree)
    if degree is None:
        assert rank(m) == 8
    expected = reference_signed_maximal_pfaffians(m)
    assert not is_zero_entry(expected[dependent])
    assert signed_maximal_pfaffians(m).entries[0] == expected


@pytest.mark.parametrize("field", [GF, QQ])
@pytest.mark.parametrize("degree", [None, 1])
@pytest.mark.parametrize("dependent", [(0, 5), (3, 4), (2, 8)])
def test_rank_m_minus_3_gives_the_zero_row(field, degree, dependent):
    rng = random.Random(sum(dependent) + (degree or 0))
    m = congruent(field, 9, set(dependent), rng, degree)
    if degree is None:
        assert rank(m) == 6
    row = signed_maximal_pfaffians(m).entries[0]
    assert all(is_zero_entry(e) for e in row)
    assert row == reference_signed_maximal_pfaffians(m)


@pytest.mark.parametrize("field", [GF, QQ, PrimeField(3)])
def test_size_one(field):
    m = FieldMatrix(field, [[field.zero]])
    assert signed_maximal_pfaffians(m).entries[0] == [field.one]
    assert pfaffian(m) == field.zero
    forms = PolyMatrix(field, 2, [[Polynomial.zero(field, 2)]])
    assert signed_maximal_pfaffians(forms).entries[0] == \
        reference_signed_maximal_pfaffians(forms)
    assert pfaffian(forms) == reference_pfaffian(forms)


@pytest.mark.parametrize("p, size, degree", [
    (5, 9, 1), (5, 8, 1), (5, 5, 2), (7, 7, 2), (7, 12, 1), (7, 13, 1)])
def test_forms_at_the_smallest_prime_above_the_pfaffian_degree(
        monkeypatch, p, size, degree):
    """D = (size // 2) degree = p - 1, so the kernel runs modulo p itself,
    at every residue as a lattice coordinate."""
    assert (size // 2) * degree == p - 1
    moduli = record_moduli(monkeypatch)
    field = PrimeField(p)
    rng = random.Random(p * size)
    for dependent in (set(), {size // 2}):
        m = congruent(field, size, dependent, rng, degree)
        moduli.clear()
        if size % 2:
            assert signed_maximal_pfaffians(m).entries[0] == \
                reference_signed_maximal_pfaffians(m)
        else:
            assert pfaffian(m) == reference_pfaffian(m)
        assert moduli == [p]


def test_the_pfaffian_row_runs_no_gauss_jordan(monkeypatch):
    calls = []
    original = linalg._rref_mod

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    lin = build_linear_presentation(family_phi(4), with_pfaffian_row=False)
    monkeypatch.setattr(linalg, "_rref_mod", spy)
    row = signed_maximal_pfaffians(lin.b2)
    assert calls == []
    assert row.entries[0] == reference_signed_maximal_pfaffians(lin.b2)


def test_resolve_at_n10_over_gf32003():
    phi = random_dual_element(GF, 19, random.Random(10))
    t0 = time.perf_counter()
    lin = build_linear_presentation(phi)
    elapsed = time.perf_counter() - t0
    assert lin.linearly_presented and lin.b2.rows == 21
    assert (lin.b1 @ lin.b2).is_zero()
    assert proportionality_unit(lin.generator_row, lin.b1) != GF.zero
    assert elapsed < 10
