"""Property tests of the stored form of ``apolar.linalg.Matrix``, L M =
sum_u u C_u: every operation against an elementwise reference on boxed
entries, over Q, GF(3) and GF(32003), for scalars (degree 0) and forms of
degrees 1 and 2, and for shapes with 0 rows or 0 columns.  Every result
must also be canonical: L = 1 and residues in [0, p) over GF(p), L > 0 and
gcd(L, all numerators) = 1 over Q, and no all-zero slice.  So equality, which compares the slices, does
not depend on the route by which a matrix was computed."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from apolar import (Matrix, Polynomial, PrimeField, QQ, assert_alternating,
                    linalg)
from apolar.cli import _json
from apolar.poly import ONE, X, Monomial, monomials_of_degree

FIELDS = (QQ, PrimeField(3), PrimeField(32003))
SETTINGS = settings(max_examples=120, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def scalars(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-30, 30),
                         st.sampled_from([1, 2, 3, 4, 6, 12]))
    return st.builds(field.of, st.integers(0, field.p - 1))


def zero_of(field, degree):
    return Polynomial.zero(field, degree) if degree else field.zero


@st.composite
def matrices(draw, field, rows, cols, degree):
    """A matrix of that degree, of scalars at degree 0, dense or sparse."""
    sparse = draw(st.booleans())
    monos = monomials_of_degree(degree)

    def entry():
        if sparse and draw(st.integers(0, 2)):
            return zero_of(field, degree)
        if not degree:
            return draw(scalars(field))
        chosen = draw(st.lists(st.sampled_from(monos), max_size=len(monos)))
        return Polynomial(field, degree, {m: draw(scalars(field)) for m in chosen})

    return Matrix(field, [[entry() for _ in range(cols)] for _ in range(rows)],
                  cols, degree)


def assert_canonical(m):
    p = getattr(m.field, "p", None)
    assert m.L > 0
    for u, s in m.slices.items():
        assert u.degree == m.degree
        assert len(s) == m.rows and all(len(r) == m.cols for r in s)
        assert any(map(any, s)), "an all-zero slice is kept"
        if p:
            assert all(0 <= x < p for r in s for x in r)
    if p:
        assert m.L == 1
    else:
        nums = [x for s in m.slices.values() for r in s for x in r]
        assert math.gcd(m.L, *nums) == 1
    # the slices are those the public constructor computes from the entries
    rebuilt = Matrix(m.field, m.entries, m.cols, m.degree)
    assert (rebuilt.L, rebuilt.slices) == (m.L, m.slices)


def assert_result(m, expected_entries):
    """m is canonical and its boxed entries are the expected ones."""
    assert_canonical(m)
    assert (m.rows, m.cols) == (len(expected_entries),
                                m.cols if not expected_entries
                                else len(expected_entries[0]))
    assert m.entries == expected_entries
    assert m == Matrix(m.field, expected_entries, m.cols, m.degree)


@st.composite
def cases(draw, max_size=4):
    """A field, a degree, and two matrices a, b of one shape and degree;
    either side may be 0."""
    field = draw(st.sampled_from(FIELDS))
    degree = draw(st.sampled_from([0, 1, 2]))
    r, c = draw(st.integers(0, max_size)), draw(st.integers(0, max_size))
    a = draw(matrices(field, r, c, degree))
    b = draw(matrices(field, r, c, degree))
    return field, degree, a, b


@SETTINGS
@given(cases(), st.data())
def test_unary_operations_equal_the_entrywise_reference(case, data):
    field, degree, a, _ = case
    E = a.entries
    r, c = a.rows, a.cols
    assert_canonical(a)
    assert_result(a.transpose(), [[E[i][j] for i in range(r)] for j in range(c)])
    assert_result(-a, [[-e for e in row] for row in E])
    s = data.draw(scalars(field))
    assert_result(a.scaled(s), [[e.scaled(s) if degree else e * s
                                 for e in row] for row in E])
    pick_r = data.draw(st.lists(st.integers(0, r - 1), max_size=5)) if r else []
    pick_c = data.draw(st.lists(st.integers(0, c - 1), max_size=5)) if c else []
    assert_result(a._select(pick_r, range(c)), [E[i] for i in pick_r])
    assert a._select(pick_r, pick_c).cols == len(pick_c)
    assert_result(a._select(pick_r, pick_c), [[E[i][j] for j in pick_c]
                                              for i in pick_r])
    assert_result(a.take_cols(pick_c), [[row[j] for j in pick_c] for row in E])
    assert a.is_zero() == (not any(e for row in E for e in row))
    assert a.to_strings() == [[str(e) for e in row] for row in E]
    coeffs = [x for row in E for e in row for x in e.coeffs.values()] \
        if degree else [e for row in E for e in row]
    assert a.L == (1 if field is not QQ else
                   math.lcm(*(x.denominator for x in coeffs)))
    assert a.times_monomial(ONE) == a
    u = data.draw(st.sampled_from(monomials_of_degree(1)))
    factor = Polynomial.monomial(field, u)
    shifted = a.times_monomial(u)
    assert shifted.degree == degree + 1
    assert_result(shifted, [[e * factor if degree else factor.scaled(e)
                             for e in row] for row in E])


@SETTINGS
@given(cases())
def test_every_text_takes_the_one_join_path_of_the_report(case):
    """``cli._json`` writes a list of strings in one join when their
    concatenation is printable ASCII with no '"' and no '\\'.  Every text
    of ``to_strings`` is such a string, over Q (negative fractions),
    GF(3) and GF(32003), at degrees 0 to 2, zero matrices included; the
    report writer then writes what ``json.dumps`` writes."""
    _, _, a, b = case
    for m in (a, b, a - a):
        texts = m.to_strings()
        joined = "".join(t for row in texts for t in row)
        assert joined.isascii() and joined.isprintable()
        assert '"' not in joined and "\\" not in joined
        assert _json(texts) == json.dumps(texts, indent=2)


@SETTINGS
@given(cases())
def test_sums_equal_the_entrywise_reference(case):
    field, degree, a, b = case
    A, B = a.entries, b.entries
    assert_result(a + b, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(A, B)])
    assert_result(a - b, [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(A, B)])
    with pytest.raises(ValueError, match="degree mismatch"):
        a + b.times_monomial(X)


@SETTINGS
@given(cases(), st.data())
def test_products_are_canonical(case, data):
    field, degree, a, _ = case
    other = data.draw(st.sampled_from([0, 1]))
    b = data.draw(matrices(field, a.cols, data.draw(st.integers(0, 4)), other))
    assert_canonical(a @ b)


@SETTINGS
@given(cases(), st.data())
def test_every_route_to_one_matrix_gives_an_equal_matrix(case, data):
    field, degree, a, b = case
    zero = a - a
    assert zero.is_zero() and zero.slices == {} and zero.L == 1
    assert zero == Matrix(field, [[zero_of(field, degree)] * a.cols
                                  for _ in range(a.rows)], a.cols, degree)
    assert (a + b) - b == a
    assert b + (a - b) == a
    assert -(-a) == a
    assert a.transpose().transpose() == a
    assert a.take_cols(range(a.cols)) == a
    assert a._select(range(a.rows), range(a.cols)) == a
    s = data.draw(scalars(field))
    if s:
        assert a.scaled(s).scaled(1 / s) == a
    if a.rows == a.cols:
        # b + b^T and b - b^T cancel in their sum down to 2 b
        assert (b + b.transpose()) + (b - b.transpose()) == b.scaled(2)


@pytest.mark.parametrize("degree", [None, 1])
def test_denominators_that_cancel_leave_the_least_common_one(degree):
    """[1/2, 1/3] + [1/6, 2/3] = [2/3, 1]: L drops from 6 to 3, and
    subtracting the second matrix again gives back L = 6; on scalar entries
    (degree None) and on forms of degree 1."""
    def m(*xs):
        if degree is None:
            return Matrix(QQ, [list(map(Fraction, xs))])
        u = Monomial(0, 1, 0)
        return Matrix(QQ, [[Polynomial(QQ, 1, {u: Fraction(x)}) for x in xs]],
                      degree=1)
    a, b = m("1/2", "1/3"), m("1/6", "2/3")
    total = a + b
    assert total.L == 3 and total == m("2/3", "1")
    assert (total - b).L == 6 and total - b == a
    assert (a.scaled(6)).L == 1 and a.scaled(6) == m(3, 2)
    assert a.take_cols([1]).L == 3 and a.take_cols([1]) == m("1/3")


def test_cancelled_monomials_leave_no_slice():
    y, z = (Polynomial.variable(QQ, v) for v in "yz")
    a = Matrix(QQ, [[y + z, z]], degree=1)
    b = Matrix(QQ, [[-z, -z]], degree=1)
    total = a + b
    assert list(total.slices) == [Monomial(0, 1, 0)]
    assert total == Matrix(QQ, [[y, Polynomial.zero(QQ, 1)]], degree=1)


def boxed_alternating_error(m):
    """The first failure of the boxed check: zero diagonal and
    M + M^T = 0, scanned row by row."""
    E = m.entries
    for i in range(m.rows):
        if E[i][i]:
            return f"nonzero diagonal entry at ({i},{i})"
        for j in range(i + 1, m.cols):
            if E[i][j] + E[j][i]:
                return f"entries ({i},{j}) and ({j},{i}) do not cancel"
    return None


@st.composite
def nearly_alternating(draw):
    field = draw(st.sampled_from(FIELDS))
    degree = draw(st.sampled_from([0, 1]))
    n = draw(st.integers(0, 5))
    a = draw(matrices(field, n, n, degree))
    m = a - a.transpose()
    for _ in range(draw(st.integers(0, 2))):
        if n:
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            entries = [list(r) for r in m.entries]
            entries[i][j] = draw(matrices(field, 1, 1, degree)).entries[0][0]
            m = Matrix(field, entries, n, degree)
    return m


@SETTINGS
@given(nearly_alternating())
def test_alternating_check_on_slices_equals_the_boxed_check(m):
    expected = boxed_alternating_error(m)
    if expected is None:
        assert_alternating(m)
    else:
        with pytest.raises(ValueError) as err:
            assert_alternating(m)
        assert str(err.value) == expected
    assert linalg.is_alternating(m) == (expected is None)
