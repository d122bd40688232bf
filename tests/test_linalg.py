import random
from fractions import Fraction

import pytest

from apolar import (DualElement, FieldMismatchError, Matrix, Monomial,
                    Polynomial, PrimeField, QQ, det, invert, is_alternating,
                    kernel, linalg, parse_polynomial, pfaffian, rank)
from apolar.poly import ONE, X
from golden_family import parsed
from pfaffian_reference import congruence_pfaffian_check

GF = PrimeField(32003)
F7 = PrimeField(7)


def qm(rows):
    return Matrix(QQ, rows)


def eye(field, n):
    return Matrix(field, [[int(i == j) for j in range(n)] for i in range(n)], n)


def zeros(field, rows, cols, degree=0):
    entry = Polynomial.zero(field, degree) if degree else 0
    return Matrix(field, [[entry] * cols for _ in range(rows)], cols, degree)


def random_matrix(field, n, m, rng):
    if hasattr(field, "p"):
        return Matrix(field, [[field.of(rng.randrange(field.p))
                                    for _ in range(m)] for _ in range(n)], m)
    return Matrix(field, [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                for _ in range(m)] for _ in range(n)], m)


def random_alternating(field, n, rng):
    m = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = field.of(rng.randrange(field.p)) if hasattr(field, "p") \
                else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            m[i][j] = v
            m[j][i] = -v
    return Matrix(field, m)


def test_invert_known_matrix():
    p = qm([[0, 3, 3], [3, 3, 6], [3, 6, 3]])
    res = invert(p)
    assert res.invertible and res.rank == 3
    assert res.inverse.scaled(6) == qm([[-3, 1, 1], [1, -1, 1], [1, 1, -1]])
    assert res.inverse @ p == eye(QQ, 3)


def test_invert_identity():
    identity = eye(QQ, 4)
    assert invert(identity).inverse == identity


def test_invert_reports_rank_on_singular():
    res = invert(qm([[1, 1], [1, 1]]))
    assert not res.invertible and res.inverse is None and res.rank == 1
    assert invert(zeros(QQ, 3, 3)).rank == 0


def test_invert_random_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        m = random_matrix(GF, 6, 6, rng)
        res = invert(m)
        if res.invertible:
            assert res.inverse @ m == eye(GF, 6)


def test_kernel():
    assert kernel(eye(QQ, 3)) == []
    basis = kernel(qm([[1, 1, 1]]))
    assert len(basis) == 2
    rng = random.Random(4)
    for _ in range(10):
        m = random_matrix(GF, 4, 7, rng)
        for v in kernel(m):
            col = Matrix(GF, [[e] for e in v])
            assert (m @ col).is_zero()
        assert rank(m) + len(kernel(m)) == 7


def test_det():
    assert det(qm([[2, 0], [0, 3]])) == 6
    assert det(qm([[0, 3, 3], [3, 3, 6], [3, 6, 3]])) == 54
    assert det(qm([[1, 2], [2, 4]])) == 0


@pytest.mark.parametrize("field", [QQ, GF])
def test_det_invert_rank_agree(field):
    rng = random.Random(8)
    mats = [zeros(field, 0, 0)]
    for n in range(1, 6):
        mats += [random_matrix(field, n, n, rng) for _ in range(3)]
        mats.append(zeros(field, n, n))
        if n > 1:
            # rank at most n - 1: a product through an n x (n-1) matrix
            mats.append(random_matrix(field, n, n - 1, rng)
                        @ random_matrix(field, n - 1, n, rng))
    for m in mats:
        d = det(m)
        res = invert(m)
        assert (d == field.zero) == (not res.invertible)
        assert res.rank == rank(m)
        if res.invertible:
            assert d * det(res.inverse) == field.one


def test_pfaffian_base_cases():
    a = Fraction(7, 2)
    assert pfaffian(qm([[0, a], [-a, 0]])) == a
    assert pfaffian(zeros(QQ, 0, 0)) == 1
    three = qm([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
    assert pfaffian(three) == 0
    assert pfaffian(qm([[0, 6], [-6, 0]])) == 6


def test_pfaffian_rejects_non_alternating():
    with pytest.raises(ValueError):
        pfaffian(qm([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        pfaffian(qm([[0, 1], [1, 0]]))
    assert not is_alternating(qm([[0, 1], [1, 0]]))


def test_pfaffian_squares_to_determinant():
    rng = random.Random(5)
    for field in (QQ, GF):
        for n in (2, 4, 6, 8):
            for _ in range(5):
                m = random_alternating(field, n, rng)
                assert pfaffian(m) ** 2 == det(m)


def test_congruence_identity():
    rng = random.Random(7)
    a = random_alternating(GF, 4, rng)
    assert congruence_pfaffian_check(a, eye(GF, 4))
    for _ in range(20):
        m = random_matrix(GF, 4, 4, rng)
        assert congruence_pfaffian_check(a, m)
    # singular alternating: both sides vanish
    sing = qm([[0, 0], [0, 0]])
    assert congruence_pfaffian_check(sing, qm([[1, 2], [3, 4]]))


def test_poly_matrix_degree_validation():
    x = Polynomial.variable(QQ, "x")
    with pytest.raises(ValueError):
        Matrix(QQ, [[x]], degree=2)
    with pytest.raises(ValueError):
        Matrix(QQ, [[x]])
    with pytest.raises(TypeError):
        Matrix(QQ, [[x, 1]], degree=1)
    m = Matrix(QQ, [[x, Polynomial.zero(QQ, 5)]], degree=1)
    assert m.entries[0][1].degree == 1  # zero entries adopt the matrix degree
    # a scalar is a form of degree 0: both build the same degree-0 matrix
    half = Fraction(3, 2)
    assert Matrix(QQ, [[constant(QQ, half), Polynomial.zero(QQ, 4)]]) == \
        qm([[half, 0]])


def test_poly_matrix_product_degrees():
    x = Polynomial.variable(QQ, "x")
    y = Polynomial.variable(QQ, "y")
    m = Matrix(QQ, [[x, y]], degree=1)
    mt = m.transpose()
    prod = m @ mt
    assert prod.degree == 2
    assert prod.entries[0][0] == parse_polynomial("x^2+y^2", QQ)


def test_pfaffian_takes_scalar_matrices_only():
    x, zero = Polynomial.variable(GF, "x"), Polynomial.zero(GF, 1)
    forms = Matrix(GF, [[zero, x], [-x, zero]], degree=1)
    with pytest.raises(TypeError):
        pfaffian(forms)
    m = qm([[0, 1], [-1, 0]])
    assert m.times_monomial(ONE) == m and pfaffian(m.times_monomial(ONE)) == 1
    with pytest.raises(TypeError):
        pfaffian(m.times_monomial(X))


@pytest.mark.parametrize("elimination", [rank, det, invert, kernel],
                         ids=lambda f: f.__name__)
def test_elimination_refuses_forms(elimination):
    """x [[1, 2], [3, 4]] has rank 2 and det -2x^2, but its constant slice,
    all that elimination reads, is zero."""
    with pytest.raises(TypeError):
        elimination(qm([[1, 2], [3, 4]]).times_monomial(X))


def test_matmul_promotes_scalar_matrix():
    """A product of scalars and forms has the degree of the forms."""
    x = Polynomial.variable(QQ, "x")
    m = Matrix(QQ, [[x], [x]], degree=1)
    s = qm([[1, 2]])
    prod = s @ m
    assert prod.degree == 1 and (m.transpose() @ s.transpose()).degree == 1
    assert prod.entries[0][0] == parse_polynomial("3x", QQ)
    assert s.times_monomial(ONE) == s


def test_denominator_lcm():
    m = qm([[Fraction(1, 6), Fraction(1, 4)], [1, Fraction(2, 3)]])
    assert m.L == 12
    assert eye(GF, 2).L == 1


F3 = PrimeField(3)
F3_ROW = Matrix(F3, [[1, 2, 0]])
F3_BUILDS = {
    "scalars": lambda: F3_ROW,
    "forms": lambda: Matrix(F3, [[parse_polynomial("x + 2y", F3)]], degree=1),
    "strings": lambda: parsed(F3, [["2x + y", "0"]], 1),
    "ints": lambda: Matrix._from_ints(F3, [[1, 2], [2, 0]], 2),
    "zeros": lambda: Matrix(F3, [], cols=3, degree=1),
    "catalecticant": lambda: linalg.catalecticants(
        DualElement(F3, 2, {Monomial(1, 1, 0): 2}),
        ([Monomial(1, 0, 0)], 1, False))[0],
    "sum": lambda: F3_ROW + F3_ROW,
    "product": lambda: F3_ROW.transpose() @ F3_ROW,
    "scaled": lambda: F3_ROW.scaled(2),
    "shifted": lambda: F3_ROW.times_monomial(X),
    "selected": lambda: F3_ROW.take_cols([1]),
    "inverse": lambda: invert(Matrix(F3, [[2, 1], [0, 1]])).inverse,
}


@pytest.mark.parametrize("build", F3_BUILDS.values(), ids=F3_BUILDS)
def test_denominator_is_one_over_a_prime_field_however_built(build):
    assert build().L == 1


def test_zero_row_matrices_keep_their_column_count():
    z = zeros(QQ, 0, 3)
    assert (z.rows, z.cols) == (0, 3)
    assert (z.transpose().rows, z.transpose().cols) == (3, 0)
    assert z != zeros(QQ, 0, 0)
    prod = zeros(QQ, 1, 0) @ zeros(QQ, 0, 1)
    assert prod == qm([[0]])
    assert (z.transpose() @ z).cols == 3 and (z @ qm([[1]] * 3)).cols == 1
    assert (zeros(GF, 2, 0) @ zeros(GF, 0, 4)
            == zeros(GF, 2, 4))
    assert eye(QQ, 3)._select([], range(3)).cols == 3
    assert (z + z).cols == 3 and (-z).cols == 3 and z.scaled(2).cols == 3
    assert len(kernel(z)) == 3
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 2]], cols=3)


def test_zero_row_poly_matrices_keep_their_column_count():
    z = zeros(QQ, 0, 3, 1)
    assert (z.rows, z.cols) == (0, 3)
    assert (z.transpose().rows, z.transpose().cols) == (3, 0)
    assert zeros(QQ, 0, 2).times_monomial(ONE).cols == 2
    prod = zeros(QQ, 2, 0, 1) @ zeros(QQ, 0, 2, 1)
    assert prod == zeros(QQ, 2, 2, 2)
    assert (z @ zeros(QQ, 3, 4, 1)).cols == 4
    assert (zeros(QQ, 1, 0) @ z) == zeros(QQ, 1, 3, 1)
    assert z.take_cols([1, 2]).cols == 2
    assert z.times_monomial(Monomial(1, 0, 0)).cols == 3
    assert (z + z).cols == 3 and (-z).cols == 3 and z.scaled(2).cols == 3
    assert z != zeros(QQ, 0, 0, 1) and z != zeros(QQ, 0, 3)


def constant(field, c):
    return Polynomial(field, 0, {ONE: c})


@pytest.mark.parametrize("field", [QQ, GF])
def test_promotion_commutes_with_shared_operations(field):
    """Promotion by a monomial: times_monomial(ONE) is the identity, and
    times_monomial(x) maps each result on scalar matrices to the result on
    the promoted operands, a product promoted on either side.  A sum across
    degrees is refused."""
    rng = random.Random(12)

    def lift(m):
        return m.times_monomial(X)
    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 3)]:
        a = random_matrix(field, rows, cols, rng)
        b = random_matrix(field, rows, cols, rng)
        b = Matrix(field, [[e if rng.random() < 0.5 else field.zero
                            for e in r] for r in b.entries], cols)
        t = random_matrix(field, cols, 2, rng)
        assert a.times_monomial(ONE) == a
        assert lift(a).times_monomial(ONE) == lift(a)
        assert lift(a.transpose()) == lift(a).transpose()
        assert lift(-a) == -lift(a)
        assert lift(a) + lift(b) == lift(a + b)
        assert lift(a) - lift(b) == lift(a - b)
        for result, x, y in ((a @ t, a, t), (b @ t, b, t)):
            assert lift(x) @ y == lift(result) == x @ lift(y)
            assert lift(x) @ lift(y) == lift(lift(result))
        with pytest.raises(ValueError, match="degree mismatch"):
            a + lift(b)
        with pytest.raises(ValueError, match="degree mismatch"):
            lift(a) - b
        keep_rows, keep_cols = list(range(rows))[::-2], list(range(cols))[::-2]
        assert lift(a._select(keep_rows, keep_cols)) == \
            lift(a)._select(keep_rows, keep_cols)
        assert lift(a.take_cols(keep_cols)) == lift(a).take_cols(keep_cols)
        for m in (a, b, zeros(field, rows, cols)):
            assert m.is_zero() == lift(m).is_zero()
            assert m.L == lift(m).L
    for size in range(6):
        m = random_alternating(field, size, rng)
        assert is_alternating(lift(m))
    assert not Polynomial.zero(field, 2) and not DualElement.zero(field, 2)
    assert Polynomial.variable(field, "x") and constant(field, field.one)


@pytest.mark.parametrize("call, error, message", [
    (lambda: qm([[1, 2]]) @ Matrix(F7, [[1], [2]]), FieldMismatchError,
     "matrices live in different fields"),
    (lambda: qm([[1, 2]]) @ qm([[1, 2]]), ValueError,
     r"shape mismatch: 1x2 @ 1x2"),
    (lambda: qm([[1, 2]]) + Matrix(F7, [[1, 2]]), FieldMismatchError,
     "matrices live in different fields"),
    (lambda: qm([[1, 2]]) + qm([[1], [2]]), ValueError,
     "shape mismatch in matrix sum"),
    (lambda: det(qm([[1, 2]])), ValueError,
     "determinant of a non-square matrix"),
    (lambda: invert(qm([[1, 2]])), ValueError,
     "inverse of a non-square matrix"),
    (lambda: linalg.solve(qm([[1]]), Matrix(F7, [[1]])), FieldMismatchError,
     "matrices live in different fields"),
    (lambda: linalg.solve(qm([[1]]), qm([[1], [2]])), ValueError,
     "shape mismatch in a solve"),
    (lambda: linalg.solve(qm([[1]]), qm([[1]]).times_monomial(X)), TypeError,
     "elimination takes a matrix of scalars"),
    (lambda: linalg.assert_alternating(qm([[0, 1]])), ValueError,
     "alternating matrix must be square"),
], ids=["matmul-fields", "matmul-shapes", "add-fields", "add-shapes",
        "det-non-square", "invert-non-square", "solve-fields", "solve-rows",
        "solve-forms", "alternating-non-square"])
def test_linalg_refusals(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert type(raised.value) is error
