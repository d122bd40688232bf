import random
from fractions import Fraction

import pytest

from apolar import (FieldMatrix, Monomial, PolyMatrix, Polynomial, PrimeField,
                    QQ, as_poly_matrix, block, congruence_pfaffian_check,
                    denominator_lcm, det, hstack, invert, is_alternating,
                    kernel, parse_polynomial, pfaffian, rank,
                    signed_maximal_pfaffians, vstack)

GF = PrimeField(32003)


def qm(rows):
    return FieldMatrix(QQ, rows)


def random_matrix(field, n, m, rng):
    if hasattr(field, "p"):
        return FieldMatrix(field, [[field.of(rng.randrange(field.p))
                                    for _ in range(m)] for _ in range(n)])
    return FieldMatrix(field, [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                for _ in range(m)] for _ in range(n)])


def random_alternating(field, n, rng):
    m = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = field.of(rng.randrange(field.p)) if hasattr(field, "p") \
                else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            m[i][j] = v
            m[j][i] = -v
    return FieldMatrix(field, m)


def test_invert_known_matrix():
    p = qm([[0, 3, 3], [3, 3, 6], [3, 6, 3]])
    res = invert(p)
    assert res.invertible and res.rank == 3
    assert res.inverse.scaled(6) == qm([[-3, 1, 1], [1, -1, 1], [1, 1, -1]])
    assert res.inverse @ p == FieldMatrix.identity(QQ, 3)


def test_invert_identity():
    eye = FieldMatrix.identity(QQ, 4)
    assert invert(eye).inverse == eye


def test_invert_reports_rank_on_singular():
    res = invert(qm([[1, 1], [1, 1]]))
    assert not res.invertible and res.inverse is None and res.rank == 1
    assert invert(FieldMatrix.zeros(QQ, 3, 3)).rank == 0


def test_invert_random_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        m = random_matrix(GF, 6, 6, rng)
        res = invert(m)
        if res.invertible:
            assert res.inverse @ m == FieldMatrix.identity(GF, 6)


def test_kernel():
    assert kernel(FieldMatrix.identity(QQ, 3)) == []
    basis = kernel(qm([[1, 1, 1]]))
    assert len(basis) == 2
    rng = random.Random(4)
    for _ in range(10):
        m = random_matrix(GF, 4, 7, rng)
        for v in kernel(m):
            col = FieldMatrix(GF, [[e] for e in v])
            assert (m @ col).is_zero()
        assert rank(m) + len(kernel(m)) == 7


def test_det():
    assert det(qm([[2, 0], [0, 3]])) == 6
    assert det(qm([[0, 3, 3], [3, 3, 6], [3, 6, 3]])) == 54
    assert det(qm([[1, 2], [2, 4]])) == 0


@pytest.mark.parametrize("field", [QQ, GF])
def test_det_invert_rank_agree(field):
    rng = random.Random(8)
    mats = [FieldMatrix.zeros(field, 0, 0)]
    for n in range(1, 6):
        mats += [random_matrix(field, n, n, rng) for _ in range(3)]
        mats.append(FieldMatrix.zeros(field, n, n))
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
    assert pfaffian(FieldMatrix.zeros(QQ, 0, 0)) == 1
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


def test_signed_maximal_pfaffians_three_by_three():
    a, b, c = Fraction(2), Fraction(5), Fraction(11)
    m = qm([[0, a, b], [-a, 0, c], [-b, -c, 0]])
    assert signed_maximal_pfaffians(m) == [c, -b, a]
    with pytest.raises(ValueError):
        signed_maximal_pfaffians(qm([[0, 1], [-1, 0]]))


def test_signed_row_annihilates_matrix():
    rng = random.Random(6)
    for _ in range(10):
        m = random_alternating(GF, 5, rng)
        row = FieldMatrix(GF, [signed_maximal_pfaffians(m)])
        assert (row @ m).is_zero()


def test_congruence_identity():
    rng = random.Random(7)
    a = random_alternating(GF, 4, rng)
    assert congruence_pfaffian_check(a, FieldMatrix.identity(GF, 4))
    for _ in range(20):
        m = random_matrix(GF, 4, 4, rng)
        assert congruence_pfaffian_check(a, m)
    # singular alternating: both sides vanish
    sing = qm([[0, 0], [0, 0]])
    assert congruence_pfaffian_check(sing, qm([[1, 2], [3, 4]]))


def test_poly_matrix_degree_validation():
    x = Polynomial.variable(QQ, "x")
    with pytest.raises(ValueError):
        PolyMatrix(QQ, 2, [[x]])
    m = PolyMatrix(QQ, 1, [[x, Polynomial.zero(QQ, 5)]])
    assert m.entries[0][1].degree == 1  # zero entries adopt the matrix degree


def test_poly_matrix_product_degrees():
    x = Polynomial.variable(QQ, "x")
    y = Polynomial.variable(QQ, "y")
    m = PolyMatrix(QQ, 1, [[x, y]])
    mt = m.transpose()
    prod = m @ mt
    assert prod.degree == 2
    assert prod.entries[0][0] == parse_polynomial("x^2+y^2", QQ)


def specialize(p, point, field):
    total = field.zero
    for m, c in p.coeffs.items():
        total = total + c * point[0] ** m.a * point[1] ** m.b * point[2] ** m.c
    return total


def test_poly_pfaffian_matches_scalar_specialization():
    rng = random.Random(8)
    for _ in range(5):
        n = 6
        entries = [[Polynomial.zero(GF, 1)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                p = Polynomial(GF, 1, {Monomial(1, 0, 0): GF.of(rng.randrange(32003)),
                                       Monomial(0, 1, 0): GF.of(rng.randrange(32003)),
                                       Monomial(0, 0, 1): GF.of(rng.randrange(32003))})
                entries[i][j] = p
                entries[j][i] = -p
        pm = PolyMatrix(GF, 1, entries)
        pf = pfaffian(pm)
        point = [GF.of(rng.randrange(32003)) for _ in range(3)]
        scalar = FieldMatrix(GF, [[specialize(e, point, GF) for e in row]
                                  for row in pm.entries])
        assert specialize(pf, point, GF) == pfaffian(scalar)


def test_stacking_and_deletion():
    a = qm([[1, 2], [3, 4]])
    b = qm([[5], [6]])
    h = hstack(a, b)
    assert (h.rows, h.cols) == (2, 3)
    v = vstack(a, qm([[7, 8]]))
    assert (v.rows, v.cols) == (3, 2)
    g = block([[a, b], [qm([[9, 10]]), qm([[11]])]])
    assert (g.rows, g.cols) == (3, 3)
    assert g.deleted(rows=[0], cols=[2]) == qm([[3, 4], [9, 10]])
    assert g.take_cols([1, 2]).cols == 2
    with pytest.raises(ValueError):
        hstack(a, qm([[1, 2]]))


def test_matmul_promotes_scalar_matrix():
    x = Polynomial.variable(QQ, "x")
    m = PolyMatrix(QQ, 1, [[x], [x]])
    s = qm([[1, 2]])
    prod = s @ m
    assert isinstance(prod, PolyMatrix)
    assert prod.entries[0][0] == parse_polynomial("3x", QQ)
    assert (as_poly_matrix(s) @ m) == prod


def test_denominator_lcm():
    m = qm([[Fraction(1, 6), Fraction(1, 4)], [1, Fraction(2, 3)]])
    assert denominator_lcm(m) == 12
    assert denominator_lcm(FieldMatrix.identity(GF, 2)) == 1
