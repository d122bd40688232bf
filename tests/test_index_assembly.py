"""The presentation blocks written by index equal the block algebra, and
those from one solve equal those from the inverse.

``resolution._assemble`` and ``explicit_generators`` write every block by
index into the int rows of r^T p^{-1} r and of p^{-1} [r | E], E the last
n columns of I, which ``verify`` takes from one solve and ``resolve`` reads
off p^{-1}.  The reference here builds the same blocks from p^{-1} by
``Matrix`` operations and boxed entries: selection, transpose, negation,
subtraction, and a grid of blocks joined entry by entry (``block``, a test
helper: the package stacks nothing).  All must give the same canonical
matrices (L and slices), for phi and for its reduction, over Q and over
small and large prime fields, at n = 1 and wherever r^T p^{-1} r or r is
zero."""

import random

import pytest

from apolar import (DualElement, Matrix, Monomial, PrimeField, QQ,
                    build_linear_presentation, family_phi, invert,
                    random_dual_element, reduced_presentation)
from apolar.poly import ONE, X, Y, Z, monomials_of_degree

FIELDS = (QQ, PrimeField(3), PrimeField(32003), PrimeField(2 ** 61 - 1))


def block(grid):
    """The matrix of a grid of blocks of one field and degree, joined entry
    by entry."""
    first = grid[0][0]
    rows = [sum((m.entries[i] for m in row), []) for row in grid
            for i in range(row[0].rows)]
    return Matrix(first.field, rows, sum(m.cols for m in grid[0]),
                  first.degree)


def zeros(fld, rows, cols):
    return Matrix(fld, [[0] * cols for _ in range(rows)], cols)


def eye(fld, n):
    return Matrix(fld, [[int(i == j) for j in range(n)] for i in range(n)], n)


def reference_blocks(fld, n, p, r, p_inv):
    """Every block of the linear presentation by the block algebra."""
    N = p.rows
    rtp = r.transpose() @ p_inv
    rtpr = rtp @ r
    A0 = rtpr._select(range(n), range(1, n + 1))
    A_prime = A0 - A0.transpose()
    B0 = rtp.take_cols(range(N - n, N))
    zero_col = zeros(fld, n, 1)
    B1 = (block([[zero_col, B0._select(range(n), range(n))]])
          - block([[B0._select(range(1, n + 1), range(n)), zero_col]]))
    corner = p_inv._select(range(N - n, N), range(N - n, N))
    D0 = block([[zeros(fld, n, 1), corner], [zeros(fld, 1, n + 1)]])
    A = A_prime.times_monomial(X)
    B2 = (block([[eye(fld, n), zero_col]]).times_monomial(Z)
          - block([[zero_col, eye(fld, n)]]).times_monomial(Y))
    B = B1.times_monomial(X) + B2
    D = (D0 - D0.transpose()).times_monomial(X)
    b2 = block([[A, B], [-B.transpose(), D]])
    images = block([[p_inv.take_cols(range(N - n, N)), -rtp.transpose()],
                    [zeros(fld, n + 1, n), eye(fld, n + 1)]])
    monos = ([X * m for m in monomials_of_degree(n - 1)]
             + monomials_of_degree(n, x_free=True))
    row = Matrix._from_slices(fld, n, 1, 2 * n + 1, images.L, {
        u: [c] for u, c in zip(monos, images.slices.get(ONE, [])) if any(c)})
    return {"A0": A0, "A_prime": A_prime, "B0": B0, "B1": B1, "B2": B2,
            "D0": D0, "A": A, "B": B, "D": D, "b2": b2,
            "generator_row": row}


def assert_blocks_match(lin):
    expected = reference_blocks(lin.field, lin.n, lin.p, lin.r,
                                invert(lin.p).inverse)
    for name, ref in expected.items():
        got = getattr(lin, name)
        assert (got.degree, got.rows, got.cols, got.L, got.slices) == (
            ref.degree, ref.rows, ref.cols, ref.L, ref.slices), name
        assert got.to_strings() == ref.to_strings(), name


def phi_of(fld, degree, coeffs):
    return DualElement(fld, degree, {Monomial(*m): fld.of(c)
                                     for m, c in coeffs.items()})


# phi with r = 0 (n = 1, phi = x*) or with r^T p^{-1} r = 0 and r != 0
SPARSE = [
    (QQ, 1, {(1, 0, 0): 1}),
    (PrimeField(3), 1, {(1, 0, 0): 2}),
    (QQ, 3, {(3, 0, 0): 2, (2, 0, 1): 2, (1, 2, 0): 2}),
    (QQ, 5, {(3, 0, 2): 1, (2, 2, 1): 2, (1, 4, 0): 1}),
    (PrimeField(3), 3, {(2, 1, 0): 2, (1, 0, 2): 2}),
    (PrimeField(32003), 5, {(3, 1, 1): 1, (2, 2, 1): -1, (2, 1, 2): -1}),
    (PrimeField(2 ** 61 - 1), 3, {(3, 0, 0): 2, (2, 0, 1): 2, (1, 2, 0): 2}),
]


@pytest.mark.parametrize("fld,degree,coeffs", SPARSE,
                         ids=[f"{f.tag}-{d}-{i}" for i, (f, d, _)
                              in enumerate(SPARSE)])
def test_zero_products_keep_their_shapes(fld, degree, coeffs):
    lin = build_linear_presentation(phi_of(fld, degree, coeffs))
    assert lin.linearly_presented
    assert (lin.r.transpose() @ invert(lin.p).inverse @ lin.r).is_zero()
    assert lin.r.is_zero() == (degree == 1)
    assert_blocks_match(lin)
    assert_blocks_match(reduced_presentation(lin))


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.tag)
@pytest.mark.parametrize("n", range(1, 7))
def test_index_blocks_equal_the_block_algebra(fld, n):
    seen = 0
    for seed in range(4):
        phi = random_dual_element(fld, 2 * n - 1, random.Random(seed))
        lin = build_linear_presentation(phi)
        if not lin.linearly_presented:
            continue
        seen += 1
        assert_blocks_match(lin)
        assert_blocks_match(reduced_presentation(lin))
    assert seen


@pytest.mark.parametrize("n", range(1, 7))
def test_index_blocks_of_the_family(n):
    lin = build_linear_presentation(family_phi(n))
    assert_blocks_match(lin)
    assert_blocks_match(reduced_presentation(lin))


SOLVED = ("A0", "A_prime", "B0", "B1", "B2", "D0", "A", "B", "D", "b2", "b1",
          "generator_row", "p_inv_r", "p_inv_e")


def assert_solve_equals_inverse(phi):
    """The presentation and its reduction from one solve, as ``verify``
    builds them, equal those read off p^{-1}, as ``resolve`` builds them;
    only the latter keeps p^{-1}."""
    lin = build_linear_presentation(phi)
    ref = build_linear_presentation(phi, with_inverse=True)
    assert lin.linearly_presented and ref.linearly_presented
    assert lin.p_inv is None and ref.p_inv == invert(lin.p).inverse
    for name in SOLVED:
        assert getattr(lin, name) == getattr(ref, name), name
    tilde, ref_tilde = reduced_presentation(lin), reduced_presentation(ref)
    for name in SOLVED + ("r",):
        assert getattr(tilde, name) == getattr(ref_tilde, name), name


@pytest.mark.parametrize("fld,degree,coeffs", SPARSE,
                         ids=[f"{f.tag}-{d}-{i}" for i, (f, d, _)
                              in enumerate(SPARSE)])
def test_the_solve_equals_the_inverse_on_zero_products(fld, degree, coeffs):
    assert_solve_equals_inverse(phi_of(fld, degree, coeffs))


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.tag)
@pytest.mark.parametrize("n", range(1, 7))
def test_the_solve_equals_the_inverse(fld, n):
    seen = 0
    for seed in range(4):
        phi = random_dual_element(fld, 2 * n - 1, random.Random(seed))
        if build_linear_presentation(phi).linearly_presented:
            seen += 1
            assert_solve_equals_inverse(phi)
    if fld is QQ:
        seen += 1
        assert_solve_equals_inverse(family_phi(n))
    assert seen
