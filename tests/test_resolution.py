import dataclasses
import math
import random

import pytest

from apolar import (DualElement, Matrix, Monomial, Polynomial, PrimeField,
                    QQ, build_linear_presentation, build_p_r,
                    build_quadratic_presentation, contract,
                    explicit_generators, family_phi, invert, is_alternating,
                    linear_betti, monomials_of_degree, quadratic_betti,
                    random_dual_element, reduced_inverse_system, resolution,
                    resolution_report, theta_conjugation_check)
from apolar.poly import _CoeffMap

import golden_family as golden
from pairing_reference import evaluate

GF = PrimeField(32003)


@pytest.fixture(scope="module")
def n2():
    phi = family_phi(2)
    lin = build_linear_presentation(phi)
    quad = build_quadratic_presentation(lin)
    return phi, lin, quad


def test_catalecticants_n2(n2):
    phi, lin, _ = n2
    p, r = build_p_r(phi, 2)
    assert p == Matrix(QQ, golden.P_N2)
    assert r == Matrix(QQ, golden.R_N2)
    assert p == lin.p and r == lin.r
    # symmetric by construction
    assert p == p.transpose()


def test_p_entries_come_from_products(n2):
    # wiring check: entry (i, j) really is phi evaluated on x * m_i * m_j
    phi, lin, _ = n2
    mid = monomials_of_degree(1)
    x = Polynomial.variable(QQ, "x")
    for i, mi in enumerate(mid):
        for j, mj in enumerate(mid):
            prod = x * Polynomial.monomial(QQ, mi) * Polynomial.monomial(QQ, mj)
            assert evaluate(phi, prod) == lin.p.entries[i][j]


def test_catalecticants_of_zero():
    zero = DualElement.zero(QQ, 3)
    p, r = build_p_r(zero, 2)
    assert p.is_zero() and r.is_zero()
    with pytest.raises(ValueError):
        build_p_r(zero, 3)


def test_linear_blocks_n2(n2):
    _, lin, _ = n2
    assert lin.linearly_presented
    assert invert(lin.p).inverse.scaled(golden.P_INV_N2_FACTOR) == \
        Matrix(QQ, golden.P_INV_N2)
    assert lin.A_prime == Matrix(QQ, golden.A_PRIME_N2)
    assert lin.B == golden.parsed(QQ, golden.B_N2, 1)
    assert lin.D.scaled(golden.D_N2_FACTOR) == golden.parsed(QQ, golden.D_N2, 1)


def test_shapes_follow_n(seeded_rng=random.Random(20)):
    for n in (1, 2, 3, 4):
        phi = random_dual_element(GF, 2 * n - 1, seeded_rng)
        lin = build_linear_presentation(phi)
        N = math.comb(n + 1, 2)
        assert (lin.p.rows, lin.p.cols) == (N, N)
        assert (lin.r.rows, lin.r.cols) == (N, n + 1)
        if not lin.linearly_presented:
            continue
        assert (lin.A.rows, lin.A.cols) == (n, n)
        assert (lin.B.rows, lin.B.cols) == (n, n + 1)
        assert (lin.D.rows, lin.D.cols) == (n + 1, n + 1)
        assert (lin.B0.rows, lin.B0.cols) == (n + 1, n)
        assert (lin.A0.rows, lin.A0.cols) == (n, n)
        assert (lin.B1.rows, lin.B1.cols) == (n, n + 1)
        assert (lin.B2.rows, lin.B2.cols) == (n, n + 1)
        assert (lin.D0.rows, lin.D0.cols) == (n + 1, n + 1)
        assert (lin.b2.rows, lin.b2.cols) == (2 * n + 1, 2 * n + 1)
        assert (lin.b1.rows, lin.b1.cols) == (1, 2 * n + 1)
        assert lin.b2.degree == 1
        assert all(e.is_zero or e.degree == n for e in lin.b1.entries[0])


def test_b2_alternating_and_complex(n2):
    _, lin, _ = n2
    assert is_alternating(lin.b2)
    assert (lin.b1 @ lin.b2).is_zero()


def test_singular_p_reported():
    # supported on x-free duals only: every catalecticant entry phi(x*m*m') = 0
    phi = DualElement(GF, 3, {Monomial(0, a, 3 - a): GF.of(a + 1)
                              for a in range(4)})
    lin = build_linear_presentation(phi)
    assert not lin.linearly_presented
    assert lin.p_rank == 0
    assert lin.b2 is None
    with pytest.raises(ValueError):
        build_quadratic_presentation(lin)
    assert lin.generator_row is None


def explicit_row(lin):
    return explicit_generators(lin.p_inv_r, lin.p_inv_e)


def test_explicit_generators_annihilate(n2):
    phi, lin, _ = n2
    gens = explicit_row(lin).entries[0]
    assert len(gens) == 5 and all(g.degree == 2 for g in gens)
    x = Polynomial.variable(QQ, "x")
    xphi = contract(x, phi)
    for g in gens:
        assert contract(g, xphi).is_zero
    # the last n+1 (those catching the x-free monomials) annihilate phi itself
    for g in gens[2:]:
        assert contract(g, phi).is_zero
    # ... and are x-corrections of y^2, yz, z^2
    for g, m in zip(gens[2:], monomials_of_degree(2, x_free=True)):
        assert g.coefficient(m) == 1


def test_explicit_row_proportional_to_pfaffian_row(n2):
    phi, lin, _ = n2
    assert explicit_row(lin) == \
        lin.b1.scaled(golden.UNIT_EXPLICIT_VS_PFAFFIAN[2])


def test_reduced_inverse_system(n2):
    phi, _, _ = n2
    tilde = reduced_inverse_system(phi)
    assert all(m.a > 0 for m in tilde.coeffs)
    x = Polynomial.variable(QQ, "x")
    assert contract(x, tilde) == contract(x, phi)
    # nothing x-free to drop: unchanged
    assert reduced_inverse_system(tilde) == tilde
    only_xfree = DualElement.dual_monomial(QQ, Monomial(0, 2, 1))
    assert reduced_inverse_system(only_xfree).is_zero


def thetas(lin):
    """Theta1 = [[I, -T], [0, I]] and Theta2 = [[I, 0], [T^T, I]] from the
    boxed entries of T, the last n rows of r."""
    n, fld = lin.n, lin.field
    T = lin.r.entries[lin.r.rows - n:]
    m = 2 * n + 1

    def one(i, j):
        return fld.one if i == j else fld.zero
    theta1 = [[-T[i][j - n] if i < n <= j else one(i, j) for j in range(m)]
              for i in range(m)]
    theta2 = [[T[j][i - n] if j < n <= i else one(i, j) for j in range(m)]
              for i in range(m)]
    return Matrix(fld, theta1), Matrix(fld, theta2)


def with_t_doubled(lin):
    """lin with the last n rows of r, the block T of Theta, doubled."""
    r = lin.r
    rows = [[e + e for e in row] if i >= r.rows - lin.n else row
            for i, row in enumerate(r.entries)]
    return dataclasses.replace(lin, r=Matrix(lin.field, rows, r.cols))


def test_theta_identity_when_reduction_is_trivial():
    rng = random.Random(21)
    phi = random_dual_element(GF, 3, rng)
    tilde = reduced_inverse_system(phi)
    lin = build_linear_presentation(tilde)
    assert lin.linearly_presented
    # rho = 0 for a reduced system: T, the last n rows of r, is zero
    theta1, theta2 = thetas(lin)
    identity = Matrix(GF, [[int(i == j) for j in range(5)] for i in range(5)])
    assert theta1 == theta2 == identity
    assert theta_conjugation_check(lin, lin, tilde)


def test_theta_conjugation_family(n2):
    phi, lin, _ = n2
    lin_tilde = build_linear_presentation(reduced_inverse_system(phi))
    assert theta_conjugation_check(lin, lin_tilde, phi)


def test_theta_conjugation_random():
    rng = random.Random(22)
    checked = 0
    for n in (2, 3):
        while checked < 10 * (n - 1):
            phi = random_dual_element(GF, 2 * n - 1, rng)
            lin = build_linear_presentation(phi)
            if not lin.linearly_presented:
                continue
            lin_tilde = build_linear_presentation(reduced_inverse_system(phi))
            assert theta_conjugation_check(lin, lin_tilde, phi)
            checked += 1


def test_theta_conjugation_rejects_mismatched_inputs(n2):
    phi, lin, _ = n2
    rng = random.Random(23)
    other = build_linear_presentation(random_dual_element(GF, 3, rng))
    with pytest.raises(ValueError):
        theta_conjugation_check(lin, other, phi)


def test_theta_conjugation_fails_on_a_changed_b2_or_row(n2):
    # one entry of b2~ changed fails Theta1 b2 = b2~ Theta2; the row of phi~
    # doubled passes it and fails the row comparison
    phi, lin, _ = n2
    lin_tilde = build_linear_presentation(reduced_inverse_system(phi))
    entries = lin_tilde.b2.entries
    entries[0][1] = entries[0][1] + Polynomial.variable(QQ, "x")
    changed = Matrix(QQ, entries, degree=1)
    assert changed != lin_tilde.b2
    assert not theta_conjugation_check(
        lin, dataclasses.replace(lin_tilde, b2=changed), phi)
    theta1, theta2 = thetas(lin)
    assert theta1 @ lin.b2 == lin_tilde.b2 @ theta2
    assert not theta_conjugation_check(
        lin, dataclasses.replace(
            lin_tilde, generator_row=lin_tilde.generator_row.scaled(2)), phi)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), GF], ids=str)
def test_theta_conjugation_fails_on_a_wrong_t(field):
    """T doubled in r after b2 is built: Theta no longer conjugates."""
    rng = random.Random(24)
    checked = 0
    while checked < 3:
        phi = random_dual_element(field, 3, rng)
        lin = build_linear_presentation(phi)
        if not lin.linearly_presented:
            continue
        T = lin.r._select(range(1, 3), range(3))
        if T.is_zero():
            continue
        lin_tilde = build_linear_presentation(reduced_inverse_system(phi))
        assert theta_conjugation_check(lin, lin_tilde, phi)
        assert not theta_conjugation_check(with_t_doubled(lin), lin_tilde, phi)
        checked += 1


def test_theta_conjugation_refuses_a_singular_p():
    phi = DualElement(GF, 3, {Monomial(0, a, 3 - a): GF.of(a + 1)
                              for a in range(4)})
    lin = build_linear_presentation(phi)
    lin_tilde = build_linear_presentation(reduced_inverse_system(phi))
    assert not (lin.linearly_presented or lin_tilde.linearly_presented)
    with pytest.raises(ValueError,
                       match="both presentations must have invertible p"):
        theta_conjugation_check(lin, lin_tilde, phi)


def test_quadratic_n2(n2):
    _, lin, quad = n2
    assert quad.quadratically_presented
    assert is_alternating(quad.c2)
    assert quad.c2.degree == 2
    assert quad.c2.scaled(golden.C2_N2_FACTOR) == \
        golden.parsed(QQ, golden.C2_N2, 2)
    assert (quad.c1 @ quad.c2).is_zero()
    assert quad.a_prime_pfaffian == 6
    assert lin.b1.take_cols(range(2, 5)) == \
        quad.c1.scaled(quad.a_prime_pfaffian)


def test_generators_are_the_explicit_row(n2, monkeypatch):
    phi, lin, quad = n2
    assert lin.generator_row == explicit_row(lin)
    assert quad.generators == lin.generator_row.take_cols(range(2, 5))
    # built once, by the assembly; the quadratic path and the report reuse it
    calls = []
    original = resolution.explicit_generators

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(resolution, "explicit_generators", spy)
    again = build_linear_presentation(phi)
    resolution_report(again, build_quadratic_presentation(again))
    assert len(calls) == 1
    assert again.generator_row == lin.generator_row


@pytest.mark.parametrize("phi", [
    pytest.param(family_phi(4), id="family-4"),
    pytest.param(random_dual_element(GF, 7, random.Random(4)), id="gf-4")])
def test_presentations_and_report_box_no_polynomial(phi, monkeypatch):
    """Every Polynomial that a matrix boxes goes through
    ``Polynomial._trusted``, and every other one through
    ``_CoeffMap.__init__``; the blocks of b2, the Pfaffian rows, the
    explicit row, the factorization b1[n:] = Pf(A') c1 and the report
    all work on slices, so building both presentations and the report
    calls neither for a Polynomial."""
    boxed, constructed = [], []
    original, init = Polynomial._trusted, _CoeffMap.__init__

    def counting(cls, *args):
        boxed.append(args)
        return original(*args)

    def counting_init(self, *args):
        constructed.append(type(self))
        init(self, *args)

    monkeypatch.setattr(Polynomial, "_trusted", classmethod(counting))
    monkeypatch.setattr(_CoeffMap, "__init__", counting_init)
    lin = build_linear_presentation(phi)
    quad = build_quadratic_presentation(lin)
    assert quad.quadratically_presented
    n = lin.n
    assert lin.b1.take_cols(range(n, 2 * n + 1)) == \
        quad.c1.scaled(quad.a_prime_pfaffian)
    resolution_report(lin, quad)
    assert boxed == []
    assert constructed.count(Polynomial) == 0
    # a read boxes each entry once, so the count above would see it
    assert len(lin.b1.entries[0]) == len(boxed) == lin.b1.cols


@pytest.mark.parametrize("phi", [
    pytest.param(family_phi(2), id="family-2"),
    pytest.param(random_dual_element(GF, 7, random.Random(4)), id="gf-4")])
def test_quadratic_path_refuses_an_unproven_b1(phi):
    """c1 is read off b1, so without a proven b1 there is no c1."""
    assert build_quadratic_presentation(
        build_linear_presentation(phi)).quadratically_presented
    bare = build_linear_presentation(phi, with_pfaffian_row=False)
    with pytest.raises(ValueError, match="not proven"):
        build_quadratic_presentation(bare)


def test_theta_conjugation_needs_the_phi_of_its_presentation(n2):
    phi, lin, _ = n2
    tilde = reduced_inverse_system(phi)
    lin_tilde = build_linear_presentation(tilde, with_pfaffian_row=False)
    assert theta_conjugation_check(lin, lin_tilde, phi)
    with pytest.raises(ValueError):
        theta_conjugation_check(lin, lin_tilde, tilde)
    with pytest.raises(ValueError):
        theta_conjugation_check(lin, lin, phi)


def test_quadratic_refuses_odd_n():
    rng = random.Random(24)
    while True:
        phi = random_dual_element(GF, 5, rng)  # n = 3
        lin = build_linear_presentation(phi)
        if lin.linearly_presented:
            break
    quad = build_quadratic_presentation(lin)
    assert not quad.quadratically_presented
    assert "odd" in quad.note
    assert quad.c2 is None


def test_quadratic_reports_singular_a_prime(n2):
    _, lin, _ = n2
    doctored = dataclasses.replace(lin, A_prime=Matrix(QQ, [[0, 0], [0, 0]]))
    quad = build_quadratic_presentation(doctored)
    assert not quad.quadratically_presented
    assert quad.a_prime_rank == 0
    assert "singular" in quad.note
    assert quad.c2 is None


def test_corrupted_c2_breaks_the_complex(n2):
    _, _, quad = n2
    bad = [row[:] for row in quad.c2.entries]
    bad[0][1] = bad[0][1] + Polynomial.monomial(QQ, Monomial(2, 0, 0))
    bad[1][0] = -bad[0][1]
    corrupted = Matrix(QQ, bad, degree=2)
    assert not (quad.c1 @ corrupted).is_zero()


def test_betti_shapes():
    assert linear_betti(2) == [[0, 1], [2, 5], [3, 5], [5, 1]]
    assert quadratic_betti(2) == [[0, 1], [2, 3], [4, 3], [6, 1]]


def test_resolution_report_round_trip(n2):
    _, lin, quad = n2
    report = resolution_report(lin, quad)
    assert report["linearly_presented"] and report["quadratically_presented"]
    assert report["betti"]["quadratic"] == quadratic_betti(2)
    assert report["units"]["a_prime_pfaffian"] == "6"
    # serialized blocks parse back to the originals
    assert golden.parsed(QQ, report["blocks"]["p"]) == lin.p
    assert golden.parsed(QQ, report["blocks"]["c2"], 2) == quad.c2
    assert golden.parsed(QQ, report["blocks"]["b2"], 1) == lin.b2


def test_report_on_singular_p():
    phi = DualElement(GF, 3, {Monomial(0, 3, 0): GF.one})
    lin = build_linear_presentation(phi)
    report = resolution_report(lin)
    assert report["linearly_presented"] is False
    assert report["p_rank"] == 0
    assert "b2" not in report["blocks"]
