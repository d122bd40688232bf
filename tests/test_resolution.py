import dataclasses
import math
import random

import pytest

from apolar import (DualElement, FieldMatrix, Monomial, PolyMatrix, Polynomial,
                    PrimeField, ProportionalityError, QQ, build_linear_presentation,
                    build_p_r, build_quadratic_presentation,
                    claim_factorization_check, contract, explicit_generators,
                    family_phi, is_alternating, linear_betti,
                    monomials_of_degree, proportionality_unit, quadratic_betti,
                    random_dual_element, reduced_inverse_system,
                    resolution_report, theta_conjugation_check, theta_matrices)

import golden_family as golden

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
    assert p == FieldMatrix(QQ, golden.P_N2)
    assert r == FieldMatrix(QQ, golden.R_N2)
    assert p == lin.p and r == lin.r
    # symmetric by construction
    assert p == p.transpose()


def test_p_entries_come_from_products(n2):
    # wiring check: entry (i, j) really is phi evaluated on x * m_i * m_j
    from apolar import Basis, SYM_U, evaluate
    phi, lin, _ = n2
    mid = Basis(SYM_U, 1)
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
    assert lin.p_inv.scaled(golden.P_INV_N2_FACTOR) == FieldMatrix(QQ, golden.P_INV_N2)
    assert lin.A_prime == FieldMatrix(QQ, golden.A_PRIME_N2)
    assert lin.B == PolyMatrix.from_strings(QQ, 1, golden.B_N2)
    assert lin.D.scaled(golden.D_N2_FACTOR) == PolyMatrix.from_strings(QQ, 1, golden.D_N2)


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
    with pytest.raises(ValueError):
        explicit_generators(phi)


def test_explicit_generators_annihilate(n2):
    phi, lin, _ = n2
    gens = explicit_generators(phi, lin.p_inv)
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
    gens = explicit_generators(phi, lin.p_inv)
    unit = proportionality_unit(gens, lin.b1.entries[0])
    assert unit == golden.UNIT_EXPLICIT_VS_PFAFFIAN[2]


def test_proportionality_unit_detects_mismatch():
    x = Polynomial.variable(QQ, "x")
    y = Polynomial.variable(QQ, "y")
    assert proportionality_unit([x.scaled(3), y.scaled(3)], [x, y]) == 3
    with pytest.raises(ProportionalityError):
        proportionality_unit([x.scaled(3), y.scaled(2)], [x, y])
    with pytest.raises(ProportionalityError):
        proportionality_unit([x], [Polynomial.zero(QQ, 1)])


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


def test_theta_identity_when_reduction_is_trivial():
    rng = random.Random(21)
    phi = random_dual_element(GF, 3, rng)
    tilde = reduced_inverse_system(phi)
    theta1, theta2 = theta_matrices(tilde)  # rho = 0 for a reduced system
    assert theta1 == FieldMatrix.identity(GF, 5)
    assert theta2 == FieldMatrix.identity(GF, 5)
    lin = build_linear_presentation(tilde)
    if lin.linearly_presented:
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


def test_quadratic_n2(n2):
    _, lin, quad = n2
    assert quad.quadratically_presented
    assert is_alternating(quad.c2)
    assert quad.c2.degree == 2
    assert quad.c2.scaled(golden.C2_N2_FACTOR) == \
        PolyMatrix.from_strings(QQ, 2, golden.C2_N2)
    assert (quad.c1 @ quad.c2).is_zero()
    assert quad.a_prime_pfaffian == 6
    assert claim_factorization_check(lin, quad)


def test_generators_are_the_explicit_row(n2):
    phi, lin, _ = n2
    assert lin.generators == explicit_generators(phi, lin.p_inv)
    assert lin.generators is lin.generators


def test_claim_factorization_catches_scaled_c1(n2):
    phi, lin, quad = n2
    assert not claim_factorization_check(
        lin, dataclasses.replace(quad, c1=quad.c1.scaled(2)))
    bare = build_linear_presentation(phi, with_pfaffian_row=False)
    with pytest.raises(ValueError):
        claim_factorization_check(bare, quad)


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
    import dataclasses
    _, lin, _ = n2
    doctored = dataclasses.replace(lin, A_prime=FieldMatrix.zeros(QQ, 2, 2))
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
    corrupted = PolyMatrix(QQ, 2, bad)
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
    assert FieldMatrix.from_strings(QQ, report["blocks"]["p"]) == lin.p
    assert PolyMatrix.from_strings(QQ, 2, report["blocks"]["c2"]) == quad.c2
    assert PolyMatrix.from_strings(QQ, 1, report["blocks"]["b2"]) == lin.b2


def test_report_on_singular_p():
    phi = DualElement(GF, 3, {Monomial(0, 3, 0): GF.one})
    lin = build_linear_presentation(phi)
    report = resolution_report(lin)
    assert report["linearly_presented"] is False
    assert report["p_rank"] == 0
    assert "b2" not in report["blocks"]
