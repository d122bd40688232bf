"""Acceptance suite.

Each test prints one pass/fail line (run pytest with -s to see them all) and
asserts exact equality everywhere; there are no tolerances anywhere in this
package.  Criteria 1-3 are bit-exact reproductions of the pinned golden
matrices for the colon-ideal family at n = 2, 4, 6 with runtime caps;
criteria 4-8 are oracle certifications and randomized property suites.
"""

import dataclasses
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from apolar import (DualElement, LinearPresentation, Matrix, Monomial,
                    Polynomial, PrimeField, QQ, annihilator_degree,
                    build_linear_presentation, build_p_r,
                    build_quadratic_presentation, contract, det,
                    explicit_generators, family_phi, ideal_equality_check,
                    invert, is_alternating, pfaffian, random_dual_element,
                    reduced_inverse_system, reduced_presentation,
                    summarize_ideal, theta_conjugation_check, wlp_test)

import golden_family as golden
from pfaffian_reference import congruence_pfaffian_check
from theta_reference import theta_conjugation_reference

GF = PrimeField(32003)


def assert_conjugate_to_its_reduction(phi, lin):
    """The conjugation check on lin; the reduction it reads equal, block by
    block, to the presentation built independently from the reduced phi;
    and the full-product reference on lin and that presentation."""
    assert theta_conjugation_check(lin)
    reduced = reduced_presentation(lin)
    rebuilt = build_linear_presentation(reduced_inverse_system(phi))
    for f in dataclasses.fields(LinearPresentation):
        if f.name != "b1":  # the reduction is built without it
            assert getattr(reduced, f.name) == getattr(rebuilt, f.name), f.name
    assert theta_conjugation_reference(lin, rebuilt)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {desc}")
        raise
    print(f"[criterion {num}] PASS: {desc}")


def build_family(n):
    phi = family_phi(n)
    lin = build_linear_presentation(phi)
    quad = build_quadratic_presentation(lin)
    return phi, lin, quad


@pytest.fixture(scope="module")
def family2():
    return build_family(2)


@pytest.fixture(scope="module")
def family4():
    return build_family(4)


@pytest.fixture(scope="module")
def family6():
    return build_family(6)


def test_criterion_1_golden_n2():
    with criterion(1, "n=2 golden matrices, exact over Q, < 1 s"):
        t0 = time.perf_counter()
        phi, lin, quad = build_family(2)
        p, r = build_p_r(phi, 2)
        elapsed = time.perf_counter() - t0
        assert p == Matrix(QQ, golden.P_N2)
        assert r == Matrix(QQ, golden.R_N2)
        assert lin.p == p and lin.r == r
        assert invert(lin.p).inverse.scaled(golden.P_INV_N2_FACTOR) == \
            Matrix(QQ, golden.P_INV_N2)
        assert lin.A_prime == Matrix(QQ, golden.A_PRIME_N2)
        assert lin.B == golden.parsed(QQ, golden.B_N2, 1)
        assert lin.D.scaled(golden.D_N2_FACTOR) == \
            golden.parsed(QQ, golden.D_N2, 1)
        assert quad.c2.scaled(golden.C2_N2_FACTOR) == \
            golden.parsed(QQ, golden.C2_N2, 2)
        assert elapsed < 1.0, f"n=2 pipeline took {elapsed:.2f} s"


def test_criterion_2_golden_n4():
    with criterion(2, "n=4 golden matrices, exact over Q, < 5 s"):
        t0 = time.perf_counter()
        phi, lin, quad = build_family(4)
        elapsed = time.perf_counter() - t0
        assert lin.p == Matrix(QQ, golden.P_N4)
        assert invert(lin.p).inverse.scaled(golden.P_INV_N4_FACTOR) == \
            Matrix(QQ, golden.P_INV_N4)
        assert lin.r == Matrix(QQ, golden.R_N4)
        assert lin.A_prime.scaled(golden.A_PRIME_N4_FACTOR) == \
            Matrix(QQ, golden.A_PRIME_N4)
        assert lin.B.scaled(golden.B_N4_FACTOR) == \
            golden.parsed(QQ, golden.B_N4, 1)
        assert lin.D.scaled(golden.D_N4_FACTOR) == \
            golden.parsed(QQ, golden.D_N4, 1)
        assert quad.c2.scaled(golden.C2_N4_FACTOR) == \
            golden.parsed(QQ, golden.C2_N4, 2)
        assert elapsed < 5.0, f"n=4 pipeline took {elapsed:.2f} s"


def test_criterion_3_golden_n6():
    with criterion(3, "n=6 c2 golden + structural verify pass, < 60 s"):
        t0 = time.perf_counter()
        phi, lin, quad = build_family(6)
        assert quad.c2.scaled(golden.C2_N6_FACTOR) == \
            golden.parsed(QQ, golden.C2_N6, 2)
        # the verify-pass work, dominated by the 13x13 Pfaffian minors of b2
        assert is_alternating(lin.b2)
        assert (lin.b1 @ lin.b2).is_zero()
        assert is_alternating(quad.c2)
        assert (quad.c1 @ quad.c2).is_zero()
        assert explicit_generators(lin.p_inv_r, lin.p_inv_e) == \
            lin.b1.scaled(golden.UNIT_EXPLICIT_VS_PFAFFIAN[6])
        assert lin.b1.take_cols(range(6, 13)) == \
            quad.c1.scaled(quad.a_prime_pfaffian)
        assert_conjugate_to_its_reduction(phi, lin)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"n=6 pipeline took {elapsed:.2f} s"


def test_criterion_4_ideal_certification(family2, family4, family6):
    with criterion(4, "Pfaffian generators of c2 generate ann(phi) through "
                      "degree 2n for n = 2, 4, 6"):
        for phi, lin, quad in (family2, family4, family6):
            n = lin.n
            gens = quad.c1.entries[0]
            verdicts = ideal_equality_check(gens, phi, max_degree=2 * n)
            assert len(verdicts) == 2 * n + 1
            assert all(v.equal for v in verdicts), \
                [f"degree {v.degree}: span {v.dim_span} vs ann {v.dim_annihilator}"
                 for v in verdicts if not v.equal]


def test_criterion_5_betti_hilbert_shapes(family2, family4, family6):
    with criterion(5, "socle degree, Hilbert symmetry and generator counts "
                      "match the two resolution shapes for n = 2, 4, 6"):
        for phi, lin, quad in (family2, family4, family6):
            n = lin.n
            s = summarize_ideal(phi)
            assert s.socle_degree == 2 * n - 1
            assert s.gorenstein_symmetric
            assert all(s.generator_counts[d] == 0 for d in range(n))
            assert s.generator_counts[n] == n + 1
            assert all(g == 0 for g in s.generator_counts[n + 1:])
            xphi = contract(Polynomial.variable(QQ, "x"), phi)
            sx = summarize_ideal(xphi)
            assert sx.socle_degree == 2 * n - 2
            assert sx.gorenstein_symmetric
            assert all(sx.generator_counts[d] == 0 for d in range(n))
            assert sx.generator_counts[n] == 2 * n + 1


def test_criterion_6_randomized_property_suite():
    with criterion(6, ">= 100 random GF(32003) instances across n in "
                      "{2,3,4,5}: structural invariants whenever p (and A') "
                      "are invertible; singular A' whenever n is odd"):
        rng = random.Random(320032003)
        counts = {2: 30, 3: 30, 4: 30, 5: 16}
        presented = 0
        for n, how_many in counts.items():
            for _ in range(how_many):
                phi = random_dual_element(GF, 2 * n - 1, rng)
                lin = build_linear_presentation(phi)
                if not lin.linearly_presented:
                    continue
                presented += 1
                assert is_alternating(lin.b2)
                assert lin.b2.degree == 1
                assert all(e.is_zero or e.degree == 1
                           for row in lin.b2.entries for e in row)
                assert (lin.b1 @ lin.b2).is_zero()
                eps = (-1) ** (n * (n - 1) // 2)
                assert explicit_generators(lin.p_inv_r, lin.p_inv_e) == \
                    lin.b1.scaled(eps)
                assert_conjugate_to_its_reduction(phi, lin)
                if n % 2 == 1:
                    assert pfaffian(lin.A_prime) == GF.zero
                    assert det(lin.A_prime) == GF.zero
                    quad = build_quadratic_presentation(lin)
                    assert not quad.quadratically_presented
                else:
                    quad = build_quadratic_presentation(lin)
                    if quad.quadratically_presented:
                        assert is_alternating(quad.c2)
                        assert quad.c2.degree == 2
                        assert all(e.is_zero or e.degree == 2
                                   for row in quad.c2.entries for e in row)
                        assert (quad.c1 @ quad.c2).is_zero()
                        assert lin.b1.take_cols(range(n, 2 * n + 1)) == \
                            quad.c1.scaled(quad.a_prime_pfaffian)
        assert presented >= 100, f"only {presented} instances had invertible p"


def random_alternating(field, n, rng):
    m = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = field.of(rng.randrange(field.p)) if hasattr(field, "p") \
                else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            m[i][j] = v
            m[j][i] = -v
    return Matrix(field, m)


def random_square(field, n, rng):
    if hasattr(field, "p"):
        return Matrix(field, [[field.of(rng.randrange(field.p))
                                    for _ in range(n)] for _ in range(n)])
    return Matrix(field, [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                for _ in range(n)] for _ in range(n)])


def test_criterion_7_pfaffian_kernel():
    with criterion(7, "Pf^2 = det on >= 200 random alternating matrices "
                      "(sizes 2-12, both fields), b1 . b2 = 0 and "
                      "c1 . c2 = 0 on random inputs over Q, GF(3) and GF(7), "
                      "congruence identity on >= 100 trials"):
        rng = random.Random(77)
        trials = 0
        for size in range(2, 13):
            for field in (QQ, GF):
                for _ in range(10):
                    m = random_alternating(field, size, rng)
                    assert pfaffian(m) ** 2 == det(m)
                    trials += 1
        assert trials >= 200
        rows = 0
        for field in (QQ, PrimeField(3), PrimeField(7)):
            for n in (2, 3, 4):
                lin = build_linear_presentation(
                    random_dual_element(field, 2 * n - 1, rng))
                if not lin.linearly_presented:
                    continue
                assert (lin.b1 @ lin.b2).is_zero()
                quad = build_quadratic_presentation(lin)
                if quad.quadratically_presented:
                    assert (quad.c1 @ quad.c2).is_zero()
                rows += 1 + quad.quadratically_presented
        assert rows >= 10
        congruence_trials = 0
        for field, size, reps in ((GF, 4, 40), (GF, 6, 40), (QQ, 4, 20)):
            for _ in range(reps):
                a = random_alternating(field, size, rng)
                m = random_square(field, size, rng)
                assert congruence_pfaffian_check(a, m)
                congruence_trials += 1
        assert congruence_trials >= 100


def test_criterion_8_weak_lefschetz(family2, family4, family6):
    with criterion(8, "x passes the Lefschetz determinant test with M = p "
                      "for n = 2, 4, 6; an x-free inverse system fails it"):
        for phi, lin, _ in (family2, family4, family6):
            report = wlp_test(phi, Polynomial.variable(QQ, "x"))
            assert report.verdict
            assert report.matrix == lin.p
        counterexample = DualElement.dual_monomial(QQ, Monomial(0, 2, 1))
        report = wlp_test(counterexample, Polynomial.variable(QQ, "x"))
        assert not report.verdict
