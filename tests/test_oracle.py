import math
import random

import pytest

from apolar import (DualElement, Monomial, Polynomial, PrimeField, QQ,
                    annihilator_degree, build_p_r, contract, family_phi,
                    ideal_equality_check, monomials_of_degree,
                    random_dual_element, summarize_ideal, wlp_test)

import golden_family as golden

GF = PrimeField(32003)


def multinomial(n: int, a: int, b: int, c: int) -> int:
    """n! / (a! b! c!); requires a + b + c = n."""
    if min(a, b, c) < 0 or a + b + c != n:
        raise ValueError(f"multinomial needs a+b+c = n, got ({a},{b},{c}) for n={n}")
    return math.comb(n, a) * math.comb(n - a, b)


def test_multinomial():
    assert multinomial(3, 1, 1, 1) == 6
    assert multinomial(3, 2, 1, 0) == 3
    with pytest.raises(ValueError):
        multinomial(3, 2, 2, 0)


@pytest.fixture(scope="module")
def phi2():
    return family_phi(2)


def test_annihilator_trivial_degrees(phi2):
    assert annihilator_degree(phi2, 0) == []
    top = annihilator_degree(phi2, 4)
    assert len(top) == math.comb(6, 2)


def test_annihilator_degree_two_regression(phi2):
    ker = annihilator_degree(phi2, 2)
    assert len(ker) == golden.ANNIHILATOR_DIM_N2_D2
    for f in ker:
        assert contract(f, phi2).is_zero


def test_annihilator_containment_random():
    rng = random.Random(30)
    phi = DualElement(GF, 4, {m: GF.of(rng.randrange(32003))
                              for m in monomials_of_degree(4)})
    for d in range(5):
        for f in annihilator_degree(phi, d):
            assert contract(f, phi).is_zero


def test_summary_of_monomial_dual():
    # ann((z^3)*) = (x, y, z^4)
    phi = DualElement.dual_monomial(QQ, Monomial(0, 0, 3))
    s = summarize_ideal(phi)
    assert s.socle_degree == 3
    assert s.hilbert_function == [1, 1, 1, 1]
    assert s.generator_counts == [0, 2, 0, 0, 1]
    assert s.gorenstein_symmetric


def test_summary_rejects_zero():
    with pytest.raises(ValueError):
        summarize_ideal(DualElement.zero(QQ, 3))


def test_summary_family_n2(phi2):
    s = summarize_ideal(phi2)
    assert s.socle_degree == 3
    assert s.hilbert_function == golden.HILBERT_N2
    assert s.generator_counts == [0, 0, 3, 0, 0]
    assert s.gorenstein_symmetric


def test_summary_family_n4():
    s = summarize_ideal(family_phi(4))
    assert s.hilbert_function == golden.HILBERT_N4
    assert s.generator_counts[4] == 5
    assert all(g == 0 for d, g in enumerate(s.generator_counts) if d != 4)
    assert s.gorenstein_symmetric


def test_summary_contracted_family_n2(phi2):
    xphi = contract(Polynomial.variable(QQ, "x"), phi2)
    s = summarize_ideal(xphi)
    assert s.socle_degree == 2
    assert s.hilbert_function == [1, 3, 1]
    assert s.generator_counts == [0, 0, 5, 0]


def test_gorenstein_symmetry_random():
    rng = random.Random(31)
    for _ in range(8):
        phi = random_dual_element(GF, 5, rng)
        if phi.is_zero:
            continue
        assert summarize_ideal(phi).gorenstein_symmetric


def test_ideal_equality_self_test(phi2):
    gens = [f for d in range(5) for f in annihilator_degree(phi2, d)]
    verdicts = ideal_equality_check(gens, phi2)
    assert all(v.equal for v in verdicts)
    assert verdicts[-1].degree == 4


def test_ideal_equality_detects_missing_generator():
    phi = family_phi(4)
    full = annihilator_degree(phi, 4)
    assert len(full) == 5
    verdicts = ideal_equality_check(full[:-1], phi, max_degree=4)
    at_four = verdicts[4]
    assert at_four.contained and not at_four.equal
    assert at_four.dim_span == 4 and at_four.dim_annihilator == 5


def test_ideal_equality_detects_non_member(phi2):
    # x^2 does not annihilate: containment must fail
    verdicts = ideal_equality_check([Polynomial.monomial(QQ, Monomial(2, 0, 0))],
                                    phi2, max_degree=2)
    assert not verdicts[2].contained and not verdicts[2].equal


def test_wlp_family_matches_catalecticant(phi2):
    report = wlp_test(phi2, Polynomial.variable(QQ, "x"))
    assert report.verdict
    assert report.matrix == build_p_r(phi2, 2)[0]
    assert report.determinant == golden.DET_P_N2


def test_wlp_other_direction(phi2):
    # the family is symmetric under permuting variables
    report = wlp_test(phi2, Polynomial.variable(QQ, "y"))
    assert report.verdict


def test_wlp_counterexample():
    phi = DualElement.dual_monomial(QQ, Monomial(0, 2, 1))
    report = wlp_test(phi, Polynomial.variable(QQ, "x"))
    assert not report.verdict
    assert report.matrix.is_zero()


def test_wlp_usage_errors(phi2):
    with pytest.raises(ValueError):
        wlp_test(phi2, Polynomial.zero(QQ, 1))
    with pytest.raises(ValueError):
        wlp_test(phi2, Polynomial.monomial(QQ, Monomial(2, 0, 0)))
    even = DualElement.dual_monomial(QQ, Monomial(2, 2, 0))
    with pytest.raises(ValueError):
        wlp_test(even, Polynomial.variable(QQ, "x"))


def test_family_phi_n2_frozen(phi2):
    expected = {
        Monomial(2, 1, 0): 3, Monomial(2, 0, 1): 3, Monomial(1, 2, 0): 3,
        Monomial(0, 2, 1): 3, Monomial(1, 0, 2): 3, Monomial(0, 1, 2): 3,
        Monomial(1, 1, 1): 6,
    }
    assert phi2 == DualElement(QQ, 3, {m: QQ.of(c) for m, c in expected.items()})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_family_phi_closed_form(n):
    # coefficient of (a,b,c)* is the trinomial coefficient of the
    # complementary exponents; checked against the contraction construction
    phi = family_phi(n)
    assert phi.degree == 2 * n - 1
    for m in monomials_of_degree(2 * n - 1):
        comp = (n - m.a, n - m.b, n - m.c)
        if min(comp) < 0:
            expected = QQ.zero
        else:
            expected = multinomial(n + 1, *comp)
        assert phi.coefficient(m) == expected
    # in particular the pure x dual coefficient vanishes
    assert phi.coefficient(Monomial(2 * n - 1, 0, 0)) == 0


def test_family_phi_rejects_prime_field():
    with pytest.raises(ValueError):
        family_phi(2, field=GF)
    with pytest.raises(ValueError):
        family_phi(0)


@pytest.mark.parametrize("call, message", [
    (lambda phi: ideal_equality_check([DualElement.zero(QQ, 1)], phi),
     "generators must be homogeneous polynomials"),
    (lambda phi: ideal_equality_check([Polynomial.variable(GF, "x")], phi),
     "generator field does not match phi"),
    (lambda phi: wlp_test(phi, Polynomial.variable(GF, "x")),
     "ell and phi live in different fields"),
    (lambda phi: annihilator_degree(phi, -1), "degree must be nonnegative"),
], ids=["generator-not-a-polynomial", "generator-field", "ell-field",
        "negative-degree"])
def test_oracle_refusals(call, message):
    with pytest.raises(ValueError, match=message) as raised:
        call(family_phi(2))
    assert type(raised.value) is ValueError
