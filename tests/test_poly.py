import random
from fractions import Fraction

import pytest

from apolar import (DualElement, Monomial, Polynomial, PrimeField, QQ,
                    contract, monomials_of_degree, parse_linear_form,
                    parse_polynomial, random_dual_element)

from pairing_reference import evaluate

GF = PrimeField(32003)


def mono(a, b, c):
    return Monomial(a, b, c)


def test_monomials_of_degree_two():
    assert monomials_of_degree(2) == [mono(2, 0, 0), mono(1, 1, 0),
                                      mono(1, 0, 1), mono(0, 2, 0),
                                      mono(0, 1, 1), mono(0, 0, 2)]
    assert monomials_of_degree(2, x_free=True) == [mono(0, 2, 0), mono(0, 1, 1),
                                                   mono(0, 0, 2)]
    assert monomials_of_degree(0) == [mono(0, 0, 0)]


@pytest.mark.parametrize("d", range(8))
def test_monomial_list_sizes(d):
    assert len(monomials_of_degree(d)) == (d + 2) * (d + 1) // 2
    assert len(monomials_of_degree(d, x_free=True)) == d + 1


def test_monomial_order_is_strict_total_and_stable():
    for d in range(7):
        ms = monomials_of_degree(d)
        assert len(set(ms)) == len(ms)
        assert ms == sorted(ms, key=lambda m: m.sort_key())
        assert ms == monomials_of_degree(d)
        # x-divisible monomials all precede the x-free ones
        first_xfree = next((i for i, m in enumerate(ms) if m.a == 0), len(ms))
        assert all(m.a == 0 for m in ms[first_xfree:])


def test_contract_monomial_rule():
    w = DualElement.dual_monomial(QQ, mono(2, 1, 0))  # (x^2 y)*
    x = Polynomial.variable(QQ, "x")
    z = Polynomial.variable(QQ, "z")
    assert contract(x, w) == DualElement.dual_monomial(QQ, mono(1, 1, 0))
    assert contract(z, w).is_zero


def test_contract_degree_mismatch():
    w = DualElement.dual_monomial(QQ, mono(1, 0, 0))
    u = Polynomial.monomial(QQ, mono(1, 1, 0))
    with pytest.raises(ValueError):
        contract(u, w)


def cube_functional():
    """(x+y+z)^3 applied to (x^2 y^2 z^2)*, computed two independent ways."""
    ell = parse_polynomial("x+y+z", QQ)
    top = DualElement.dual_monomial(QQ, mono(2, 2, 2))
    return contract(ell ** 3, top)


def test_contract_cube_against_expansion_oracle():
    # Independent oracle: the value on a degree-3 monomial mu is the
    # coefficient of x^2 y^2 z^2 in mu * (x+y+z)^3, by the definition of the
    # pairing; no contraction involved.
    got = cube_functional()
    ell3 = parse_polynomial("x+y+z", QQ) ** 3
    for m in monomials_of_degree(3):
        expected = (Polynomial.monomial(QQ, m) * ell3).coefficient(mono(2, 2, 2))
        assert evaluate(got, Polynomial.monomial(QQ, m)) == expected
    expected_terms = {
        mono(2, 1, 0): 3, mono(2, 0, 1): 3, mono(1, 2, 0): 3,
        mono(0, 2, 1): 3, mono(1, 0, 2): 3, mono(0, 1, 2): 3,
        mono(1, 1, 1): 6,
    }
    assert got == DualElement(QQ, 3, {m: QQ.of(c)
                                      for m, c in expected_terms.items()})


def test_evaluate_dual_basis():
    w = DualElement.dual_monomial(QQ, mono(1, 1, 1))
    assert evaluate(w, Polynomial.monomial(QQ, mono(1, 1, 1))) == 1
    assert evaluate(w, Polynomial.monomial(QQ, mono(3, 0, 0))) == 0
    phi3 = cube_functional()
    assert evaluate(phi3, Polynomial.monomial(QQ, mono(2, 1, 0))) == 3
    with pytest.raises(ValueError):
        evaluate(w, Polynomial.variable(QQ, "x"))


def test_multiply():
    x = Polynomial.variable(QQ, "x")
    y = Polynomial.variable(QQ, "y")
    z = Polynomial.variable(QQ, "z")
    assert x * y == Polynomial.monomial(QQ, mono(1, 1, 0))
    assert (y + z) * (y - z) == parse_polynomial("y^2-z^2", QQ)


def random_poly(field, degree, rng):
    coeffs = {}
    for m in monomials_of_degree(degree):
        coeffs[m] = field.of(rng.randrange(field.p)) if hasattr(field, "p") \
            else Fraction(rng.randint(-9, 9))
    return Polynomial(field, degree, coeffs)


def test_adjointness_of_contraction():
    # evaluate(contract(u, w), v) == evaluate(w, u * v)
    rng = random.Random(7)
    for _ in range(25):
        u = random_poly(GF, 2, rng)
        v = random_poly(GF, 3, rng)
        w = random_dual_element(GF, 5, rng)
        assert evaluate(contract(u, w), v) == evaluate(w, u * v)


def test_module_action_associativity():
    # (u v)(w) == u(v(w))
    rng = random.Random(8)
    for _ in range(25):
        u = random_poly(GF, 1, rng)
        v = random_poly(GF, 2, rng)
        w = random_dual_element(GF, 6, rng)
        assert contract(u * v, w) == contract(u, contract(v, w))


def test_zero_polynomial_keeps_degree():
    z = Polynomial.zero(QQ, 4)
    assert z.degree == 4 and z.is_zero
    w = DualElement.zero(QQ, 4)
    with pytest.raises(ValueError):
        evaluate(w, Polynomial.zero(QQ, 3))


def test_format_style():
    p = parse_polynomial("(-1/6)x^2 + (1/6)xz + (-1/6)z^2", QQ)
    assert str(p) == "(-1/6)x^2 + (1/6)xz + (-1/6)z^2"


def test_parse_format_round_trip():
    rng = random.Random(12)
    for field in (QQ, GF):
        for d in (0, 1, 2, 4):
            for _ in range(10):
                p = random_poly(field, d, rng)
                assert parse_polynomial(str(p), field) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("x ++ y", QQ)
    with pytest.raises(ValueError):
        parse_polynomial("x^2 + y", QQ)  # inhomogeneous
    with pytest.raises(ValueError):
        parse_polynomial("w + y", QQ)


def test_linear_form_parser():
    p = parse_linear_form("1*x+2/3*y", QQ)
    assert p == parse_polynomial("x + (2/3)y", QQ)
    assert parse_linear_form("x - y", QQ) == parse_polynomial("x-y", QQ)
    with pytest.raises(ValueError):
        parse_linear_form("0", QQ)
    with pytest.raises(ValueError):
        parse_linear_form("x^2", QQ)


def test_dual_element_json_round_trip():
    rng = random.Random(13)
    for field in (QQ, GF):
        w = random_dual_element(field, 3, rng)
        again = DualElement.from_json(w.to_json())
        assert again == w and again.field == field


def test_dual_element_json_errors():
    with pytest.raises(ValueError):
        DualElement.from_json("{not json")
    with pytest.raises(ValueError):
        DualElement.from_json('{"field": "Q", "degree": 2, "coeffs": {"1,1": "1"}}')
    with pytest.raises(ValueError):
        DualElement.from_json('{"field": "Q", "degree": 2, "coeffs": {"1,1,1": "1"}}')
    with pytest.raises(ValueError):
        DualElement.from_json('{"field": "Z", "degree": 2, "coeffs": {}}')
