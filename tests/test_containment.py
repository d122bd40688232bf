"""Tests of the integer containment test of the ideal certificate,
``oracle._annihilates`` on the int forms of the generators and of phi,
against ``poly.contract``: property tests over Q
with denominators, over GF(32003) and over GF(3), with generators of degree
0, of degree above the socle degree, zero generators and generators drawn
from the annihilator itself; and fixed cases where a test mod the
certificate prime, or one on unscaled numerators, would answer wrongly."""

import functools
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from apolar import (DualElement, Polynomial, PrimeField, QQ,
                    annihilator_degree, contract, ideal_equality_check)
from apolar.oracle import CERTIFICATE_PRIME, _annihilates, _cat_rows, _int_form
from apolar.poly import Monomial, dense, monomials_of_degree

FIELDS = (QQ, PrimeField(32003), PrimeField(3))
SETTINGS = settings(max_examples=150, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
X, Y, Z = Monomial(1, 0, 0), Monomial(0, 1, 0), Monomial(0, 0, 1)


def integer_test(gens, phi):
    """``_annihilates`` on the int forms that the certificate builds."""
    s, phi_int = _int_form(phi)
    return _annihilates([_int_form(g) for g in gens], s,
                        functools.partial(_cat_rows, dense(phi_int, s), s),
                        getattr(phi.field, "p", None))


def scalars(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    return st.builds(field.of, st.integers(0, field.p - 1))


def forms(draw, field, degree):
    monos = monomials_of_degree(degree)
    chosen = draw(st.lists(st.sampled_from(monos), max_size=len(monos)))
    return {m: draw(scalars(field)) for m in chosen}


@st.composite
def cases(draw):
    """(generators, phi): phi of socle degree s <= 5, possibly zero, and
    generators that are random, zero, or random combinations of a basis
    of ann(phi) in their degree, of degrees 0 to s + 2."""
    field = draw(st.sampled_from(FIELDS))
    s = draw(st.integers(0, 5))
    phi = DualElement(field, s, forms(draw, field, s))
    gens = []
    for _ in range(draw(st.integers(0, 5))):
        d = draw(st.integers(0, s + 2))
        kind = draw(st.sampled_from(["random", "zero", "annihilator"]))
        if kind == "zero":
            gens.append(Polynomial.zero(field, d))
        elif kind == "random":
            gens.append(Polynomial(field, d, forms(draw, field, d)))
        else:
            g = Polynomial.zero(field, d)
            for f in annihilator_degree(phi, d):
                g = g + f.scaled(draw(scalars(field)))
            gens.append(g)
    return gens, phi


@SETTINGS
@given(cases())
def test_integer_test_equals_the_contraction(case):
    gens, phi = case
    expected = [g.degree > phi.degree or contract(g, phi).is_zero
                for g in gens]
    assert integer_test(gens, phi) == expected


def test_a_multiple_of_the_certificate_prime_is_not_zero():
    """g(phi) = q for g = x + y and phi = x* + (q - 1) y*, and q/2 once
    denominators are cleared: nonzero over Q, zero mod q."""
    q = CERTIFICATE_PRIME
    g = Polynomial(QQ, 1, {X: QQ.one, Y: QQ.one})
    for phi in (DualElement(QQ, 1, {X: Fraction(1), Y: Fraction(q - 1)}),
                DualElement(QQ, 1, {X: Fraction(1, 2), Y: Fraction(q - 1, 2)})):
        assert not contract(g, phi).is_zero
        assert integer_test([g], phi) == [False]
        verdicts = ideal_equality_check([g], phi)
        assert [v.contained for v in verdicts] == [True, False, False]
        assert [v.equal for v in verdicts] == [True, False, False]


def test_unequal_denominators_are_cleared_before_the_sums():
    """phi = (1/2) x* + (1/3) y* is killed by 2x - 3y and by z, not by
    x - y.  On the bare numerators 1 and 1 of phi, 2x - 3y would not kill
    it and x - y would."""
    phi = DualElement(QQ, 1, {X: Fraction(1, 2), Y: Fraction(1, 3)})
    gens = [Polynomial(QQ, 1, {X: Fraction(2), Y: Fraction(-3)}),
            Polynomial(QQ, 1, {Z: Fraction(5, 7)}),
            Polynomial(QQ, 1, {X: Fraction(1), Y: Fraction(-1)})]
    assert integer_test(gens, phi) == [True, True, False]
