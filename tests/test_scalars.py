import operator
import random
from fractions import Fraction

import pytest

from apolar import (FieldMismatchError, FpElement, PrimeField, QQ, binomial,
                    field_from_tag, multinomial)
from apolar.scalars import is_prime


def test_rational_arithmetic():
    assert QQ.parse("1/2") + QQ.parse("1/3") == Fraction(5, 6)
    z = QQ.zero * QQ.parse("-4/9")
    assert z == 0
    assert str(z) == "0"


def test_prime_field_division():
    F7 = PrimeField(7)
    assert F7.of(3) / F7.of(5) == F7.of(2)
    assert F7.of(5) * F7.of(2) == F7.of(3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.one / QQ.zero
    F = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero


def test_mixed_field_operands_rejected():
    a = PrimeField(7).of(3)
    b = PrimeField(11).of(3)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(TypeError):
        a + Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) + a


def test_int_mixing_is_allowed():
    F = PrimeField(7)
    assert F.of(3) + 5 == F.of(1)
    assert 2 * F.of(4) == F.of(1)
    assert 1 / F.of(3) == F.of(5)


def test_modulus_must_be_odd_prime():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)
    PrimeField(32003)


def test_primality_is_proven_or_refused():
    # psi_12 and psi_13: the least strong pseudoprimes to the first 12 and
    # 13 prime bases.
    psi12 = 318665857834031151167461
    psi13 = 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    for p in (psi12, psi13):
        with pytest.raises(ValueError):
            PrimeField(p)
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1


def test_bool_does_not_mix_with_residues():
    a = FpElement(3, 7)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(a, True)
        with pytest.raises(TypeError):
            op(False, a)


def test_parse_print_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        q = Fraction(rng.randint(-500, 500), rng.randint(1, 99))
        assert QQ.parse(QQ.format(q)) == q
    F = PrimeField(32003)
    for _ in range(50):
        a = F.of(rng.randrange(32003))
        assert F.parse(F.format(a)) == a


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(7)])
def test_field_laws(field):
    rng = random.Random(5)

    def rand():
        if field is QQ:
            return Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        return field.of(rng.randrange(field.p))

    for _ in range(100):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + (-a) == field.zero
        if a != field.zero:
            assert a * (field.one / a) == field.one


def test_binomial_and_multinomial():
    assert multinomial(3, 1, 1, 1) == 6
    assert multinomial(3, 2, 1, 0) == 3
    assert binomial(5, 2) == 10
    assert binomial(3, 7) == 0
    F = PrimeField(7)
    assert multinomial(3, 1, 1, 1, field=F) == F.of(6)
    with pytest.raises(ValueError):
        multinomial(3, 2, 2, 0)


def test_field_from_tag():
    assert field_from_tag("Q") == QQ
    assert field_from_tag("Fp:32003") == PrimeField(32003)
    with pytest.raises(ValueError):
        field_from_tag("Fp:abc")
    with pytest.raises(ValueError):
        field_from_tag("R")
