import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apolar import (FieldMismatchError, FpElement, Matrix, PrimeField, QQ,
                    field_from_tag)
from apolar.scalars import MILLER_RABIN_BOUND, is_prime

LARGEST_PROVEN_PRIME = next(n for n in range(MILLER_RABIN_BOUND - 1, 2, -1)
                            if is_prime(n))


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


def test_field_from_tag():
    assert field_from_tag("Q") == QQ
    assert field_from_tag("Fp:32003") == PrimeField(32003)
    with pytest.raises(ValueError):
        field_from_tag("Fp:abc")
    with pytest.raises(ValueError):
        field_from_tag("R")


ENCODING_FIELDS = (QQ, PrimeField(3), PrimeField(32003), PrimeField(2 ** 61 - 1),
                   PrimeField(LARGEST_PROVEN_PRIME))


@st.composite
def scalar_lists(draw):
    """A field and a list of its scalars: over Q with negative values, zero
    and denominators, over GF(p) any residue."""
    field = draw(st.sampled_from(ENCODING_FIELDS))
    if field is QQ:
        scalar = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                           st.integers(1, 10 ** 6))
    else:
        scalar = st.builds(field.of, st.integers(0, field.p - 1))
    return field, draw(st.lists(scalar | st.just(field.zero), max_size=12))


@settings(max_examples=300, deadline=None, database=None)
@given(scalar_lists())
def test_the_int_encoding_round_trips(case):
    """from_int(x, L) gives back each scalar of to_ints; L = 1 over GF(p),
    where the ints are the residues, and gcd(L, all ints) = 1 over Q."""
    field, scalars = case
    L, ints = field.to_ints(scalars)
    assert len(ints) == len(scalars) and all(type(x) is int for x in ints)
    back = [field.from_int(x, L) for x in ints]
    assert back == scalars
    assert all(field.contains(s) for s in back)
    if field is QQ:
        assert L >= 1 and math.gcd(L, *ints) == 1
    else:
        assert L == 1 and all(0 <= x < field.p for x in ints)


@pytest.mark.parametrize("field", ENCODING_FIELDS, ids=repr)
def test_the_int_encoding_of_no_scalar(field):
    assert field.to_ints([]) == (1, [])


def test_from_int_divides_by_L_in_every_field():
    assert QQ.from_int(-4, 6) == Fraction(-2, 3)
    F = PrimeField(7)
    assert F.from_int(3, 5) == F.of(3) / F.of(5)


def test_a_prime_field_reads_fractions_through_the_inverse_denominator():
    F = PrimeField(7)
    assert F.of(Fraction(1, 2)) == 4
    with pytest.raises(ZeroDivisionError, match="denominator of 1/7 vanishes"):
        F.of(Fraction(1, 7))
    assert FpElement(3, 7) == 10
    assert Matrix(F, [[Fraction(1, 2)]]).entries == [[4]]
