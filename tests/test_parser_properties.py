"""Round-trip and fuzz tests of the text parsers: ``parse_polynomial``,
``DualElement.from_json`` and ``field_from_tag``.  Well-formed input must
come back unchanged; malformed input must raise ValueError and nothing
else."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apolar import (DualElement, Polynomial, PrimeField, QQ, field_from_tag,
                    parse_polynomial)
from apolar.poly import MAX_DEGREE, monomials_of_degree

FIELDS = (QQ, PrimeField(3), PrimeField(32003))
SETTINGS = settings(max_examples=150, deadline=None, database=None)

# Characters the grammars use, so that fuzzed text gets past the first token.
POLY_ALPHABET = "xyz^*+-/()0123456789 .eE_w"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


def scalars(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                         st.integers(1, 10 ** 3))
    return st.builds(field.of, st.integers())


@st.composite
def forms(draw, cls, max_degree=6):
    field = draw(st.sampled_from(FIELDS))
    degree = draw(st.integers(0, max_degree))
    monos = draw(st.lists(st.sampled_from(monomials_of_degree(degree)),
                          unique=True))
    return cls(field, degree, {m: draw(scalars(field)) for m in monos})


def raises_only_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        pass


@SETTINGS
@given(forms(Polynomial))
def test_polynomial_text_round_trips(p):
    q = parse_polynomial(str(p), p.field)
    assert q == p or (p.is_zero and q.is_zero)


@SETTINGS
@given(forms(DualElement))
def test_dual_element_json_round_trips(w):
    again = DualElement.from_json(w.to_json())
    assert again == w and again.field == w.field


@SETTINGS
@given(st.text(alphabet=POLY_ALPHABET, max_size=30), st.sampled_from(FIELDS))
def test_parse_polynomial_fuzz_raises_only_value_error(text, field):
    raises_only_value_error(parse_polynomial, text, field)


@SETTINGS
@given(st.text(max_size=20))
def test_parse_polynomial_arbitrary_text_raises_only_value_error(text):
    raises_only_value_error(parse_polynomial, text, QQ)


@SETTINGS
@given(st.text(max_size=40))
def test_from_json_fuzz_text_raises_only_value_error(text):
    raises_only_value_error(DualElement.from_json, text)


@SETTINGS
@given(JSON_VALUES, JSON_VALUES, JSON_VALUES)
def test_from_json_fuzz_records_raise_only_value_error(field, degree, coeffs):
    record = {"field": field, "degree": degree, "coeffs": coeffs}
    raises_only_value_error(DualElement.from_json, json.dumps(record))
    raises_only_value_error(DualElement.from_json_dict, record)


@SETTINGS
@given(st.dictionaries(st.sampled_from(["field", "degree", "coeffs"]),
                       JSON_VALUES) | JSON_VALUES)
def test_from_json_dict_fuzz_raises_only_value_error(data):
    raises_only_value_error(DualElement.from_json_dict, data)


@SETTINGS
@given(st.text(max_size=12) | st.builds(lambda n: f"Fp:{n}", st.integers())
       | JSON_VALUES)
def test_field_from_tag_fuzz_raises_only_value_error(tag):
    try:
        field = field_from_tag(tag)
    except ValueError:
        return
    assert field is QQ or field_from_tag(field.tag) == field


@pytest.mark.parametrize("degree", [-1, MAX_DEGREE + 1, 10 ** 9, 2.5, "3", True])
def test_from_json_refuses_bad_degrees(degree):
    record = {"field": "Q", "degree": degree, "coeffs": {}}
    with pytest.raises(ValueError):
        DualElement.from_json_dict(record)
    assert DualElement.from_json_dict({**record, "degree": MAX_DEGREE}).degree \
        == MAX_DEGREE


def test_rational_exponent_notation_is_refused_without_building_it():
    for text in ("1e999999999", "(1E999999999)x"):
        with pytest.raises(ValueError):
            parse_polynomial(text, QQ)
    with pytest.raises(ValueError):
        DualElement.from_json('{"field": "Q", "degree": 0, '
                              '"coeffs": {"0,0,0": "1e999999999"}}')


def test_deeply_nested_json_is_a_value_error():
    with pytest.raises(ValueError):
        DualElement.from_json("[" * 100000 + "]" * 100000)


@SETTINGS
@given(forms(DualElement), st.data())
def test_from_json_refuses_a_second_key_for_one_monomial(w, data):
    a, b, c = data.draw(st.sampled_from(monomials_of_degree(w.degree)))
    alias = data.draw(st.sampled_from([f"0{a},{b},{c}", f"{a},+{b},{c}",
                                       f"{a},{b}, {c}"]))
    record = w.to_json_dict()
    record["coeffs"][f"{a},{b},{c}"] = "1"
    record["coeffs"][alias] = "2"
    with pytest.raises(ValueError, match="again"):
        DualElement.from_json_dict(record)


def test_alias_keys_do_not_overwrite_a_coefficient():
    with pytest.raises(ValueError, match="'01,0,0' names the monomial x again"):
        DualElement.from_json_dict(
            {"field": "Q", "degree": 1, "coeffs": {"1,0,0": "1", "01,0,0": "2"}})
