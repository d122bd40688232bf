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
from apolar.poly import MAX_DEGREE, Monomial, monomials_of_degree

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


def two_pass_from_json_dict(data):
    """``DualElement.from_json_dict`` as it was built before it went to one
    pass, for a record whose field and degree are well formed: the key and
    scalar checks in one loop, then the constructor's degree check, in key
    order, and its drop of the zero coefficients."""
    field, degree = field_from_tag(data["field"]), data["degree"]
    coeffs = {}
    for key, val in data["coeffs"].items():
        parts = key.split(",")
        if len(parts) != 3:
            raise ValueError(f"bad exponent triple {key!r}")
        try:
            m = Monomial(*(int(p) for p in parts))
        except ValueError as exc:
            raise ValueError(f"bad exponent triple {key!r}") from exc
        if min(m) < 0:
            raise ValueError(f"negative exponent in {key!r}")
        if m in coeffs:
            raise ValueError(f"{key!r} names the monomial {m} again")
        if not isinstance(val, str):
            raise ValueError(f"coefficient of {key!r} must be a string")
        coeffs[m] = field.parse(val)
    return DualElement(field, degree, coeffs)


def defects(degree, keys):
    """One (key, value) that the parser refuses, or a zero coefficient; an
    alias names one of ``keys``, the monomials already in the record."""
    wrong = monomials_of_degree(degree + 1) + (
        monomials_of_degree(degree - 1) if degree else [])
    kinds = [
        st.tuples(st.sampled_from(["1,2", "1,2,3,4", "x,0,0", "1,,2", ""]),
                  st.just("1")),
        st.tuples(st.just(f"-1,{degree + 1},0"), st.just("1")),
        st.tuples(st.sampled_from(wrong).map(lambda m: f"{m.a},{m.b},{m.c}"),
                  st.sampled_from(["1", "0", "2"])),
        st.tuples(st.just(f"{degree},0,0"),
                  st.sampled_from([1, None, [1], 2.5])),
        st.tuples(st.just(f"0,{degree},0"),
                  st.sampled_from(["abc", "1e5", "1/0", "", "0"])),
    ]
    if keys:
        kinds.append(st.sampled_from(keys).map(
            lambda m: (f"0{m.a},{m.b},{m.c}", "1")))
    return st.one_of(kinds)


@settings(max_examples=400, deadline=None, database=None)
@given(forms(DualElement), st.data())
def test_one_pass_parser_raises_what_the_two_pass_one_raised(w, data):
    """One or two defects (a bad or negative triple, a monomial of another
    degree, a coefficient that is no string or no scalar, an alias of an
    earlier key) or zero coefficients, put anywhere in a record's key
    order: the one-pass parser raises the message that the two-pass
    reference raises, in its precedence, or builds what it builds."""
    record = w.to_json_dict()
    items = list(record["coeffs"].items())
    zeroed = (data.draw(st.sets(st.integers(0, len(items) - 1)))
              if items else ())
    items = [(k, "0" if i in zeroed else v) for i, (k, v) in enumerate(items)]
    for _ in range(data.draw(st.integers(1, 2))):
        at = data.draw(st.integers(0, len(items)))
        keys = [Monomial(*map(int, k.split(","))) for k, _ in items[:at]
                if k.count(",") == 2 and all(p.strip("-").isdigit()
                                             for p in k.split(","))]
        key, value = data.draw(defects(w.degree, keys))
        if key in dict(items):
            continue
        items.insert(at, (key, value))
    record["coeffs"] = dict(items)
    try:
        expected = two_pass_from_json_dict(record)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            DualElement.from_json_dict(record)
        assert str(got.value) == str(exc)
    else:
        got = DualElement.from_json_dict(record)
        assert got == expected and got.coeffs == expected.coeffs
        assert all(got.coeffs.values())
        assert all(type(m) is Monomial for m in got.coeffs)
