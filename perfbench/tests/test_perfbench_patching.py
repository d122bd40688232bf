from collections import Counter
from fractions import Fraction

import pytest

from apolar import cli, linalg, oracle, resolution
from apolar.poly import DualElement, Monomial, Polynomial
from apolar.scalars import QQ, FpElement
from benchlib.layers import counting_replacements, tracing_replacements
from benchlib.patching import patched
from benchlib.spans import SpanRecorder


class Base:
    def f(self):
        return "base"


class Child(Base):
    pass


def test_patched_restores_after_exit_and_after_an_exception():
    original = Base.__dict__["f"]
    with patched([(Base, "f", lambda self: "patched")]):
        assert Base().f() == "patched"
    assert Base.__dict__["f"] is original
    with pytest.raises(RuntimeError):
        with patched([(Base, "f", lambda self: "patched")]):
            raise RuntimeError
    assert Base.__dict__["f"] is original


def test_patched_removes_a_name_the_owner_only_inherited():
    with patched([(Child, "f", lambda self: "child")]):
        assert Child().f() == "child"
    assert "f" not in vars(Child)
    assert Child().f() == "base"


def _module_state():
    return {(m.__name__, name): obj for m in (cli, linalg, oracle, resolution)
            for name, obj in vars(m).items()}


def test_tracing_wrappers_are_removed_after_a_pass():
    before = _module_state()
    with pytest.raises(KeyError):
        with patched(tracing_replacements(SpanRecorder())):
            assert linalg.rank is not before[("apolar.linalg", "rank")]
            raise KeyError
    after = _module_state()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_counting_wrappers_are_removed_after_a_pass():
    classes = (FpElement, Fraction, Polynomial)
    before = [dict(vars(c)) for c in classes]
    with patched(counting_replacements(Counter())):
        pass
    assert [dict(vars(c)) for c in classes] == before


def test_tracing_catches_calls_made_inside_a_module():
    phi = DualElement.dual_monomial(QQ, Monomial(1, 1, 1))
    rec = SpanRecorder()
    with patched(tracing_replacements(rec)):
        oracle.summarize_ideal(phi)
    names = {s.name for s in rec.spans}
    assert {"oracle.summarize_ideal", "oracle.annihilator_degree",
            "linalg.kernel", "linalg.rank"} <= names
    kernel = next(s for s in rec.spans if s.name == "linalg.kernel")
    assert rec.spans[kernel.parent].name == "oracle.annihilator_degree"


def test_counting_counts_each_scalar_operation_once():
    counts = Counter()
    with patched(counting_replacements(counts)):
        a = FpElement(3, 7)
        _ = a + a, a * 2, 1 - a, -a
        _ = Fraction(1, 2) * Fraction(1, 3), 1 + Fraction(1, 2)
        x = Polynomial.variable(QQ, "x")
        _ = x * x
    assert counts["scalars.fp_ops"] == 4
    assert counts["poly.mul_calls"] == 1
    # x * x multiplies one coefficient pair: one product; the sum starts empty
    assert counts["scalars.q_ops"] == 3
