"""The ideal certificate on int forms.

``verify`` hands ``oracle.ideal_equality_check_ints`` the int forms of its
generator row, column by column (``oracle.row_forms``), and the int form of
phi or of x(phi) (``oracle.contracted_form``).  On random rows over Q,
GF(3) and GF(32003) that must give the verdicts of ``ideal_equality_check``
on the boxed entries and of the exact reference, zero columns and a
perturbed generator included.  And ``verify`` must stay on ints: it passes
with the boxing of matrix entries and the boxed contraction switched off."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import apolar
from apolar import (DualElement, Matrix, Monomial, Polynomial, PrimeField, QQ,
                    cli, contract, linalg, monomials_of_degree, oracle)
from apolar.poly import ONE, X

import ideal_reference as reference
from golden_family import parsed

FIELDS = (QQ, PrimeField(3), PrimeField(32003))


def coefficients(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    return st.builds(field.of, st.integers(0, field.p - 1))


@st.composite
def rows_and_phi(draw):
    """phi of degree 3 to 5 and a 1 x m row of forms of one degree d: some
    of a basis of the degree-d annihilator, scaled, zero columns between
    them, and, when ``perturbed``, one generator plus a monomial that phi
    does not kill."""
    field = draw(st.sampled_from(FIELDS))
    s = draw(st.integers(3, 5))
    monos = monomials_of_degree(s)
    phi = DualElement(field, s, {m: draw(coefficients(field)) for m in monos})
    if phi.is_zero:
        phi = DualElement.dual_monomial(field, monos[0])
    d = draw(st.integers(1, s + 1))
    basis = reference.annihilator_degree(phi, d)
    gens = draw(st.lists(st.sampled_from(basis), max_size=6)) if basis else []
    if basis and draw(st.booleans()):
        gens = basis
    nonzero = coefficients(field).filter(bool)
    gens = [g.scaled(draw(nonzero)) for g in gens]
    perturbed = False
    if d <= s and draw(st.booleans()):
        alive = [m for m in monomials_of_degree(d)
                 if not contract(Polynomial.monomial(field, m), phi).is_zero]
        m = draw(st.sampled_from(alive))
        g = gens.pop() if gens else Polynomial.zero(field, d)
        gens.append(g + Polynomial(field, d, {m: draw(nonzero)}))
        perturbed = True
    for _ in range(draw(st.integers(0, 2))):
        gens.insert(draw(st.integers(0, len(gens))), Polynomial.zero(field, d))
    row = Matrix(field, [gens], cols=len(gens), degree=d)
    return phi, row, perturbed


@settings(max_examples=60, deadline=None, database=None)
@given(rows_and_phi())
def test_int_forms_give_the_boxed_and_the_reference_verdicts(case):
    phi, row, perturbed = case
    field = phi.field
    forms = oracle.row_forms(row)
    assert len(forms) == row.cols
    verdicts = oracle.ideal_equality_check_ints(
        field, forms, oracle.contracted_form(ONE, phi))
    entries = row.entries[0] if row.cols else []
    assert verdicts == oracle.ideal_equality_check(entries, phi)
    assert verdicts == reference.ideal_equality_check(entries, phi)
    if perturbed:
        assert not all(v.equal for v in verdicts)
    xphi = contract(Polynomial.variable(field, "x"), phi)
    shifted = oracle.ideal_equality_check_ints(
        field, forms, oracle.contracted_form(X, phi))
    assert shifted == reference.ideal_equality_check(entries, xphi)


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(FIELDS), st.data())
def test_the_x_shift_is_the_contraction_by_x(field, data):
    s = data.draw(st.integers(1, 6))
    monos = monomials_of_degree(s)
    phi = DualElement(field, s, {m: data.draw(coefficients(field))
                                 for m in data.draw(st.lists(
                                     st.sampled_from(monos), unique=True))})
    L, _ = field.to_ints(list(phi.coeffs.values()))
    degree, coeffs = oracle.contracted_form(X, phi)
    xphi = contract(Polynomial.variable(field, "x"), phi)
    assert degree == xphi.degree == s - 1
    assert {m: field.from_int(c, L) for m, c in coeffs.items()} == xphi.coeffs
    assert oracle.contracted_form(ONE, phi) == oracle._int_form(phi)


def test_row_forms_read_each_column():
    row = parsed(QQ, [["1/2*x^2 - y*z", "0", "z^2"]], degree=2)
    assert row.L == 2
    assert oracle.row_forms(row) == [
        (2, {Monomial(2, 0, 0): 1, Monomial(0, 1, 1): -2}), (2, {}),
        (2, {Monomial(0, 0, 2): 2})]


def _refuse(*args, **kwargs):
    raise AssertionError("verify boxed a matrix or contracted a boxed phi")


GUARDED = [("family", 4, []), ("family", 5, []),
           ("GF", 4, ["--random", "--field", "Fp:32003", "--seed", "2"]),
           ("GF", 5, ["--random", "--field", "Fp:32003", "--seed", "2"])]


@pytest.mark.parametrize("kind,n,extra", GUARDED,
                         ids=[f"{kind}-{n}" for kind, n, _ in GUARDED])
def test_verify_boxes_no_matrix_and_contracts_no_boxed_phi(
        tmp_path, monkeypatch, capsys, kind, n, extra):
    path = tmp_path / "phi.json"
    assert cli.main(["example-family", "--n", str(n), *extra,
                     "--out", str(path)]) == 0
    monkeypatch.setattr(linalg.Matrix, "_box", _refuse)
    for module in (apolar, apolar.poly, apolar.oracle, apolar.cli,
                   apolar.resolution):
        if hasattr(module, "contract"):
            monkeypatch.setattr(module, "contract", _refuse)
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS  Pfaffian generators of " in out
    assert out.endswith("all checks passed\n")
