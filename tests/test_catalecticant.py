"""The one catalecticant builder and what the presentation reads off it.

``poly.catalecticant`` fills p, r and the oracle's matrices, reading each
row by index as contiguous runs of phi's dense coefficients; the last n
rows of r are the block T that ``theta_conjugation_check`` reads,
``explicit_generators`` reads p^{-1} [r | E], and ``reduced_presentation``
reuses p and that solve.  These tests pin each of those readings against
an independent construction: the index formula against the position in
``monomials_of_degree``, the rows against one dict lookup per entry,
entries by the direct pairing of ``pairing_reference.evaluate``, the
generator row by contraction (the formula the row was first written
with), and the reduced presentation by a full rebuild."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from apolar import (DualElement, LinearPresentation, Matrix, Monomial,
                    Polynomial, PrimeField, QQ, build_linear_presentation,
                    build_p_r, catalecticant, contract, explicit_generators,
                    family_phi, invert, monomials_of_degree,
                    random_dual_element, reduced_inverse_system,
                    reduced_presentation, wlp_test)
from apolar.poly import MAX_DEGREE, dense, position

from pairing_reference import (boxed_catalecticants, boxed_wlp_matrix,
                               catalecticant_by_lookup, evaluate, from_coords,
                               to_coords)

GF = PrimeField(32003)
SETTINGS = settings(max_examples=25, deadline=None, database=None)


@st.composite
def inverse_systems(draw):
    """A degree-(2n-1) inverse system over Q or GF(32003), n = 2..5."""
    field = draw(st.sampled_from((QQ, GF)))
    n = draw(st.integers(2, 5))
    monos = monomials_of_degree(2 * n - 1)
    values = draw(st.lists(st.integers(-20, 20), min_size=len(monos),
                           max_size=len(monos)))
    return n, DualElement(field, 2 * n - 1, dict(zip(monos, values)))


def contraction_generators(phi, p_inv):
    """The explicit generator row as first written: each mu(phi) by
    contraction, read on the dual basis, then mapped by p^{-1}."""
    n = (phi.degree + 1) // 2
    fld = phi.field
    mid = monomials_of_degree(n - 1)
    x = Polynomial.variable(fld, "x")
    nus = p_inv.take_cols([mid.index(m)
                           for m in monomials_of_degree(n - 1, x_free=True)])
    mus = [Polynomial.monomial(fld, m)
           for m in monomials_of_degree(n, x_free=True)]
    w = Matrix(fld, [to_coords(contract(mu, phi), mid) for mu in mus])
    images = p_inv @ w.transpose()
    gens = [x * from_coords(fld, mid, col)
            for col in nus.transpose().entries]
    gens += [mu - x * from_coords(fld, mid, col)
             for mu, col in zip(mus, images.transpose().entries)]
    return gens


def test_x_free_monomials_are_the_tail_of_all_monomials():
    for d in range(MAX_DEGREE + 1):
        assert monomials_of_degree(d, x_free=True) == \
            monomials_of_degree(d)[-(d + 1):]


def test_the_index_formula_is_the_position_in_the_fixed_order():
    for d in range(MAX_DEGREE + 1):
        monos = monomials_of_degree(d)
        assert [position(m) for m in monos] == list(range(len(monos)))


def test_catalecticant_reads_products_with_the_given_zero():
    coeffs = {Monomial(2, 1, 0): 5, Monomial(0, 1, 2): 7}
    rows = [Monomial(1, 0, 0), Monomial(0, 0, 1)]
    phi = dense(coeffs, 3)
    assert phi == [0, 5, 0, 0, 0, 0, 0, 0, 7, 0]
    # columns x^2, xy, xz, y^2, yz, z^2
    assert catalecticant(phi, rows, 2) == [[0, 5, 0, 0, 0, 0],
                                           [0, 0, 0, 0, 7, 0]]
    assert catalecticant(phi, rows, 2, x_free=True) == [[0, 0, 0], [0, 7, 0]]
    assert catalecticant(phi, [], 2) == []


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 12).flatmap(lambda s: st.tuples(
    st.just(s), st.integers(0, s), st.booleans(),
    st.lists(st.integers(-5, 5), min_size=(s + 1) * (s + 2) // 2,
             max_size=(s + 1) * (s + 2) // 2))))
def test_catalecticant_by_index_equals_one_lookup_per_entry(case):
    s, d, x_free, values = case
    coeffs = {m: v for m, v in zip(monomials_of_degree(s), values) if v}
    rows = monomials_of_degree(s - d)
    assert catalecticant(dense(coeffs, s), rows, d, x_free) == \
        catalecticant_by_lookup(coeffs, rows, monomials_of_degree(d, x_free))


@st.composite
def encoded_inverse_systems(draw):
    """(n, phi, ell): phi of degree 2n - 1, n = 1..4, over Q with every
    coefficient in (2/3)Z, so that a block whose entries are all integers
    has its L reduced from 3 to 1, or over GF(3) or GF(32003); ell a
    nonzero linear form."""
    field = draw(st.sampled_from((QQ, PrimeField(3), GF)))
    n = draw(st.integers(1, 4))
    monos = monomials_of_degree(2 * n - 1)
    scalar = (st.builds(lambda k: Fraction(2 * k, 3), st.integers(-20, 20))
              if field is QQ else st.builds(field.of, st.integers(0, field.p - 1)))
    values = draw(st.lists(scalar, min_size=len(monos), max_size=len(monos)))
    ell = draw(st.lists(scalar, min_size=3, max_size=3).filter(any))
    return (n, DualElement(field, 2 * n - 1, dict(zip(monos, values))),
            Polynomial(field, 1, dict(zip(monomials_of_degree(1), ell))))


@settings(max_examples=150, deadline=None, database=None)
@given(encoded_inverse_systems())
def test_int_built_catalecticants_equal_the_boxed_construction(case):
    """p, r, its last n rows T, r~ and the wlp matrix, read off the int
    form of phi, equal the boxed construction of ``pairing_reference``, and
    each is in the canonical form that the constructor builds from its
    entries."""
    n, phi, ell = case
    p, r = build_p_r(phi, n)
    T = r._select(range(r.rows - n, r.rows), range(n + 1))
    built = [p, r, T, wlp_test(phi, ell).matrix]
    lin = build_linear_presentation(phi, with_pfaffian_row=False)
    ref_p, ref_r, ref_T, ref_rt = boxed_catalecticants(phi)
    refs = [ref_p, ref_r, ref_T, boxed_wlp_matrix(phi, ell)]
    if lin.linearly_presented:
        built.append(reduced_presentation(lin).r)
        refs.append(ref_rt)
    else:
        assert build_p_r(reduced_inverse_system(phi), n)[1] == ref_rt
    for m, ref in zip(built, refs):
        assert m == ref
    for m in built:
        assert m == Matrix(m.field, m.entries, m.cols)


@SETTINGS
@given(inverse_systems())
def test_p_r_and_t_match_evaluation(case):
    n, phi = case
    fld = phi.field
    p, r = build_p_r(phi, n)
    x = Polynomial.variable(fld, "x")
    mid = [Polynomial.monomial(fld, m) for m in monomials_of_degree(n - 1)]
    outer = [Polynomial.monomial(fld, m)
             for m in monomials_of_degree(n, x_free=True)]
    assert p.entries == [[evaluate(phi, x * mi * mj) for mj in mid]
                         for mi in mid]
    assert r.entries == [[evaluate(phi, mi * mo) for mo in outer]
                         for mi in mid]
    # T, the last n rows of r, is the catalecticant on x-free rows
    x_free = [Polynomial.monomial(fld, m)
              for m in monomials_of_degree(n - 1, x_free=True)]
    assert r.entries[r.rows - n:] == [[evaluate(phi, mi * mo) for mo in outer]
                                      for mi in x_free]


@SETTINGS
@given(inverse_systems())
def test_explicit_generators_from_r_equal_the_contraction_formula(case):
    _, phi = case
    lin = build_linear_presentation(phi, with_pfaffian_row=False)
    assume(lin.linearly_presented)
    assert explicit_generators(lin.p_inv_r, lin.p_inv_e).entries[0] == \
        contraction_generators(phi, invert(lin.p).inverse)


def _presentation(kind, n):
    """The family at n, or the first seeded GF(32003) input at n with an
    invertible p; without the Pfaffian row, as the reduction has none."""
    if kind == "family":
        return build_linear_presentation(family_phi(n), with_pfaffian_row=False)
    rng = random.Random(n)
    while True:
        phi = random_dual_element(GF, 2 * n - 1, rng)
        lin = build_linear_presentation(phi, with_pfaffian_row=False)
        if lin.linearly_presented:
            return lin


@pytest.mark.parametrize("kind, n", [("family", 2), ("family", 4), ("family", 6),
                                     ("gf", 3), ("gf", 4), ("gf", 5), ("gf", 6)])
def test_reduced_presentation_equals_the_rebuilt_one(kind, n):
    lin = _presentation(kind, n)
    reduced = reduced_presentation(lin)
    rebuilt = build_linear_presentation(reduced_inverse_system(lin.phi),
                                        with_pfaffian_row=False)
    for f in dataclasses.fields(LinearPresentation):
        assert getattr(reduced, f.name) == getattr(rebuilt, f.name), f.name
    assert reduced.generator_row == rebuilt.generator_row
    assert reduced.p is lin.p and reduced.p_inv is lin.p_inv


def test_reduced_presentation_refuses_a_singular_p():
    phi = DualElement(GF, 3, {Monomial(0, a, 3 - a): GF.of(a + 1)
                              for a in range(4)})
    lin = build_linear_presentation(phi)
    assert not lin.linearly_presented
    with pytest.raises(ValueError, match="singular"):
        reduced_presentation(lin)

