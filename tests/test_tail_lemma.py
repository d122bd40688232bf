"""The tail lemma of the oracle: with J = ann(phi), s = deg phi and a the
least degree of J, J_d = R_1 J_{d-1} and h(d) = C(s - d + 2, 2) for every
d >= s + 3 - a.  It is checked here by brute force, and the certificate and
the generator counts that skip their ranks on it are checked against the
exact references in the degrees around its boundary."""

import math
import random

import pytest

from apolar import (DualElement, Matrix, Monomial, Polynomial, PrimeField,
                    QQ, contract, family_phi, linalg, monomials_of_degree,
                    oracle, random_dual_element, resolution)

import ideal_reference as reference
from pairing_reference import to_coords

GF = PrimeField(32003)


def _random_phi(fld, s, density):
    rng = random.Random(s)
    phi = random_dual_element(fld, s, rng)
    coeffs = {m: c for m, c in phi.coeffs.items() if rng.random() < density}
    return DualElement(fld, s, coeffs) if coeffs else phi


def _power_sum(s, forms):
    """The sum of the divided powers L^[s] of the forms L = ux + vy + wz,
    each given as (u, v, w)."""
    return DualElement(QQ, s, {m: sum(math.prod(c ** e for c, e in zip(L, m))
                                      for L in forms)
                               for m in monomials_of_degree(s)})


def _check_lemma(phi):
    fld, s = phi.field, phi.degree
    kernels = [reference.annihilator_degree(phi, d) for d in range(s + 2)]
    a = next(d for d, ker in enumerate(kernels) if ker)
    variables = [Polynomial.variable(fld, v) for v in ("x", "y", "z")]
    for d in range(s + 3 - a, s + 2):
        basis = monomials_of_degree(d)
        rows = [to_coords(v * f, basis) for f in kernels[d - 1] for v in variables]
        assert linalg.rank(Matrix(fld, rows)) == len(kernels[d])
        h = len(basis) - len(kernels[d])
        assert h == math.comb(s - d + 2, 2)
        assert oracle._tail_quotient_dim(s, a, d) == h
    assert oracle._tail_quotient_dim(s, a, s + 2 - a) is None
    assert oracle._tail_quotient_dim(s, None, s + 1) is None
    assert oracle.summarize_ideal(phi).generator_counts == \
        reference.generator_counts(phi)
    return a


@pytest.mark.parametrize("fld", [QQ, GF], ids=str)
@pytest.mark.parametrize("s", range(3, 10))
@pytest.mark.parametrize("density", [1.0, 0.3])
def test_tail_lemma_on_random_phi(fld, s, density):
    a = _check_lemma(_random_phi(fld, s, density))
    if density == 1.0:
        # a general phi starts its ideal in the middle, so the tail is wide
        assert a == s // 2 + 1


@pytest.mark.parametrize("s,forms", [
    (5, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    (7, [(1, 2, 3), (1, -1, 2), (2, 0, 1), (0, 1, -3), (1, 1, 1), (3, 1, 0)]),
    (8, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
])
def test_tail_lemma_on_power_sums(s, forms):
    # k general powers give h(d) = min(k, C(d + 2, 2)) for d <= s / 2, so J
    # starts in the first degree with more than k monomials
    a = _check_lemma(_power_sum(s, forms))
    assert a == next(d for d in range(s + 2) if math.comb(d + 2, 2) > len(forms))


@pytest.mark.parametrize("exps", [(1, 2, 3), (0, 3, 4), (2, 2, 2), (1, 1, 5)])
def test_tail_lemma_on_monomials(exps):
    # ann((x^i y^j z^k)*) = (x^(i+1), y^(j+1), z^(k+1)): a = min + 1
    phi = DualElement.dual_monomial(QQ, Monomial(*exps))
    assert _check_lemma(phi) == min(exps) + 1


@pytest.mark.parametrize("s", range(1, 7))
def test_a_generator_of_degree_s_plus_2_minus_a_is_not_skipped(s):
    # ann((x^s)*) = (y, z, x^(s+1)): a = 1, and x^(s+1) sits in degree
    # s + 2 - a, the last degree the lemma leaves to the ranks
    phi = DualElement.dual_monomial(QQ, Monomial(s, 0, 0))
    y, z = (Polynomial.variable(QQ, v) for v in ("y", "z"))
    top = Polynomial.monomial(QQ, Monomial(s + 1, 0, 0))
    short = oracle.ideal_equality_check([y, z], phi)
    assert short == reference.ideal_equality_check([y, z], phi)
    assert [v.degree for v in short if not v.equal] == [s + 1]
    total = math.comb(s + 3, 2)
    assert (short[-1].dim_span, short[-1].dim_annihilator) == (total - 1, total)
    whole = oracle.ideal_equality_check([y, z, top], phi, max_degree=s + 3)
    assert whole == reference.ideal_equality_check([y, z, top], phi,
                                                   max_degree=s + 3)
    assert all(v.equal for v in whole)


def _quadratic_generators(phi):
    lin = resolution.build_linear_presentation(phi)
    return resolution.build_quadratic_presentation(lin).generators.entries[0]


@pytest.mark.parametrize("phi", [
    pytest.param(family_phi(4), id="family-4"),
    pytest.param(family_phi(6), id="family-6"),
    pytest.param(random_dual_element(GF, 11, random.Random(0)), id="gf-6-seed0"),
])
def test_a_dropped_generator_matches_the_reference(phi):
    # the others recover the dropped generator's multiples in some higher
    # degrees, so which tail degrees are "equal" is up to the ranks
    gens = _quadratic_generators(phi)
    dropped = gens[:2] + gens[3:]
    verdicts = oracle.ideal_equality_check(dropped, phi)
    assert verdicts == reference.ideal_equality_check(dropped, phi)
    assert not verdicts[gens[0].degree].equal


def test_a_non_member_in_the_tail_keeps_its_exact_span():
    # family n = 4: s = 7 and a = 4, so degree 6 opens the tail; a monomial
    # of degree 6 outside J must still raise the span above dim J_6
    phi = family_phi(4)
    gens = _quadratic_generators(phi)
    extra = next(Polynomial.monomial(QQ, m) for m in monomials_of_degree(6)
                 if not contract(Polynomial.monomial(QQ, m), phi).is_zero)
    verdicts = oracle.ideal_equality_check(gens + [extra], phi)
    assert verdicts == reference.ideal_equality_check(gens + [extra], phi)
    assert not verdicts[6].contained
    assert verdicts[6].dim_span == verdicts[6].dim_annihilator + 1


def test_generator_counts_take_no_rank_in_the_tail(monkeypatch):
    # family n = 4: J_3 = 0, so degrees 0-4 need no span; degree 5 is the
    # only one below the tail s + 3 - a = 6 that takes a rank
    fields = []
    rank = linalg.rank

    def counted_rank(m):
        fields.append(m.field)
        return rank(m)
    monkeypatch.setattr(linalg, "rank", counted_rank)
    summary = oracle.summarize_ideal(family_phi(4))
    assert summary.generator_counts == [0, 0, 0, 0, 5, 0, 0, 0, 0]
    assert fields == [QQ]
