"""The two lemmas of the oracle, with J = ann(phi), s = deg phi and a the
least degree of J.  Tail: J_d = R_1 J_{d-1} and h(d) = C(s - d + 2, 2) for
every d >= s + 3 - a.  Head: if J_{a0-1} = 0, then J_d = 0 for d < a0 and
h(d) = C(s - d + 2, 2) for d > s - a0.  Both are checked here by brute force,
and the certificate and the generator counts that skip their ranks on them
are checked against the exact references, around the lemmas' boundaries and
on random generator sets."""

import functools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from apolar import (DualElement, Matrix, Monomial, Polynomial, PrimeField,
                    QQ, contract, family_phi, linalg, monomials_of_degree,
                    oracle, random_dual_element, resolution)
from apolar.poly import dense

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


def _check_head_lemma(phi):
    """For every a0, with generators starting in degree a0: the head rank
    holds exactly when J_{a0-1} = 0, and then J_d = 0 below a0 and dim J_d
    = C(d + 2, 2) - C(s - d + 2, 2) above s - a0."""
    fld, s = phi.field, phi.degree
    kernels = [reference.annihilator_degree(phi, d) for d in range(s + 2)]
    a = next(d for d, ker in enumerate(kernels) if ker)
    _, phi_int = oracle._int_form(phi)
    cat_rows = functools.partial(oracle._cat_rows, dense(phi_int, s), s)
    for a0 in range(1, s + 3):
        gens = [oracle._int_form(Polynomial.monomial(fld, Monomial(a0, 0, 0)))]
        head = oracle._head_degree(*oracle._cat_ranks(cat_rows, fld), gens)
        assert head == (a0 if a0 <= a else None)
        if head is None:
            continue
        assert not any(kernels[:a0])
        for d in range(s - a0 + 1, s + 2):
            assert len(kernels[d]) == \
                math.comb(d + 2, 2) - oracle._top_quotient_dim(s, d)
    return a


@pytest.mark.parametrize("fld", [QQ, GF], ids=str)
@pytest.mark.parametrize("s", range(1, 10))
@pytest.mark.parametrize("density", [1.0, 0.3])
def test_head_lemma_on_random_phi(fld, s, density):
    _check_head_lemma(_random_phi(fld, s, density))


@pytest.mark.parametrize("exps", [(1, 2, 3), (0, 3, 4), (0, 0, 5), (2, 2, 2)])
def test_head_lemma_on_monomials(exps):
    phi = DualElement.dual_monomial(QQ, Monomial(*exps))
    assert _check_head_lemma(phi) == min(exps) + 1


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


FIELDS = (QQ, PrimeField(3), PrimeField(7), GF)


@st.composite
def mutated_generators(draw):
    """phi of degree s = 2n - 1, n = 1-4, over Q, GF(3), GF(7) or
    GF(32003), and the bases of J_n and J_{n+1}, which generate J when phi
    is general; then maybe some generators dropped, one corrupted by an
    added term, and one extra form of degree n - 1 (a constant at n = 1)."""
    fld = draw(st.sampled_from(FIELDS), label="field")
    n = draw(st.integers(1, 4), label="n")
    phi = random_dual_element(fld, 2 * n - 1,
                              random.Random(draw(st.integers(0, 10 ** 6))))
    if phi.is_zero:
        phi = DualElement.dual_monomial(fld, Monomial(2 * n - 1, 0, 0))
    gens = [g for d in (n, n + 1) for g in oracle.annihilator_degree(phi, d)]
    scalar = st.integers(1, 20) if fld is QQ else st.integers(1, fld.p - 1)
    if gens and draw(st.booleans(), label="drop"):
        keep = draw(st.lists(st.booleans(), min_size=len(gens),
                             max_size=len(gens)))
        gens = [g for g, k in zip(gens, keep) if k]
    if gens and draw(st.booleans(), label="corrupt"):
        i = draw(st.integers(0, len(gens) - 1))
        m = draw(st.sampled_from(monomials_of_degree(gens[i].degree)))
        gens[i] = gens[i] + Polynomial.monomial(fld, m, draw(scalar))
    if draw(st.booleans(), label="extra"):
        monos = monomials_of_degree(n - 1)
        coeffs = draw(st.lists(scalar, min_size=len(monos), max_size=len(monos)))
        gens.append(Polynomial(fld, n - 1, {m: fld.of(c)
                                            for m, c in zip(monos, coeffs)}))
    return phi, [g for g in gens if not g.is_zero]


@settings(max_examples=60, deadline=None, database=None)
@given(mutated_generators())
def test_certificate_with_the_head_lemma_equals_the_reference(case):
    phi, gens = case
    exact = reference.ideal_equality_check(gens, phi)
    for q in (oracle.CERTIFICATE_PRIME, 2):
        with mock.patch.object(oracle, "CERTIFICATE_PRIME", q):
            assert oracle.ideal_equality_check(gens, phi) == exact


def _ranked_catalecticants(monkeypatch, kinds=None):
    """The degrees d of every cat_d the certificate ranks, in order, and
    (d, "mod q" or "exact") appended to ``kinds`` when given.  One build of
    cat_d serves the containment product and the ranks, so a rank is told
    by the identity of the rows it is given."""
    ranked, built = [], []
    cat_rows = oracle._cat_rows
    rank_mod, exact_rank = linalg._rank_mod, oracle._exact_rank

    def build(phi, s, d):
        rows = cat_rows(phi, s, d)
        built.append((rows, d))
        return rows

    def seen(rows, kind):
        for b, d in built:
            if b is rows:
                ranked.append(d)
                if kinds is not None:
                    kinds.append((d, kind))

    def spy_rank_mod(rows, q):
        seen(rows, "mod q")
        return rank_mod(rows, q)

    def spy_exact_rank(fld, rows):
        seen(rows, "exact")
        return exact_rank(fld, rows)
    monkeypatch.setattr(oracle, "_cat_rows", build)
    monkeypatch.setattr(linalg, "_rank_mod", spy_rank_mod)
    monkeypatch.setattr(oracle, "_exact_rank", spy_exact_rank)
    return ranked


def test_a_short_head_rank_falls_back_and_fails(monkeypatch):
    # family n = 4: J starts in degree 4, so generators from degree 5 on
    # have J_{a0-1} = J_4 != 0; the head rank falls short, degree 4 takes
    # its catalecticant rank and fails with dim_ann = dim J_4 = 5
    phi = family_phi(4)
    gens = oracle.annihilator_degree(phi, 5)
    _, phi_int = oracle._int_form(phi)
    cat_rows = functools.partial(oracle._cat_rows, dense(phi_int, 7), 7)
    assert oracle._head_degree(*oracle._cat_ranks(cat_rows, QQ),
                               [oracle._int_form(g) for g in gens]) is None
    ranked = _ranked_catalecticants(monkeypatch)
    verdicts = oracle.ideal_equality_check(gens, phi)
    assert verdicts == reference.ideal_equality_check(gens, phi)
    assert [v.degree for v in verdicts if not v.equal] == [4]
    assert (verdicts[4].dim_span, verdicts[4].dim_annihilator) == (0, 5)
    assert ranked[0] == 4 and set(range(5)) <= set(ranked)


def test_a_short_head_shares_its_ranks_with_the_loop(monkeypatch):
    # family n = 4 with the degree-5 annihilator as generators: the head
    # ranks cat_4 mod q and exactly, and degree 4, which fails, reads both
    # ranks back instead of taking them again.  Every other cat_d is ranked
    # mod q once, and the verdicts are the reference's
    phi = family_phi(4)
    gens = oracle.annihilator_degree(phi, 5)
    kinds = []
    _ranked_catalecticants(monkeypatch, kinds)
    verdicts = oracle.ideal_equality_check(gens, phi)
    assert verdicts == reference.ideal_equality_check(gens, phi)
    assert kinds[:2] == [(4, "mod q"), (4, "exact")]
    assert kinds.count((4, "mod q")) == kinds.count((4, "exact")) == 1
    assert len(kinds) == len(set(kinds))
    assert {d for d, kind in kinds if kind == "exact"} == {4}


def test_a_head_rank_short_mod_q_is_decided_exactly(monkeypatch):
    # the coefficient q of (x^3)* vanishes mod q, and the x column of cat_1
    # reads only that coefficient: rank 2 mod q, 3 over Q.  So J_1 = 0, and
    # the exact rank proves the head a0 = 2 that the modular one misses
    q = oracle.CERTIFICATE_PRIME
    phi = DualElement(QQ, 3, {Monomial(3, 0, 0): QQ.of(q),
                              Monomial(0, 3, 0): QQ.one,
                              Monomial(0, 0, 3): QQ.one})
    _, phi_int = oracle._int_form(phi)
    assert linalg._rank_mod(oracle._cat_rows(dense(phi_int, 3), 3, 1), q) == 2
    assert _check_head_lemma(phi) == 2
    gens = [g for d in (2, 3) for g in oracle.annihilator_degree(phi, d)]
    ranked = _ranked_catalecticants(monkeypatch)
    verdicts = oracle.ideal_equality_check(gens, phi)
    assert verdicts == reference.ideal_equality_check(gens, phi)
    assert all(v.equal for v in verdicts)
    assert ranked == [1, 1]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("s", range(1, 8))
def test_the_head_is_exact_whatever_the_prime(q, s):
    with mock.patch.object(oracle, "CERTIFICATE_PRIME", q):
        _check_head_lemma(_random_phi(QQ, s, 1.0))
        _check_head_lemma(family_phi((s + 1) // 2))


@pytest.mark.parametrize("fld", [QQ, GF], ids=str)
@pytest.mark.parametrize("s", range(1, 8))
def test_every_degree_of_a_non_empty_band_is_ranked(fld, s, monkeypatch):
    # ann((x^s)*) = (y, z, x^(s+1)): a0 = 1, the head rank is cat_0, and the
    # band [a0, s - a0] = [1, s - 1] keeps its catalecticant ranks; there
    # dim J_d = C(d + 2, 2) - 1, not the C(d + 2, 2) - C(s - d + 2, 2) of the
    # degrees above it
    phi = DualElement.dual_monomial(fld, Monomial(s, 0, 0))
    y, z = (Polynomial.variable(fld, v) for v in ("y", "z"))
    gens = [y, z, Polynomial.monomial(fld, Monomial(s + 1, 0, 0))]
    ranked = _ranked_catalecticants(monkeypatch)
    verdicts = oracle.ideal_equality_check(gens, phi)
    assert verdicts == reference.ideal_equality_check(gens, phi)
    assert all(v.equal for v in verdicts)
    assert ranked == list(range(s))


@settings(max_examples=60, deadline=None, database=None)
@given(mutated_generators(), st.data())
def test_a_proven_zero_degree_changes_no_verdict(case, data):
    # J_k = 0 holds for every k below a, the least degree of J; given as a
    # proven fact it replaces the head rank exactly when a0 - 1 <= k, a0
    # the least generator degree, and is ignored (the head is ranked) when
    # every generator has degree above k + 1
    phi, gens = case
    fld, s = phi.field, phi.degree
    a = next(d for d in range(s + 2) if reference.annihilator_degree(phi, d))
    k = data.draw(st.integers(0, a - 1), label="k")
    forms, phi_int = [oracle._int_form(g) for g in gens], oracle._int_form(phi)
    ranked = []
    head_degree = oracle._head_degree

    def spied(rank_q, rank, gens, zero_degree=None):
        return head_degree(lambda d: ranked.append(d) or rank_q(d),
                           lambda d: ranked.append(d) or rank(d),
                           gens, zero_degree)
    without = oracle.ideal_equality_check_ints(fld, forms, phi_int)
    with mock.patch.object(oracle, "_head_degree", spied):
        proven = oracle.ideal_equality_check_ints(fld, forms, phi_int,
                                                  zero_degree=k)
    assert proven == without == reference.ideal_equality_check(gens, phi)
    a0 = min((g.degree for g in gens), default=0)
    assert (ranked == []) == (a0 == 0 or a0 - 1 <= k)
