"""The one-prime certificate over Q: ranks mod CERTIFICATE_PRIME where they
prove the answer, the exact rational path everywhere else; over GF(p) the
exact path on residues.  Whatever the prime and the field, the verdicts
must equal the exact reference."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from apolar import (DualElement, Monomial, Polynomial, PrimeField, QQ, cli,
                    family_phi, linalg, monomials_of_degree, oracle, resolution)
from apolar.residues import LIFT_PRIMES
from apolar.scalars import is_prime

import ideal_reference as reference

DEFAULT_PRIME = LIFT_PRIMES[0]


@pytest.fixture(scope="module")
def family():
    """phi and the Pfaffian generators of c2 for the family at n = 2, 4."""
    out = {}
    for n in (2, 4):
        phi = family_phi(n)
        lin = resolution.build_linear_presentation(phi)
        out[n] = (phi, resolution.build_quadratic_presentation(lin)
                  .generators.entries[0])
    return out


class Eliminations:
    """Records the field of each linalg.rank matrix and the modulus of each
    linalg._rank_mod call, the modular rank of the certificate."""

    def __init__(self, monkeypatch):
        self.fields = []
        self.moduli = []
        rank, rank_mod = linalg.rank, linalg._rank_mod

        def counted_rank(m):
            self.fields.append(m.field)
            return rank(m)

        def counted_rank_mod(rows, q):
            self.moduli.append(q)
            return rank_mod(rows, q)
        monkeypatch.setattr(linalg, "rank", counted_rank)
        monkeypatch.setattr(linalg, "_rank_mod", counted_rank_mod)

    @property
    def rational(self):
        return sum(1 for f in self.fields if f == QQ)

    @property
    def total(self):
        return len(self.fields) + len(self.moduli)


def test_certificate_prime_is_the_first_lift_prime():
    # the largest prime below 2^28: a slot of rref_mod is one 64-bit word
    # below 128 rows
    assert oracle.CERTIFICATE_PRIME == DEFAULT_PRIME == 268435399
    assert is_prime(DEFAULT_PRIME)
    assert not any(map(is_prime, range(DEFAULT_PRIME + 1, 2 ** 28)))
    assert 127 * (DEFAULT_PRIME - 1) ** 2 + DEFAULT_PRIME < 2 ** 63


@pytest.mark.parametrize("n", [2, 4])
def test_bad_prime_falls_back_to_the_exact_path(family, monkeypatch, n):
    phi, gens = family[n]
    exact = reference.ideal_equality_check(gens, phi)
    monkeypatch.setattr(oracle, "CERTIFICATE_PRIME", 2)
    calls = Eliminations(monkeypatch)
    assert oracle.ideal_equality_check(gens, phi) == exact
    assert all(v.equal for v in exact)
    assert calls.rational > 0


def test_default_prime_makes_no_rational_rank_call(family, monkeypatch):
    # s = 7 and the generators start in degree a0 = 4: one modular rank of
    # cat_3 proves J_3 = 0, so degrees 0-3 take no rank (the head lemma) and
    # dim J_d is exact above s - a0 = 3.  Degrees 4 and 5 take one span rank
    # each, and degrees s + 3 - a = 6 to 8 follow from the degree below
    # them without a rank (the tail lemma)
    phi, gens = family[4]
    calls = Eliminations(monkeypatch)
    verdicts = oracle.ideal_equality_check(gens, phi)
    assert all(v.equal for v in verdicts)
    assert len(verdicts) == 9
    assert calls.fields == []
    assert calls.moduli == [DEFAULT_PRIME] * 3


@pytest.mark.parametrize("n,ranks", [(4, 2), (5, 1)])
def test_verify_certifies_the_family_with_no_head_rank(tmp_path, monkeypatch,
                                                       capsys, n, ranks):
    # both paths of verify start their generators in degree a0 = n, and
    # s - a0 < a0 (s = 2n - 1 for phi at n = 4, s = 2n - 2 for x(phi) at
    # n = 5): the head is proven by p's elimination, with no rank; then
    # span ranks at n and n + 1 on the quadratic path and at n on the
    # linear one, where the tail starts in degree n + 1
    path = tmp_path / "phi.json"
    assert cli.main(["example-family", "--n", str(n), "--out", str(path)]) == 0
    certificate = oracle.ideal_equality_check_ints
    seen = []

    def counted(*args, **kwargs):
        calls = Eliminations(monkeypatch)
        verdicts = certificate(*args, **kwargs)
        seen.append((list(calls.fields), list(calls.moduli)))
        return verdicts
    monkeypatch.setattr(oracle, "ideal_equality_check_ints", counted)
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")
    assert seen == [([], [DEFAULT_PRIME] * ranks)]


# the family, and seeded random inputs over GF(32003) and over Q
VERIFY_INPUTS = ([("family", n, []) for n in range(1, 9)]
                 + [("GF", n, ["--random", "--field", "Fp:32003", "--seed", "2"])
                    for n in range(1, 9)]
                 + [("Q", n, ["--random", "--field", "Q", "--seed", "5"])
                    for n in range(1, 7)])


@pytest.mark.parametrize("kind,n,extra", VERIFY_INPUTS,
                         ids=[f"{kind}-{n}" for kind, n, _ in VERIFY_INPUTS])
def test_verify_proves_the_head_from_one_modular_rank(tmp_path, monkeypatch,
                                                      capsys, kind, n, extra):
    # p is invertible on both paths of verify, so J_{n-1} = 0 and the head
    # is n: p's elimination proves it, and no rank is taken under
    # _head_degree.  Then one rank at each degree of [n, s + 2 - n]: n and
    # n + 1 on the quadratic path (n even, s = 2n - 1), n on the linear
    # path (s = 2n - 2); the tail lemma does the degrees above.  Ranks are
    # told by the certificate's own calls: the eliminations inside an exact
    # rank are not counted
    path = tmp_path / "phi.json"
    assert cli.main(["example-family", "--n", str(n), *extra,
                     "--out", str(path)]) == 0
    ranks, stack = [], []

    def spy(module, name):
        original = getattr(module, name)

        def spied(*args, **kwargs):
            if (name in ("_rank_mod", "_exact_rank")
                    and "ideal_equality_check_ints" in stack
                    and "_exact_rank" not in stack):
                ranks.append((name, "_head_degree" in stack))
            stack.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
        monkeypatch.setattr(module, name, spied)
    for module, name in [(oracle, "ideal_equality_check_ints"),
                         (oracle, "_head_degree"), (oracle, "_exact_rank"),
                         (linalg, "_rank_mod")]:
        spy(module, name)
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")
    assert [head for _, head in ranks].count(True) == 0
    assert len(ranks) == (2 if n % 2 == 0 else 1)


@pytest.mark.parametrize("n,builds", [(4, 1), (5, 1), (6, 1)])
def test_verify_builds_each_catalecticant_once(tmp_path, monkeypatch, capsys,
                                               n, builds):
    # the containment product reads cat_{s-n}: cat_{n-1} on the quadratic
    # path (n even, s = 2n - 1), cat_{n-2} on the linear path (n = 5,
    # s = 2n - 2); the head is proven without a catalecticant
    path = tmp_path / "phi.json"
    assert cli.main(["example-family", "--n", str(n), "--out", str(path)]) == 0
    catalecticant = oracle.catalecticant
    built = []

    def counted(phi, rows, d, x_free=False):
        built.append((len(rows), d))
        return catalecticant(phi, rows, d, x_free)
    monkeypatch.setattr(oracle, "catalecticant", counted)
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")
    assert len(built) == builds
    assert len(set(built)) == builds


def test_a_non_member_never_takes_the_modular_path(monkeypatch):
    # mod 2 the catalecticants of 2 (x^2)* vanish, so dim ann_2(1) = 3 would
    # match the span of y, z and the non-member x; that span fills degree 1,
    # and degree 2 must still take the exact annihilator
    phi = DualElement.dual_monomial(QQ, Monomial(2, 0, 0), 2)
    gens = [Polynomial.variable(QQ, v) for v in ("y", "z", "x")]
    monkeypatch.setattr(oracle, "CERTIFICATE_PRIME", 2)
    verdicts = oracle.ideal_equality_check(gens, phi)
    assert verdicts == reference.ideal_equality_check(gens, phi)
    assert [(v.dim_span, v.dim_annihilator) for v in verdicts] == [
        (0, 0), (3, 2), (6, 5), (10, 10)]
    assert [v.contained for v in verdicts] == [True, False, False, False]


def test_denominators_are_cleared_before_reduction(monkeypatch):
    # every coefficient has the denominator 2 or 3, which q = 2 and q = 3
    # divide; row scaling must make them units first
    phi = DualElement(QQ, 3, {Monomial(2, 1, 0): Fraction(1, 2),
                              Monomial(1, 1, 1): Fraction(2, 3),
                              Monomial(0, 0, 3): Fraction(5, 6)})
    gens = [f.scaled(Fraction(1, 6)) for d in range(1, 5)
            for f in reference.annihilator_degree(phi, d)]
    exact = reference.ideal_equality_check(gens, phi)
    for q in (2, 3):
        monkeypatch.setattr(oracle, "CERTIFICATE_PRIME", q)
        assert oracle.ideal_equality_check(gens, phi) == exact


def test_a_filled_degree_fills_every_higher_one_without_ranks(family, monkeypatch):
    phi, gens = family[2]
    monkeypatch.setattr(oracle, "CERTIFICATE_PRIME", 2)
    calls = Eliminations(monkeypatch)
    oracle.ideal_equality_check(gens, phi)
    oracle.summarize_ideal(phi)
    at_default = calls.total
    assert calls.rational > 0
    high = oracle.ideal_equality_check(gens, phi, max_degree=12)
    summary = oracle.summarize_ideal(phi, max_degree=12)
    assert calls.total == 2 * at_default
    assert high[:5] == reference.ideal_equality_check(gens, phi)
    assert all(v.equal and v.dim_span == len(monomials_of_degree(v.degree))
               for v in high[5:])
    assert summary.generator_counts[5:] == [0] * 8


@pytest.mark.parametrize("call", ["certificate-Q", "certificate-GF3",
                                  "summary", "annihilator"])
def test_the_oracle_boxes_no_matrix(family, monkeypatch, call):
    """The oracle's rows are ints read off one int form per polynomial:
    the validating Matrix constructor, which boxes the entries only
    for rank and kernel to unbox them, is never called, also where the
    prime 2 sends the certificate to the exact ranks."""
    phi, gens = family[2]
    gf3 = PrimeField(3)
    psi = DualElement(gf3, 3, {m: i % 3 for i, m in
                               enumerate(monomials_of_degree(3))})
    psi_gens = [f for d in range(1, 5)
                for f in oracle.annihilator_degree(psi, d)]
    run = {"certificate-Q": lambda: oracle.ideal_equality_check(gens, phi),
           "certificate-GF3": lambda: oracle.ideal_equality_check(psi_gens, psi),
           "summary": lambda: oracle.summarize_ideal(phi),
           "annihilator": lambda: oracle.annihilator_degree(phi, 3)}[call]
    monkeypatch.setattr(oracle, "CERTIFICATE_PRIME", 2)
    exact, boxed = [], []
    for name in ("rank", "kernel"):
        def counted(m, elimination=getattr(linalg, name)):
            exact.append(m.field)
            return elimination(m)
        monkeypatch.setattr(linalg, name, counted)
    init = linalg.Matrix.__init__

    def spy(self, *args, **kwargs):
        boxed.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(linalg.Matrix, "__init__", spy)
    run()
    assert exact
    assert boxed == []


def coefficients(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    return st.integers(0, field.p - 1)


@st.composite
def phi_and_generators(draw):
    """phi over Q, GF(3) or GF(32003), and generators drawn from its
    annihilator, plus possibly one monomial: over Q the exact rows are
    numerators over a common denominator, over GF(p) residues."""
    field = draw(st.sampled_from((QQ, PrimeField(3), PrimeField(32003))))
    coefficient = coefficients(field)
    s = draw(st.integers(3, 5))
    monos = monomials_of_degree(s)
    coeffs = draw(st.lists(coefficient, min_size=len(monos), max_size=len(monos)))
    phi = DualElement(field, s, dict(zip(monos, coeffs)))
    if phi.is_zero:
        phi = DualElement.dual_monomial(
            field, monos[draw(st.integers(0, len(monos) - 1))])
    bases = [reference.annihilator_degree(phi, d) for d in range(1, s + 2)]
    # at most ten basis elements keep the exact reference fast; the whole
    # lowest basis, when drawn, makes some degrees "equal"
    gens = draw(st.lists(st.sampled_from([f for b in bases for f in b]),
                         max_size=10, unique=True))
    if draw(st.booleans()):
        gens += next(b for b in bases if b)
    if draw(st.booleans()):
        m = draw(st.sampled_from(monomials_of_degree(draw(st.integers(1, s)))))
        gens.append(Polynomial.monomial(field, m,
                                        draw(coefficient.filter(bool))))
    return phi, draw(st.permutations(gens))


@settings(max_examples=40, deadline=None, database=None)
@given(phi_and_generators())
def test_verdicts_equal_the_exact_reference_for_any_prime(case):
    phi, gens = case
    exact = reference.ideal_equality_check(gens, phi)
    for q in (DEFAULT_PRIME, 2, 3):
        with mock.patch.object(oracle, "CERTIFICATE_PRIME", q):
            assert oracle.ideal_equality_check(gens, phi) == exact
