"""The rational RREF and inverse lifted from residues
(``residues.rref_lift``, ``residues.invert_lift``) against the
fraction-free elimination (``linalg._rref_int``, after Bareiss).

Over Q, ``linalg.kernel`` takes the RREF lift and ``linalg.invert`` the
inverse lift, which eliminate modulo ``residues.LIFT_PRIMES`` (the
inverse in place, at width N, by ``invert_mod``), reconstruct the entries
over one denominator and keep a candidate only when one exact product
proves it.  Every way the lifts can give up ends in ``_rref_int``: pivots
that differ between two primes or an inverse singular modulo one (a
matrix singular modulo the first prime, or a kernel pivot that moves),
and no proven candidate within the primes (a corrupted reconstruction, or
entries too large for the last prime).  ``invert`` takes the solve of
[m | I] when its lift gives up, and a singular matrix reports the rank of
``linalg.rank``.  In every case the answer is byte for byte the
fraction-free one.

``linalg`` skips the lift below ``BAREISS_BELOW`` rows, where Bareiss is
faster; the small matrices here take the lift all the same, as the
threshold is lowered to 0 for this module, except where a test pins the
threshold itself."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import apolar
from apolar import Matrix, QQ, cli, invert, kernel, linalg, residues
from apolar.scalars import is_prime

SETTINGS = settings(max_examples=150, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
Q0 = residues.LIFT_PRIMES[0]
# a prime above isqrt(prod(LIFT_PRIMES) / 2), the largest numerator or
# denominator the lift can reconstruct
BIG = 2 ** 127 - 1
CROSSOVER = linalg.BAREISS_BELOW


@pytest.fixture(autouse=True, scope="module")
def lift_from_zero_rows():
    with mock.patch.object(linalg, "BAREISS_BELOW", 0):
        yield


def fractions(bits):
    top = 2 ** bits
    return st.builds(Fraction, st.integers(-top, top),
                     st.integers(1, 2 ** (bits // 2) + 1))


@st.composite
def rational_matrices(draw):
    """Dense, sparse, rank-deficient (a product through k < min(r, c)) or
    with a repeated row, with entries of 3 to 100 bits, so that the lift
    takes one prime, several, or gives up."""
    r = draw(st.integers(1, 5))
    c = r if draw(st.booleans()) else draw(st.integers(1, 5))
    entry = st.one_of(st.just(Fraction(0)),
                      fractions(draw(st.sampled_from([3, 16, 40, 100]))))

    def block(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    rows = block(r, c)
    shape = draw(st.integers(0, 2))
    if shape == 1 and min(r, c) > 1:
        k = draw(st.integers(1, min(r, c) - 1))
        a, b = block(r, k), block(k, c)
        rows = [[sum(x * y for x, y in zip(ra, cb)) for cb in zip(*b)]
                for ra in a]
    elif shape == 2 and r > 1:
        rows[-1] = rows[0]
    return Matrix(QQ, rows)


def bareiss(rows):
    """(red / last, pivots) of the fraction-free elimination."""
    red, pivots, _ = linalg._rref_int([list(r) for r in rows])
    last = red[0][pivots[0]] if pivots else 1
    return [[Fraction(x, last) for x in r] for r in red], pivots


def without_lift(fn, m):
    with mock.patch.object(linalg, "_rref_lift", lambda rows: None), \
            mock.patch.object(linalg, "_invert_lift", lambda rows, L: None):
        return fn(m)


def assert_same_inverse(res, ref):
    assert res.rank == ref.rank
    assert (res.inverse is None) == (ref.inverse is None)
    if ref.inverse is not None:
        assert res.inverse.L == ref.inverse.L
        assert res.inverse.slices == ref.inverse.slices
        assert res.inverse.to_strings() == ref.inverse.to_strings()


class RrefIntCalls:
    """Counts the ``_rref_int`` calls, and those made inside ``invert``."""

    def __init__(self, monkeypatch):
        self.all = self.from_invert = 0
        inner, outer = linalg._rref_int, linalg.invert
        depth = [0]

        def counted(*args, **kwargs):
            self.all += 1
            self.from_invert += depth[0] > 0
            return inner(*args, **kwargs)

        def inverting(m):
            depth[0] += 1
            try:
                return outer(m)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(linalg, "_rref_int", counted)
        monkeypatch.setattr(linalg, "invert", inverting)


def eliminations(monkeypatch):
    """(kernel, modulus, width) of each ``rref_mod`` and ``invert_mod``
    call that the lifts make, in order."""
    calls = []
    for name in ("rref_mod", "invert_mod"):
        def counted(rows, q, *args, name=name, inner=getattr(residues, name)):
            calls.append((name, q, len(rows[0]) if rows else 0))
            return inner(rows, q, *args)
        monkeypatch.setattr(residues, name, counted)
    return calls


@SETTINGS
@given(rational_matrices())
def test_the_lift_equals_bareiss(m):
    rows = linalg._int_rows(m)
    copy = [list(r) for r in rows]
    lifted = residues.rref_lift(rows)
    assert rows == copy
    ref_red, ref_pivots = bareiss(rows)
    if lifted is not None:
        red, pivots, D = lifted
        assert D > 0 and pivots == ref_pivots
        assert [[Fraction(x, D) for x in r] for r in red] == ref_red
    assert kernel(m) == without_lift(kernel, m)
    if m.rows == m.cols:
        assert_same_inverse(invert(m), without_lift(invert, m))


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(st.integers(-9, 9), min_size=k, max_size=k),
    min_size=k, max_size=k)))
def test_an_inverse_past_the_last_prime_falls_back(rows):
    # m = A diag(BIG, 1, ...) has the first row of A^-1 over BIG as the
    # first row of its inverse, and BIG is a prime past every bound of the
    # lift: no candidate can be right, so none passes
    assume(len(bareiss(rows)[1]) == len(rows))
    m = Matrix(QQ, [[r[0] * BIG] + r[1:] for r in rows])
    calls = []
    inner = linalg._rref_int
    with mock.patch.object(linalg, "_rref_int",
                           lambda rows: calls.append(1) or inner(rows)):
        res = invert(m)
    assert calls == [1]
    assert_same_inverse(res, without_lift(invert, m))


def test_denominators_past_one_prime_take_two(monkeypatch):
    # 1 / a with a ~ 2^20 is past the bound of one 28-bit prime, 2^13.5,
    # and within that of two
    a = 2 ** 20 + 7
    taken = eliminations(monkeypatch)
    m = Matrix(QQ, [[a, 1], [0, 1]])
    res = invert(m)
    assert taken == [("invert_mod", q, 2) for q in residues.LIFT_PRIMES[:2]]
    assert res.inverse == Matrix(QQ, [[Fraction(1, a), Fraction(-1, a)],
                                      [0, 1]])


def test_a_matrix_singular_mod_the_first_prime_falls_back(monkeypatch):
    # diag(q0, 1) is singular mod q0, so the pivots of [p | I] mod q0 are
    # columns 1 and 2, and mod the next prime 0 and 1
    calls = RrefIntCalls(monkeypatch)
    taken = eliminations(monkeypatch)
    m = Matrix(QQ, [[Q0, 0], [0, 1]])
    assert residues.rref_lift(linalg._int_rows(m)) is None
    assert [q for _, q, _ in taken] == list(residues.LIFT_PRIMES[:2])
    res = linalg.invert(m)
    assert calls.from_invert == 1
    assert res.rank == 2
    assert res.inverse == Matrix(QQ, [[Fraction(1, Q0), 0], [0, 1]])


def test_a_singular_matrix_keeps_its_exact_rank():
    m = Matrix(QQ, [[1, 2, 3], [2, 4, 6], [Fraction(1, 3), 0, 1]])
    res = invert(m)
    assert (res.inverse, res.rank) == (None, 2)
    assert_same_inverse(res, without_lift(invert, m))


def test_a_corrupted_reconstruction_is_rejected(monkeypatch):
    # every candidate has one entry off by one: the exact product check
    # refuses each, and after the last prime the elimination falls back
    checks = []
    reconstruct, product = residues._reconstruct, residues.product

    def corrupted(U, M):
        out = reconstruct(U, M)
        if out is not None:
            out[0][0][0] += 1
        return out

    def checked(a, b, cols, q=0):
        out = product(a, b, cols, q)
        checks.append(any(map(any, out[1])))
        return out
    monkeypatch.setattr(residues, "_reconstruct", corrupted)
    monkeypatch.setattr(residues, "product", checked)
    m = Matrix(QQ, [[2, 1, 0], [1, 3, 1], [0, 1, Fraction(5, 7)]])
    ref = without_lift(invert, m)
    calls = RrefIntCalls(monkeypatch)
    assert_same_inverse(linalg.invert(m), ref)
    # the lift of the inverse alone: invertible modulo every prime, so no
    # lift of [m | I] follows, only the fraction-free elimination
    assert checks == [True] * len(residues.LIFT_PRIMES)
    assert calls.from_invert == 1


def test_a_kernel_pivot_that_moves_falls_back(monkeypatch):
    # [[q0, 1]]: over Q the pivot is column 0, mod q0 it is column 1, whose
    # candidate [1, 0] fails the check; the next prime moves the pivot
    calls = RrefIntCalls(monkeypatch)
    m = Matrix(QQ, [[Q0, 1]])
    assert residues.rref_lift(linalg._int_rows(m)) is None
    assert kernel(m) == [[Fraction(-1, Q0), Fraction(1)]]
    assert calls.all == 1


def test_a_kernel_entry_past_the_last_prime_falls_back(monkeypatch):
    assert math.prod(residues.LIFT_PRIMES) < 2 * BIG ** 2
    calls = RrefIntCalls(monkeypatch)
    m = Matrix(QQ, [[BIG, 1, 0], [0, 0, 1]])
    assert residues.rref_lift(linalg._int_rows(m)) is None
    assert kernel(m) == [[Fraction(-1, BIG), Fraction(1), Fraction(0)]]
    assert calls.all == 1


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (2, 2)])
def test_empty_and_zero_matrices_are_lifted(monkeypatch, rows, cols):
    # no prime without an entry, and one for a zero matrix
    taken = eliminations(monkeypatch)
    calls = RrefIntCalls(monkeypatch)
    m = Matrix(QQ, [[0] * cols for _ in range(rows)], cols=cols)
    assert kernel(m) == [[Fraction(int(i == j)) for i in range(cols)]
                         for j in range(cols)]
    assert calls.all == 0
    assert len(taken) == (1 if rows and cols else 0)


def unit_triangular(n, lower):
    """1 on the diagonal and small ints below it or above it: det 1."""
    return [[int(i == j) + ((i + 2 * j) % 5 if (j < i if lower else j > i)
                            else 0) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [4, 5])
def test_an_inverse_from_the_crossover_on_takes_only_the_kernel_in_place(
        monkeypatch, n):
    # the family's p, 10 x 10 and 15 x 15: invert_mod at each prime the
    # lift takes, no elimination of the 2N-wide [p | I] and no Bareiss
    monkeypatch.setattr(linalg, "BAREISS_BELOW", CROSSOVER)
    p = apolar.resolution.build_p_r(apolar.family_phi(n), n)[0]
    N = p.rows
    ref = without_lift(invert, p)
    taken = eliminations(monkeypatch)
    calls = RrefIntCalls(monkeypatch)
    res = invert(p)
    assert N >= CROSSOVER and taken and calls.all == 0
    assert taken == [("invert_mod", q, N)
                     for q in residues.LIFT_PRIMES[:len(taken)]]
    assert_same_inverse(res, ref)


def test_the_inverse_lift_reconstructs_the_inverse_of_m_not_of_l_m(
        monkeypatch):
    # m = W^{-1} for an int W with entries within 50 and det about 2^44:
    # the int rows of m are L m with L about 2^44, so (L m)^{-1} = W / L
    # would take four primes, but m^{-1} = W, as [L m | L I] gives it, one
    monkeypatch.setattr(linalg, "BAREISS_BELOW", CROSSOVER)
    rng = random.Random(0)
    W = Matrix(QQ, [[rng.randint(-50, 50) for _ in range(8)]
                    for _ in range(8)])
    m = without_lift(invert, W).inverse
    assert m.L > 2 ** 43
    taken = eliminations(monkeypatch)
    assert invert(m).inverse == W
    assert taken == [("invert_mod", Q0, 8)]


def test_an_inverse_singular_mod_the_first_prime_falls_back(monkeypatch):
    # det m = q0: invert_mod gives None at q0, and the fallback solve of
    # [m | I] still finds the exact inverse, as its lift does not
    monkeypatch.setattr(linalg, "BAREISS_BELOW", CROSSOVER)
    lower, upper = unit_triangular(8, True), unit_triangular(8, False)
    m = (Matrix(QQ, lower) @ Matrix(QQ, [[int(i == j) * (Q0 if i == 3 else 1)
                                          for j in range(8)] for i in range(8)])
         @ Matrix(QQ, upper))
    assert linalg.det(m) == Q0
    taken = eliminations(monkeypatch)
    calls = RrefIntCalls(monkeypatch)
    res = linalg.invert(m)
    assert taken[0] == ("invert_mod", Q0, 8)
    assert [kernel for kernel, _, _ in taken[1:]] == ["rref_mod"] * 2
    assert calls.from_invert == 1
    assert res.rank == 8 and m @ res.inverse == Matrix(QQ, [
        [int(i == j) for j in range(8)] for i in range(8)])


@SETTINGS
@given(st.sampled_from([QQ, apolar.PrimeField(32003)]), st.integers(1, 9),
       st.data())
def test_a_singular_inverse_reports_the_rank(field, n, data):
    # a product through k < n: rank at most k, with the rank of rank()
    k = data.draw(st.integers(0, n - 1))
    entry = st.integers(-5, 5)
    a, b = [Matrix(field, [[data.draw(entry) for _ in range(c)]
                           for _ in range(r)], cols=c)
            for r, c in ((n, k), (k, n))]
    m = a @ b
    res = invert(m)
    assert (res.inverse, res.rank) == (None, apolar.rank(m))


@pytest.mark.parametrize("build, error", [
    (lambda: Matrix(QQ, [[1, 2]] * 8), ValueError),
    (lambda: Matrix(QQ, unit_triangular(8, True)).times_monomial(
        apolar.Monomial(1, 0, 0)), TypeError)], ids=["non-square", "forms"])
def test_invert_refuses_before_any_elimination(monkeypatch, build, error):
    m = build()
    taken = eliminations(monkeypatch)
    calls = RrefIntCalls(monkeypatch)
    with pytest.raises(error):
        invert(m)
    assert taken == [] and calls.all == 0


@pytest.mark.parametrize("n", [4, 5])
def test_verify_on_the_family_lifts_only_the_solve_of_p(tmp_path, monkeypatch,
                                                        capsys, n):
    # p, 10 x 10 at n = 4 and 15 x 15 at n = 5, is solved by the lift with
    # no Bareiss; A' at n = 4, 4 x 4 and below the crossover, by Bareiss
    # with no lift prime
    monkeypatch.setattr(linalg, "BAREISS_BELOW", CROSSOVER)
    path = tmp_path / "phi.json"
    assert cli.main(["example-family", "--n", str(n), "--out", str(path)]) == 0
    calls = RrefIntCalls(monkeypatch)
    taken = eliminations(monkeypatch)
    solves, solve = [], linalg.solve

    def spied(m, b):
        before = len(taken), calls.all
        out = solve(m, b)
        solves.append((m.rows, len(taken) > before[0], calls.all - before[1]))
        return out
    monkeypatch.setattr(linalg, "solve", spied)
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")
    N = n * (n + 1) // 2
    assert solves == [(N, True, 0)] + ([(4, False, 1)] if n == 4 else [])
    assert CROSSOVER > 4 and N >= CROSSOVER


@pytest.mark.parametrize("q", residues.LIFT_PRIMES)
def test_the_lift_primes_are_proven_and_keep_one_word_slots(q):
    # rref_mod on fewer than 128 rows bounds a slot by 127 (q - 1)^2 + q
    assert q < 2 ** 28 and is_prime(q)
    assert residues.slot_words(127 * (q - 1) ** 2 + q) == 1


def test_residues_imports_nothing_from_the_package():
    # the plain-int kernels take no Matrix, Field or Fraction
    path = Path(apolar.__file__).parent / "residues.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert "struct" in imported
    assert not [name for name in imported
                if name.startswith((".", "apolar", "fractions"))]
