"""The slice-wise conjugation check gives the verdict of the full products.

``resolution.theta_conjugation_check(lin)`` evaluates Theta1 b2 = b2~ Theta2
and g~ Theta1 = g slice by slice on int rows; ``theta_reference`` compares
the whole products on ``(lin, reduced_presentation(lin))``.  Both read b2,
g, r, p^{-1} r and p^{-1} E off ``lin``, so they must agree on any ``lin``,
a corrupted one too.  The corruptions change one entry of one of them:
p^{-1} r or p^{-1} E, after which b2 and g are assembled again
(``resolution._assemble``), a row of T or another row of r, a slice of b2,
or a slice of the generator row.

The hypothesis test draws phi over Q, GF(3), GF(5) and GF(32003) with
n = 1..5 and one corruption, a zero change included, and asserts that the
verdicts are equal.  The fixed sweep asserts that each corruption of p^{-1} r,
p^{-1} E and r both passes and fails on every field.  A changed entry of b2
or of g always fails: Theta1 (b2 + D) = b2~ Theta2 = Theta1 b2 forces
D = 0, Theta1 being invertible, and g + d = g~ Theta1 = g forces d = 0.  So
for those two the sweep asserts FAIL on every change and PASS on the
unchanged input.  Over Q phi has denominators, so every L differs from 1.
The two tests take about 3 s together; the bound is 20 s.
"""

import dataclasses
import random

from hypothesis import assume, given, settings, strategies as st

from apolar import (DualElement, Matrix, PrimeField, QQ,
                    build_linear_presentation, random_dual_element,
                    reduced_presentation, resolution, theta_conjugation_check)
from apolar.poly import ONE

from theta_reference import theta_conjugation_reference

FIELDS = [QQ, PrimeField(3), PrimeField(5), PrimeField(32003)]
REASSEMBLED = ("p_inv_r", "p_inv_e")
KINDS = REASSEMBLED + ("r_T", "r_other", "b2", "generator_row")


def presentation(field, n, rng):
    """A random phi with an invertible p; over Q with denominators, so
    that r, p^{-1} r and p^{-1} E have L > 1."""
    while True:
        phi = random_dual_element(field, 2 * n - 1, rng)
        if field is QQ:
            phi = DualElement(QQ, phi.degree, {m: c / rng.randint(1, 6)
                                               for m, c in phi.coeffs.items()})
        lin = build_linear_presentation(phi)
        if lin.linearly_presented:
            return lin


def changed(m, u, i, j, d):
    """m with d / L added to entry (i, j) of its slice at the monomial u."""
    slices = {v: [list(row) for row in s] for v, s in m.slices.items()}
    s = slices.setdefault(u, [[0] * m.cols for _ in range(m.rows)])
    s[i][j] += d
    return Matrix._result(m.field, m.degree, m.rows, m.cols, m.L, slices,
                          reduce=True)


def corrupted(lin, kind, pick, d):
    """lin with one entry of ``kind`` changed by d / L, the entry chosen by
    ``pick(k)``, an index below k."""
    n, N = lin.n, lin.p.rows
    if kind in REASSEMBLED:
        m = getattr(lin, kind)
        m = changed(m, ONE, pick(m.rows), pick(m.cols), d)
        Y, W = (m, lin.p_inv_e) if kind == "p_inv_r" else (lin.p_inv_r, m)
        return resolution._assemble(lin.phi, n, lin.p, lin.r, Y, W, None,
                                    True)
    if kind in ("r_T", "r_other"):
        rows = range(N - n, N) if kind == "r_T" else range(N - n)
        return dataclasses.replace(lin, r=changed(
            lin.r, ONE, rows[pick(len(rows))], pick(n + 1), d))
    m = getattr(lin, kind)
    u = sorted(m.slices)[pick(len(m.slices))]
    return dataclasses.replace(
        lin, **{kind: changed(m, u, pick(m.rows), pick(m.cols), d)})


def verdicts(lin):
    return theta_conjugation_check(lin), theta_conjugation_reference(
        lin, reduced_presentation(lin))


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(FIELDS), st.integers(1, 5), st.integers(0, 2 ** 32),
       st.sampled_from(KINDS), st.data())
def test_the_slice_check_gives_the_full_product_verdict(field, n, seed, kind,
                                                        data):
    assume(not (kind == "r_other" and n == 1))  # r is T alone
    lin = presentation(field, n, random.Random(seed))
    q = getattr(field, "p", 0)
    d = data.draw(st.integers(0, q - 1) if q else st.integers(-3, 3))
    bad = corrupted(lin, kind, lambda k: data.draw(st.integers(0, k - 1)), d)
    new, reference = verdicts(bad)
    assert new == reference
    if not d:
        assert new


def test_every_corruption_kind_meets_both_verdicts():
    rng = random.Random(31)
    for field in FIELDS:
        q = getattr(field, "p", 7)
        for kind in KINDS:
            seen, pinned = set(), kind in ("b2", "generator_row")
            for n in range(1 + (kind == "r_other"), 6):
                for _ in range(6):
                    lin = presentation(field, n, rng)
                    d = rng.randrange(1, q)
                    new, reference = verdicts(
                        corrupted(lin, kind, rng.randrange, d))
                    assert new == reference, (field, kind, n)
                    seen.add(new)
                    if pinned:
                        unchanged = corrupted(lin, kind, rng.randrange, 0)
                        assert verdicts(unchanged) == (True, True)
            assert seen == ({False} if pinned else {True, False}), (field, kind)
