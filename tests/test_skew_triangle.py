"""Tests of the one-triangle storage of the Pfaffian kernel.

``linalg._skew_mod`` reads only the entries above the diagonal, so its
output must not change when the diagonal and the triangle below it hold
garbage.  It takes each cell as a lane list, one entry per matrix of a
batch; these tests run single matrices as one lane, and whole batches,
where each lane must equal its one-lane run.  The matrices are sparse, so
the first nonzero entry of a row is often more than one index past the
pivot (a partner swap at distance > 1), and for odd sizes some have one
dependent index, first, in the middle or last, which the elimination moves
to the end.  ``_pfaffian_coefficients``
evaluates the entries from one int vector per monomial; the edge cases here
are matrices with no nonzero entry above the diagonal, sizes 0 and 1, and
scalar matrices, whose only monomial is 1.
"""

import random
from fractions import Fraction

import pytest

from apolar import (FieldMatrix, FpElement, PolyMatrix, Polynomial,
                    PrimeField, QQ, linalg, pfaffian, signed_maximal_pfaffians)
from apolar.poly import monomials_of_degree
from pfaffian_reference import (reference_pfaffian,
                                reference_signed_maximal_pfaffians)

MODULI = (7, 32003)
FIELDS = (QQ, PrimeField(32003), PrimeField(3))


def sparse_alternating(size, q, rng, density):
    """The upper triangle of a random alternating residue matrix, each entry
    nonzero with probability ``density``, as full rows with zeros below."""
    a = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < density:
                a[i][j] = rng.randrange(1, q)
    return a


def with_dependent_index(size, t, q, rng, density):
    """C^T B C mod q, upper triangle only, for a sparse random alternating B
    of size ``size - 1`` and C whose columns are the unit vectors in order,
    except column t, a random combination of the columns before it (zero
    for t = 0).  Row t then depends on the rows before it."""
    b = sparse_alternating(size - 1, q, rng, density)
    full = [[b[i][j] if i < j else -b[j][i] % q for j in range(size - 1)]
            for i in range(size - 1)]
    cols = []
    for s in range(size):
        if s == t:
            weights = [rng.randrange(q) for _ in cols]
            cols.append([sum(w * c[r] for w, c in zip(weights, cols)) % q
                         for r in range(size - 1)])
        else:
            unit = s - (s > t)
            cols.append([int(r == unit) for r in range(size - 1)])
    a = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            a[i][j] = sum(cols[i][r] * full[r][c] * cols[j][c]
                          for r in range(size - 1)
                          for c in range(size - 1)) % q
    return a


def cases(q):
    """(name, upper-triangle rows) for every size 0-13: dense and sparse
    random matrices and, for odd sizes from 3, one with a dependent index
    first, in the middle and last."""
    rng = random.Random(q)
    for size in range(14):
        for density in (1.0, 0.5, 0.25):
            yield f"{size}-{density}", sparse_alternating(size, q, rng, density)
        if size % 2 and size > 1:
            for t in sorted({0, size // 2 - size // 2 % 2, size - 1}):
                yield (f"{size}-dependent-{t}",
                       with_dependent_index(size, t, q, rng, 0.6))


def zero_at_step(size, k, q, rng):
    """2 x 2 blocks on (0, 1), ..., (k - 2, k - 1), then a random alternating
    block on k.. whose entry (k, k + 1) is zero: the elimination leaves row
    k as it is until step k, where it has no pivot at k + 1."""
    a = [[0] * size for _ in range(size)]
    for i in range(0, k, 2):
        a[i][i + 1] = rng.randrange(1, q)
    for i in range(k, size):
        for j in range(i + 1, size):
            if (i, j) != (k, k + 1):
                a[i][j] = rng.randrange(q)
    return a


def alternating_copy(a, q):
    m = len(a)
    return [[a[i][j] if i < j else -a[j][i] % q if i > j else 0
             for j in range(m)] for i in range(m)]


def with_garbage(a, q, rng):
    m = len(a)
    return [[a[i][j] if i < j else rng.randrange(q) for j in range(m)]
            for i in range(m)]


def as_lanes(mats):
    """The matrices, all of one size, as one matrix of lane lists."""
    size = len(mats[0])
    return [[[a[i][j] for a in mats] for j in range(size)] for i in range(size)]


def skew_one_lane(a, q):
    [out] = linalg._skew_mod(as_lanes([a]), q)
    return out


def boxed_reference(a, q):
    field = PrimeField(q)
    m = FieldMatrix(field, [[field.of(x) for x in r]
                            for r in alternating_copy(a, q)], len(a))
    if len(a) % 2:
        return reference_signed_maximal_pfaffians(m)
    return [reference_pfaffian(m)]


@pytest.mark.parametrize("q", MODULI)
def test_skew_elimination_reads_only_above_the_diagonal(q, monkeypatch):
    swaps = []
    original = linalg._swap

    def spy(a, k, perm, s, t):
        swaps.append((len(a), k, s, t))
        return original(a, k, perm, s, t)

    monkeypatch.setattr(linalg, "_swap", spy)
    rng = random.Random(q + 1)
    for name, a in cases(q):
        expected = boxed_reference(a, q)
        out = skew_one_lane(alternating_copy(a, q), q)
        assert out == skew_one_lane(with_garbage(a, q, rng), q), name
        assert [FpElement(x, q) for x in out] == expected, name
    # partner swaps at distance > 1, and odd sizes moving a zero row last
    assert any(t - s > 1 and s == k + 1 for _, k, s, t in swaps)
    assert any(m % 2 and s == k and t == m - 1 for m, k, s, t in swaps)
    assert any(m % 2 and k == 0 and s == 0 and t == m - 1
               for m, k, s, t in swaps)


def zero_matrix(field, size, degree):
    if degree is None:
        return FieldMatrix(field, [[field.zero] * size
                                   for _ in range(size)], size)
    z = Polynomial.zero(field, degree)
    return PolyMatrix(field, degree, [[z] * size for _ in range(size)], size)


def check(m):
    assert pfaffian(m) == reference_pfaffian(m)
    if m.rows % 2:
        assert signed_maximal_pfaffians(m).entries[0] == \
            reference_signed_maximal_pfaffians(m)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("degree", [None, 1, 2])
@pytest.mark.parametrize("size", [0, 1, 3, 4])
def test_no_entry_above_the_diagonal(field, degree, size):
    m = zero_matrix(field, size, degree)
    check(m)
    if size % 2:
        row = signed_maximal_pfaffians(m).entries[0]
        assert all(not e for e in row) == (size > 1)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("size", [2, 5, 6, 7])
def test_scalar_matrices_have_one_slice(field, size):
    rng = random.Random(size)
    rows = [[field.zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.7:
                v = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                v = field.of(v) if field is QQ else field.of(v.numerator)
                rows[i][j], rows[j][i] = v, -v
    check(FieldMatrix(field, rows, size))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_forms_with_one_nonzero_entry(field):
    """Only (0, 2) is nonzero above the diagonal: a single position, with
    one slice per monomial of the entry."""
    z = Polynomial.zero(field, 2)
    e = Polynomial(field, 2, {u: field.of(k + 1) for k, u in
                              enumerate(monomials_of_degree(2))})
    rows = [[z] * 5 for _ in range(5)]
    rows[0][2], rows[2][0] = e, -e
    for size in (3, 5):
        check(PolyMatrix(field, 2, [r[:size] for r in rows[:size]], size))


@pytest.mark.parametrize("q", MODULI)
def test_lanes_follow_their_own_pivots(q, monkeypatch):
    """All the cases of one size from 1, plus sparser and all-zero matrices
    and one that is zero at the pivot of each step, run as the lanes of one
    batch (a 0 x 0 matrix holds no lane list, so it is one lane).  Each lane equals its one-lane run, every swap
    kind occurs, and lanes split off at every pivot step."""
    swaps, splits = [], []
    original_swap, original_pick = linalg._swap, linalg._pick

    def swap_spy(a, k, perm, s, t):
        swaps.append((len(a), k, s, t))
        return original_swap(a, k, perm, s, t)

    def pick_spy(group, flags, nonzero):
        splits.append((len(group[1]), group[-1]))
        return original_pick(group, flags, nonzero)

    rng = random.Random(q + 2)
    by_size = {}
    for _, a in cases(q):
        if a:
            by_size.setdefault(len(a), []).append(a)
    for size, mats in by_size.items():
        mats += [sparse_alternating(size, q, rng, d)
                 for d in (0, 0.1, 0.3, 1, 1, 1)]
        mats += [zero_at_step(size, k, q, rng) for k in range(0, size - 1, 2)]
        expected = [skew_one_lane(a, q) for a in mats]
        monkeypatch.setattr(linalg, "_swap", swap_spy)
        monkeypatch.setattr(linalg, "_pick", pick_spy)
        assert linalg._skew_mod(as_lanes(mats), q) == expected, size
        monkeypatch.undo()
    assert any(t - s > 1 and s == k + 1 for _, k, s, t in swaps)
    assert any(m % 2 and k > 0 and s == k and t == m - 1
               for m, k, s, t in swaps)
    assert any(m % 2 and k == 0 and s == 0 and t == m - 1
               for m, k, s, t in swaps)
    for size in range(2, 14):
        steps = set(range(0, size - 1 - size % 2, 2))
        assert {k for m, k in splits if m == size} >= steps, size
