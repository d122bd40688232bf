"""Property tests of the plain-int kernels of ``apolar.linalg`` against the
boxed loops in ``elimination_reference``: the packed matrix product, and
each of its two packings, on scalar and form matrices of every shape and
degree, over GF(3), GF(32003), GF(2^61 - 1) and Q (numerators up to
2^130), with all-zero rows, rows of one nonzero entry and matrices with no
slice, on int slices with int keys and all-zero slices, on sums that reach
its slot bound, with a slot one bit narrower failing, taking one big-int
product per nonzero entry of the left operand when that packing costs
fewer, and the packing with fewer multiply-adds; the fraction-free
Gauss-Jordan over Q, the eliminations over GF(32003) and GF(3), the
packed-row elimination mod 3, 32003 and 2^61 - 1 (including a row that
takes every update, the worst case of its slot width), and the
forward-only rank pass against the rank of the full reduction.  Beyond equality with the reference, a product
stores no zero coefficient, keeps the declared degree on zero entries,
boxes int sums that vanish mod p to zero, and has the sum of the degrees
of its operands; ``times_monomial`` equals the product with a monomial.
``kernel`` boxes only the entries of the reduced rows that it reads, and
``invert`` boxes nothing until its entries are read."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from apolar import (Matrix, Polynomial, PrimeField, QQ, det, invert, kernel,
                    linalg, rank, residues)
from apolar.poly import Monomial, monomials_of_degree, random_dual_element
from apolar.resolution import build_linear_presentation
from elimination_reference import (reference_det, reference_inverse,
                                   reference_kernel, reference_product,
                                   reference_rank, reference_rref)

FIELDS = (QQ, PrimeField(32003), PrimeField(3))
SETTINGS = settings(max_examples=150, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def scalars(field, big=False):
    """Scalars of the field; over Q with ``big``, numerators up to 2^130."""
    if field is QQ:
        top = 2 ** 130 if big else 40
        return st.builds(Fraction, st.integers(-top, top), st.integers(1, 12))
    return st.builds(field.of, st.integers(0, field.p - 1))


@st.composite
def matrices(draw, field, rows, cols, degree=0, big=False):
    """A matrix of the given degree, of scalars at degree 0: dense, sparse,
    all zero (no slice at all), or row by row dense, zero or with one
    nonzero entry of one monomial, the shape of the selector row of
    ``explicit_generators``."""
    shape = draw(st.sampled_from(["dense", "sparse", "zero", "rows"]))
    zero = Polynomial.zero(field, degree) if degree else field.zero
    monos = monomials_of_degree(degree)

    def entry(kind):
        if kind == "zero" or kind == "sparse" and draw(st.integers(0, 2)):
            return zero
        if not degree:
            return draw(scalars(field, big))
        chosen = draw(st.lists(st.sampled_from(monos), max_size=len(monos)))
        return Polynomial(field, degree, {m: draw(scalars(field, big))
                                          for m in chosen})

    def one_nonzero():
        c = draw(scalars(field, big).filter(bool))
        return c if not degree else Polynomial(
            field, degree, {draw(st.sampled_from(monos)): c})

    def row():
        kind = draw(st.sampled_from(["dense", "zero", "one"])
                    if shape == "rows" else st.just(shape))
        r = [entry(kind) if kind != "one" else zero for _ in range(cols)]
        if kind == "one" and cols:
            r[draw(st.integers(0, cols - 1))] = one_nonzero()
        return r

    return Matrix(field, [row() for _ in range(rows)], cols, degree)


degrees = st.sampled_from([0, 1, 2])


@st.composite
def products(draw):
    """Operands over GF(3), GF(32003), GF(2^61 - 1) (two-word slots) and Q,
    with numerators up to 2^130 in one case of two (slots of several
    words, both signs)."""
    field = draw(st.sampled_from(FIELDS + (PrimeField(2 ** 61 - 1),)))
    big = field is QQ and draw(st.booleans())
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    a = draw(matrices(field, r, k, draw(degrees), big))
    b = draw(matrices(field, k, c, draw(degrees), big))
    return a, b


PACKINGS = (residues._by_rows, residues._by_monomials)


def through_each_packing(a, b):
    """a @ b by each packing of ``residues.product``, called directly; none
    when an operand has no slice, which ``product`` answers at once."""
    if not (a.slices and b.slices):
        return []
    q = getattr(a.field, "p", 0)
    return [Matrix._result(a.field, a.degree + b.degree, a.rows, b.cols,
                           a.L * b.L, packing(a.slices, b.slices, b.cols, q))
            for packing in PACKINGS]


@SETTINGS
@given(products())
def test_product_equals_the_boxed_triple_loop(pair):
    """Also: so does each packing of ``residues.product`` on every draw;
    the result has the sum of the degrees of the operands, and every entry
    of a form product has that degree, zero or not, and stores only
    nonzero coefficients of the field's own scalar type."""
    a, b = pair
    expected = reference_product(a, b)
    out = a @ b
    assert out == expected
    assert all(m == expected for m in through_each_packing(a, b))
    assert out.degree == a.degree + b.degree
    one = type(a.field.one)
    for e in (e for r in out.entries for e in r):
        if out.degree:
            assert e.degree == out.degree
            assert all(e.coeffs.values())
            assert all(type(c) is one for c in e.coeffs.values())
        else:
            assert type(e) is one


def test_a_slot_one_bit_narrower_fails(monkeypatch):
    """2^32 times 2^31 over Q is 2^63, whose 64 bits and sign bit take two
    words per slot.  Sized one bit narrower, for half the bound, the slot
    is one word: the width assertion trips, or, with assertions stripped,
    the biased sum 2^64 overflows its slot."""
    a, b = Matrix(QQ, [[2 ** 32]]), Matrix(QQ, [[2 ** 31]])
    expected = Matrix(QQ, [[2 ** 63]])
    assert a @ b == expected
    words = residues.slot_words
    assert words(2 ** 63) == 2 and words(2 ** 62) == 1
    monkeypatch.setattr(residues, "slot_words", lambda bound: words(bound >> 1))
    try:
        out = a @ b
    except (AssertionError, OverflowError):
        return
    assert out != expected


def worst_case(case):
    """Operands whose product reaches the slot bound
    k * pairs * max|a| * max|b| of ``residues.product`` in one entry."""
    if case == "GF(2^61 - 1)":
        f = PrimeField(2 ** 61 - 1)
        return (Matrix(f, [[f.p - 1] * 128]),
                Matrix(f, [[f.p - 1]] * 128))
    if case == "k terms":
        return (Matrix(QQ, [[2 ** 31, 2 ** 31]]),
                Matrix(QQ, [[2 ** 31], [2 ** 31]]))
    x, y = (Polynomial.variable(QQ, v) for v in "xy")
    form = x.scaled(2 ** 31) + y.scaled(2 ** 31)
    return Matrix(QQ, [[form]], degree=1), Matrix(QQ, [[form]], degree=1)


@pytest.mark.parametrize("case", ["k terms", "two pairs", "GF(2^61 - 1)"])
def test_sums_that_reach_the_slot_bound(case):
    """2^31 2^31 + 2^31 2^31 = 2^63 over Q, as k = 2 terms or as the two
    slice pairs (x, y) and (y, x) at xy, and 128 (q - 1)^2 > 2^128 at
    q = 2^61 - 1: a slot sized without the factor k or pairs, or over Q
    without the sign bit, is a word short for these sums, in either
    packing."""
    a, b = worst_case(case)
    expected = reference_product(a, b)
    assert a @ b == expected
    assert through_each_packing(a, b) == [expected] * len(PACKINGS)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
def test_a_product_multiplies_only_the_nonzero_entries(field, monkeypatch):
    """The row of the N degree-2 monomials times an N x 3 matrix: each of
    its N slices holds a single 1, so the product takes N big-int products,
    one per nonzero entry, where a dense product would take N^2."""
    monos = monomials_of_degree(2)
    xm = Matrix(field, [[Polynomial.monomial(field, m) for m in monos]],
                degree=2)
    images = Matrix(field, [[i + j - 3 for j in range(3)]
                                 for i in range(len(monos))])
    calls = []

    def counted(x, y):
        calls.append(x)
        return x * y
    monkeypatch.setattr(residues, "mul", counted)
    assert xm @ images == reference_product(xm, images)
    assert calls == [1] * len(monos)


@st.composite
def int_slices(draw):
    """Int slices as ``rref_lift`` passes them, keyed by ints, here 1, 2, 3
    and 6 so that products meet (1 * 6 = 2 * 3 = 6 * 1), all-zero slices
    kept: residues mod 3 or 2^61 - 1, or integers up to 2^130 (q = 0)."""
    q = draw(st.sampled_from([0, 3, 2 ** 61 - 1]))
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    entry = st.integers(0, q - 1) if q else st.integers(-2 ** 130, 2 ** 130)

    def slices(rows, cols):
        keys = draw(st.lists(st.sampled_from([1, 2, 3, 6]), min_size=1,
                             max_size=3, unique=True))
        fill = [draw(st.sampled_from(["zero", "sparse", "dense"]))
                for _ in keys]
        return {u: [[draw(entry) if f == "dense" or f == "sparse"
                     and draw(st.booleans()) else 0 for _ in range(cols)]
                    for _ in range(rows)] for u, f in zip(keys, fill)}
    return slices(r, k), slices(k, c), c, q


@SETTINGS
@given(int_slices())
def test_both_packings_on_int_keys_and_zero_slices(case):
    """Each packing and ``product`` equal the triple loop on ints, one
    slice per product of keys, all-zero ones included."""
    a, b, c, q = case
    expected: dict = {}
    for u, A in a.items():
        for v, B in b.items():
            out = expected.setdefault(u * v, [[0] * c for _ in A])
            for row, arow in zip(out, A):
                row[:] = [x + sum(y * z for y, z in zip(arow, col))
                          for x, col in zip(row, zip(*B))]
    if q:
        expected = {u: [[x % q for x in r] for r in s]
                    for u, s in expected.items()}
    for packing in PACKINGS:
        assert packing(a, b, c, q) == expected
    assert residues.product(a, b, c, q) == expected


def test_each_product_takes_the_packing_with_fewer_multiply_adds(
        monkeypatch):
    """At GF(32003) n = 8 the explicit row g (45 slices of one row) times
    b2 (3 slices of 17 x 17) takes the monomials, 304 multiply-adds against
    1863 along rows, and r^T p^{-1} (9 x 36 times 36 x 36, one slice each)
    the rows, 324 against 11664; every product of ``resolve`` there, and a
    2 x 2 times a 2 x 2 of three nonzero entries (4 against 2 x 3), takes
    the packing with fewer, and a 1 x 2 times a 2 x 2 of two (2 against 2)
    the rows, as on every tie."""
    taken = []

    def spying(packing):
        def spied(a, b, cols, q):
            taken.append((a, b, packing.__name__))
            return packing(a, b, cols, q)
        return spied
    for packing in PACKINGS:
        monkeypatch.setattr(residues, packing.__name__, spying(packing))
    field = PrimeField(32003)
    phi = random_dual_element(field, 15, random.Random(1))
    lin = build_linear_presentation(phi, with_inverse=True)
    assert lin.b1 is not None
    shapes = [(len(a), len(next(iter(a.values()))), len(b),
               len(next(iter(b.values()))[0]), name) for a, b, name in taken]
    assert (45, 1, 3, 17, "_by_monomials") in shapes
    assert (1, 9, 1, 36, "_by_rows") in shapes
    residues.product({1: [[1, 2], [3, 4]]}, {1: [[1, 0], [2, 3]]}, 2)
    assert taken[-1][2] == "_by_rows"
    residues.product({1: [[1, 2]]}, {1: [[1, 0], [2, 0]]}, 2)
    assert taken[-1][2] == "_by_rows"

    def nonzeros(slices):
        return sum(x != 0 for s in slices.values() for r in s for x in r)
    for a, b, name in taken:
        rows = len(b) * nonzeros(a)
        monomials = len(next(iter(a.values()))) * nonzeros(b)
        assert name == ("_by_monomials" if monomials < rows else "_by_rows")


@pytest.mark.parametrize("degree", [None, 0, 1])
def test_sums_that_vanish_mod_p_box_to_zero(degree):
    """Over GF(3) the int sums 1 + 1 + 1 and 2 + 2 + 2 are nonzero
    multiples of 3; their entries are zero, of the declared degree, from
    scalar entries (degree None) or from forms of degree 0 or 1."""
    f = PrimeField(3)
    if degree is None:
        a = Matrix(f, [[1, 1, 1], [2, 2, 2]])
    else:
        m = monomials_of_degree(degree)[0]
        a = Matrix(f, [[Polynomial.monomial(f, m, c)] * 3 for c in (1, 2)],
                   degree=degree)
    out = a @ Matrix(f, [[1, 1]] * 3)
    assert out.is_zero()
    assert (out.rows, out.cols, out.degree) == (2, 2, degree or 0)
    for e in (e for r in out.entries for e in r):
        assert e == (Polynomial.zero(f, degree) if degree else f.zero)


@st.composite
def shifted(draw):
    field = draw(st.sampled_from(FIELDS))
    m = draw(matrices(field, draw(st.integers(0, 4)), draw(st.integers(0, 4)),
                      draw(st.integers(0, 2))))
    return m, Monomial(*(draw(st.integers(0, 2)) for _ in range(3)))


@SETTINGS
@given(shifted())
def test_times_monomial_equals_the_product_with_the_monomial(case):
    m, u = case
    factor = Polynomial.monomial(m.field, u)
    expected = Matrix(m.field, [[e * factor if m.degree else factor.scaled(e)
                                 for e in r] for r in m.entries],
                      m.cols, m.degree + u.degree)
    assert m.times_monomial(u) == expected


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("shape", [(0, 0, 0), (0, 3, 2), (2, 3, 0), (2, 0, 3)])
@pytest.mark.parametrize("kind_a,kind_b", [(None, None), (None, 1), (2, None),
                                           (1, 1)])
def test_product_of_empty_shapes(field, shape, kind_a, kind_b):
    """Each operand of scalar entries (None) or of forms of a degree."""
    r, k, c = shape

    def filled(rows, cols, degree):
        e = field.of(2) if degree is None else Polynomial.monomial(
            field, monomials_of_degree(degree)[-1], 2)
        return Matrix(field, [[e] * cols for _ in range(rows)], cols,
                      degree or 0)

    a, b = filled(r, k, kind_a), filled(k, c, kind_b)
    out = a @ b
    assert out == reference_product(a, b)
    assert (out.rows, out.cols) == (r, c)


@st.composite
def square_or_not(draw, max_size=6):
    """A matrix of scalars, often of deficient rank: a product (r x k)(k x c)
    with k below both sides, or a copy of one row."""
    field = draw(st.sampled_from(FIELDS))
    r, c = draw(st.integers(0, max_size)), draw(st.integers(0, max_size))
    if draw(st.booleans()):
        c = r
    m = draw(matrices(field, r, c))
    shape = draw(st.integers(0, 2))
    if shape == 1 and min(r, c) > 1:
        k = draw(st.integers(1, min(r, c) - 1))
        m = draw(matrices(field, r, k)) @ draw(matrices(field, k, c))
    elif shape == 2 and r > 1:
        m = Matrix(field, m.entries[:-1] + [m.entries[0]], c)
    return m


@SETTINGS
@given(square_or_not())
def test_rref_equals_the_boxed_reduction(m):
    """The int-row entry point, on the rows of L m, leaves ints that are
    exactly ``last`` times the RREF of m (over Q the lifted RREF, or the
    fraction-free one when the lift gives up), and the d of the elimination
    that ``det`` takes is L^rows times the reference d when the rows are
    independent."""
    red, pivots, last = linalg._rref_ints(linalg._int_rows(m), m.field)
    assert all(type(e) is int for r in red for e in r)
    red = [[m.field.from_int(e, last) for e in r] for r in red]
    ref_red, ref_pivots, ref_d = reference_rref(m.entries, m.field)
    assert pivots == ref_pivots
    assert red == ref_red
    assert all(type(e) is type(m.field.one) for r in red for e in r)
    if len(pivots) == m.rows:
        p = getattr(m.field, "p", None)
        rows = linalg._int_rows(m)
        _, _, d = linalg._rref_mod(rows, p) if p else linalg._rref_int(rows)
        assert m.field.from_int(d, m.L ** m.rows) == ref_d


@SETTINGS
@given(square_or_not())
def test_rank_kernel_det_inverse_equal_the_reference(m):
    assert rank(m) == reference_rank(m)
    assert kernel(m) == reference_kernel(m)
    if m.rows == m.cols:
        assert det(m) == reference_det(m)
        res = invert(m)
        ref = reference_inverse(m)
        assert res.inverse == ref
        assert res.rank == (m.rows if ref is not None else reference_rank(m))


@SETTINGS
@given(square_or_not(max_size=9).filter(lambda m: m.rows == m.cols),
       st.data())
def test_a_solve_is_the_inverse_times_the_right_side(m, data):
    """solve(m, b) = (rank m, m^{-1} b), None when m is singular, for a b
    of up to 3 columns, over Q from 8 rows on by the lift."""
    b = data.draw(matrices(m.field, m.rows, data.draw(st.integers(0, 3))))
    ref = reference_inverse(m)
    rank_m, solved = linalg.solve(m, b)
    assert rank_m == (m.rows if ref is not None else reference_rank(m))
    assert solved == (None if ref is None else ref @ b)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_and_invert_box_only_what_they_read(field, monkeypatch):
    """Every scalar that ``linalg`` boxes is built by the field's
    ``from_int``; counting those calls shows that a product, ``rank`` and
    ``invert`` box nothing, that ``kernel`` boxes exactly the nonzero
    coordinates at the pivot columns (a zero stays ``field.zero`` and the
    1 at a free column ``field.one``), that ``.entries`` boxes the nonzero entries once and keeps
    them, and that ``to_strings`` boxes nothing."""
    boxed = []
    from_int = type(field).from_int

    def counting(self, *args):
        boxed.append(args)
        return from_int(self, *args)

    monkeypatch.setattr(type(field), "from_int", counting)
    # rank 3 with 7 columns: 4 free columns, 3 pivot entries each
    thin = Matrix(field, [[field.of(i * j % 5 + (i == j)) for j in range(3)]
                               for i in range(4)])
    wide = Matrix(field, [[field.of((i + 2) ** j % 7) for j in range(7)]
                               for i in range(3)])
    m = thin @ wide
    assert rank(m) == 3
    assert boxed == []
    basis = kernel(m)
    assert len(basis) == 4
    assert len(boxed) == sum(1 for v in basis for e in v if e) - 4 < 4 * 3
    assert all(e is field.zero for v in basis for e in v if not e)
    boxed.clear()
    assert basis == reference_kernel(m)
    # unit upper triangular, so invertible in every field
    sq = Matrix(field, [[field.of(int(i == j) + (j > i) * (i + j))
                              for j in range(5)] for i in range(5)])
    boxed.clear()
    inv = invert(sq).inverse
    assert boxed == []
    ref = reference_inverse(sq)
    nonzero = sum(1 for r in ref.entries for e in r if e)
    boxed.clear()
    text = inv.to_strings()
    assert inv.to_strings() == text
    assert boxed == []
    boxed.clear()
    assert inv.entries == ref.entries
    assert inv.entries is inv.entries and inv.to_strings() == text
    assert len(boxed) == nonzero


@st.composite
def residue_rows(draw):
    q = draw(st.sampled_from([3, 32003, 2 ** 61 - 1]))
    r, c = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    rows = [[draw(st.integers(0, q - 1)) for _ in range(c)] for _ in range(r)]
    k = draw(st.integers(1, 3))
    if min(r, c) > k and draw(st.booleans()):
        # rank at most k: every row a combination of the first k
        coeffs = [[draw(st.integers(0, q - 1)) for _ in range(k)]
                  for _ in range(r)]
        rows = [[sum(x * rows[t][j] for t, x in enumerate(co)) % q
                 for j in range(c)] for co in coeffs]
    return rows, q


@SETTINGS
@given(residue_rows())
def test_forward_rank_equals_the_full_reduction(case):
    rows, q = case
    full = len(linalg._rref_mod([list(r) for r in rows], q)[1])
    assert linalg._rank_mod([list(r) for r in rows], q) == full
    red, pivots, _ = linalg._rref_mod([list(r) for r in rows], q, full=False)
    assert len(pivots) == full
    for i, c in enumerate(pivots):
        assert red[i][c] == 1 and all(row[c] == 0 for row in red[i + 1:])


def every_update_rows(k, c, q, tail):
    """k - 1 unit upper triangular rows with q - 1 right of the diagonal,
    then their sum plus ``tail`` in the columns from k - 1: forward
    elimination meets a 1 in the last row at every pivot, so that row takes
    k - 1 updates by q - 1 times entries q - 1, the worst case of the slot
    bound, and ends as ``tail``."""
    rows = [[0] * i + [1] + [q - 1] * (c - i - 1) for i in range(k - 1)]
    last = [0] * (k - 1) + tail
    return rows + [[(x + sum(col)) % q for x, col in zip(last, zip(*rows))]
                   if rows else last]


@st.composite
def packed_cases(draw):
    q = draw(st.sampled_from([3, 32003, 2 ** 61 - 1]))
    shape = draw(st.sampled_from(["0x0", "1xk", "kx1", "any", "every-update"]))
    k = draw(st.integers(1, 9))
    residue = st.integers(0, q - 1)
    if shape == "every-update":
        tail = draw(st.lists(residue, min_size=1, max_size=4))
        return every_update_rows(k, k - 1 + len(tail), q, tail), q
    if shape == "any":
        r, c = k, draw(st.integers(0, 9))
    else:
        r, c = {"0x0": (0, 0), "1xk": (1, k), "kx1": (k, 1)}[shape]
    sparse = draw(st.booleans())
    return [[draw(residue) if not sparse or draw(st.booleans()) else 0
             for _ in range(c)] for _ in range(r)], q


@SETTINGS
@given(packed_cases(), st.booleans())
def test_packed_rows_equal_the_boxed_reduction(case, full):
    """``_rref_mod`` against the boxed Gauss-Jordan at q = 3, 32003 and
    2^61 - 1: the same pivots and d, every entry a residue, and the RREF
    itself, or for a forward pass an echelon form whose full reduction is
    the RREF."""
    rows, q = case
    field = PrimeField(q)
    ref, ref_pivots, ref_d = reference_rref(
        [[field.of(x) for x in r] for r in rows], field)
    red, pivots, d = linalg._rref_mod([list(r) for r in rows], q, full)
    assert (pivots, d) == (ref_pivots, ref_d.value)
    assert all(type(x) is int and 0 <= x < q for r in red for x in r)
    if not full:
        red = linalg._rref_mod(red, q)[0]
    assert red == [[x.value for x in r] for r in ref]


def test_a_row_whose_slots_outgrow_two_words():
    """At q = 2^61 - 1, 65 updates by (q - 1)^2 take a slot past 2^128, so
    the slots need three words; the last row ends as its scaled tail."""
    q = 2 ** 61 - 1
    tail = [5, q - 1, 0, 12345]
    rows = every_update_rows(66, 69, q, tail)
    red, pivots, _ = linalg._rref_mod([list(r) for r in rows], q, full=False)
    assert pivots == list(range(66))
    assert red[:-1] == rows[:-1]
    assert red[-1] == [0] * 65 + [x * pow(5, -1, q) % q for x in tail]


def recorded_heights(monkeypatch, name):
    heights = []
    inner = getattr(linalg, name)

    def recording(rows, *args, **kwargs):
        heights.append(len(rows))
        return inner(rows, *args, **kwargs)
    monkeypatch.setattr(linalg, name, recording)
    return heights


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (4, 4)])
def test_rank_eliminates_the_shorter_side(monkeypatch, shape):
    r, c = shape
    rows = [[(3 * i + j * j + 1) % 5 for j in range(c)] for i in range(r)]
    expected = reference_rank(Matrix(QQ, rows))
    mod_heights = recorded_heights(monkeypatch, "_rref_mod")
    int_heights = recorded_heights(monkeypatch, "_rref_int")
    assert linalg._rank_mod([list(x) for x in rows], 32003) == expected
    assert rank(Matrix(PrimeField(32003), rows)) == expected
    assert rank(Matrix(QQ, [[Fraction(e, 1 + i) for e in x]
                                 for i, x in enumerate(rows)])) == expected
    assert mod_heights == [min(r, c)] * 2
    assert int_heights == [min(r, c)]
