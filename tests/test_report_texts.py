"""The report writes each text once: ``resolution_report`` cuts A, B and D
out of b2's texts and takes b1's from the explicit row g when b1 is g
(eps_n = 1), and ``Matrix.to_strings`` writes a matrix of forms one slice
at a time.  Every text must still be the one its block writes on its own,
and the text of an entry must not depend on the matrix around it."""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from apolar import Matrix, Polynomial, PrimeField, QQ, resolution
from apolar.cli import main
from apolar.poly import monomials_of_degree, random_dual_element
from apolar.resolution import (_eps, build_linear_presentation,
                               build_quadratic_presentation, resolution_report)

FIELDS = (PrimeField(3), PrimeField(32003), QQ)
SETTINGS = settings(max_examples=60, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def presentations(field, n, seed):
    phi = random_dual_element(field, 2 * n - 1, random.Random(seed))
    lin = build_linear_presentation(phi, with_inverse=True)
    quad = (build_quadratic_presentation(lin) if lin.linearly_presented
            else None)
    return lin, quad


def assert_report_texts_are_the_blocks_own(lin, quad):
    """Every block of the report is that block's own ``to_strings``, and the
    generator rows are the explicit row's texts."""
    report = resolution_report(lin, quad)
    blocks = report["blocks"]
    names = [name for name in resolution._REPORT_BLOCKS
             if getattr(lin, name) is not None]
    if quad is not None and quad.quadratically_presented:
        names += ["c2", "c1"]
    assert list(blocks) == names
    for name in names:
        m = getattr(quad if name in ("c2", "c1") else lin, name)
        assert blocks[name] == m.to_strings(), name
    if lin.linearly_presented:
        g = lin.generator_row.to_strings()[0]
        assert report["generators"]["explicit"] == g
        if quad is not None and quad.quadratically_presented:
            assert report["generators"]["quadratic"] == g[lin.n:]
    return report


@SETTINGS
@given(st.sampled_from(FIELDS), st.integers(2, 9), st.integers(0, 10 ** 6))
def test_every_block_of_the_report_is_its_own_text(field, n, seed):
    lin, quad = presentations(field, n, seed)
    assert_report_texts_are_the_blocks_own(lin, quad)


def test_the_fixed_cases_cover_both_signs_and_both_singular_blocks():
    """GF(3), GF(32003) and Q at n = 2..9, seeds 0-3: GF(3) gives a
    singular p and a singular A' at even n; every field gives odd n and
    eps_n = 1 (n = 4, 5, 8, 9) and -1 (n = 2, 3, 6, 7).  Each report is
    checked as in the hypothesis test above."""
    seen = set()
    for field in FIELDS:
        for n in range(2, 10):
            for seed in range(4):
                lin, quad = presentations(field, n, seed)
                assert_report_texts_are_the_blocks_own(lin, quad)
                if not lin.linearly_presented:
                    seen.add("singular p")
                    continue
                seen.add(f"eps {_eps(n)}")
                assert (lin.b1 is lin.generator_row) == (_eps(n) == 1)
                assert lin.b1 == lin.generator_row.scaled(_eps(n))
                if n % 2:
                    seen.add("odd n")
                elif not quad.quadratically_presented:
                    seen.add("singular A'")
    assert seen == {"singular p", "eps 1", "eps -1", "odd n", "singular A'"}


def test_resolve_formats_each_matrix_once_and_never_a_b_or_d(
        tmp_path, monkeypatch):
    """A spy on ``Matrix.to_strings`` during ``resolve --quiet --out``: at
    most one call per matrix, and none on A, B or D, whose texts are cut
    from b2's; at n = 4 (eps = 1) b1 is g, written once for both."""
    for field, n in ((PrimeField(32003), 4), (PrimeField(32003), 3),
                     (QQ, 4)):
        phi = random_dual_element(field, 2 * n - 1, random.Random(2))
        src = tmp_path / f"phi-{n}-{field.tag[:1]}.json"
        src.write_text(phi.to_json())
        built, called = [], []
        build = resolution.build_linear_presentation
        to_strings = Matrix.to_strings

        def keep(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def spy(m):
            called.append(m)
            return to_strings(m)
        monkeypatch.setattr(resolution, "build_linear_presentation", keep)
        monkeypatch.setattr(Matrix, "to_strings", spy)
        out = tmp_path / "report.json"
        assert main(["resolve", str(src), "--quiet", "--no-timestamp",
                     "--out", str(out)]) == 0
        monkeypatch.undo()
        (lin,) = built
        ids = [id(m) for m in called]
        assert len(ids) == len(set(ids))
        assert not {id(lin.A), id(lin.B), id(lin.D)} & set(ids)
        # at eps_n = 1, b1 is g: one call writes both
        assert (lin.b1 is lin.generator_row) == (_eps(n) == 1)
        assert {id(lin.b2), id(lin.generator_row), id(lin.b1)} <= set(ids)


@st.composite
def sparse_forms(draw):
    """A matrix of forms with few slices (one, often) and many zero
    entries, over Q with mixed denominators or over GF(p)."""
    field = draw(st.sampled_from(FIELDS))
    degree = draw(st.integers(1, 4))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    monos = draw(st.lists(st.sampled_from(monomials_of_degree(degree)),
                          min_size=1, max_size=3, unique=True))
    if field is QQ:
        coeff = st.builds(Fraction, st.integers(-40, 40),
                          st.sampled_from([1, 2, 3, 5, 7, 12, 35]))
    else:
        coeff = st.builds(field.of, st.integers(0, field.p - 1))

    def entry():
        if draw(st.integers(0, 2)):
            return Polynomial.zero(field, degree)
        chosen = draw(st.lists(st.sampled_from(monos), max_size=len(monos)))
        return Polynomial(field, degree, {m: draw(coeff) for m in chosen})
    return Matrix(field, [[entry() for _ in range(cols)] for _ in range(rows)],
                  cols, degree)


@settings(max_examples=300, deadline=None, database=None)
@given(sparse_forms(), st.data())
def test_sparse_forms_write_each_entry_as_its_boxed_text(m, data):
    """``to_strings`` of a matrix of forms, slice by slice, against ``str``
    of each boxed entry; and any submatrix writes the same texts at the
    same places, whatever its L."""
    texts = m.to_strings()
    assert texts == [[str(e) for e in row] for row in m.entries]
    rows = data.draw(st.lists(st.integers(0, m.rows - 1), min_size=1))
    cols = data.draw(st.lists(st.integers(0, m.cols - 1), min_size=1))
    assert m._select(rows, cols).to_strings() == [
        [texts[i][j] for j in cols] for i in rows]
