import datetime
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import apolar
from apolar import (DualElement, Matrix, Monomial, Polynomial, family_phi,
                    linalg, residues, resolution)
from apolar.cli import _json, main
from apolar.poly import MAX_DEGREE

# phi free of x: its catalecticant p is singular
XFREE_PHI = '{"field": "Q", "degree": 3, "coeffs": {"0,2,1": "1", "0,3,0": "2"}}'


def write_family(tmp_path, n):
    path = tmp_path / f"phi{n}.json"
    assert main(["example-family", "--n", str(n), "--out", str(path)]) == 0
    return path


def test_example_family_writes_valid_phi(tmp_path):
    path = write_family(tmp_path, 2)
    phi = DualElement.from_json(path.read_text())
    assert phi == family_phi(2)


def test_example_family_warns_on_odd_n(tmp_path, capsys):
    path = tmp_path / "phi3.json"
    assert main(["example-family", "--n", "3", "--out", str(path)]) == 0
    assert "odd" in capsys.readouterr().err
    assert path.exists()


def test_example_family_random_is_seeded(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["example-family", "--n", "3", "--random", "--seed", "7",
                     "--field", "Fp:32003", "--out", str(out)]) == 0
    assert a.read_text() == b.read_text()
    phi = DualElement.from_json(a.read_text())
    assert phi.degree == 5 and phi.field.tag == "Fp:32003"


def test_resolve_family(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    report_path = tmp_path / "report.json"
    code = main(["resolve", str(path), "--out", str(report_path),
                 "--no-timestamp", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "linearly presented" in out and "quadratically presented" in out
    report = json.loads(report_path.read_text())
    assert report["linearly_presented"] and report["quadratically_presented"]
    assert "c2" in report["blocks"]
    assert "generated_at" not in report


def test_resolve_deterministic_output(tmp_path):
    path = write_family(tmp_path, 2)
    outs = []
    for name in ("r1.json", "r2.json"):
        rp = tmp_path / name
        main(["resolve", str(path), "--out", str(rp), "--no-timestamp", "--quiet"])
        outs.append(rp.read_bytes())
    assert outs[0] == outs[1]


def test_resolve_clear_denominators_display(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert main(["resolve", str(path), "--clear-denominators"]) == 0
    out = capsys.readouterr().out
    assert "1/6 x [" in out


def test_resolve_zero_phi_exits_2(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text('{"field": "Q", "degree": 3, "coeffs": {}}')
    assert main(["resolve", str(path)]) == 2


def test_resolve_quadratic_mode_odd_n_exits_3(tmp_path, capsys):
    path = tmp_path / "phi.json"
    assert main(["example-family", "--n", "3", "--random", "--seed", "1",
                 "--out", str(path)]) == 0
    code = main(["resolve", str(path), "--mode", "quadratic", "--quiet"])
    assert code == 3


def test_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["resolve", str(bad)]) == 1
    assert main(["oracle", str(bad)]) == 1
    assert main(["resolve", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_even_degree_phi_rejected(tmp_path):
    path = tmp_path / "even.json"
    path.write_text('{"field": "Q", "degree": 2, "coeffs": {"1,1,0": "1"}}')
    assert main(["resolve", str(path)]) == 1


def test_verify_family(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_odd_n_runs_linear_path(tmp_path, capsys):
    path = tmp_path / "phi.json"
    main(["example-family", "--n", "3", "--random", "--seed", "5",
          "--out", str(path)])
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out and "ann(x(phi))" in out


def test_verify_singular_p_exits_2(tmp_path, capsys):
    path = tmp_path / "xfree.json"
    path.write_text(XFREE_PHI)
    assert main(["verify", str(path)]) == 2


def corrupting(original, where):
    """``explicit_generators`` with 1 added to one coefficient of the row
    g: at x^n, in a row of p^{-1} E (the first entry) or of p^{-1} r (the
    one at y^n or the last), or at y^n in the entry at y^n, the mu column."""
    def corrupted(p_inv_r, p_inv_e):
        g = original(p_inv_r, p_inv_e)
        n = g.degree
        k = {"first": 0, "y^n": n, "last": 2 * n, "mu": n}[where]
        u = Monomial(0, n, 0) if where == "mu" else Monomial(n, 0, 0)
        entries = list(g.entries[0])
        entries[k] = entries[k] + Polynomial.monomial(g.field, u)
        return Matrix(g.field, [entries], degree=n)
    return corrupted


@pytest.mark.parametrize("where", ["first", "y^n", "last", "mu"])
@pytest.mark.parametrize("n, seed", [(2, None), (3, None), (4, None), (3, 5),
                                     (4, 1)])
def test_a_corrupted_explicit_row_never_passes(tmp_path, capsys, monkeypatch,
                                               n, seed, where):
    """b1 is read off g only once g b2 = 0: with one coefficient of g
    corrupted, over Q (the family) or GF(32003) (seeded), ``verify`` fails
    that check and ``resolve`` writes no report; neither exits 0.  The two
    lines the lemma gives under a proven b1 are not printed.  The product
    g b2 is the one packed along the monomials of the result."""
    path = tmp_path / "phi.json"
    random_args = [] if seed is None else ["--random", "--seed", str(seed)]
    assert main(["example-family", "--n", str(n), *random_args,
                 "--out", str(path)]) == 0
    assert main(["verify", str(path)]) == 0
    lemma_lines = ["explicit generators = unit x Pfaffian row",
                   "Pfaffian minor factorization"][:1 + (n % 2 == 0)]
    out = capsys.readouterr().out
    assert all(f"PASS  {line}" in out for line in lemma_lines)
    monkeypatch.setattr(resolution, "explicit_generators",
                        corrupting(resolution.explicit_generators, where))
    by_monomials, right_sides = residues._by_monomials, []

    def spied(a, b, cols, q):
        right_sides.append((len(b), cols))
        return by_monomials(a, b, cols, q)
    monkeypatch.setattr(residues, "_by_monomials", spied)
    report = tmp_path / "report.json"
    assert main(["resolve", str(path), "--out", str(report)]) == 2
    assert "b1 . b2 != 0" in capsys.readouterr().out
    assert not report.exists()
    assert (3, 2 * n + 1) in right_sides
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert "FAIL  b1 . b2 = 0" in out
    assert "all checks passed" not in out
    assert not any(line in out for line in lemma_lines)


def test_a_wrong_theta_fails_the_conjugation_check(tmp_path, capsys,
                                                   monkeypatch):
    """T, the last n rows of r, doubled once b2 is built: the check reads
    the wrong T and fails, over Q and over GF(32003)."""
    gf = tmp_path / "gf.json"
    assert main(["example-family", "--n", "2", "--random", "--seed", "3",
                 "--field", "Fp:32003", "--out", str(gf)]) == 0
    paths = [write_family(tmp_path, 2), gf]
    for path in paths:
        assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    reduced_presentation = resolution.reduced_presentation

    def wrong(lin):
        tilde = reduced_presentation(lin)
        r = lin.r
        lin.r = Matrix(r.field, [[e + e for e in row] if i >= r.rows - lin.n
                                 else row for i, row in enumerate(r.entries)],
                       r.cols)
        return tilde
    monkeypatch.setattr(resolution, "reduced_presentation", wrong)
    for path in paths:
        assert main(["verify", str(path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert "FAIL  conjugation by the reduction change of basis" in out
        assert out[-1] == "some checks FAILED"


def test_verify_negative_max_degree_exits_1(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert main(["verify", str(path), "--max-degree", "-1"]) == 1
    assert "--max-degree" in capsys.readouterr().err


def test_wlp_command(tmp_path, capsys):
    path = write_family(tmp_path, 4)
    assert main(["wlp", str(path), "--ell", "x"]) == 0
    out = capsys.readouterr().out
    assert "true" in out
    assert main(["wlp", str(path), "--ell", "0"]) == 1


def test_wlp_report_file(tmp_path):
    path = write_family(tmp_path, 2)
    rp = tmp_path / "wlp.json"
    assert main(["wlp", str(path), "--ell", "y-z", "--out", str(rp),
                 "--no-timestamp"]) == 0
    report = json.loads(rp.read_text())
    assert set(report) == {"ell", "matrix", "determinant", "verdict", "note"}


def test_oracle_command(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    rp = tmp_path / "summary.json"
    assert main(["oracle", str(path), "--out", str(rp), "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert "1,3,3,1" in out
    report = json.loads(rp.read_text())
    assert report["hilbert_function"] == [1, 3, 3, 1]
    assert report["generator_counts"] == [0, 0, 3, 0, 0]
    assert "kernels" not in report


def test_oracle_include_kernels(tmp_path):
    path = write_family(tmp_path, 2)
    rp = tmp_path / "summary.json"
    assert main(["oracle", str(path), "--out", str(rp), "--no-timestamp",
                 "--include-kernels"]) == 0
    report = json.loads(rp.read_text())
    assert len(report["kernels"][2]) == 3


@pytest.mark.parametrize("argv", [["resolve", "--quiet"], ["wlp", "--ell", "x"],
                                  ["oracle"]], ids=lambda argv: argv[0])
def test_a_report_without_no_timestamp_ends_with_its_utc_time(tmp_path, argv):
    path = write_family(tmp_path, 2)
    stamped, plain = tmp_path / "stamped.json", tmp_path / "plain.json"
    command = [argv[0], str(path), *argv[1:], "--out"]
    before = datetime.datetime.now(datetime.timezone.utc)
    assert main([*command, str(stamped)]) == 0
    after = datetime.datetime.now(datetime.timezone.utc)
    assert main([*command, str(plain), "--no-timestamp"]) == 0
    report = json.loads(stamped.read_text())
    assert list(report)[-1] == "generated_at"
    when = datetime.datetime.fromisoformat(report.pop("generated_at"))
    assert when.utcoffset() == datetime.timedelta(0)
    assert before <= when <= after
    expected = json.loads(plain.read_text())
    assert report == expected and list(report) == list(expected)


def test_oracle_negative_max_degree_exits_1(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert main(["oracle", str(path), "--max-degree", "-1"]) == 1
    assert "--max-degree" in capsys.readouterr().err


def test_family_field_flag_misuse(tmp_path):
    assert main(["example-family", "--n", "2", "--field", "Fp:7",
                 "--out", str(tmp_path / "x.json")]) == 1


@pytest.mark.parametrize("command", ["resolve", "verify", "oracle"])
def test_absurd_degree_exits_1_before_building_anything(tmp_path, capsys, command):
    path = tmp_path / "huge.json"
    path.write_text('{"field": "Q", "degree": 1000000001, "coeffs": {}}')
    assert main([command, str(path)]) == 1
    assert f"outside 0..{MAX_DEGREE}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--n", "0"], ["--n", str(MAX_DEGREE)],
                                  ["--n", "2", "--random", "--field", "Fp:4"]])
def test_example_family_rejects_bad_arguments(tmp_path, capsys, argv):
    out = tmp_path / "phi.json"
    assert main(["example-family", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def _argv(command, path):
    return [command, str(path)] + (["--ell", "x"] if command == "wlp" else [])


@pytest.mark.parametrize("command", ["resolve", "verify", "oracle", "wlp"])
def test_unreadable_file_exits_1(tmp_path, capsys, command):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"field": "Q", "degree": 1, "coeffs": {"1,0,0": "\xe9"}}')
    for path in (tmp_path, not_utf8):
        assert main(_argv(command, path)) == 1
        assert capsys.readouterr().err.startswith("error: cannot read")


@pytest.mark.parametrize("command", ["resolve", "oracle", "wlp", "example-family"])
def test_unwritable_report_path_exits_1(tmp_path, capsys, command):
    """A report path in a missing directory, or a directory itself, is an
    input error: exit code 1 and one line on stderr, with no traceback."""
    phi = write_family(tmp_path, 2)
    argv = (["example-family", "--n", "2"] if command == "example-family"
            else _argv(command, phi) + ["--no-timestamp"])
    capsys.readouterr()
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("command", ["resolve", "verify", "oracle", "wlp"])
@pytest.mark.parametrize("text", ["{broken", "[1, 2]",
                                  '{"field": "Fp:4", "degree": 1, "coeffs": {}}',
                                  '{"field": "R", "degree": 1, "coeffs": {}}'])
def test_malformed_json_or_bad_field_tag_exits_1(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(_argv(command, path)) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["resolve", "verify", "oracle", "wlp"])
def test_alias_keys_for_one_monomial_exit_1(tmp_path, capsys, command):
    path = tmp_path / "alias.json"
    path.write_text('{"field": "Q", "degree": 1, '
                    '"coeffs": {"1,0,0": "1", "01,0,0": "2"}}')
    assert main(_argv(command, path)) == 1
    assert "names the monomial x again" in capsys.readouterr().err


@pytest.mark.parametrize("n, sizes", [(4, [4]), (5, [])])
def test_verify_inverts_only_a_prime(tmp_path, capsys, monkeypatch, n, sizes):
    # p is never inverted, only solved for p^{-1} [r | E]; n = 4: A' of the
    # quadratic path; n = 5: nothing
    path = write_family(tmp_path, n)
    invert, sizes_seen = linalg.invert, []
    monkeypatch.setattr(linalg, "invert",
                        lambda m: sizes_seen.append(m.rows) or invert(m))
    assert main(["verify", str(path)]) == 0
    assert sizes_seen == sizes


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_max_degree_above_the_bound_exits_1(tmp_path, capsys, command):
    path = write_family(tmp_path, 2)
    assert main([command, str(path), "--max-degree", str(MAX_DEGREE + 2)]) == 1
    assert f"0..{MAX_DEGREE + 1}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_max_degree_at_the_bound_runs(tmp_path, capsys, command):
    path = write_family(tmp_path, 2)
    assert main([command, str(path), "--max-degree", str(MAX_DEGREE + 1)]) == 0
    out = capsys.readouterr().out
    if command == "verify":
        assert f"(degrees 0..{MAX_DEGREE + 1})" in out
        assert "all checks passed" in out
    else:
        assert "3 in degree 2" in out and "Hilbert function: 1,3,3,1" in out


def test_oracle_max_degree_below_the_socle_degree_exits_1(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert main(["oracle", str(path), "--max-degree", "2"]) == 1
    assert "socle degree 3" in capsys.readouterr().err
    assert main(["oracle", str(path), "--max-degree", "3"]) == 0


def test_resolve_singular_p_exits_2(tmp_path, capsys):
    path = tmp_path / "xfree.json"
    path.write_text(XFREE_PHI)
    assert main(["resolve", str(path)]) == 2
    assert "p is singular" in capsys.readouterr().out


# phi whose p has a rank strictly between 0 and N; at n = 4 the rational p
# has 10 rows, so its solve takes the lift
SINGULAR = [(3, {(5, 0, 0): 1}), (3, {(5, 0, 0): 1, (3, 2, 0): 2, (1, 2, 2): -3}),
            (4, {(7, 0, 0): 1, (1, 6, 0): 1, (2, 2, 3): 5, (3, 1, 3): 7})]


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
@pytest.mark.parametrize("n, terms", SINGULAR)
def test_a_singular_p_prints_its_rank(tmp_path, capsys, field, n, terms):
    fld = apolar.field_from_tag(field)
    phi = DualElement(fld, 2 * n - 1, {Monomial(*m): fld.of(c)
                                       for m, c in terms.items()})
    path = tmp_path / "phi.json"
    path.write_text(phi.to_json())
    p = apolar.build_p_r(phi, n)[0]
    k, N = apolar.rank(p), p.rows
    assert 0 < k < N
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().out == (
        f"FAIL  p invertible (rank {k} of {N}); nothing to verify\n")
    assert main(["resolve", str(path)]) == 2
    assert capsys.readouterr().out.startswith(f"p is singular (rank {k} of {N})")


def test_one_process_runs_many_commands_as_separate_processes_do(tmp_path,
                                                                 capsys):
    """``main`` builds its parser once per process; several calls with
    different subcommands and flags, usage errors among them, print and
    exit as the same commands do one per process."""
    fam = tmp_path / "fam.json"
    gf = tmp_path / "gf.json"
    (tmp_path / "xfree.json").write_text(XFREE_PHI)
    commands = [
        ["example-family", "--n", "2", "--out", str(fam)],
        ["example-family", "--n", "3", "--random", "--seed", "4",
         "--field", "Fp:32003", "--out", str(gf)],
        ["resolve", str(fam), "--clear-denominators"],
        ["resolve", str(gf), "--mode", "quadratic", "--quiet"],
        ["verify", str(fam), "--max-degree", "4"],
        ["verify", str(gf)],
        ["oracle", str(fam), "--max-degree", "-1"],
        ["wlp", str(gf), "--ell", "y-z"],
        ["resolve", str(tmp_path / "xfree.json")],
        ["resolve", str(fam), "--mode", "cubic"],
        ["oracle", str(gf), "--include-kernels"],
    ]
    env = dict(os.environ,
               PYTHONPATH=str(Path(apolar.__file__).resolve().parents[1]))
    separate = []
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "apolar.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True)
        separate.append((done.returncode, done.stdout))
    together = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        together.append((code, capsys.readouterr().out))
    assert [code for code, _ in together] == [0, 0, 0, 3, 0, 0, 1, 0, 2, 2, 0]
    assert together == separate


json_texts = (st.text(st.sampled_from('az "\\/\n\t\x00\x1f\x7f\xe9€\U0001f600'))
              | st.text())
json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-2 ** 200, 2 ** 200) | json_texts,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(json_texts, inner, max_size=5),
    max_leaves=40)


@settings(max_examples=300, deadline=None, database=None)
@given(json_values)
def test_report_writer_writes_what_json_dumps_writes(value):
    """Nested dicts, lists, str (control characters, non-ASCII, astral),
    int (big ones too), bool and None, empty containers included."""
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("odd", ['"', "\\", "\x7f", "\xe9", "\n"])
@pytest.mark.parametrize("at", [0, 2])
def test_one_string_to_escape_sends_a_list_item_by_item(odd, at):
    """A list of plain strings, or a list of rows of them, with one string
    that the encoder escapes, is written as json.dumps writes it."""
    row = ["1", "(2)x", "-3/4"]
    row[at] = row[at] + odd
    for value in (row, [["0", "1"], row], {"m": [row, ["5"]]}):
        assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, {"a": [1, {2}]}, (1, 2), 1.5,
                                   {"a": b"x"}, {1: "int key"}])
def test_report_writer_refuses_other_types(value):
    """A set raises TypeError, as in json; so do what json would write but
    no report holds: tuples, floats and keys that are not str."""
    with pytest.raises(TypeError):
        _json(value)


def test_a_report_on_stdout_is_the_file_report(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    capsys.readouterr()
    assert main(["example-family", "--n", "2", "--out", "-"]) == 0
    text = capsys.readouterr().out
    assert text == path.read_text() == json.dumps(
        family_phi(2).to_json_dict(), indent=2) + "\n"


@pytest.fixture
def huge_phi(tmp_path):
    """An n = 2 phi over Q with 3000-digit numerators, under the default
    limit of 4300 digits on int-to-str conversion: every coefficient
    parses, but p^{-1}, c2 and the wlp determinant hold integers of more
    digits than that."""
    rng = random.Random(1)
    phi = DualElement(apolar.QQ, 3, {
        m: Fraction(rng.randrange(10 ** 2999, 10 ** 3000), rng.randrange(1, 10))
        for m in apolar.monomials_of_degree(3)})
    path = tmp_path / "huge.json"
    path.write_text(phi.to_json())
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield path
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv", [["resolve"], ["resolve", "--quiet", "--out"],
                                  ["oracle", "--include-kernels", "--out"],
                                  ["wlp", "--ell", "x", "--out"]],
                         ids=" ".join)
def test_an_integer_too_long_for_str_exits_1_without_a_report(
        tmp_path, capsys, huge_phi, argv):
    out = tmp_path / "report.json"
    argv = argv + [str(out)] * (argv[-1] == "--out") + [str(huge_phi)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the result as text: ")
    assert err.count("\n") == 1
    assert "PYTHONINTMAXSTRDIGITS" in err and "-X int_max_str_digits" in err
    assert "set_int_max_str_digits" not in err
    assert not out.exists()


def test_commands_that_print_no_long_integer_pass_on_a_huge_phi(
        capsys, huge_phi):
    assert main(["resolve", "--quiet", str(huge_phi)]) == 0
    assert main(["verify", str(huge_phi)]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")
