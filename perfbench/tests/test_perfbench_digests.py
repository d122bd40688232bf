import json

import pytest

from apolar import cli
from benchlib.digests import Digest, DigestBook
from benchlib.execute import Execution, execute, judge
from benchlib.workloads import (GF_TAG, RESOLVE, VERIFY, Command,
                                InputGenerationError, guard_gf_input,
                                random_gf_input)

RESOLVE_N3 = Command(RESOLVE, 3, GF_TAG, "gf_n3.json")
VERIFY_N3 = Command(VERIFY, 3, GF_TAG, "gf_n3.json")


@pytest.fixture
def resolved(tmp_path):
    """A real resolve of a small seeded input."""
    path = tmp_path / "gf_n3.json"
    path.write_text(random_gf_input(1, 3))
    return execute(cli, RESOLVE_N3, path, tmp_path / "report.out")


def test_a_real_resolve_passes_its_checks_and_repeats_exactly(resolved, tmp_path):
    book = DigestBook({})
    assert judge(RESOLVE_N3, "k", resolved, book) is None
    again = execute(cli, RESOLVE_N3, tmp_path / "gf_n3.json",
                    tmp_path / "report.out")
    assert judge(RESOLVE_N3, "k", again, book) is None


def test_one_byte_change_to_a_report_is_a_digest_failure(resolved):
    book = DigestBook({"k": resolved.digest})
    assert judge(RESOLVE_N3, "k", resolved, book) is None
    report = bytearray(resolved.report)
    report[len(report) // 2] ^= 1
    changed = Execution(resolved.seconds, 0, resolved.stdout, bytes(report), None)
    reason = judge(RESOLVE_N3, "k", changed, book)
    assert reason == "report digest differs from the stored one"


def test_first_pass_output_becomes_the_reference_for_later_passes(resolved):
    book = DigestBook({})
    assert judge(RESOLVE_N3, "k", resolved, book) is None
    changed = Execution(0.0, 0, resolved.stdout + " ", resolved.report, None)
    assert "stdout digest differs from the first-pass one" in judge(
        RESOLVE_N3, "k", changed, book)


def test_exit_codes_exceptions_and_failed_checks_are_failures(resolved):
    book = DigestBook({})
    assert judge(VERIFY_N3, "v", Execution(0.0, 2, "", None, "boom"),
                 book) == "boom"
    assert judge(VERIFY_N3, "v", Execution(0.0, 2, "", None, None),
                 book) == "exit code 2"
    failed = Execution(0.0, 0, "FAIL  b1 . b2 = 0\nsome checks FAILED\n", None, None)
    assert judge(VERIFY_N3, "v", failed, book) == "verify did not pass every check"
    assert book.reference("v") is None
    broken = Execution(0.0, 0, resolved.stdout, b"{}", None)
    assert "lacks an expected entry" in judge(RESOLVE_N3, "r", broken, book)


def test_stored_digests_round_trip(tmp_path):
    from benchlib import digests
    path = tmp_path / "d.json"
    digests.save(path, {"k": Digest("a", None), "j": Digest("b", "c")})
    assert DigestBook.load(path).stored == {"k": Digest("a", None),
                                            "j": Digest("b", "c")}


def test_random_inputs_depend_only_on_the_seed():
    assert random_gf_input(5, 4) == random_gf_input(5, 4)
    assert random_gf_input(5, 4) != random_gf_input(6, 4)
    assert json.loads(random_gf_input(5, 4))["degree"] == 7


def test_input_guard_rejects_a_singular_p():
    # only pure y,z coefficients: every entry of p = phi(x m_i m_j) is zero
    phi = {"field": GF_TAG, "degree": 5, "coeffs": {"0,5,0": "1", "0,2,3": "4"}}
    with pytest.raises(InputGenerationError, match="singular p"):
        guard_gf_input(json.dumps(phi), 3, seed=9)
    guard_gf_input(random_gf_input(1, 3), 3, seed=1)
