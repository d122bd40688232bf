"""Differential test against the seed package.

``perfbench/reference/apolar`` is the package as it was when the benchmark
was added.  ``benchlib.reference.load_reference`` imports it as
``apolar_reference``, here with no bytecode written next to it.  On random
inverse systems with n <= 4 over Q, GF(3), GF(5), GF(7), GF(101),
GF(32003), GF(2^61 - 1) and GF(2^64 + 13), the commands below must give
the same exit code, standard output and report bytes in both packages:
``resolve`` (with a report, and with its matrices printed over cleared
denominators), ``verify``, ``oracle --include-kernels`` and
``wlp --ell x+2*y``, the last two with a report, so every report shape is
written by both JSON writers.  On malformed files, and on two well-formed
ones that no presentation exists for, ``resolve --quiet``, ``verify``,
``oracle`` and ``wlp --ell x`` must give the same exit code and standard
output.  The one expected divergence is a JSON-number coefficient: the seed
raised AttributeError on it, this package exits 1.

The seed expands its Pfaffians by minors, exponentially in n, so n stays at
most 4.  The module runs in under 15 s (10.0-13.5 s on a 2-core x86-64 VM,
against 9.4-9.9 s before the two large primes joined).
"""

import json
import random
import sys
from pathlib import Path

import pytest

from apolar.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from benchlib.reference import load_reference  # noqa: E402

FIELDS = ("Q", "Fp:3", "Fp:5", "Fp:7", "Fp:101", "Fp:32003",
          "Fp:2305843009213693951", "Fp:18446744073709551629")
COMMANDS = (["resolve", "--no-timestamp", "--out"],
            ["resolve", "--clear-denominators", "--quiet"],
            ["verify"],
            ["oracle", "--include-kernels", "--no-timestamp", "--out"],
            ["wlp", "--ell", "x+2*y", "--no-timestamp", "--out"])


def random_phi(tag: str, n: int, rng: random.Random, sparse: bool) -> str:
    """The JSON text of a random inverse system of degree 2n - 1, written
    here rather than by either package; a sparse one drops each
    coefficient with probability 1/2."""
    d = 2 * n - 1
    coeffs = {}
    for a in range(d, -1, -1):
        for b in range(d - a, -1, -1):
            if sparse and rng.random() < 0.5:
                continue
            coeffs[f"{a},{b},{d - a - b}"] = (
                f"{rng.randint(-20, 20)}/{rng.randint(1, 4)}" if tag == "Q"
                else str(rng.randrange(int(tag[3:]))))
    return json.dumps({"field": tag, "degree": d, "coeffs": coeffs})


def cases():
    """A dense and a sparse input per field and n."""
    rng = random.Random(20230)
    return [(f"{tag}-n{n}-{kind}", random_phi(tag, n, rng, kind == "sparse"))
            for tag in FIELDS for n in range(1, 5)
            for kind in ("dense", "sparse")]


@pytest.fixture(scope="module")
def seed_main():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return load_reference(PERFBENCH).main
    finally:
        sys.dont_write_bytecode = saved


def run(entry, argv, phi: Path, report: Path, capsys):
    report.unlink(missing_ok=True)
    args = [argv[0], str(phi), *argv[1:]]
    if args[-1] == "--out":
        args.append(str(report))
    code = entry(args)
    return (code, capsys.readouterr().out,
            report.read_bytes() if report.exists() else None)


@pytest.mark.parametrize("name, text", cases(), ids=[n for n, _ in cases()])
def test_commands_match_the_seed_package(name, text, seed_main, tmp_path,
                                         capsys):
    phi, report = tmp_path / "phi.json", tmp_path / "report.json"
    phi.write_text(text, encoding="utf-8")
    capsys.readouterr()
    for argv in COMMANDS:
        assert run(main, argv, phi, report, capsys) == \
            run(seed_main, argv, phi, report, capsys), argv[:2]


MALFORMED_COMMANDS = (["resolve", "--quiet"], ["verify"], ["oracle"],
                      ["wlp", "--ell", "x"])


def record(field="Q", degree=3, coeffs='{"3,0,0": "1"}') -> str:
    return f'{{"field": "{field}", "degree": {degree}, "coeffs": {coeffs}}}'


# name: (file text, exit codes of MALFORMED_COMMANDS)
MALFORMED = {
    "bad-json": (record()[:-1], (1, 1, 1, 1)),
    "top-level-list": (f"[{record()}]", (1, 1, 1, 1)),
    "no-degree": ('{"field": "Q", "coeffs": {"3,0,0": "1"}}', (1, 1, 1, 1)),
    # an even degree has no presentation; its annihilator is still summed up
    "even-degree": (record(degree=2, coeffs='{"2,0,0": "1", "0,1,1": "3"}'),
                    (1, 1, 0, 1)),
    "Fp:4": (record(field="Fp:4"), (1, 1, 1, 1)),
    "unknown-field": (record(field="R"), (1, 1, 1, 1)),
    "wrong-degree-monomial": (record(coeffs='{"2,0,0": "1"}'), (1, 1, 1, 1)),
    "negative-exponent": (record(coeffs='{"4,-1,0": "1"}'), (1, 1, 1, 1)),
    "zero-denominator": (record(coeffs='{"3,0,0": "1/0"}'), (1, 1, 1, 1)),
    # phi = 0: p is singular, and ell(phi) = 0 pairs to a zero determinant
    "empty-coeffs": (record(coeffs="{}"), (2, 2, 1, 0)),
    # past Python's int-string limit, so json refuses it before any basis
    "huge-degree": (record(degree="1" + "0" * 5000), (1, 1, 1, 1)),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_files_match_the_seed_package(name, seed_main, tmp_path,
                                                capsys):
    text, codes = MALFORMED[name]
    phi, report = tmp_path / "phi.json", tmp_path / "report.json"
    phi.write_text(text, encoding="utf-8")
    capsys.readouterr()
    for argv, code in zip(MALFORMED_COMMANDS, codes):
        ours = run(main, argv, phi, report, capsys)
        assert ours == run(seed_main, argv, phi, report, capsys), argv[:1]
        assert ours[0] == code, argv[:1]


def test_a_json_number_coefficient_exits_1_where_the_seed_raised(
        seed_main, tmp_path, capsys):
    phi, report = tmp_path / "phi.json", tmp_path / "report.json"
    phi.write_text(record(coeffs='{"3,0,0": 1.5}'), encoding="utf-8")
    capsys.readouterr()
    for argv in MALFORMED_COMMANDS:
        assert run(main, argv, phi, report, capsys) == (1, "", None)
        with pytest.raises(AttributeError):
            seed_main([argv[0], str(phi), *argv[1:]])
