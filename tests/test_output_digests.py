"""Byte-for-byte cross-check of the command-line outputs.

``output_digests.json`` stores, for each input below and each command, the
exit code and the sha256 of its standard output and of the report file it
writes (null when it writes none).  Any change to the program that alters a
single output byte fails here; a change that is meant to alter outputs
re-records the file:

    PYTHONPATH=src python tests/test_output_digests.py --record

The inputs cover the family at n = 1-6, random GF(32003) systems at
n = 2-8, small prime fields at or below the Pfaffian degree, a prime
above 2^64, random rational systems and a singular p.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

from apolar import PrimeField, QQ, family_phi, random_dual_element
from apolar.cli import main

DIGESTS = Path(__file__).with_name("output_digests.json")

# phi free of x: its catalecticant p is singular
XFREE_PHI = '{"field": "Q", "degree": 3, "coeffs": {"0,2,1": "1", "0,3,0": "2"}}'

COMMANDS = {
    "resolve": ["resolve", "--no-timestamp", "--out"],
    "resolve-clear": ["resolve", "--clear-denominators", "--no-timestamp",
                      "--out"],
    "resolve-quadratic": ["resolve", "--mode", "quadratic", "--no-timestamp",
                          "--out"],
    "verify": ["verify"],
    "oracle": ["oracle", "--include-kernels", "--no-timestamp", "--out"],
    "wlp": ["wlp", "--ell", "x", "--no-timestamp", "--out"],
}


def _random(tag, p, n, seed):
    field = QQ if p is None else PrimeField(p)
    return tag, random_dual_element(field, 2 * n - 1,
                                    random.Random(seed)).to_json()


def inputs():
    """(name, inverse-system JSON) for every cross-checked input."""
    out = [(f"family-{n}", family_phi(n).to_json()) for n in range(1, 7)]
    out += [_random(f"gf32003-{n}", 32003, n, n) for n in range(2, 9)]
    out += [_random(f"fp{p}-{n}", p, n, seed) for p, n, seed in
            [(3, 3, 1), (3, 4, 0), (5, 6, 0), (7, 4, 0), (7, 7, 0)]]
    out += [_random("fp2^64+13-3", 2 ** 64 + 13, 3, 0),
            _random("fp2^61-1-4", 2 ** 61 - 1, 4, 0)]
    out += [_random(f"q-{n}", None, n, n) for n in (2, 3, 4)]
    out.append(("singular-p", XFREE_PHI))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(text: str, work: Path, capsys) -> dict:
    """{command: {code, stdout, report}} for one input."""
    phi, report = work / "phi.json", work / "report.json"
    phi.write_text(text, encoding="utf-8")
    capsys.readouterr()
    out = {}
    for label, argv in COMMANDS.items():
        report.unlink(missing_ok=True)
        args = [argv[0], str(phi)] + argv[1:]
        if args[-1] == "--out":
            args.append(str(report))
        code = main(args)
        out[label] = {
            "code": code,
            "stdout": _sha(capsys.readouterr().out.encode("utf-8")),
            "report": _sha(report.read_bytes()) if report.exists() else None,
        }
    return out


@pytest.fixture(scope="module")
def stored():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_every_input_is_stored(stored):
    assert sorted(stored) == sorted(name for name, _ in inputs())


@pytest.mark.parametrize("name, text", inputs(), ids=[n for n, _ in inputs()])
def test_outputs_match_the_stored_digests(name, text, stored, tmp_path, capsys):
    assert run_all(text, tmp_path, capsys) == stored[name]


class _Capture:
    """The part of pytest's capsys that ``run_all`` uses, for recording."""

    def __init__(self):
        self.buf = io.StringIO()

    def readouterr(self):
        text = self.buf.getvalue()
        self.buf.seek(0)
        self.buf.truncate()
        return SimpleNamespace(out=text)


def record() -> None:
    cap = _Capture()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(cap.buf):
        data = {name: run_all(text, Path(tmp), cap) for name, text in inputs()}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(data)} inputs to {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_output_digests.py --record")
    record()
