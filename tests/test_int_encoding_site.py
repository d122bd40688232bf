"""The int encoding of scalars lives in ``scalars`` alone.

Each field writes its scalars as ints with ``to_ints`` and boxes them back
with ``from_int``.  The modules built on that encoding, ``linalg``,
``oracle`` and ``resolution``, name no scalar class and read no part of a
scalar (its residue, numerator or denominator), so there is no second
copy of the encoding to drift from the first."""

import re
from pathlib import Path

import pytest

import apolar

FORBIDDEN = re.compile(r"\.(numerator|denominator|value)\b|FpElement|PrimeField")


@pytest.mark.parametrize("name", ["linalg.py", "oracle.py", "resolution.py"])
def test_module_reads_no_part_of_a_scalar(name):
    text = (Path(apolar.__file__).parent / name).read_text(encoding="utf-8")
    hits = [f"{i}: {line.strip()}" for i, line in enumerate(text.splitlines(), 1)
            if FORBIDDEN.search(line)]
    assert hits == [], f"{name} decodes scalars itself:\n" + "\n".join(hits)
