"""Every module of the package tokenizes to fewer than 8192 tokens.

Where no bytecode cache is written, each import compiles the module from
source, and the parser keeps the module's tokens in an array that doubles
as it fills.  A module past 8192 tokens takes the next doubling, which
raised the tracemalloc peak of ``compile()`` of ``linalg.py`` by about
0.45 MB, and with it the peak memory of every command that imports it.
The count here is that of ``python -m tokenize``, comments and blank lines
included, an upper bound on what the parser keeps."""

import tokenize
from pathlib import Path

import pytest

import apolar

LIMIT = 8192


@pytest.mark.parametrize("path", sorted(Path(apolar.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_stays_below_the_parser_doubling(path):
    with tokenize.open(path) as f:
        count = sum(1 for _ in tokenize.generate_tokens(f.readline))
    assert count < LIMIT, f"{path.name} has {count} tokens"
