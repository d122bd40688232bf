"""The yardstick for end-to-end times: a frozen copy of ``apolar``
(``perfbench/reference/apolar``, the package as it was when the benchmark was
added), imported into the benchmark's own process as ``apolar_reference``
and run command by command in turn with the program under test.

A shared machine's speed can swing by 1.5x or more over seconds to minutes,
so a raw wall time differs more between two runs of the same code than the
regressions the benchmark must catch.  The reference does the same work on
the same inputs right before or after the program, in the same process and
so on the same core, and slows down with the machine; the ratio of the two
times stays put while both drift.  Replace the copy only together with a
change to the benchmark, since that resets what every ratio is measured
against.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

NAME = "apolar_reference"


def load_reference(perfbench: Path):
    """Import the frozen copy under its own package name (every import
    inside it is relative) and return its ``cli`` module."""
    package = perfbench / "reference" / "apolar"
    if NAME not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            NAME, package / "__init__.py",
            submodule_search_locations=[str(package)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[NAME] = module
        spec.loader.exec_module(module)
    return importlib.import_module(NAME + ".cli")
