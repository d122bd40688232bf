"""Where the program under test comes from, and what machine runs it."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path
from typing import Optional


class SetupError(Exception):
    """The benchmark cannot run here (no sources, irreproducible inputs)."""


def use_checkout_sources(root: Path) -> None:
    """Import ``apolar`` from ``<root>/src`` and nowhere else, so that the
    benchmark measures the checkout it runs in."""
    src = root / "src"
    if not (src / "apolar" / "__init__.py").is_file():
        raise SetupError(f"no apolar sources under {src}; "
                         "run from the root of a full checkout")
    sys.path.insert(0, str(src))
    import apolar
    if Path(apolar.__file__).resolve().parent != (src / "apolar").resolve():
        raise SetupError(f"apolar was imported from {apolar.__file__}, "
                         f"not from {src}")


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine() or None


def _git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git;
    None in an export that is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(package: Path) -> str:
    """sha256 over a package's sources: identifies the code under test when
    there is no git commit to name it."""
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def metadata(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src" / "apolar"),
        "reference_sha256": _source_digest(
            root / "perfbench" / "reference" / "apolar"),
    }
