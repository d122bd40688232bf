"""Output digests: a sha256 of each command's stdout and of its report file.

Stored digests (``perfbench/digests.json``) pin the outputs of the recorded
seeds exactly, keyed by the command and the sha256 of its input file.  For
an input with no stored entry, the first output seen in the run becomes the
reference that every later pass, traced and counting passes included, must
reproduce byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Digest:
    stdout: str
    report: Optional[str]

    @classmethod
    def of(cls, stdout: str, report: Optional[bytes]) -> "Digest":
        return cls(sha256(stdout.encode("utf-8")),
                   None if report is None else sha256(report))


class DigestBook:
    def __init__(self, stored: Dict[str, Digest]):
        self.stored = stored
        self.seen: Dict[str, Digest] = {}

    @classmethod
    def load(cls, path: Path) -> "DigestBook":
        data = json.loads(path.read_text(encoding="utf-8"))
        return cls({key: Digest(**entry) for key, entry in data.items()})

    def reference(self, key: str) -> Optional[Digest]:
        return self.stored.get(key) or self.seen.get(key)

    def remember(self, key: str, digest: Digest) -> None:
        self.seen[key] = digest

    def mismatch(self, key: str, digest: Digest) -> Optional[str]:
        """Why ``digest`` disagrees with the reference for ``key``, or None
        when it agrees or no reference exists yet."""
        ref = self.reference(key)
        if ref is None or ref == digest:
            return None
        parts = [name for name in ("stdout", "report")
                 if getattr(ref, name) != getattr(digest, name)]
        origin = "stored" if key in self.stored else "first-pass"
        return f"{' and '.join(parts)} digest differs from the {origin} one"


def save(path: Path, entries: Dict[str, Digest]) -> None:
    data = {key: {"stdout": d.stdout, "report": d.report}
            for key, d in sorted(entries.items())}
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
