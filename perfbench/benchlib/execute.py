"""Run one ``apolar`` command in-process and judge its output."""

from __future__ import annotations

import gc
import io
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .digests import Digest, DigestBook
from .workloads import Command, check_output


@dataclass
class Execution:
    seconds: float
    exit_code: Optional[int]
    stdout: str
    report: Optional[bytes]
    error: Optional[str]

    @property
    def digest(self) -> Digest:
        return Digest.of(self.stdout, self.report)


def execute(cli, command: Command, input_path: Path,
            report_path: Path) -> Execution:
    """Time ``apolar.cli.main`` on the command; the clock covers argument
    parsing, the computation and all output, which is what a user of the
    CLI waits for once the interpreter has started and imported ``apolar``
    (that part is the benchmark's set-up time)."""
    argv = command.argv(input_path, report_path)
    report_path.unlink(missing_ok=True)
    # every command starts with an empty collector, so that cyclic garbage
    # left by the previous command is not collected on this one's clock
    gc.collect()
    out = io.StringIO()
    exit_code = error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            exit_code = cli.main(argv)
    except Exception:
        error = traceback.format_exc(limit=-3)
    except SystemExit as exc:
        error = f"SystemExit({exc.code!r})"
    seconds = time.perf_counter() - start
    report = None
    if command.tool.report and report_path.exists():
        report = report_path.read_bytes()
        report_path.unlink()
    return Execution(seconds, exit_code, out.getvalue(), report, error)


def judge(command: Command, key: str, run: Execution,
          book: DigestBook) -> Optional[str]:
    """Why the execution counts as failed, or None.  A failure is an
    exception, a nonzero exit code, or a digest mismatch; an output with no
    reference yet must pass the workload's structural checks before it
    becomes the reference."""
    if run.error is not None:
        return run.error
    if run.exit_code != 0:
        return f"exit code {run.exit_code}"
    digest = run.digest
    if book.reference(key) is None:
        reason = check_output(command, run.stdout, run.report)
        if reason is None:
            book.remember(key, digest)
        return reason
    return book.mismatch(key, digest)
