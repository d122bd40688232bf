"""Record the reference output digests in ``perfbench/digests.json``.

    python3 perfbench/record_digests.py --seeds 0-19

Runs every workload's commands once per seed on the current checkout and
writes the sha256 of each stdout and report file, keyed by command and
input.  Each output must first pass the workload's structural checks.
Re-record only when a change to the program's output is intended; the
benchmark counts every later mismatch as a failed command.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

from benchlib import digests
from benchlib.digests import DigestBook, sha256
from benchlib.environment import use_checkout_sources
from benchlib.execute import execute, judge
from benchlib.workloads import WORKLOADS, build_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0"))
    args = parser.parse_args()
    use_checkout_sources(ROOT)
    from apolar import cli

    work = ROOT / ".perfbench_runs" / "record"
    book = DigestBook({})
    try:
        for seed in args.seeds:
            for workload in WORKLOADS.values():
                texts = build_inputs(workload, seed, work)
                for command in workload.commands():
                    key = command.digest_key(
                        sha256(texts[command.input_name].encode("utf-8")))
                    if book.reference(key) is not None:
                        continue
                    run = execute(cli, command, work / command.input_name,
                                  work / "report.out")
                    reason = judge(command, key, run, book)
                    if reason is not None:
                        print(f"seed {seed}, {command.label}: {reason}",
                              file=sys.stderr)
                        return 1
                    print(f"seed {seed}, {command.label}: {run.seconds:.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    digests.save(HERE / "digests.json", book.seen)
    print(f"wrote {len(book.seen)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
