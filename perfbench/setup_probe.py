"""One set-up of the benchmark in a fresh interpreter: import ``apolar`` from
the checkout and build one workload's input files from the seed.

    python3 perfbench/setup_probe.py --workload resolve-gf --seed 1 --out DIR

Prints one JSON object with the set-up's wall seconds (from the start of
this script, so interpreter start-up is not counted) and the sha256 of each
input file.  Exit code 3 means the seed gave a degenerate input, 2 any other
set-up error.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from benchlib.digests import sha256  # noqa: E402
from benchlib.environment import SetupError, use_checkout_sources  # noqa: E402
from benchlib.workloads import (WORKLOADS, InputGenerationError,  # noqa: E402
                                build_inputs)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    try:
        use_checkout_sources(Path(__file__).resolve().parent.parent)
        texts = build_inputs(WORKLOADS[args.workload], args.seed, Path(args.out))
    except InputGenerationError as exc:
        print(f"input generation error: {exc}", file=sys.stderr)
        return 3
    except SetupError as exc:
        print(f"set-up error: {exc}", file=sys.stderr)
        return 2
    seconds = time.perf_counter() - START
    print(json.dumps({"seconds": seconds,
                      "inputs": {name: sha256(text.encode("utf-8"))
                                 for name, text in texts.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
