"""The benchmark's workloads: how each builds its input files from the seed,
which ``apolar`` commands it runs on them, and what a correct output of each
command looks like when no stored digest pins it.

Why these workloads: each one loads a different layer of the pipeline.

- ``resolve-gf``: ``resolve`` builds the b2 Pfaffian row by memoized
  expansion, exponential in n; the Pfaffian layer dominates (about 83% of a
  traced pass at n = 7, 8) and the oracle is not used.
- ``verify-q``: ``verify`` on the rational colon-ideal family spends its
  time ranking span matrices over ``Fraction`` in the ideal certificate
  (about 85% of a traced pass at n = 4, 5).
- ``oracle-gf``: ``oracle --include-kernels`` plus ``wlp`` eliminate over
  boxed ``GF(p)`` residues (kernels and ranks, then a determinant) and run
  no Pfaffian, so a kernel change that trades one field against the other
  shows here.  It is not listed in ``BENCHMARK.json``: each listed workload
  costs 22 runs within a fixed total time, and two workloads leave room for
  50 s runs.  Run it by hand with ``--workload oracle-gf``.

The sizes are kept small (no command above about 2 s on a 2-core VM):
end-to-end time is measured against a reference run right before or after
each command (``reference.py``), and that pairing cancels the machine's
speed swings only when the two runs are close in time.  Larger inputs
(``resolve`` at n = 9, 10; ``verify`` at n = 6, 8) take 3-50 s per command
and leave too few pairs in a run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

PRIME = 32003
GF_TAG = f"Fp:{PRIME}"
Q_TAG = "Q"


class InputGenerationError(Exception):
    """A seeded input is degenerate (singular p, or singular A' at even n).
    Such a seed is reported, never silently replaced by another."""


@dataclass(frozen=True)
class Tool:
    """One apolar subcommand with its fixed flags; ``report`` adds
    ``--out <file>`` so the report file is digested too."""

    name: str
    flags: Tuple[str, ...]
    report: bool


@dataclass(frozen=True)
class Command:
    tool: Tool
    n: int
    field: str
    input_name: str

    @property
    def label(self) -> str:
        return f"{self.tool.name} n={self.n} {self.field}"

    def argv(self, input_path: Path, report_path: Path) -> List[str]:
        argv = [self.tool.name, str(input_path), *self.tool.flags]
        if self.tool.report:
            argv += ["--out", str(report_path)]
        return argv

    def digest_key(self, input_sha: str) -> str:
        """Names the command by what determines its output: the subcommand,
        its flags and the exact input bytes."""
        return " ".join([self.tool.name, *self.tool.flags, f"input={input_sha}"])


@dataclass(frozen=True)
class Workload:
    name: str
    field: str
    sizes: Tuple[int, ...]
    tools: Tuple[Tool, ...]

    def commands(self) -> List[Command]:
        return [Command(tool, n, self.field, input_name(self.field, n))
                for n in self.sizes for tool in self.tools]


RESOLVE = Tool("resolve", ("--quiet", "--no-timestamp"), True)
VERIFY = Tool("verify", (), False)
ORACLE = Tool("oracle", ("--include-kernels", "--no-timestamp"), True)
WLP = Tool("wlp", ("--ell", "x", "--no-timestamp"), True)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("resolve-gf", GF_TAG, (7, 8), (RESOLVE,)),
    Workload("verify-q", Q_TAG, (4, 5), (VERIFY,)),
    Workload("oracle-gf", GF_TAG, (6, 7), (ORACLE, WLP)),
)}


def input_name(field: str, n: int) -> str:
    return f"{'gf' if field == GF_TAG else 'family'}_n{n}.json"


def random_gf_input(seed: int, n: int) -> str:
    """A dense random inverse system of degree 2n-1 over GF(32003), as the
    JSON text the CLI reads.  Generated here, not by the program, so that
    the inputs stay fixed when the program changes."""
    rng = random.Random(f"apolar-bench:{seed}:{n}")
    d = 2 * n - 1
    coeffs = {f"{a},{b},{d - a - b}": str(rng.randrange(PRIME))
              for a in range(d, -1, -1) for b in range(d - a, -1, -1)}
    return json.dumps({"field": GF_TAG, "degree": d, "coeffs": coeffs},
                      indent=2)


def guard_gf_input(text: str, n: int, seed: int) -> None:
    """Reject a degenerate random input instead of benchmarking a code path
    the workload did not ask for."""
    from apolar import DualElement, linalg, resolution

    phi = DualElement.from_json(text)
    lin = resolution.build_linear_presentation(phi, with_pfaffian_row=False)
    if not lin.linearly_presented:
        raise InputGenerationError(
            f"seed {seed}: GF input at n={n} has a singular p "
            f"(rank {lin.p_rank} of {lin.p.rows})")
    if n % 2 == 0 and linalg.rank(lin.A_prime) < n:
        raise InputGenerationError(
            f"seed {seed}: GF input at n={n} has a singular A'")


def build_inputs(workload: Workload, seed: int, out_dir: Path) -> Dict[str, str]:
    """Write the workload's input files; returns file name -> JSON text.
    Imports ``apolar`` (the family and the guard use it), so the caller
    times this as set-up."""
    import apolar

    texts: Dict[str, str] = {}
    for n in workload.sizes:
        if workload.field == GF_TAG:
            text = random_gf_input(seed, n)
            guard_gf_input(text, n, seed)
        else:
            text = apolar.family_phi(n).to_json()
        texts[input_name(workload.field, n)] = text
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return texts


def check_output(command: Command, stdout: str,
                 report: Optional[bytes]) -> Optional[str]:
    """Structural checks for an output no stored digest pins (a seed whose
    digests were not recorded).  Returns the reason for a failure, or None.
    The exit code is checked by the caller."""
    try:
        data = json.loads(report) if report is not None else None
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if command.tool.report and not isinstance(data, dict):
        return "no report object written"
    try:
        return _check(command.tool.name, command.n, stdout, data)
    except (KeyError, IndexError, TypeError) as exc:
        return f"report lacks an expected entry: {exc!r}"


def _check(tool: str, n: int, stdout: str, data: Optional[dict]) -> Optional[str]:
    if tool == "resolve":
        if "linearly presented" not in stdout:
            return "resolve did not report a linear presentation"
        if not data["linearly_presented"] or data["n"] != n:
            return "report does not describe a linearly presented input"
        if len(data["blocks"]["b1"][0]) != 2 * n + 1:
            return "Pfaffian row b1 does not have 2n+1 entries"
        if n % 2 == 0 and (not data["quadratically_presented"]
                           or len(data["generators"]["quadratic"]) != n + 1):
            return "even n but no quadratic presentation with n+1 generators"
    elif tool == "verify":
        if not stdout.endswith("all checks passed\n"):
            return "verify did not pass every check"
    elif tool == "oracle":
        h = data["hilbert_function"]
        if data["socle_degree"] != 2 * n - 1 or h != h[::-1]:
            return "Hilbert function is not that of socle degree 2n-1"
        if [len(k) for k in data["kernels"]] != data["ideal_dims"]:
            return "kernel bases do not match the ideal dimensions"
    elif tool == "wlp":
        if not stdout.startswith("ell = ") or "verdict" not in data:
            return "wlp printed no verdict"
    return None
