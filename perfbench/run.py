"""Benchmark of the apolar CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload resolve-gf --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The workloads are described in
``benchlib/workloads.py`` and ``BENCHMARK.json``.  Each run

1. sets up (imports ``apolar`` and builds the seeded inputs) in fresh
   interpreters, several times with ``--trace 0``, and reports the median;
2. runs the workload's commands in-process, pass after pass, for
   ``--seconds``, judging every output against its digest;
3. with ``--trace 0`` runs each command of an untraced pass next to the
   frozen reference (``benchlib/reference.py``) and reports the end-to-end
   metrics; with ``--trace 1`` it alternates untraced and traced passes,
   adds one counting pass, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the run
leaves behind (inputs, ``result.json`` with machine metadata and every
sample, ``spans.jsonl``) is under ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from benchlib.digests import DigestBook, sha256
from benchlib.environment import SetupError, metadata, use_checkout_sources
from benchlib.execute import execute, judge
from benchlib.layers import (counting_replacements, layer_metrics,
                             tracing_replacements)
from benchlib.patching import patched
from benchlib.reference import load_reference
from benchlib.spans import SpanRecorder
from benchlib.workloads import WORKLOADS, Command, InputGenerationError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE_TIMEOUT_S = 120
EXIT_SETUP = 2
EXIT_INPUT = 3
LAYER_SHARES = ("linalg.elim", "linalg.pfaffian", "resolution", "oracle", "cli")


class SetupProbe:
    """Set-ups in fresh interpreters (``setup_probe.py``).  The first writes
    the inputs the run uses; every later one must build the same inputs.
    With ``--trace 0`` a set-up also runs after each pass, so that the
    samples span the whole run, as the pass times do."""

    def __init__(self, workload: str, seed: int, inputs_dir: Path):
        self.workload = workload
        self.seed = seed
        self.samples: List[float] = []
        self.shas: Dict[str, str] = self.probe(inputs_dir)
        on_disk = {name: sha256((inputs_dir / name).read_bytes())
                   for name in self.shas}
        if on_disk != self.shas:
            raise SetupError("input files on disk differ from what set-up built")

    def probe(self, out_dir: Path) -> Dict[str, str]:
        """One set-up into ``out_dir``; returns input file -> sha256."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload",
             self.workload, "--seed", str(self.seed), "--out", str(out_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode == EXIT_INPUT:
            raise InputGenerationError(proc.stderr.strip())
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed ({proc.returncode}): "
                             f"{proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if self.samples and result["inputs"] != self.shas:
            raise SetupError("the same seed built different inputs")
        self.samples.append(result["seconds"])
        return result["inputs"]


class Bench:
    """Runs passes over one workload's commands and keeps their outcomes."""

    def __init__(self, cli, commands: List[Command], inputs_dir: Path,
                 work_dir: Path, input_shas: Dict[str, str], book: DigestBook):
        self.cli = cli
        self.commands = commands
        self.inputs_dir = inputs_dir
        self.work_dir = work_dir
        self.report_path = work_dir / "report.out"
        self.reference_report = work_dir / "reference-report.out"
        self.keys = [c.digest_key(input_shas[c.input_name]) for c in commands]
        self.book = book
        self.attempted = 0
        self.failures: List[str] = []
        self.samples: Dict[str, List[float]] = {c.label: [] for c in commands}
        self.pairs: Dict[str, List[tuple]] = {c.label: [] for c in commands}

    def run_command(self, kind: str, index: int) -> float:
        """Run command ``index`` once, judge it, and return its seconds."""
        command, key = self.commands[index], self.keys[index]
        run = execute(self.cli, command,
                      self.inputs_dir / command.input_name, self.report_path)
        self.attempted += 1
        reason = judge(command, key, run, self.book)
        if reason is not None:
            self.failures.append(f"{kind} pass, {command.label}: {reason}")
        if kind == "untraced":
            self.samples[command.label].append(run.seconds)
        return run.seconds

    def run_pass(self, kind: str) -> float:
        """One pass over every command; returns the sum of command times."""
        return sum(self.run_command(kind, i) for i in range(len(self.commands)))

    def run_reference(self, reference_cli, index: int) -> float:
        """Run command ``index`` once in the reference; returns its seconds.
        Only its exit is checked: its outputs are those of the frozen code."""
        command = self.commands[index]
        run = execute(reference_cli, command,
                      self.inputs_dir / command.input_name, self.reference_report)
        if run.error is not None or run.exit_code != 0:
            raise SetupError(f"the reference failed on {command.label}: "
                             f"{run.error or f'exit code {run.exit_code}'}")
        return run.seconds

    def end_to_end(self, seconds: float, perfbench: Path,
                   setup: SetupProbe) -> Dict[str, float]:
        """One pass of the program alone, whose peak memory is the
        workload's, then paired passes while they fit in the time, each
        followed by a set-up.  In a paired pass the reference runs each
        command right before or right after the program does, the order
        flipping from one pair to the next, so that both see nearly the
        same machine speed."""
        deadline = time.perf_counter() + seconds
        self.run_pass("untraced")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reference_cli = load_reference(perfbench)
        passes: List[float] = []
        while not passes or fits(deadline, statistics.median(passes)):
            elapsed = 0.0
            for i, command in enumerate(self.commands):
                reference_first = (len(passes) + i) % 2 == 1
                if reference_first:
                    ref = self.run_reference(reference_cli, i)
                own = self.run_command("untraced", i)
                if not reference_first:
                    ref = self.run_reference(reference_cli, i)
                self.pairs[command.label].append((own, ref))
                elapsed += own + ref
            start = time.perf_counter()
            setup.probe(self.work_dir / "setup-check")
            passes.append(elapsed + time.perf_counter() - start)
        return {"pass_vs_ref": paired_ratio(self.pairs),
                "pass_s": statistics.median(
                    [sum(s) for s in zip(*self.samples.values())]),
                "peak_rss_mb": rss_kib / 1024}

    def per_layer(self, seconds: float, spans_path: Path) -> Dict[str, float]:
        """Untraced, counting and traced passes, then untraced/traced pairs
        while they fit in the time.  Spans go to ``spans_path`` as JSON
        lines."""
        deadline = time.perf_counter() + seconds
        untraced = [self.run_pass("untraced")]
        counts: Counter = Counter()
        with patched(counting_replacements(counts)):
            self.run_pass("counting")
        traced: List[float] = []
        layers: List[Dict[str, float]] = []
        with open(spans_path, "w", encoding="utf-8") as fh:
            while not traced or fits(deadline, untraced[-1] + traced[-1]):
                if traced:
                    untraced.append(self.run_pass("untraced"))
                recorder = SpanRecorder()
                with patched(tracing_replacements(recorder)):
                    traced.append(self.run_pass("traced"))
                layers.append(layer_metrics(recorder.spans))
                recorder.write_jsonl(fh, traced_pass=len(traced) - 1)
        # times vary from pass to pass; counts are the same in every pass
        metrics = {name: statistics.median(p[name] for p in layers)
                   if name.endswith("_s") else layers[0][name]
                   for name in layers[0]}
        for name in ("scalars.fp_ops", "scalars.q_ops", "poly.mul_calls"):
            metrics[name] = counts[name]
        metrics["trace.pass_s"] = statistics.median(traced)
        metrics["trace.overhead_frac"] = (metrics["trace.pass_s"]
                                          / statistics.median(untraced) - 1)
        return metrics


def paired_ratio(pairs: Dict[str, List[tuple]]) -> float:
    """The program's pass time over the reference's, from (program s,
    reference s) pairs per command: each command's median ratio, weighted by
    the command's median share of the reference's pass."""
    weights = {label: statistics.median(r for _, r in p)
               for label, p in pairs.items()}
    return (sum(weights[label] * statistics.median(o / r for o, r in p)
                for label, p in pairs.items()) / sum(weights.values()))


def fits(deadline: float, expected_s: float) -> bool:
    """Whether work expected to take ``expected_s`` ends by the deadline.
    Runs stop before the deadline instead of overshooting it, so that a
    run's length stays close to ``--seconds`` whatever the pass length."""
    return time.perf_counter() + expected_s <= deadline


def _timing(samples: List[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond
    it (none below eleven samples), with the sample count and the samples."""
    ordered = sorted(samples)
    n = len(ordered)
    high = None
    if n >= 11:
        high = {"percentile": 100 * (n - 10) / n, "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "high": high, "n": n,
            "samples": samples}


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    run_dir = ROOT / ".perfbench_runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs_dir = run_dir / "inputs"
    try:
        use_checkout_sources(ROOT)
        setup = SetupProbe(args.workload, args.seed, inputs_dir)
    except InputGenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP
    from apolar import cli

    commands = WORKLOADS[args.workload].commands()
    shas = setup.shas
    bench = Bench(cli, commands, inputs_dir, run_dir, shas,
                  DigestBook.load(HERE / "digests.json"))
    try:
        if args.trace:
            values = bench.per_layer(args.seconds, run_dir / "spans.jsonl")
        else:
            values = bench.end_to_end(args.seconds, HERE, setup)
            values["setup_s"] = statistics.median(setup.samples)
    except InputGenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    record = {
        "meta": metadata(ROOT),
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "setup_s": _timing(setup.samples),
        "commands": [{"label": c.label, "tool": c.tool.name, "n": c.n,
                      "field": c.field, "input_sha256": shas[c.input_name],
                      "untraced_s": _timing(bench.samples[c.label]),
                      "paired_s": bench.pairs[c.label]}
                     for c in commands],
        "failures": bench.failures,
        "values": values,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")
    print("meta: " + json.dumps({
        **record["meta"], "workload": args.workload, "seed": args.seed,
        "commands": [[c.tool.name, c.n, c.field] for c in commands]}))
    for c in record["commands"]:
        t = c["untraced_s"]
        print(f"{c['label']}: median {t['median']:.3f} s over {t['n']} runs")
    for reason in bench.failures:
        print(f"FAIL {reason}")
    if not args.trace:
        print(f"pass: median {values['pass_s']:.3f} s; over the reference's, "
              f"run in turn: {values['pass_vs_ref']:.4f}")
    if args.trace:
        base = values["trace.pass_s"]
        for layer in LAYER_SHARES:
            own = values[f"{layer}.self_s"]
            print(f"{layer}: self {own:.3f} s = {own / base:.1%} "
                  f"of a traced pass of {base:.3f} s")
    print(json.dumps({"correct": not bench.failures,
                      "attempted": bench.attempted,
                      "failed": len(bench.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
