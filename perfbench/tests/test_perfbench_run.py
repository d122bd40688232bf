import shutil
import subprocess
import sys
from pathlib import Path

import run

PERFBENCH = Path(__file__).resolve().parent.parent


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-q",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == run.EXIT_SETUP
    assert proc.stdout == ""
    assert "no apolar sources" in proc.stderr


def test_timing_reports_a_high_percentile_only_with_ten_samples_beyond_it():
    assert run._timing([3.0, 1.0, 2.0]) == {"median": 2.0, "high": None, "n": 3,
                                            "samples": [3.0, 1.0, 2.0]}
    t = run._timing([float(i) for i in range(20)])
    assert t["high"] == {"percentile": 50.0, "value": 9.0}
    assert sum(1 for i in range(20) if i > t["high"]["value"]) == 10


def test_paired_ratio_weights_each_command_by_its_reference_time():
    pairs = {"short": [(0.5, 1.0), (0.5, 1.0), (9.0, 1.0)],
             "long": [(3.0, 3.0), (2.0, 2.0), (0.3, 3.0)]}
    # median ratios: short 0.5, long 1.0; median reference times 1 s and 3 s
    assert run.paired_ratio(pairs) == (0.5 * 1 + 1.0 * 3) / 4


def test_reference_is_a_separate_package_from_the_program():
    import apolar.cli
    from benchlib.reference import load_reference

    reference_cli = load_reference(PERFBENCH)
    assert reference_cli is not apolar.cli
    assert reference_cli.linalg is not apolar.cli.linalg
    assert Path(reference_cli.__file__).parent == PERFBENCH / "reference" / "apolar"
