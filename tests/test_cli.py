import json

from apolar import DualElement, family_phi
from apolar.cli import main


def write_family(tmp_path, n):
    path = tmp_path / f"phi{n}.json"
    assert main(["example-family", "--n", str(n), "--out", str(path)]) == 0
    return path


def test_example_family_writes_valid_phi(tmp_path):
    path = write_family(tmp_path, 2)
    phi = DualElement.from_json(path.read_text())
    assert phi == family_phi(2)


def test_example_family_warns_on_odd_n(tmp_path, capsys):
    path = tmp_path / "phi3.json"
    assert main(["example-family", "--n", "3", "--out", str(path)]) == 0
    assert "odd" in capsys.readouterr().err
    assert path.exists()


def test_example_family_random_is_seeded(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["example-family", "--n", "3", "--random", "--seed", "7",
                     "--field", "Fp:32003", "--out", str(out)]) == 0
    assert a.read_text() == b.read_text()
    phi = DualElement.from_json(a.read_text())
    assert phi.degree == 5 and phi.field.tag == "Fp:32003"


def test_resolve_family(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    report_path = tmp_path / "report.json"
    code = main(["resolve", str(path), "--out", str(report_path),
                 "--no-timestamp", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "linearly presented" in out and "quadratically presented" in out
    report = json.loads(report_path.read_text())
    assert report["linearly_presented"] and report["quadratically_presented"]
    assert "c2" in report["blocks"]
    assert "generated_at" not in report


def test_resolve_deterministic_output(tmp_path):
    path = write_family(tmp_path, 2)
    outs = []
    for name in ("r1.json", "r2.json"):
        rp = tmp_path / name
        main(["resolve", str(path), "--out", str(rp), "--no-timestamp", "--quiet"])
        outs.append(rp.read_bytes())
    assert outs[0] == outs[1]


def test_resolve_clear_denominators_display(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert main(["resolve", str(path), "--clear-denominators"]) == 0
    out = capsys.readouterr().out
    assert "1/6 x [" in out


def test_resolve_zero_phi_exits_2(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text('{"field": "Q", "degree": 3, "coeffs": {}}')
    assert main(["resolve", str(path)]) == 2


def test_resolve_quadratic_mode_odd_n_exits_3(tmp_path, capsys):
    path = tmp_path / "phi.json"
    assert main(["example-family", "--n", "3", "--random", "--seed", "1",
                 "--out", str(path)]) == 0
    code = main(["resolve", str(path), "--mode", "quadratic", "--quiet"])
    assert code == 3


def test_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["resolve", str(bad)]) == 1
    assert main(["oracle", str(bad)]) == 1
    assert main(["resolve", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_even_degree_phi_rejected(tmp_path):
    path = tmp_path / "even.json"
    path.write_text('{"field": "Q", "degree": 2, "coeffs": {"1,1,0": "1"}}')
    assert main(["resolve", str(path)]) == 1


def test_verify_family(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_odd_n_runs_linear_path(tmp_path, capsys):
    path = tmp_path / "phi.json"
    main(["example-family", "--n", "3", "--random", "--seed", "5",
          "--out", str(path)])
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out and "ann(x(phi))" in out


def test_verify_singular_p_exits_2(tmp_path, capsys):
    path = tmp_path / "xfree.json"
    path.write_text('{"field": "Q", "degree": 3, "coeffs": {"0,2,1": "1", "0,3,0": "2"}}')
    assert main(["verify", str(path)]) == 2


def test_verify_negative_max_degree_exits_1(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert main(["verify", str(path), "--max-degree", "-1"]) == 1
    assert "--max-degree" in capsys.readouterr().err


def test_wlp_command(tmp_path, capsys):
    path = write_family(tmp_path, 4)
    assert main(["wlp", str(path), "--ell", "x"]) == 0
    out = capsys.readouterr().out
    assert "true" in out
    assert main(["wlp", str(path), "--ell", "0"]) == 1


def test_wlp_report_file(tmp_path):
    path = write_family(tmp_path, 2)
    rp = tmp_path / "wlp.json"
    assert main(["wlp", str(path), "--ell", "y-z", "--out", str(rp),
                 "--no-timestamp"]) == 0
    report = json.loads(rp.read_text())
    assert set(report) == {"ell", "matrix", "determinant", "verdict", "note"}


def test_oracle_command(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    rp = tmp_path / "summary.json"
    assert main(["oracle", str(path), "--out", str(rp), "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert "1,3,3,1" in out
    report = json.loads(rp.read_text())
    assert report["hilbert_function"] == [1, 3, 3, 1]
    assert report["generator_counts"] == [0, 0, 3, 0, 0]
    assert "kernels" not in report


def test_oracle_include_kernels(tmp_path):
    path = write_family(tmp_path, 2)
    rp = tmp_path / "summary.json"
    assert main(["oracle", str(path), "--out", str(rp), "--no-timestamp",
                 "--include-kernels"]) == 0
    report = json.loads(rp.read_text())
    assert len(report["kernels"][2]) == 3


def test_oracle_negative_max_degree_exits_1(tmp_path, capsys):
    path = write_family(tmp_path, 2)
    assert main(["oracle", str(path), "--max-degree", "-1"]) == 1
    assert "--max-degree" in capsys.readouterr().err


def test_family_field_flag_misuse(tmp_path):
    assert main(["example-family", "--n", "2", "--field", "Fp:7",
                 "--out", str(tmp_path / "x.json")]) == 1
