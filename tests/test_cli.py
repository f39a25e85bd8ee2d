"""Command-line interface, run in-process through main()."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from scaledim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_build_describes_the_space(capsys):
    code, out, err = run(capsys, "build", "circle(9,2)")
    assert code == 0
    assert "label: circle(9,2)" in out
    assert "size: 9" in out
    assert "diameter: 8" in out
    assert "min-positive-distance: 2" in out


def test_build_check_runs_axioms(capsys):
    code, out, _ = run(capsys, "build", "wedge(interval(2,1),circle(5,1))",
                       "--check")
    assert code == 0
    assert "metric-axioms: ok" in out


def test_bad_spec_exits_2(capsys):
    code, out, err = run(capsys, "build", "circle(2,1)")
    assert code == 2
    assert err.startswith("error:")
    assert "m >= 3" in err


def test_dim_writes_certificate_and_verify_accepts_it(capsys, tmp_path):
    cert = tmp_path / "c.txt"
    code, out, _ = run(capsys, "dim", "interval(3,1)", "--lambda", "1",
                       "--control", "2", "--certificate", str(cert))
    assert code == 0
    assert "dim: 1 (exact)" in out
    assert cert.exists()

    code, out, _ = run(capsys, "verify", str(cert), "interval(3,1)")
    assert code == 0
    assert "valid cover: yes" in out
    assert "at most 1" in out


def test_verify_rejects_size_mismatch(capsys, tmp_path):
    cert = tmp_path / "c.txt"
    run(capsys, "dim", "interval(3,1)", "--lambda", "1", "--control", "2",
        "--certificate", str(cert))
    code, _, err = run(capsys, "verify", str(cert), "interval(5,1)")
    assert code == 2
    assert "4 points" in err and "6" in err


def test_verify_warns_on_label_mismatch_but_checks(capsys, tmp_path):
    cert = tmp_path / "c.txt"
    run(capsys, "dim", "sum(circle(3,1),circle(9,2))", "--lambda", "1",
        "--control", "2", "--certificate", str(cert))
    code, out, err = run(capsys, "verify", str(cert), "group(3,2)")
    assert code == 0
    assert "warning: certificate label" in err
    assert "valid cover: yes" in out


def test_verify_reports_violations(capsys, tmp_path):
    cert = tmp_path / "c.txt"
    run(capsys, "dim", "interval(3,1)", "--lambda", "1", "--control", "2",
        "--certificate", str(cert))
    # tamper: claim a tighter control than the clusters satisfy
    text = cert.read_text().replace("control: 2", "control: 1")
    cert.write_text(text)
    code, out, _ = run(capsys, "verify", str(cert), "interval(3,1)")
    assert code == 2
    assert "valid cover: no" in out
    assert "cluster" in out


def test_dim_budget_exhaustion_exits_3(capsys, tmp_path):
    code, out, _ = run(capsys, "dim", "circle(12,1)", "--lambda", "1",
                       "--control", "1", "--budget", "2",
                       "--certificate", str(tmp_path / "c.txt"))
    assert code == 3
    assert "dim: >= 1 (unknown" in out


def test_budget_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SCALEDIM_NODE_BUDGET", "2")
    code, out, _ = run(capsys, "dim", "circle(12,1)", "--lambda", "1",
                       "--control", "1", "--certificate", str(tmp_path / "c"))
    assert code == 3
    monkeypatch.setenv("SCALEDIM_NODE_BUDGET", "plenty")
    code, _, err = run(capsys, "dim", "circle(12,1)", "--lambda", "1",
                       "--control", "1", "--certificate", str(tmp_path / "c"))
    assert code == 2
    assert "SCALEDIM_NODE_BUDGET" in err
    for value in ("-5", "0"):
        monkeypatch.setenv("SCALEDIM_NODE_BUDGET", value)
        code, out, err = run(capsys, "dim", "circle(9,1)", "--lambda", "1",
                             "--control", "2",
                             "--certificate", str(tmp_path / "c"))
        assert code == 2, value
        assert out == ""
        assert err == "error: SCALEDIM_NODE_BUDGET must be positive\n"


def test_spec_nesting_limit(capsys, tmp_path):
    def nested(depth):
        return "scale(" * (depth - 1) + "circle(9,1)" + ",1)" * (depth - 1)

    code, out, _ = run(capsys, "dim", nested(100), "--lambda", "1",
                       "--control", "2", "--certificate", str(tmp_path / "c"))
    assert code == 0
    assert "dim: 1 (exact)" in out
    for depth in (101, 600):
        code, _, err = run(capsys, "dim", nested(depth), "--lambda", "1",
                           "--control", "2")
        assert code == 2, depth
        # the 101st call opens at column 6 * 100 + 1
        assert err == ("error: line 1, column 601: calls nested more than "
                       "100 deep\n")


def test_profile_lambda_list_and_csv(capsys, tmp_path):
    out_csv = tmp_path / "p.csv"
    code, out, _ = run(capsys, "profile", "wedgegroup(3,2)", "--c", "2",
                       "--lambda-list", "1,2", "--csv", str(out_csv))
    assert code == 0
    assert out == ("c,lambda,control,dim,status\n"
                   "2,1,2,0,exact\n"
                   "2,2,4,1,exact\n")
    assert out_csv.read_text() == out


def test_profile_from_schedule(capsys):
    code, out, _ = run(capsys, "profile", "group(3,3)", "--c", "2",
                       "--from-schedule")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "c,lambda,control,dim,status"
    lams = [int(r.split(",")[1]) for r in rows[1:]]
    assert lams == [1, 2, 9, 10]
    code, out, _ = run(capsys, "profile", "wedgegroup(3,4)", "--c", "2",
                       "--from-schedule")
    assert code == 0
    lams = [int(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
    assert lams == [1, 2, 9, 10, 138, 139]


def test_profile_from_schedule_needs_schedule_spec(capsys):
    code, _, err = run(capsys, "profile", "circle(9,1)", "--c", "2",
                       "--from-schedule")
    assert code == 2
    assert "group(...)" in err


def test_profile_plot_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        code, _, _ = run(capsys, "profile", "wedgegroup(3,2)", "--c", "2",
                         "--lambda-list", "1,2", "--plot", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg ")
    assert "dim of wedgegroup(3,2)" in text


def test_oracle_check_subcommand(capsys):
    code, out, _ = run(capsys, "oracle-check", "--seed", "5", "--cases", "10",
                       "--size-max", "6")
    assert code == 0
    assert "comparisons: 160" in out
    assert "mismatches: 0" in out


def test_schedule_subcommand(capsys, tmp_path):
    out_csv = tmp_path / "s.csv"
    code, out, _ = run(capsys, "schedule", "--p", "3", "--N", "4",
                       "--csv", str(out_csv))
    assert code == 0
    assert out == "n,a_n\n1,1\n2,2\n3,10\n4,140\n"
    assert out_csv.read_text() == out


def test_strict_escalates_schedule_warnings(capsys):
    code, _, err = run(capsys, "schedule", "--p", "3", "--N", "2", "--strict")
    assert code == 2
    assert "level 1" in err
    code, out, _ = run(capsys, "schedule", "--p", "5", "--N", "2", "--strict")
    assert code == 0
    assert out.endswith("2,3\n")


def test_schedule_warning_is_one_plain_line():
    # In a subprocess: the suite's filterwarnings setting hides the
    # warning from in-process runs.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    message = ("level 1: the circle has 3 points, so its diameter 1 is at "
               "most 1 * a_1; the single-family step fails at this level")
    argv = [sys.executable, "-m", "scaledim", "profile", "wedgegroup(3,2)",
            "--c", "2", "--from-schedule"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == f"warning: {message}\n"
    assert proc.stdout == ("c,lambda,control,dim,status\n"
                           "2,1,2,0,exact\n"
                           "2,2,4,1,exact\n")
    proc = subprocess.run(argv + ["--strict"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


def test_missing_certificate_file(capsys):
    code, _, err = run(capsys, "verify", "/no/such/file", "circle(3,1)")
    assert code == 2
    assert "error:" in err


def test_usage_error_is_argparse_exit():
    with pytest.raises(SystemExit):
        main(["dim", "circle(3,1)"])  # missing required --lambda/--control
