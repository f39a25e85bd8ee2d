"""Command-line interface, run in-process through main()."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from scaledim import construction
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


def test_matrix_with_negative_size_exits_2(capsys, tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("-2\n0 1 1 0\n")
    for argv in (["build"], ["dim", "--lambda", "1", "--control", "1",
                             "--certificate", str(tmp_path / "c.txt")]):
        code, out, err = run(capsys, argv[0], f'matrix("{path}")', *argv[1:])
        assert code == 2
        assert "negative size -2" in err
        assert "dim:" not in out


def test_bad_spec_exits_2(capsys):
    code, out, err = run(capsys, "build", "circle(2,1)")
    assert code == 2
    assert err.startswith("error:")
    assert "m >= 3" in err


@pytest.mark.parametrize("spec", ["interval(30000000,1)", "circle(30000000,1)"])
def test_spaces_over_the_cap_exit_2(capsys, spec):
    code, out, err = run(capsys, "dim", spec, "--lambda", "0", "--control", "0")
    assert code == 2
    assert out == ""
    assert "points, over the cap 1000000" in err


@pytest.mark.parametrize("spec, size", [("group(3,2000)", 14348907),
                                        ("group(3,5)", 14348907),
                                        ("wedgegroup(3,3000)", 2391471)])
def test_oversized_group_is_refused_before_its_schedule(capsys, monkeypatch,
                                                        spec, size):
    # The big-integer schedule of thousands of levels takes minutes, so
    # the point count is checked first and the schedule is never built.
    def no_schedule(*args):
        raise AssertionError("weight_schedule called")

    monkeypatch.setattr(construction, "weight_schedule", no_schedule)
    code, out, err = run(capsys, "build", spec)
    assert code == 2
    assert out == ""
    assert err == (f"error: {spec} would have at least {size} points, "
                   f"over the cap 1000000\n")


@pytest.mark.parametrize("spec", ["group(2,64)", "wedgegroup(2,30)"])
def test_group_with_p_2_is_a_parse_error(capsys, spec):
    name = spec.split("(")[0]
    code, out, err = run(capsys, "build", spec)
    assert code == 2
    assert out == ""
    assert err == (f"error: line 1, column 1: {name} argument 1 out of "
                   f"range: needs p >= 3, got 2\n")


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


@pytest.mark.parametrize("old, new", [("family 0", "familyfoo"),
                                      ("cluster ", "clusterbar ")],
                         ids=["family", "cluster"])
def test_verify_rejects_unknown_line_keywords(capsys, tmp_path, old, new):
    cert = tmp_path / "c.txt"
    run(capsys, "dim", "interval(3,1)", "--lambda", "1", "--control", "2",
        "--certificate", str(cert))
    cert.write_text(cert.read_text().replace(old, new, 1))
    code, out, err = run(capsys, "verify", str(cert), "interval(3,1)")
    assert code == 2
    assert out == ""
    assert "unrecognised line" in err and new.strip() in err


@pytest.mark.parametrize("new", ["family 7 whatever", "family 1", "family"])
def test_verify_rejects_wrong_family_index(capsys, tmp_path, new):
    cert = tmp_path / "c.txt"
    run(capsys, "dim", "interval(3,1)", "--lambda", "1", "--control", "2",
        "--certificate", str(cert))
    cert.write_text(cert.read_text().replace("family 0", new, 1))
    code, out, err = run(capsys, "verify", str(cert), "interval(3,1)")
    assert code == 2
    assert out == ""
    assert f"expected 'family 0', got {new!r}" in err


def test_dim_budget_exhaustion_exits_3(capsys, tmp_path):
    code, out, _ = run(capsys, "dim", "circle(12,1)", "--lambda", "1",
                       "--control", "1", "--budget", "2",
                       "--certificate", str(tmp_path / "c.txt"))
    assert code == 3
    assert "dim: >= 1 (unknown" in out


def test_profile_budget_exhaustion_exits_3(capsys):
    code, out, err = run(capsys, "profile", "circle(12,1)", "--c", "1",
                         "--lambda-list", "1", "--budget", "2")
    assert code == 3
    assert err == ""
    assert out == "c,lambda,control,dim,status\n1,1,1,1,unknown\n"


def test_dim_max_n_stop_is_a_proven_lower_bound(capsys, tmp_path):
    # circle(9,1) has diameter 4 > 2, so n = 0 is refuted by the scan
    # alone: no node is spent and no budget runs out.
    cert = tmp_path / "c.txt"
    code, out, err = run(capsys, "dim", "circle(9,1)", "--lambda", "1",
                         "--control", "2", "--max-n", "0",
                         "--certificate", str(cert))
    assert code == 0
    assert err == ""
    assert out == ("space: circle(9,1) (9 points)\n"
                   "scale: lambda=1 control=2\n"
                   "dim: >= 1 (proven lower bound; the scan stopped at "
                   "--max-n 0)\n"
                   "nodes: 0\n")
    assert not cert.exists()
    code, out, err = run(capsys, "dim", "circle(9,1)", "--lambda", "1",
                         "--control", "2", "--max-n", "-1",
                         "--certificate", str(cert))
    assert code == 2
    assert out == ""
    assert err == "error: --max-n must be nonnegative, got -1\n"
    assert not cert.exists()


@pytest.mark.parametrize("argv, message", [
    (["oracle-check", "--cases", "-3"], "--cases must be positive, got -3"),
    (["oracle-check", "--size-max", "1"],
     "--size-max must be between 2 and 10, got 1"),
    (["oracle-check", "--size-max", "11"],
     "--size-max must be between 2 and 10, got 11"),
    (["dim", "circle(9,1)", "--lambda", "-1", "--control", "2"],
     "--lambda must be nonnegative, got -1"),
    (["dim", "circle(9,1)", "--lambda", "1", "--control", "-2"],
     "--control must be nonnegative, got -2"),
    (["dim", "circle(9,1)", "--lambda", "1", "--control", "2",
      "--budget", "0"], "--budget must be positive"),
    (["profile", "circle(9,1)", "--c", "0", "--lambda-list", "1"],
     "--c must be positive, got 0"),
    (["profile", "circle(9,1)", "--c", "2", "--lambda-list", "1,-2"],
     "--lambda-list needs nonnegative integers"),
    (["profile", "circle(5,1)", "--c", "2", "--lambda-list", "1,,2"],
     "--lambda-list must be comma-separated integers, got '1,,2'"),
    (["schedule", "--p", "3", "--N", "0"], "--N must be positive, got 0"),
    (["schedule", "--p", "1", "--N", "3"], "--p must be at least 2, got 1"),
])
def test_out_of_range_integers_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


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


def test_profile_wedgegroup_3_7_rise_scales(capsys):
    # 3273 points, above the matrix limit.  The n = 1 searches at the
    # rise scales 694172 and 253367220 decide dimension 1 exactly.
    code, out, _ = run(capsys, "profile", "wedgegroup(3,7)", "--c", "2",
                       "--from-schedule")
    assert code == 0
    assert out == ("c,lambda,control,dim,status\n"
                   "2,1,2,0,exact\n"
                   "2,2,4,1,lower-bound\n"
                   "2,9,18,0,exact\n"
                   "2,10,20,1,lower-bound\n"
                   "2,138,276,0,exact\n"
                   "2,139,278,1,lower-bound\n"
                   "2,5690,11380,0,exact\n"
                   "2,5691,11382,1,lower-bound\n"
                   "2,694171,1388342,0,exact\n"
                   "2,694172,1388344,1,exact\n"
                   "2,253367219,506734438,0,exact\n"
                   "2,253367220,506734440,1,exact\n")


def test_readme_profile_example(capsys):
    # The README's profile block is the command's real output.
    command = '$ scaledim profile "group(3,3)" --c 2 --from-schedule\n'
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split(command, 1)[1].split("```", 1)[0]
    code, out, _ = run(capsys, "profile", "group(3,3)", "--c", "2",
                       "--from-schedule")
    assert code == 0
    assert out == block


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


def test_schedule_weight_too_long_to_print_exits_2(capsys):
    # The interpreter refuses to turn an integer of more than
    # sys.get_int_max_str_digits() digits into text (4300 by default);
    # the weights at p = 3 pass that before level 140.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit <= 4300:
        pytest.skip("the integer-to-text limit is off or above its default")
    code, out, err = run(capsys, "schedule", "--p", "3", "--N", "140")
    assert code == 2 and out == ""
    match = re.search(r"^error: schedule level (\d+): weight a_\1 has about "
                      r"(\d+) decimal digits, too many to print "
                      r"\(levels 1\.\.(\d+) print\)$", err, re.MULTILINE)
    assert match, err
    level, digits, last = map(int, match.groups())
    assert last == level - 1 and digits > limit
    assert "set_int_max_str_digits" not in err
    code, out, _ = run(capsys, "schedule", "--p", "3", "--N", str(last))
    assert code == 0 and out.splitlines()[-1].startswith(f"{last},")


def test_a_long_schedule_stops_at_its_first_unprintable_weight(capsys,
                                                              monkeypatch):
    # Each weight is printed as it is built, so 2000 levels fail as 137
    # do, and no level past the first unprintable one is built.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit <= 4300:
        pytest.skip("the integer-to-text limit is off or above its default")
    built, eccentricity = [], construction._piece_eccentricity
    monkeypatch.setattr(construction, "_piece_eccentricity", lambda p, n, *a:
                        built.append(n) or eccentricity(p, n, *a))
    code, out, err = run(capsys, "schedule", "--p", "3", "--N", "2000")
    assert code == 2 and out == ""
    level = int(re.search(r"^error: schedule level (\d+): ", err,
                          re.MULTILINE).group(1))
    assert built == list(range(1, level))
    assert run(capsys, "schedule", "--p", "3", "--N", "137") == (code, out,
                                                                  err)


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


def test_profile_has_no_cap_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "group(3,3)", "--c", "2", "--from-schedule",
              "--cap", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 10" in capsys.readouterr().err


# -- the exit-code contract under generated input ---------------------------

def _exit_code(argv):
    # An argparse usage error exits 2 through SystemExit; anything else
    # that escapes main breaks the contract.
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_generated_specs_exit_0_2_or_3(capsys, tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Mostly in range, so that many specs build and reach the search.
    ints = st.sampled_from(("3", "4", "5", "3", "4", "3", "1", "2", "0", "-1"))
    leaves = st.builds(
        lambda name, a, b: (f"{name}({a},{b})" if name != "matrix"
                            else 'matrix("nofile")'),
        st.sampled_from(("interval", "circle", "group", "wedgegroup") * 2
                        + ("matrix",)), ints, ints)

    def terms(depth):
        # Well-formed calls nested at most ``depth`` deep, with small
        # integers that may be out of range.
        if depth == 1:
            return leaves
        inner = terms(depth - 1)
        return st.one_of(
            leaves,
            st.builds(lambda name, args: f"{name}({','.join(args)})",
                      st.sampled_from(("wedge", "sum")),
                      st.lists(inner, min_size=1, max_size=3)),
            st.builds("scale({},{})".format, inner, ints),
            st.builds(lambda e, idx: f"sub({e},[{','.join(idx)}])",
                      inner, st.lists(ints, max_size=4)))

    @st.composite
    def specs(draw):
        # A call, then up to two stray characters anywhere in it.
        text = draw(terms(3))
        for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.sampled_from('(),[]"x9 \n')) + text[i:]
        return text

    cert = str(tmp_path / "c.txt")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(spec=specs(), lam=st.integers(-1, 5),
                      control=st.integers(-1, 10))
    def check(spec, lam, control):
        assert _exit_code(["build", spec]) in (0, 2)
        code = _exit_code(["dim", spec, "--lambda", str(lam), "--control",
                           str(control), "--budget", "1000",
                           "--certificate", cert])
        assert code in (0, 2, 3)
        capsys.readouterr()

    check()


def test_mutated_certificates_exit_0_or_2(capsys, tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    spec = "sum(circle(5,1),interval(2,1))"
    good = tmp_path / "good.txt"
    assert main(["dim", spec, "--lambda", "1", "--control", "2",
                 "--certificate", str(good)]) == 0
    lines = good.read_text().splitlines()
    bad = str(tmp_path / "bad.txt")
    tokens = st.sampled_from(["0", "-1", "14", "15", "2", "x", "1.5", "",
                              "cluster", "family", "families:", "10" * 12])

    @st.composite
    def mutated(draw):
        out = list(lines)
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(out)))
            op = draw(st.sampled_from(("drop", "copy", "swap", "token")))
            if i == len(out) or op == "copy":
                out.insert(i, draw(st.sampled_from(lines)))
            elif op == "drop":
                del out[i]
            elif op == "swap":
                j = draw(st.integers(0, len(out) - 1))
                out[i], out[j] = out[j], out[i]
            else:
                words = out[i].split(" ")
                k = draw(st.integers(0, len(words) - 1))
                words[k] = draw(tokens)
                out[i] = " ".join(words)
        return "\n".join(out) + "\n"

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(text=mutated())
    def check(text):
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert _exit_code(["verify", bad, spec]) in (0, 2)
        capsys.readouterr()

    check()
