"""Quick self-test of the benchmark: every workload at its smallest size.

    PYTHONPATH=src python -m pytest bench -q

Checks that each run prints, as its last line, every metric that
BENCHMARK.json declares, with its unit, and that the answers were
checked; and that the benchmark refuses to run without the sources.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    assert f"checks: {line['attempted']} operations checked" in proc.stdout
    result = json.loads((HERE / "out" / f"{workload}-seed3-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    assert result["checks"]["attempted"] == line["attempted"]
    assert result["machine"]["nproc"] >= 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "search", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_fixes_the_inputs():
    def rounds(seed):
        wl = workloads.make("certify", str(ROOT / "src"))
        wl.setup()
        rng = random.Random(seed)
        return [[(op[0], op[2]) for op in wl.round(rng)] for _ in range(2)]

    assert rounds(7) == rounds(7)
    assert rounds(7) != rounds(8)
