"""Benchmark of scaledim: one seeded workload per run.

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``search`` (dim_at_scale queries on
spaces of at most 2000 points), ``certify`` (solve, validate, shrink and
round-trip certificates of l1 sums of circles, and reject a corrupted
one) and ``profile`` (``python -m scaledim profile`` subprocesses).

A run repeats whole rounds of its workload's catalogue until
``--seconds`` have passed and checks every answer.  Between operations,
at most every quarter second, it times the fixed kernel of calibrate.py,
and it reports its time metrics both in wall seconds and at the
kernel's reference speed, which cancels the drift of a shared host.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it runs a third of the time untraced, replays the same operations under
the tracer of tracing.py and reports per-layer metrics plus the tracing
overhead.
The human-readable report comes first; the last line of standard
output is one JSON object with the metrics named in BENCHMARK.json.
The full result, with machine details, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Repetitions of set-up, whose median is setup_s.
SETUP_REPEATS = 7
# Percentiles tried for op_tail_s, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "op_p50_ref_s": "s", "ops_per_ref_s": "1/s", "kernel_s": "s",
    "start_kernel_s": "s",
    "decided_frac": "ratio", "error_frac": "ratio", "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    parts = name.split(".")
    if "ns_per_elem" in parts:
        return "ns"
    if "nodes_per_s" in parts:
        return "1/s"
    if parts[-1] in ("s", "start_s") or "self_s" in parts:
        return "s"
    if parts[-1] in ("decided_ratio", "validate_to_solve", "rejected",
                     "overhead"):
        return "ratio"
    return "count"


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "platform": platform.platform()}


def tail(latencies: list[float]):
    """(percentile, value) for the highest percentile of TAIL_LADDER that
    has at least ten samples beyond it, or None."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            rank = max(0, min(n - 1, int(pct / 100.0 * n + 0.5) - 1))
            return pct, ordered[rank]
    return None


class Tally:
    """Verdicts on every operation of a run."""

    def __init__(self):
        self.attempted = self.failed = self.decided = 0
        self.failures: list[str] = []
        # entry name -> [operations, decided ones]
        self.by_entry: dict[str, list[int]] = {}

    def add(self, wl, op, result) -> None:
        if isinstance(result, Exception):
            msg, decided = f"raised {type(result).__name__}: {result}", False
        else:
            try:
                msg, decided = wl.check(op, result)
            except Exception as exc:  # noqa: BLE001 -- a failed check is data
                msg, decided = (f"check raised {type(exc).__name__}: {exc}",
                                False)
        self.attempted += 1
        self.decided += bool(decided)
        counts = self.by_entry.setdefault(wl.name(op), [0, 0])
        counts[0] += 1
        counts[1] += bool(decided)
        if msg is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{wl.name(op)}: {msg}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "decided": self.decided, "failures": self.failures}


def measure(wl, fn, op) -> tuple[float, object]:
    """(latency, result or exception) of one operation.  Its input is
    built, and the garbage of earlier operations collected, before the
    clock starts, so that its time does not depend on what ran before."""
    space = wl.prepare(op)
    gc.collect()
    t = time.perf_counter()
    try:
        result = fn(op, space)
    except Exception as exc:  # noqa: BLE001 -- a failed operation is data
        result = exc
    return time.perf_counter() - t, result


def loop(wl, rng, seconds: float, tally: Tally, cal=None):
    """Run whole rounds until ``seconds`` have passed, checking each
    answer as it arrives, outside its timing, and sampling the
    calibration ``cal``, if given, between operations.  Returns the
    operations, their latencies and the number of rounds."""
    ops, lats, rounds = [], [], 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for op in wl.round(rng):
            if cal is not None:
                cal.before_op()
            lat, result = measure(wl, wl.run, op)
            tally.add(wl, op, result)
            ops.append(op)
            lats.append(lat)
        rounds += 1
    return ops, lats, rounds


def per_entry(wl, ops, lats) -> dict:
    by: dict[str, list] = {}
    for op, lat in zip(ops, lats):
        by.setdefault(wl.name(op), []).append(lat)
    return {k: {"n": len(v), "p50_s": statistics.median(v), "latencies_s": v}
            for k, v in sorted(by.items())}


def import_wall(module: str, env: dict) -> float:
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - t


def run_untraced(name, wl, rng, seconds, env) -> dict:
    module = "scaledim.cli" if name == "profile" else "scaledim"
    # Each import is paired with the start-up kernel, so that setup_s
    # counts the interpreter's and numpy's start-up at its reference
    # cost, like the operations of profile (see calibrate.py).
    imports, starts = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_wall(module, env))
        starts.append(calibrate.start_kernel())
    beyond = statistics.median(i - s for i, s in zip(imports, starts))
    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        builds.append(time.perf_counter() - t)
    tally = Tally()
    cal = calibrate.Calibration(start=name == "profile")
    ops, lats, rounds = loop(wl, rng, seconds, tally, cal)
    cal.finish()
    who = resource.RUSAGE_CHILDREN if name == "profile" else resource.RUSAGE_SELF
    n = len(lats)
    # The catalogue entries stand for the workload's operations with
    # equal weight, however often a round repeats each of them.  Each
    # entry's latency is the median of its samples, so one slow sample
    # (a busy moment of the host) moves nothing.  The rate is taken from
    # the geometric mean, so that every entry weighs the same in it
    # rather than the few longest, whose handful of samples per run
    # would make it noisy.  The _ref metrics do
    # the same with the latencies at the calibration's reference speed.
    entries = per_entry(wl, ops, lats)
    typical = [e["p50_s"] for e in entries.values()]
    ref = [e["p50_s"] for e in per_entry(wl, ops, cal.scaled(lats)).values()]
    metrics = {
        "setup_s": (calibrate.START_NOMINAL_S + beyond
                    + statistics.median(builds)),
        "op_p50_s": statistics.median(typical),
        "ops_per_s": 1.0 / statistics.geometric_mean(typical),
        "op_p50_ref_s": statistics.median(ref),
        "ops_per_ref_s": 1.0 / statistics.geometric_mean(ref),
        "kernel_s": cal.kernel_s(),
        "decided_frac": statistics.fmean(d / k for k, d in
                                         tally.by_entry.values()),
        "error_frac": tally.failed / n,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    notes = {"setup_s": f"reference start-up {calibrate.START_NOMINAL_S:g} s "
                        f"+ median import beyond it {beyond:.4f} s "
                        f"+ median build {statistics.median(builds):.4f} s, "
                        f"{SETUP_REPEATS} each; median wall import "
                        f"{statistics.median(imports):.4f} s, start-up "
                        f"kernel {statistics.median(starts):.4f} s",
             "op_p50_s": f"median of {len(typical)} entries' medians, "
                         f"n={n} in {rounds} rounds",
             "ops_per_s": f"1 / geometric mean of the {len(typical)} "
                          "entries' medians",
             "op_p50_ref_s": "op_p50_s at the reference speed"
                             + (", start-up at its reference cost"
                                if cal.start else ""),
             "ops_per_ref_s": "ops_per_s at the reference speed",
             "kernel_s": f"median of {len(cal.cpu.samples)} calibration kernels;"
                         f" reference {calibrate.NOMINAL_S:g} s",
             "decided_frac": f"mean over {len(typical)} entries",
             "error_frac": f"{tally.failed} of {n}"}
    if cal.start:
        metrics["start_kernel_s"] = cal.start_kernel_s()
        notes["start_kernel_s"] = (f"median of {len(cal.start.samples)} "
                                   "start-up kernels; reference "
                                   f"{calibrate.START_NOMINAL_S:g} s")
    tl = tail(lats)
    if tl is not None:
        metrics["op_tail_s"] = tl[1]
        notes["op_tail_s"] = f"p{tl[0]:g}, n={n}"
    else:
        notes["op_tail_s"] = f"omitted: {n} operations are too few"
    return {"metrics": metrics, "notes": notes, "checks": tally.as_dict(),
            "rounds": rounds, "kernel_samples_s": cal.cpu.samples,
            "start_kernel_samples_s": cal.start.samples if cal.start else [],
            "entries": entries}


def run_traced(wl, tracer, rng, seconds) -> dict:
    tracer.install()
    tracer.op = "setup"
    try:
        wl.setup()
    finally:
        tracer.op = None
        tracer.uninstall()
    tally = Tally()
    ops, lats, rounds = loop(wl, rng, seconds / 3.0, tally)
    # profile compares in-process cli.main runs, traced and untraced.
    inprocess = hasattr(wl, "run_inprocess")
    runner = wl.run_inprocess if inprocess else wl.run
    base = lats
    if inprocess:
        base = []
        for op in ops:
            lat, result = measure(wl, runner, op)
            tally.add(wl, op, result)
            base.append(lat)
    traced = []
    tracer.install()
    try:
        for k, op in enumerate(ops):
            space = wl.prepare(op)
            gc.collect()
            tracer.op = k
            t = time.perf_counter()
            try:
                result = runner(op, space)
            except Exception as exc:  # noqa: BLE001
                result = exc
            traced.append((op, time.perf_counter() - t, result))
            tracer.op = None
    finally:
        tracer.uninstall()
    for op, _, result in traced:
        tally.add(wl, op, result)
    metrics = tracer.layer_metrics(rounds)
    metrics["trace.overhead"] = sum(t[1] for t in traced) / sum(base) - 1.0
    metrics["cli.start_s"] = ((sum(lats) - sum(base)) / len(ops)
                              if inprocess else 0.0)
    presented = getattr(wl, "presented", 0)
    metrics["covers.rejected"] = (wl.rejected / presented if presented
                                  else 0.0)
    notes = {"trace.overhead": f"{len(ops)} operations in {rounds} "
                               "rounds, traced against untraced"}
    return {"metrics": metrics, "notes": notes, "checks": tally.as_dict(),
            "rounds": rounds, "trace": tracer.dump()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest catalogue, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "scaledim" / "__init__.py").is_file():
        print(f"error: no scaledim sources under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scaledim
    if Path(scaledim.__file__).resolve().parent != SRC / "scaledim":
        print(f"error: imported scaledim from {scaledim.__file__}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads
    # Schedules with a 3-point first circle warn on every build.
    warnings.simplefilter("ignore", scaledim.SmallCircleWarning)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    wl = workloads.make(args.workload, str(SRC), args.small, tracer)
    info = machine()
    if args.trace:
        res = run_traced(wl, tracer, rng, args.seconds)
        names = [m["name"] for m in declared["per_layer"]]
        units = {k: unit_of(k) for k in res["metrics"]}
    else:
        res = run_untraced(args.workload, wl, rng, args.seconds,
                           workloads.cli_env(str(SRC)))
        names = [m["name"] for m in declared["end_to_end"]]
        units = END_TO_END_UNITS
    checks = res["checks"]

    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print(f"machine  {info['nproc']} CPUs, {info['cpu']}, Python "
          f"{info['python']}, numpy {info['numpy']}, git {info['git_sha']}")
    for key in sorted(res["metrics"]):
        note = res["notes"].get(key, "")
        print(f"  {key:42s} {res['metrics'][key]:14.6g} {units[key]:6s} {note}")
    if "op_tail_s" not in res["metrics"] and not args.trace:
        print(f"  {'op_tail_s':42s} {'-':>14s} {'s':6s} {res['notes']['op_tail_s']}")
    print(f"  checks: {checks['attempted']} operations checked, "
          f"{checks['failed']} failed")
    for msg in checks["failures"]:
        print(f"    FAILED {msg}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_dump = res.pop("trace", None)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "small": args.small, "machine": info,
              "units": {k: units[k] for k in res["metrics"]}, **res}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if trace_dump is not None:
        with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(trace_dump, fh)

    line = {"correct": checks["failed"] == 0 and checks["attempted"] > 0,
            "attempted": checks["attempted"], "failed": checks["failed"],
            "metrics": {k: {"value": res["metrics"][k], "unit": units[k]}
                        for k in names}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
