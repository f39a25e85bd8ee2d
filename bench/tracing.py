"""Span tracing of scaledim's public functions, applied from outside.

A Tracer replaces each traced function with a wrapper at the place
where callers look it up: the module globals listed in PATCHES and the
FiniteMetricSpace methods.  The program itself is unchanged, so an
untraced run pays nothing; ``install`` and ``uninstall`` bracket the
traced phase of a run.

Every wrapper records a span: name, start, end, parent span and
operation id.  Spans stay in memory until the run ends.  Self time is a
span's duration minus the durations of the spans nested directly in it,
accumulated on a stack as the spans close.  ``dist_row`` runs once per
component per search node, so its spans are folded into one aggregate
per (operation, parent span, serving path) instead of being kept one by
one; ``dist`` is only counted.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from scaledim import cli, construction, covers, solver, spacespec
from scaledim.spaces import FiniteMetricSpace

perf = time.perf_counter

PATHS = ("dense", "kernel", "scalar")

# Every per-layer metric a traced run reports, in report order.
LAYER_METRICS = (
    *(f"spaces.dist_row.{m}.{p}" for m in ("calls", "elems", "self_s",
                                           "ns_per_elem") for p in PATHS),
    "spaces.dist.calls", "spaces.densify.calls", "spaces.densify.s",
    "solver.dim_at_scale.calls", "solver.dim_at_scale.s",
    "solver.dim_le.calls", "solver.dim_le.self_s.feasible",
    "solver.dim_le.self_s.infeasible", "solver.dim_le.self_s.unknown",
    "solver.nodes", "solver.nodes_per_s", "solver.nodes_to_decide",
    "solver.decided_ratio",
    "solver.lambda_components.calls", "solver.lambda_components.self_s",
    "covers.validate_cover.calls", "covers.validate_cover.self_s",
    "covers.cluster_pairs", "covers.shrink_to_partition.s",
    "covers.roundtrip.s", "covers.rejected", "covers.validate_to_solve",
    "construction.profile.calls", "construction.profile.self_s",
    "construction.samples.exact", "construction.samples.lower_bound",
    "construction.samples.unknown", "construction.witness_probes",
    "spacespec.parse_spec.s", "spacespec.build_with_witnesses.s",
    "cli.main.s", "cli.start_s", "trace.overhead",
)

# (module, attribute, span name) for every lookup site of a traced
# function.  Names missing from a module are skipped.
PATCHES = (
    (solver, "dim_at_scale", "solver.dim_at_scale"),
    (solver, "dim_le", "solver.dim_le"),
    (solver, "lambda_components", "solver.lambda_components"),
    (solver, "validate_cover", "covers.validate_cover"),
    (construction, "dim_at_scale", "solver.dim_at_scale"),
    (construction, "dim_le", "solver.dim_le"),
    (construction, "lambda_components", "solver.lambda_components"),
    (construction, "profile", "construction.profile"),
    (covers, "validate_cover", "covers.validate_cover"),
    (covers, "shrink_to_partition", "covers.shrink_to_partition"),
    (spacespec, "parse_spec", "spacespec.parse_spec"),
    (spacespec, "build_with_witnesses", "spacespec.build_with_witnesses"),
    (cli, "parse_spec", "spacespec.parse_spec"),
    (cli, "build_with_witnesses", "spacespec.build_with_witnesses"),
    (cli, "profile", "construction.profile"),
    (cli, "main", "cli.main"),
)


def serving_path(space) -> str:
    """Which of the three dist_row paths serves this space right now."""
    if getattr(space, "_matrix", None) is not None:
        return "dense"
    return "kernel" if space.has_fast_rows() else "scalar"


def _cluster_pairs(cover) -> int:
    return sum(len(f) * (len(f) - 1) // 2 for f in cover.families)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        # (op, parent span id, path) -> [calls, elems, self seconds]
        self.rows = defaultdict(lambda: [0, 0, 0.0])
        # (op, counter name) -> value
        self.counts = defaultdict(int)
        # Frames are [span id, name, start, time spent in child spans];
        # dist_row frames inherit their parent's id and have no name.
        self.stack = [[None, None, 0.0, 0.0]]
        self.op = None
        self.profiled_space = None
        self.t0 = perf()
        self._next_id = 1
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _push(self, name):
        frame = [self._next_id, name, perf(), 0.0]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _pop(self, frame) -> dict:
        end = perf()
        self.stack.pop()
        dur = end - frame[2]
        parent = self.stack[-1]
        parent[3] += dur
        span = {"id": frame[0], "parent": parent[0], "op": self.op,
                "name": frame[1], "start": frame[2] - self.t0,
                "end": end - self.t0, "self_s": dur - frame[3]}
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of the benchmark's own code,
        while installed."""
        if not self._saved:
            yield
            return
        frame = self._push(name)
        try:
            yield
        finally:
            self._pop(frame)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.op, name)] += n

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        on_call = getattr(self, "_call_" + name.replace(".", "_"), None)
        on_result = getattr(self, "_result_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            frame = tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer._pop(frame)
            if on_result is not None:
                on_result(span, result)
            return result

        return wrapper

    def _result_solver_dim_le(self, span, outcome):
        span["status"] = outcome.status
        span["nodes"] = outcome.nodes

    def _result_solver_dim_at_scale(self, span, result):
        span["status"] = result.status
        span["nodes"] = result.nodes

    def _call_solver_dim_at_scale(self, space, *args, **kwargs):
        if self.profiled_space is not None and space is not self.profiled_space:
            self.count("construction.witness_probes")

    def _call_covers_validate_cover(self, space, cover, *args, **kwargs):
        self.count("covers.cluster_pairs", _cluster_pairs(cover))

    def _call_construction_profile(self, space, *args, **kwargs):
        self.profiled_space = space

    def _result_construction_profile(self, span, prof):
        self.profiled_space = None
        for s in prof.samples:
            self.count("construction.samples." + s.status.replace("-", "_"))

    def _wrap_dist_row(self, fn):
        stack = self.stack
        rows = self.rows
        tracer = self

        @functools.wraps(fn)
        def dist_row(space, i, targets=None):
            path = serving_path(space)
            frame = [stack[-1][0], None, perf(), 0.0]
            stack.append(frame)
            try:
                return fn(space, i, targets)
            finally:
                dur = perf() - frame[2]
                stack.pop()
                stack[-1][3] += dur
                agg = rows[(tracer.op, frame[0], path)]
                agg[0] += 1
                agg[1] += space.size if targets is None else len(targets)
                agg[2] += dur - frame[3]

        return dist_row

    def _wrap_dist(self, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def dist(space, i, j):
            counts[(tracer.op, "spaces.dist.calls")] += 1
            return fn(space, i, j)

        return dist

    def install(self) -> None:
        """Put the wrappers in place; a no-op when already installed."""
        if self._saved:
            return
        cls = FiniteMetricSpace
        for attr, wrapped in (("dist_row", self._wrap_dist_row(cls.dist_row)),
                              ("dist", self._wrap_dist(cls.dist)),
                              ("densify", self._wrap("spaces.densify",
                                                     cls.densify))):
            self._saved.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapped)
        for module, attr, name in PATCHES:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures per catalogue round.

        Spans and counts of operations are divided by ``rounds``; those
        recorded during set-up (op id "setup") are added once, and those
        outside any operation (op id None) not at all.
        """
        def weight(op):
            if op is None:
                return 0.0
            return 1.0 if op == "setup" else 1.0 / rounds

        out: dict[str, float] = defaultdict(float)
        for (op, _, path), (calls, elems, self_s) in self.rows.items():
            w = weight(op)
            out[f"spaces.dist_row.calls.{path}"] += w * calls
            out[f"spaces.dist_row.elems.{path}"] += w * elems
            out[f"spaces.dist_row.self_s.{path}"] += w * self_s
        for path in PATHS:
            elems = out[f"spaces.dist_row.elems.{path}"]
            out[f"spaces.dist_row.ns_per_elem.{path}"] = (
                1e9 * out[f"spaces.dist_row.self_s.{path}"] / elems
                if elems else 0.0)
        for (op, name), n in self.counts.items():
            out[name] += weight(op) * n

        le_nodes = le_busy = decided = decided_nodes = le_calls = 0.0
        validate_s = 0.0
        for s in self.spans:
            w = weight(s["op"])
            name = s["name"]
            dur = s["end"] - s["start"]
            if name in ("spaces.densify", "solver.dim_at_scale",
                        "covers.shrink_to_partition", "covers.roundtrip",
                        "spacespec.parse_spec",
                        "spacespec.build_with_witnesses", "cli.main"):
                out[name + ".calls"] += w
                out[name + ".s"] += w * dur
            if name in ("solver.dim_le", "solver.lambda_components",
                        "covers.validate_cover", "construction.profile"):
                out[name + ".calls"] += w
                out[name + ".self_s"] += w * s["self_s"]
            if name == "covers.validate_cover":
                validate_s += w * dur
            if name == "solver.dim_le":
                status = s["status"]
                out["solver.dim_le.self_s." + status] += w * s["self_s"]
                out["solver.nodes"] += w * s["nodes"]
                le_calls += w
                if s["nodes"]:
                    le_nodes += s["nodes"]
                    le_busy += dur
                if status != solver.UNKNOWN:
                    decided += w
                    decided_nodes += w * s["nodes"]
        out["solver.nodes_per_s"] = le_nodes / le_busy if le_busy else 0.0
        out["solver.nodes_to_decide"] = (decided_nodes / decided
                                         if decided else 0.0)
        out["solver.decided_ratio"] = decided / le_calls if le_calls else 0.0
        # Time to check one certificate over time to compute one answer.
        solve_s = out["solver.dim_at_scale.s"]
        checks = out["covers.validate_cover.calls"]
        out["covers.validate_to_solve"] = (
            validate_s / checks * out["solver.dim_at_scale.calls"] / solve_s
            if checks and solve_s else 0.0)
        return {k: out[k] for k in LAYER_METRICS}

    def dump(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "spans": self.spans,
            "dist_row": [{"op": op, "parent": parent, "path": path,
                          "calls": c, "elems": e, "self_s": s}
                         for (op, parent, path), (c, e, s) in self.rows.items()],
            "counts": [{"op": op, "name": name, "value": v}
                       for (op, name), v in self.counts.items()],
        }

