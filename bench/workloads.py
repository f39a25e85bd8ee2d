"""The three benchmark workloads: search, certify and profile.

Each workload is a closed loop with one client.  A round is one pass
over the workload's whole catalogue, in an order the seed shuffles, so
runs on different seeds do the same work and stay comparable.  The
catalogues and the values they must produce are pinned here; the
library only ever sees the spaces, scales and certificates built from
them.

Workload interface:
    setup()              build the inputs (timed as set-up)
    round(rng)           the operations of one round, in seed order
    prepare(op)          a fresh input space for one operation (untimed)
    run(op, space)       perform one operation (timed)
    check(op, result)    (failure message or None, decided?), untimed
    name(op)             the catalogue entry, for reports
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass

from scaledim import cli, covers, solver, spacespec
from scaledim.spaces import random_metric_space

# Per-query node budget of the search workload.  Large enough that
# every feasible find and most exhaustion proofs finish, small enough
# that the three budget-bound grid queries cost about a second each.
NODE_BUDGET = 100_000
# Queries of a few milliseconds run this often in each round, so that the
# median of each, where op_p50_s falls, rests on many samples at little
# cost: together they take about a tenth of a second.
SEARCH_LIGHT_REPEATS = 8


def _grid(k, dims=2):
    return "sum(" + ",".join([f"interval({k},1)"] * dims) + ")"


def _torus(m):
    return f"sum(circle({m},1),circle({m},1))"


@dataclass(frozen=True)
class Query:
    """One dim_at_scale question with the dimension it must get.

    ``space`` is a spec string or ("random", points, catalogue seed);
    for random spaces ``scale`` holds distance quantiles instead of the
    scales themselves.  ``dim`` is the true dimension: pinned from an
    exact run with a large node budget where this budget runs out.
    """

    space: object
    scale: tuple
    dim: int

    @property
    def name(self) -> str:
        if isinstance(self.space, str):
            return f"{self.space}@{self.scale[0]},{self.scale[1]}"
        _, n, seed = self.space
        return f"random({n},seed={seed})@q{self.scale[0]},q{self.scale[1]}"


SEARCH_LIGHT = (
    # At most 10 points: cross-checked against the brute-force oracle.
    Query("circle(9,1)", (1, 2), 1),
    Query(_grid(2), (1, 2), 1),
    Query("sum(interval(1,1),interval(4,1))", (1, 2), 1),
    Query(("random", 8, 11), (0.25, 0.5), 1),
    Query(("random", 10, 13), (0.25, 0.5), 0),
    # Settled by the component scan or a few nodes.
    Query(_grid(3), (3, 6), 0),
    Query(_grid(4), (2, 5), 1),
    Query(_torus(5), (2, 4), 0),
    Query(_torus(6), (3, 6), 0),
    Query(_grid(2, 3), (2, 5), 1),
    Query(_grid(2, 3), (3, 6), 0),
    Query(("random", 40, 1), (0.25, 0.75), 1),
    Query(("random", 50, 4), (0.25, 0.75), 1),
    Query(("random", 60, 5), (0.25, 0.75), 1),
    Query(("random", 60, 6), (0.5, 1.0), 0),
    # Finds on 60 to 125 points, about a hundred nodes each.  The
    # median operation is one of these, so op_p50_s sits in a dense
    # group of similar queries rather than in a gap between two.
    Query(_grid(7), (1, 2), 1),
    Query(_grid(7), (1, 3), 1),
    Query(_grid(8), (1, 2), 1),
    Query(_grid(8), (1, 3), 1),
    Query(_grid(9), (1, 3), 1),
    Query(_torus(8), (1, 2), 1),
    Query(_torus(8), (1, 3), 1),
    Query(_torus(10), (1, 3), 1),
    Query(_grid(3, 3), (1, 2), 1),
    Query(_grid(3, 3), (1, 3), 1),
    Query("sum(interval(15,1),interval(3,1))", (1, 2), 1),
    Query("sum(circle(20,1),circle(4,1))", (1, 2), 1),
    Query("circle(60,1)", (1, 2), 1),
    Query("circle(80,1)", (1, 2), 1),
)

SEARCH_HEAVY = (
    # Larger finds.
    Query(_grid(4, 3), (1, 3), 1),
    Query("circle(100,1)", (1, 2), 1),
    Query("circle(300,1)", (1, 2), 1),
    Query("circle(500,1)", (1, 2), 1),
    Query("circle(1000,1)", (1, 2), 1),
    Query(("random", 40, 1), (0.25, 0.5), 1),
    # Exhaustion proofs that one family short is infeasible.
    Query(_grid(4), (2, 4), 2),
    Query(_grid(6), (2, 4), 2),
    Query(_torus(6), (2, 4), 2),
    Query(("random", 50, 3), (0.25, 0.5), 2),
    # Over budget; the pinned values come from exact runs with a budget
    # of 4,000,000 nodes.
    Query(_grid(6), (2, 5), 2),     # decided after 414,693 nodes
    Query(_grid(8), (2, 4), 2),     # decided after 1,164,978 nodes
    Query(_grid(2, 3), (2, 4), 2),  # decided after 1,265,128 nodes
)

SEARCH_CATALOGUE = SEARCH_LIGHT + SEARCH_HEAVY

SEARCH_SMALL = SEARCH_CATALOGUE[:5] + (SEARCH_CATALOGUE[35],)


def _quantile(space, q) -> int:
    dists = sorted({space.dist(i, j) for i in range(space.size)
                    for j in range(i + 1, space.size)})
    return dists[int(q * (len(dists) - 1))]


class Search:
    """One operation is one dim_at_scale query under NODE_BUDGET.  A
    round runs each query of SEARCH_LIGHT SEARCH_LIGHT_REPEATS times and each
    of SEARCH_HEAVY once."""

    def __init__(self, small=False):
        self.catalogue = SEARCH_SMALL if small else SEARCH_CATALOGUE
        self.valid: dict = {}
        self.brute: dict = {}

    def setup(self) -> None:
        # Spec spaces are rebuilt for every operation (outside its
        # timing) so each query starts without the memoized distance
        # matrix of an earlier one; random spaces are matrices already.
        self.inputs = []
        for q in self.catalogue:
            if isinstance(q.space, str):
                spec = spacespec.parse_spec(q.space)
                spacespec.build_with_witnesses(spec)
                self.inputs.append((q, spec, None, q.scale))
            else:
                _, n, seed = q.space
                space = random_metric_space(n, seed)
                scale = tuple(_quantile(space, f) for f in q.scale)
                self.inputs.append((q, None, space, scale))

    def round(self, rng) -> list:
        ops = [op for op in self.inputs
               for _ in range(SEARCH_LIGHT_REPEATS if op[0] in SEARCH_LIGHT
                              else 1)]
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        q, spec, space, scale = op
        return space if spec is None else spacespec.build_space(spec)

    def name(self, op) -> str:
        return op[0].name

    def run(self, op, space):
        _, _, _, (lam, control) = op
        return solver.dim_at_scale(space, lam, control,
                                   node_budget=NODE_BUDGET)

    def check(self, op, result):
        q, spec, space, (lam, control) = op
        if space is None:
            space = spacespec.build_space(spec)
        if space.size <= 10:
            if q.name not in self.brute:
                self.brute[q.name] = solver.dim_at_scale_bruteforce(
                    space, lam, control)[0]
            if self.brute[q.name] != q.dim:
                return f"brute force gives {self.brute[q.name]}", False
        if result.status == "unknown":
            if result.lower_bound > q.dim:
                return f"lower bound {result.lower_bound} > {q.dim}", False
            return None, False
        if result.status != "exact" or result.value != q.dim:
            return f"{result.status} {result.value}, expected {q.dim}", True
        cover = result.certificate
        if len(cover.families) != q.dim + 1:
            return f"certificate has {len(cover.families)} families", True
        key = (q.name, cover)
        if key not in self.valid:
            self.valid[key] = covers.validate_cover(space, cover).ok
        if not self.valid[key]:
            return "certificate does not validate", True
        return None, True


# -- certify --------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    spec: str
    lam: int
    control: int


CERTIFY_CATALOGUE = (
    Job("sum(circle(3,1),circle(9,2),circle(27,10),circle(9,140))", 139, 278),
    Job("sum(circle(3,1),circle(9,2),circle(27,10),circle(6,140))", 139, 278),
    Job("sum(circle(3,1),circle(9,2),circle(27,10),circle(4,140))", 139, 278),
    Job("sum(circle(9,2),circle(27,10),circle(9,140))", 139, 278),
    # 27 small clusters.
    Job("group(3,3)", 9, 18),
)

CERTIFY_SMALL = (CERTIFY_CATALOGUE[-1],)
# The two jobs of over a second run once a round, the others
# CERTIFY_LIGHT_REPEATS times, so that the median job, which is one of
# the light ones, gets more samples.
CERTIFY_HEAVY = CERTIFY_CATALOGUE[:2]
CERTIFY_LIGHT_REPEATS = 2


def corrupt(cover, pick: int):
    """Move one point of a multi-point cluster into another cluster of
    its family.  Returns the corrupted cover, the point, its old
    cluster (without it) and its new cluster (without it)."""
    fam_ids = [f for f, fam in enumerate(cover.families) if len(fam) >= 2
               and any(len(cl) >= 2 for cl in fam)]
    f = fam_ids[pick % len(fam_ids)]
    fam = list(cover.families[f])
    sources = [c for c, cl in enumerate(fam) if len(cl) >= 2]
    a = sources[(pick >> 8) % len(sources)]
    p = sorted(fam[a])[(pick >> 16) % len(fam[a])]
    targets = [c for c in range(len(fam)) if c != a]
    b = targets[(pick >> 24) % len(targets)]
    old, new = fam[a] - {p}, fam[b]
    fam[a], fam[b] = old, new | {p}
    families = list(cover.families)
    families[f] = fam
    bad = covers.ScaledCover.of(cover.scale.lam, cover.scale.control,
                                families)
    return bad, p, sorted(old), sorted(new)


class Certify:
    """One operation is one certificate job at a dip scale, where the
    space has dimension 0: solve, validate, shrink, round-trip the
    certificate text, and validate a corrupted copy."""

    def __init__(self, small=False, tracer=None):
        self.catalogue = CERTIFY_SMALL if small else CERTIFY_CATALOGUE
        self.tracer = tracer
        self.presented = 0
        self.rejected = 0

    def setup(self) -> None:
        self.specs = [(job, spacespec.parse_spec(job.spec))
                      for job in self.catalogue]
        for _, spec in self.specs:
            spacespec.build_with_witnesses(spec)

    def round(self, rng) -> list:
        ops = [(job, spec, rng.getrandbits(32)) for job, spec in self.specs
               for _ in range(1 if job in CERTIFY_HEAVY
                              else CERTIFY_LIGHT_REPEATS)]
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        return spacespec.build_space(op[1])

    def name(self, op) -> str:
        job = op[0]
        return f"{job.spec}@{job.lam},{job.control}"

    def run(self, op, space):
        job, _, pick = op
        res = solver.dim_at_scale(space, job.lam, job.control,
                                  node_budget=NODE_BUDGET)
        cover = res.certificate
        report = covers.validate_cover(space, cover)
        shrunk = covers.shrink_to_partition(space, cover)
        with self._span("covers.roundtrip"):
            text = covers.format_certificate(
                covers.Certificate(space.label, space.size, cover))
            back = covers.parse_certificate(text)
        bad, p, old, new = corrupt(cover, pick)
        bad_report = covers.validate_cover(space, bad)
        return {"space": space, "res": res, "report": report,
                "shrunk": shrunk, "back": back, "bad": bad_report,
                "moved": (p, old, new)}

    def _span(self, name):
        return (self.tracer.span(name) if self.tracer
                else contextlib.nullcontext())

    def check(self, op, out):
        job = op[0]
        res, space, cover = out["res"], out["space"], out["res"].certificate
        if res.status != "exact" or res.value != 0:
            return f"{res.status} {res.value}, expected 0", True
        if not out["report"].ok:
            return "certificate does not validate", True
        shrunk = out["shrunk"]
        if len(shrunk.families) != len(cover.families):
            return "shrinking changed the family count", True
        sizes = sum(len(cl) for fam in cover.families for cl in fam)
        if sizes == space.size and shrunk != cover:
            return "shrinking changed a partition", True
        back = out["back"]
        if (back.cover != cover or back.size != space.size
                or back.label != space.label):
            return "certificate round trip changed the cover", True
        p, old, new = out["moved"]
        expected = set()
        if int(space.dist_row(p, old).min()) <= job.lam:
            expected.add("family-separation")
        if int(space.dist_row(p, new).max()) > job.control:
            expected.add("cluster-diameter")
        kinds = {v.kind for v in out["bad"].violations}
        self.presented += 1
        if out["bad"].ok:
            return "corrupted certificate accepted", True
        self.rejected += 1
        if not expected <= kinds:
            return f"corruption reported as {sorted(kinds)}, " \
                   f"expected {sorted(expected)}", True
        return None, True


# -- profile --------------------------------------------------------------

@dataclass(frozen=True)
class ProfileRun:
    """One CLI profile invocation and the rows it must print: per
    (lambda, control), the dimension's proven lower and upper bounds
    (None when no upper bound is known)."""

    args: tuple
    rows: tuple


def _rows(*rows):
    # (lambda, value, status) as printed by the seed code at c = 2:
    # exact rows pin the value, lower-bound rows only bound it below.
    return tuple((lam, 2 * lam, v, v if status == "exact" else None)
                 for lam, v, status in rows)


_WEDGE_ROWS = [(1, 0, "exact"), (2, 1, "exact"), (9, 0, "exact"),
               (10, 1, "exact"), (138, 0, "exact"), (139, 1, "exact")]
_GROUP_ROWS = [(1, 0, "exact"), (2, 1, "lower-bound"), (9, 0, "exact"),
               (10, 1, "lower-bound")]

# Seven runs, so that the median of their latencies is one run's
# (wedgegroup(3,4)) rather than the mean of two.  The five that take
# under a second repeat PROFILE_LIGHT_REPEATS times in a round, so that
# the median rests on more samples.
PROFILE_CATALOGUE = (
    ProfileRun(("wedgegroup(3,3)", "--from-schedule"),
               _rows(*_WEDGE_ROWS[:4])),
    ProfileRun(("wedgegroup(3,4)", "--from-schedule"), _rows(*_WEDGE_ROWS)),
    ProfileRun(("wedgegroup(3,5)", "--from-schedule"),
               _rows(*_WEDGE_ROWS, (5690, 0, "exact"), (5691, 1, "exact"))),
    ProfileRun(("wedgegroup(3,6)", "--from-schedule"),
               _rows(*[(lam, v, "exact" if v == 0 else "lower-bound")
                       for lam, v, _ in _WEDGE_ROWS],
                     (5690, 0, "exact"), (5691, 1, "lower-bound"),
                     (694171, 0, "exact"), (694172, 1, "exact"))),
    ProfileRun(("group(3,3)", "--from-schedule"), _rows(*_GROUP_ROWS)),
    ProfileRun(("group(3,4)", "--from-schedule"),
               _rows(*_GROUP_ROWS, (139, 0, "exact"), (140, 1, "lower-bound"))),
    ProfileRun(("sum(circle(3,1),circle(9,2),circle(27,10))",
                "--lambda-list", "0,1,2,3,9,10"),
               _rows((0, 0, "exact"), (1, 0, "exact"), (2, 1, "lower-bound"),
                     (3, 1, "lower-bound"), (9, 0, "exact"),
                     (10, 1, "lower-bound"))),
)

PROFILE_SMALL = (PROFILE_CATALOGUE[4],)
PROFILE_HEAVY = (PROFILE_CATALOGUE[2], PROFILE_CATALOGUE[3])
PROFILE_LIGHT_REPEATS = 3


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


class Profile:
    """One operation is one ``python -m scaledim profile`` subprocess."""

    def __init__(self, src: str, small=False):
        self.catalogue = PROFILE_SMALL if small else PROFILE_CATALOGUE
        self.env = cli_env(src)

    def setup(self) -> None:
        pass

    def round(self, rng) -> list:
        ops = [op for op in self.catalogue for _ in range(
            1 if op in PROFILE_HEAVY else PROFILE_LIGHT_REPEATS)]
        rng.shuffle(ops)
        return ops

    def argv(self, op) -> list:
        return ["profile", op.args[0], "--c", "2", *op.args[1:]]

    def prepare(self, op):
        return None

    def name(self, op) -> str:
        return " ".join(op.args)

    def run(self, op, _):
        proc = subprocess.run([sys.executable, "-m", "scaledim",
                               *self.argv(op)],
                              env=self.env, capture_output=True, text=True,
                              timeout=170)
        return proc.returncode, proc.stdout

    def run_inprocess(self, op, _):
        """cli.main with the same arguments, inside this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv(op))
        return code, buf.getvalue()

    def check(self, op, result):
        code, out = result
        if code not in (0, 3):
            return f"exit code {code}", False
        lines = out.splitlines()
        if not lines or lines[0] != "c,lambda,control,dim,status":
            return "missing CSV header", code == 0
        rows = [ln.split(",") for ln in lines[1:]]
        if len(rows) != len(op.rows):
            return f"{len(rows)} rows, expected {len(op.rows)}", code == 0
        for got, (lam, control, lo, hi) in zip(rows, op.rows):
            c, g_lam, g_control, value, status = got
            value = int(value)
            if (int(c), int(g_lam), int(g_control)) != (2, lam, control):
                return f"row {got} is for another scale", code == 0
            if hi is not None and value > hi:
                return f"row {got}: above the known value {hi}", code == 0
            if status == "exact" and value < lo:
                return f"row {got}: below the proven bound {lo}", code == 0
        return None, code == 0


def make(name: str, src: str, small: bool = False, tracer=None):
    if name == "search":
        return Search(small)
    if name == "certify":
        return Certify(small, tracer)
    if name == "profile":
        return Profile(src, small)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("search", "certify", "profile")
