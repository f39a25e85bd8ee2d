"""Command-line interface.

Subcommands:

    build SPEC                  describe a space (size, diameter, ...)
    dim SPEC --lambda --control exact dimension at one scale
    profile SPEC --c ...        dimension across a list of scales
    verify CERT SPEC            validate a certificate file
    oracle-check                cross-check the solver against brute force
    schedule --p --N            print a weight schedule

Exit codes: 0 success, 2 bad input or failed validation, 3 the
computation gave up within its node budget.  SCALEDIM_NODE_BUDGET sets
the default budget; --budget overrides it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from typing import Optional, Sequence

from .construction import (SCHEDULE_MODES, SmallCircleWarning, _weights,
                           profile, profile_csv, schedule_csv)
from .covers import Certificate, read_certificate, validate_cover, write_certificate
from .solver import _BRUTE_LIMIT, DEFAULT_NODE_BUDGET, dim_at_scale, oracle_check
from .spaces import MetricError, check_metric
from .spacespec import SpecParseError, build_space, format_spec, parse_spec

_BUDGET_ENV = "SCALEDIM_NODE_BUDGET"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaledim",
        description="exact dimension-at-scale computations on finite "
                    "metric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=int, default=None,
                       help="search node budget per feasibility question "
                            f"(default ${_BUDGET_ENV} or {DEFAULT_NODE_BUDGET})")

    def add_strict(p):
        p.add_argument("--strict", action="store_true",
                       help="treat schedule warnings as errors")

    p = sub.add_parser("build", help="parse a space spec and describe it")
    p.add_argument("spec")
    p.add_argument("--check", action="store_true",
                   help="also verify the metric axioms")
    add_strict(p)

    p = sub.add_parser("dim", help="exact dimension at one scale")
    p.add_argument("spec")
    p.add_argument("--lambda", dest="lam", type=int, required=True,
                   help="separation scale")
    p.add_argument("--control", type=int, required=True,
                   help="cluster diameter bound")
    p.add_argument("--certificate", default="certificate.txt",
                   help="where to write the witness cover (default "
                        "certificate.txt)")
    p.add_argument("--max-n", type=int, default=None,
                   help="stop scanning above this candidate dimension")
    add_budget(p)
    add_strict(p)

    p = sub.add_parser("profile", help="dimension across scales")
    p.add_argument("spec")
    p.add_argument("--c", type=int, required=True,
                   help="control multiplier: control = c * lambda")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda-list", dest="lambda_list",
                       help="comma-separated separation scales")
    group.add_argument("--from-schedule", action="store_true",
                       help="scales a_n and a_n - 1 from the spec's own "
                            "schedule (group/wedgegroup specs only)")
    p.add_argument("--csv", default=None, help="also write the table here")
    p.add_argument("--plot", default=None, help="write an SVG step plot here")
    add_budget(p)
    add_strict(p)

    p = sub.add_parser("verify", help="validate a certificate against a space")
    p.add_argument("certificate")
    p.add_argument("spec")

    p = sub.add_parser("oracle-check",
                       help="cross-check the solver against brute force on "
                            "random spaces")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--size-max", dest="size_max", type=int, default=7)

    p = sub.add_parser("schedule", help="print a weight schedule")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--mode", default="group", choices=SCHEDULE_MODES)
    p.add_argument("--csv", default=None, help="also write the table here")
    add_strict(p)
    return parser


def _node_budget(args) -> int:
    if args.budget is not None:
        if args.budget < 1:
            raise ValueError("--budget must be positive")
        return args.budget
    env = os.environ.get(_BUDGET_ENV)
    if env:
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(f"{_BUDGET_ENV} must be an integer, "
                             f"got {env!r}") from None
        if budget < 1:
            raise ValueError(f"{_BUDGET_ENV} must be positive")
        return budget
    return DEFAULT_NODE_BUDGET


def _check_range(option: str, value: int, ok: bool, need: str) -> None:
    # The library checks these values too, but its message names its
    # own keyword; the user typed the option.
    if not ok:
        raise ValueError(f"{option} must be {need}, got {value}")


def _cmd_build(args) -> int:
    spec = parse_spec(args.spec)
    space = build_space(spec)
    print(f"spec: {format_spec(spec)}")
    print(f"label: {space.label}")
    print(f"size: {space.size}")
    print(f"diameter: {space.diameter()}")
    if space.size >= 2:
        print(f"min-positive-distance: {space.min_positive_distance()}")
    if space.basepoint is not None:
        print(f"basepoint: {space.basepoint}")
    if args.check:
        check_metric(space)
        print("metric-axioms: ok")
    return 0


def _cmd_dim(args) -> int:
    _check_range("--lambda", args.lam, args.lam >= 0, "nonnegative")
    _check_range("--control", args.control, args.control >= 0, "nonnegative")
    _check_range("--max-n", args.max_n,
                 args.max_n is None or args.max_n >= 0, "nonnegative")
    spec = parse_spec(args.spec)
    space = build_space(spec)
    budget = _node_budget(args)
    result = dim_at_scale(space, args.lam, args.control,
                          node_budget=budget, max_n=args.max_n)
    print(f"space: {space.label} ({space.size} points)")
    print(f"scale: lambda={args.lam} control={args.control}")
    if result.status == "exact":
        print(f"dim: {result.value} (exact)")
        print(f"nodes: {result.nodes}")
        cert = Certificate(space.label, space.size, result.certificate)
        write_certificate(args.certificate, cert)
        print(f"certificate: {args.certificate}")
        return 0
    if result.status == "lower-bound":
        print(f"dim: >= {result.lower_bound} (proven lower bound; the "
              f"scan stopped at --max-n {args.max_n})")
        print(f"nodes: {result.nodes}")
        return 0
    print(f"dim: >= {result.lower_bound} (unknown: node budget exhausted)")
    print(f"nodes: {result.nodes}")
    return 3


def _lambda_list(text: str) -> list[int]:
    try:
        lams = [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"--lambda-list must be comma-separated "
                         f"integers, got {text!r}") from None
    if any(v < 0 for v in lams):
        raise ValueError("--lambda-list needs nonnegative integers")
    return lams


def _schedule_lambdas(space) -> list[int]:
    # A group/wedgegroup space lists its scheduled circles in
    # ``structure``; the least distance of circle n is its weight a_n.
    weights = {f.min_positive_distance() for f in space.structure[1]}
    vals = weights | {a - 1 for a in weights}
    return sorted(v for v in vals if v > 0)


def _cmd_profile(args) -> int:
    _check_range("--c", args.c, args.c >= 1, "positive")
    spec = parse_spec(args.spec)
    if args.lambda_list is not None:
        lams = _lambda_list(args.lambda_list)
    elif spec.name not in ("group", "wedgegroup"):
        raise ValueError("--from-schedule needs a group(...) or "
                         "wedgegroup(...) spec")
    space = build_space(spec)
    if args.lambda_list is None:
        lams = _schedule_lambdas(space)
    prof = profile(space, args.c, lams, node_budget=_node_budget(args))
    text = profile_csv(prof)
    sys.stdout.write(text)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.plot:
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(render_profile_svg(prof))
    if any(s.status == "unknown" for s in prof.samples):
        return 3
    return 0


def _cmd_verify(args) -> int:
    cert = read_certificate(args.certificate)
    spec = parse_spec(args.spec)
    space = build_space(spec)
    if cert.size != space.size:
        print(f"error: certificate is for {cert.size} points but "
              f"{space.label} has {space.size}", file=sys.stderr)
        return 2
    if cert.label != space.label:
        print(f"warning: certificate label {cert.label!r} differs from "
              f"space label {space.label!r}", file=sys.stderr)
    cover = cert.cover
    nclusters = sum(len(f) for f in cover.families)
    print(f"certificate: {len(cover.families)} families, {nclusters} "
          f"clusters, scale lambda={cover.scale.lam} "
          f"control={cover.scale.control}")
    print(f"space: {space.label} ({space.size} points)")
    report = validate_cover(space, cover)
    if report.ok:
        print("valid cover: yes")
        print(f"dim at ({cover.scale.lam},{cover.scale.control}) is at most "
              f"{len(cover.families) - 1}")
        return 0
    print("valid cover: no")
    for v in report.violations:
        print(f"  {v.describe()}")
    return 2


def _cmd_oracle_check(args) -> int:
    _check_range("--cases", args.cases, args.cases >= 1, "positive")
    _check_range("--size-max", args.size_max,
                 2 <= args.size_max <= _BRUTE_LIMIT,
                 f"between 2 and {_BRUTE_LIMIT}")
    report = oracle_check(seed=args.seed, cases=args.cases,
                          size_max=args.size_max)
    print(f"oracle-check: seed={args.seed} cases={report.cases} "
          f"size<={args.size_max}")
    print(f"comparisons: {report.checks}")
    print(f"mismatches: {len(report.mismatches)}")
    for mm in report.mismatches:
        print(f"  case {mm.case}: size={mm.size} lambda={mm.lam} "
              f"control={mm.control} solver={mm.solver_value} "
              f"brute={mm.brute_value}")
    return 0 if report.ok else 2


def _cmd_schedule(args) -> int:
    _check_range("--p", args.p, args.p >= 2, "at least 2")
    _check_range("--N", args.N, args.N >= 1, "positive")
    # Each weight is formatted as it is built, so a schedule stops at its
    # first weight too long to print.
    text = schedule_csv(_weights(args.p, args.N, args.mode))
    sys.stdout.write(text)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# -- plotting ----------------------------------------------------------------


def render_profile_svg(prof) -> str:
    """Deterministic SVG step plot of a profile.

    Samples are placed at evenly spaced x positions in list order with
    their separation scales as tick labels; exact values get filled
    markers, proven-lower-bound values hollow ones.
    """
    width, height = 640.0, 360.0
    left, right, top, bottom = 60.0, 20.0, 40.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    n = len(prof.samples)
    ymax = max((s.value for s in prof.samples), default=0)
    ymax = max(ymax, 1)

    def x(i: int) -> float:
        if n == 1:
            return left + plot_w / 2
        return left + plot_w * i / (n - 1)

    def y(v: float) -> float:
        return top + plot_h * (1 - v / ymax)

    def f(v: float) -> str:
        return f"{v:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}">',
        f'<text x="{f(width / 2)}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">dim of {prof.label} at '
        f'control {prof.c}*lambda</text>',
        f'<line x1="{f(left)}" y1="{f(top + plot_h)}" x2="{f(left + plot_w)}" '
        f'y2="{f(top + plot_h)}" stroke="black"/>',
        f'<line x1="{f(left)}" y1="{f(top)}" x2="{f(left)}" '
        f'y2="{f(top + plot_h)}" stroke="black"/>',
    ]
    for v in range(ymax + 1):
        parts.append(f'<text x="{f(left - 8)}" y="{f(y(v) + 4)}" '
                     f'text-anchor="end" font-family="monospace" '
                     f'font-size="11">{v}</text>')
        parts.append(f'<line x1="{f(left - 4)}" y1="{f(y(v))}" '
                     f'x2="{f(left)}" y2="{f(y(v))}" stroke="black"/>')
    for i, s in enumerate(prof.samples):
        parts.append(f'<text x="{f(x(i))}" y="{f(top + plot_h + 16)}" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'font-size="11">{s.lam}</text>')
        parts.append(f'<line x1="{f(x(i))}" y1="{f(top + plot_h)}" '
                     f'x2="{f(x(i))}" y2="{f(top + plot_h + 4)}" '
                     f'stroke="black"/>')
    if n >= 2:
        coords = []
        for i, s in enumerate(prof.samples):
            if i > 0:
                coords.append(f"{f(x(i))},{f(y(prof.samples[i - 1].value))}")
            coords.append(f"{f(x(i))},{f(y(s.value))}")
        parts.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                     f'stroke="steelblue" stroke-width="1.5"/>')
    for i, s in enumerate(prof.samples):
        fill = "steelblue" if s.status == "exact" else "white"
        parts.append(f'<circle cx="{f(x(i))}" cy="{f(y(s.value))}" r="4" '
                     f'fill="{fill}" stroke="steelblue" stroke-width="1.5">'
                     f'<title>lambda={s.lam} dim={s.value} ({s.status})'
                     f'</title></circle>')
    parts.append(f'<text x="{f(width / 2)}" y="{f(height - 10)}" '
                 f'text-anchor="middle" font-family="monospace" '
                 f'font-size="11">lambda (filled = exact, hollow = '
                 f'lower bound)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_COMMANDS = {
    "build": _cmd_build,
    "dim": _cmd_dim,
    "profile": _cmd_profile,
    "verify": _cmd_verify,
    "oracle-check": _cmd_oracle_check,
    "schedule": _cmd_schedule,
}


def _show_warning(default, message, category, *args, **kwargs):
    # Schedule warnings concern the user's spec, not a library line: one
    # plain line each.  Anything else goes to the previous handler.
    if issubclass(category, SmallCircleWarning):
        print(f"warning: {message}", file=sys.stderr)
    else:
        default(message, category, *args, **kwargs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            if getattr(args, "strict", False):
                warnings.simplefilter("error", SmallCircleWarning)
            warnings.showwarning = functools.partial(_show_warning,
                                                     warnings.showwarning)
            return _COMMANDS[args.command](args)
    except (SmallCircleWarning, SpecParseError, MetricError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
