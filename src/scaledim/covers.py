"""Scaled covers and their validation.

A scaled cover of a space at scale (lam, control) is a list of
families; each family is a set of clusters (point sets).  A cover is
valid when every point lies in some cluster, distinct clusters of the
same family sit at set distance strictly greater than lam, and each
cluster has diameter at most control.  The dimension at a scale is one
less than the fewest families of any valid cover, so the validator here
is the ground truth the search code is checked against: it recomputes
every condition from raw distances and shares no logic with the solver.

On a space whose metric is guaranteed (``metric_guaranteed``), one row
out of each cluster's first point p settles most of the work by the
triangle inequality.  For x, x' in a cluster C and y in another cluster,

    d(x, y) >= d(p, y) - d(p, x)      and      d(x, x') <= d(x, p) + d(p, x'),

so C is more than lam from C' when min d(p, C') - max d(p, C) > lam,
and C is within the control when the two largest entries of d(p, C) sum
to at most it.  Whatever these bounds leave open, and everything on
hand-built oracles and matrices too large to check exhaustively, is
scanned exhaustively, block by block (``dist_block``); only that scan
reports violations, and it keeps the first extreme pair in point order
whatever the blocks, so a report does not depend on which pairs the
bounds settled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .spaces import FiniteMetricSpace, ScalePair

CERTIFICATE_HEADER = "scaled-cover 1"
MAX_VIOLATIONS = 16  # validate_cover reports at most this many
# Distances a scan reads per block.  On the certify benchmark (2-vCPU
# VM) the peak RSS was 36.5 MB with 2**14, 42.2 MB with 2**18 and
# 36.1 MB with one row per point.
_BLOCK_ELEMS = 2**14


@dataclass(frozen=True)
class ScaledCover:
    """An immutable cover: families of clusters at a fixed scale."""

    scale: ScalePair
    families: tuple[tuple[frozenset, ...], ...]

    @staticmethod
    def of(lam: int, control: int,
           families: Iterable[Iterable[Iterable[int]]]) -> "ScaledCover":
        norm = []
        for fam in families:
            clusters = []
            for cluster in fam:
                cl = frozenset(int(p) for p in cluster)
                if not cl:
                    raise ValueError("clusters must be nonempty")
                clusters.append(cl)
            clusters.sort(key=min)
            norm.append(tuple(clusters))
        return ScaledCover(ScalePair(lam, control), tuple(norm))

    def point_count(self) -> int:
        return len({p for fam in self.families for cl in fam for p in cl})


@dataclass(frozen=True)
class Violation:
    """One broken cover condition with a concrete witness.

    kind is one of "uncovered-point", "family-separation", or
    "cluster-diameter".  witness identifies the offending points or
    clusters; value is the measured distance or diameter.
    """

    kind: str
    witness: tuple
    value: int

    def describe(self) -> str:
        if self.kind == "uncovered-point":
            return f"point {self.witness[0]} is in no cluster"
        if self.kind == "family-separation":
            f, c1, c2, p, q = self.witness
            return (f"family {f}: clusters {c1} and {c2} are {self.value} "
                    f"apart at points ({p},{q}), need strictly more than lam")
        f, c, p, q = self.witness
        return (f"family {f} cluster {c}: points ({p},{q}) are {self.value} "
                f"apart, over the control")


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "valid cover"
        return "; ".join(v.describe() for v in self.violations)


def _cluster_arrays(fam: Sequence[frozenset], size: int) -> list[np.ndarray]:
    """Each cluster as its sorted index array.  An empty cluster or a
    point outside 0..size-1 is a usage error."""
    arrays = []
    for cl in fam:
        pts = sorted(cl)
        if not pts:
            raise ValueError("clusters must be nonempty")
        if pts[0] < 0 or pts[-1] >= size:
            bad = next(p for p in pts if not 0 <= p < size)
            raise ValueError(f"cover point {bad} out of range for size {size}")
        arrays.append(np.array(pts, dtype=np.intp))
    return arrays


def _pivot_radii(space: FiniteMetricSpace,
                 arrays: Sequence[np.ndarray]) -> list[tuple[int, int]]:
    """For each cluster, from one row out of its first point p: the
    largest distance from p to the cluster, and the sum of the two
    largest, which bounds the diameter."""
    radii = []
    for pts in arrays:
        top = np.sort(space.dist_row(int(pts[0]), pts))[-2:]
        radii.append((int(top[-1]), int(top.sum())))
    return radii


def _settled_apart(space: FiniteMetricSpace, c1: np.ndarray, reach: int,
                   c2: np.ndarray, lam: int) -> bool:
    """True when one row from c1's first point p proves the two clusters
    more than lam apart: d(x, y) >= d(p, y) - d(p, x) for x in c1, y in
    c2, and reach is the largest d(p, x)."""
    return int(space.dist_row(int(c1[0]), c2).min()) - reach > lam


def _first_extreme(space: FiniteMetricSpace, rows: np.ndarray,
                   cols: np.ndarray, *, largest: bool) -> tuple[int, int, int]:
    """The least (or largest) d(p, q) over p in rows and q in cols, as
    (value, p, q) with (p, q) the first pair in (p, q) order to reach
    it.  Reads the distances in blocks of whole rows, _BLOCK_ELEMS
    entries at most (one row at least)."""
    step = max(1, _BLOCK_ELEMS // len(cols))
    best = None
    for start in range(0, len(rows), step):
        block = space.dist_block(rows[start:start + step], cols)
        k = int(block.argmax() if largest else block.argmin())
        value = int(block.flat[k])
        # Only a strictly better value replaces an earlier block's.
        if best is None or (value > best[0] if largest else value < best[0]):
            i, j = divmod(k, len(cols))
            best = (value, int(rows[start + i]), int(cols[j]))
    return best


def validate_cover(space: FiniteMetricSpace, cover: ScaledCover) -> ValidationReport:
    """Check a cover against a space.

    Out-of-range point indices and empty clusters (which ScaledCover.of
    refuses) are usage errors and raise ValueError;
    everything else is reported as Violation entries (up to
    MAX_VIOLATIONS of them, coverage first, then separation, then
    diameters).  When ``space.metric_guaranteed``, cluster pairs and
    diameters that one pivot row settles (see the module docstring)
    skip the block scan; that scan alone produces violations.
    """
    lam = cover.scale.lam
    control = cover.scale.control
    violations: list[Violation] = []

    families = [_cluster_arrays(fam, space.size) for fam in cover.families]
    covered = np.zeros(space.size, dtype=bool)
    for arrays in families:
        for pts in arrays:
            covered[pts] = True
    for p in np.flatnonzero(~covered):
        violations.append(Violation("uncovered-point", (int(p),), 0))
        if len(violations) >= MAX_VIOLATIONS:
            return ValidationReport(tuple(violations))

    for f, arrays in enumerate(families):
        radii = _pivot_radii(space, arrays) if space.metric_guaranteed else None
        for c1 in range(len(arrays)):
            for c2 in range(c1 + 1, len(arrays)):
                if radii and _settled_apart(space, arrays[c1], radii[c1][0],
                                            arrays[c2], lam):
                    continue
                best = _first_extreme(space, arrays[c1], arrays[c2],
                                      largest=False)
                if best[0] <= lam:
                    violations.append(Violation(
                        "family-separation", (f, c1, c2, best[1], best[2]),
                        best[0]))
                    if len(violations) >= MAX_VIOLATIONS:
                        return ValidationReport(tuple(violations))
        for c, pts in enumerate(arrays):
            if radii and radii[c][1] <= control:
                continue
            worst = _first_extreme(space, pts, pts, largest=True)
            if worst[0] > control:
                violations.append(Violation(
                    "cluster-diameter", (f, c, worst[1], worst[2]), worst[0]))
                if len(violations) >= MAX_VIOLATIONS:
                    return ValidationReport(tuple(violations))
    return ValidationReport(tuple(violations))


def shrink_to_partition(space: FiniteMetricSpace,
                        cover: ScaledCover) -> ScaledCover:
    """Remove overlaps: each point keeps only its lowest (family, cluster)
    slot.  Validity is preserved (clusters only shrink, so separations
    grow and diameters fall) and the family count is unchanged.  Covers
    that are already partitions come back equal.
    """
    report = validate_cover(space, cover)
    if not report.ok:
        raise ValueError(f"cannot shrink an invalid cover: {report.describe()}")
    seen: set[int] = set()
    fams = []
    for fam in cover.families:
        new_fam = []
        for cl in fam:
            kept = frozenset(p for p in sorted(cl) if p not in seen)
            seen.update(kept)
            if kept:
                new_fam.append(kept)
        fams.append(new_fam)
    return ScaledCover.of(cover.scale.lam, cover.scale.control, fams)


# -- certificate files ------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A cover plus the identity of the space it certifies."""

    label: str
    size: int
    cover: ScaledCover


def format_certificate(cert: Certificate) -> str:
    lines = [CERTIFICATE_HEADER,
             f"label: {cert.label}",
             f"size: {cert.size}",
             f"lambda: {cert.cover.scale.lam}",
             f"control: {cert.cover.scale.control}",
             f"families: {len(cert.cover.families)}"]
    for f, fam in enumerate(cert.cover.families):
        lines.append(f"family {f}")
        for cl in fam:
            lines.append("cluster " + " ".join(str(p) for p in sorted(cl)))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    if not lines or lines[0].strip() != CERTIFICATE_HEADER:
        raise ValueError(f"not a certificate file (expected "
                         f"{CERTIFICATE_HEADER!r} on line 1)")

    fields = {}
    pos = 1
    for key in ("label", "size", "lambda", "control", "families"):
        if pos >= len(lines) or not lines[pos].startswith(key + ":"):
            raise ValueError(f"certificate line {pos + 1}: expected {key!r} field")
        fields[key] = lines[pos][len(key) + 1:].strip()
        pos += 1
    try:
        size = int(fields["size"])
        lam = int(fields["lambda"])
        control = int(fields["control"])
        nfam = int(fields["families"])
    except ValueError:
        raise ValueError("certificate header fields must be integers") from None

    families: list[list[list[int]]] = []
    current: Optional[list[list[int]]] = None
    for ln in lines[pos:]:
        ln = ln.strip()
        tokens = ln.split()
        if tokens[0] == "family":
            if tokens[1:] != [str(len(families))]:
                raise ValueError(f"certificate: expected 'family "
                                 f"{len(families)}', got {ln!r}")
            current = []
            families.append(current)
        elif tokens[0] == "cluster":
            if current is None:
                raise ValueError("certificate: cluster before any family line")
            try:
                pts = [int(t) for t in tokens[1:]]
            except ValueError:
                raise ValueError(f"certificate: bad cluster line {ln!r}") from None
            if not pts:
                raise ValueError("certificate: empty cluster line")
            current.append(pts)
        else:
            raise ValueError(f"certificate: unrecognised line {ln!r}")
    if len(families) != nfam:
        raise ValueError(f"certificate: header says {nfam} families, "
                         f"found {len(families)}")
    cover = ScaledCover.of(lam, control, families)
    return Certificate(fields["label"], size, cover)


def write_certificate(path, cert: Certificate) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_certificate(cert))


def read_certificate(path) -> Certificate:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_certificate(fh.read())
