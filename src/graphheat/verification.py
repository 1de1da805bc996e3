"""Forward verification: the exact short-time expansion of each vertex pair.

For each vertex pair, the kernel's Taylor prefix must vanish below the graph
distance, lead with ``(geodesic weight)/d!``, and — on bipartite graphs —
continue with a strictly negative next coefficient.  Each pair's report is a
named tuple.  The backward direction, reading distances off kernel samples,
is :mod:`graphheat.varadhan`, which also serves these names.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .errors import UnreachableError
from .graphs import DistanceProfile, Graph, bfs_profile, is_bipartite
from .series import walk_vectors

# The annotations are never evaluated, so ``typing`` loads only for a type
# checker; the exact commands start without it.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Literal

    Verdict = Literal["pass", "fail", "na"]


class VaradhanReport(
    namedtuple(
        "VaradhanReport",
        "x y d n_geodesics leading next_coeff vanish_ok leading_ok bipartite_sign",
    )
):
    """Verification record for one vertex pair.

    ``n_geodesics`` is the exact geodesic count (or the geodesic weight — sum
    over shortest paths of the product of edge weights — when the graph is
    weighted).  ``leading`` and ``next_coeff`` are the Taylor coefficients at
    orders d and d+1.  Verdicts: ``vanish_ok`` — all coefficients below order
    d are zero; ``leading_ok`` — ``d! * leading`` equals ``n_geodesics``;
    ``bipartite_sign`` — ``next_coeff < 0``, checked only on bipartite graphs
    ("na" otherwise, and also for the structurally-zero isolated-vertex
    diagonal).
    """

    __slots__ = ()
    x: str
    y: str
    d: int
    n_geodesics: int | Fraction
    leading: Fraction
    next_coeff: Fraction
    vanish_ok: Verdict
    leading_ok: Verdict
    bipartite_sign: Verdict

    @property
    def passed(self) -> bool:
        return "fail" not in (self.vanish_ok, self.leading_ok, self.bipartite_sign)


class VerificationSummary(namedtuple("VerificationSummary", "reports skipped")):
    """All pair reports for a graph, plus the cross-component pairs skipped."""

    __slots__ = ()
    reports: tuple[VaradhanReport, ...]
    skipped: tuple[tuple[str, str], ...]


def _make_report(
    g: Graph,
    x: int,
    y: int,
    profile: DistanceProfile,
    us: list[list[int]],
    dens: list[int],
    colors: tuple[int, ...] | None,
) -> VaradhanReport:
    """Read the verdicts for ``(x, y)`` off the BFS profile and the walk from x.

    The walk must reach order ``d + 1`` for the distance d from x to y.
    """
    d = profile.dist[y]
    n_geodesics = profile.geodesic_weight[y]  # the count, when unweighted
    lead, after = us[d][y], us[d + 1][y]
    vanish_ok: Verdict = "fail" if any([u[y] for u in us[:d]]) else "pass"
    # d! * lead / dens[d] == N, cross-multiplied: N is an int or a Fraction.
    leading_ok: Verdict = (
        "pass"
        if lead * math.factorial(d) * n_geodesics.denominator
        == n_geodesics.numerator * dens[d]
        else "fail"
    )
    # dens is positive, so the next coefficient has the sign of its numerator.
    if colors is None:
        bipartite_sign: Verdict = "na"
    elif after == 0:
        bipartite_sign = "na"  # structurally zero: isolated vertex, diagonal pair
    elif after < 0:
        bipartite_sign = "pass"
    else:
        bipartite_sign = "fail"
    # By position: one report per pair, and keywords cost a lookup per field.
    return VaradhanReport(
        g.labels[x],
        g.labels[y],
        d,
        n_geodesics,
        Fraction(lead, dens[d]),
        Fraction(after, dens[d + 1]),
        vanish_ok,
        leading_ok,
        bipartite_sign,
    )


def _verify_source(
    g: Graph, x: int, targets: Sequence[int], colors: tuple[int, ...] | None
) -> Iterator[VaradhanReport | None]:
    """For each target y in turn, the report of ``(x, y)``, or None when y
    lies in another component.

    One BFS profile from x and one exact walk serve every target.  The walk
    reads each reached target y up to order ``d(x, y) + 1``, so it updates
    each vertex at most twice: O(m) per source, and for one target only the
    cone between x and y.
    """
    profile = bfs_profile(g, x)
    dist = profile.dist
    last = [-1] * g.n
    for y in targets:
        if dist[y] is not None:
            last[y] = dist[y] + 1
    us, dens = walk_vectors(g, x, max(0, max(last)), last)
    for y in targets:
        yield None if dist[y] is None else _make_report(g, x, y, profile, us, dens, colors)


def verify_pair(g: Graph, x: int, y: int) -> VaradhanReport:
    """Check the short-time expansion facts for one pair of vertices.

    Each call colours the graph once and walks only the cone between x and
    y, to order ``d + 1``.
    Raises :class:`UnreachableError` when the pair spans two components.
    """
    report = next(_verify_source(g, x, (y,), is_bipartite(g)))
    if report is None:
        raise UnreachableError(
            f"vertices {g.labels[x]!r} and {g.labels[y]!r} are in different components"
        )
    return report


def _verify_pairs(g: Graph) -> Iterator[tuple[int, int, VaradhanReport | None]]:
    """``(x, y, report)`` for every connected pair ``x < y``, source by source,
    then ``(x, y, None)`` for every cross-component pair; both in x-major,
    y-ascending order.

    Each source's targets share one BFS profile and one exact walk, each
    O(m), so a full verification costs O(n·m), and holds one source's walk
    at a time.
    """
    colors = is_bipartite(g)
    # The lowest vertex of each vertex's component.  The lowest vertex is the
    # first source to reach the others, and each later source passes it on.
    component = list(range(g.n))
    for x in range(g.n - 1):
        targets = range(x + 1, g.n)
        for y, report in zip(targets, _verify_source(g, x, targets, colors)):
            if report is not None:
                component[y] = component[x]
                yield x, y, report
    for x in range(g.n - 1):
        cx = component[x]
        for y in range(x + 1, g.n):
            if component[y] != cx:
                yield x, y, None


def verify_graph(g: Graph) -> VerificationSummary:
    """Verify every connected unordered pair ``x < y``; collect the rest.

    One exact walk per source vertex, O(m), is shared by all of its
    targets, so a full verification costs O(n·m).
    """
    reports: list[VaradhanReport] = []
    skipped: list[tuple[str, str]] = []
    for x, y, report in _verify_pairs(g):
        if report is None:
            skipped.append((g.labels[x], g.labels[y]))
        else:
            reports.append(report)
    return VerificationSummary(tuple(reports), tuple(skipped))
