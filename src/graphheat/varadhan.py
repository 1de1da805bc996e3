"""Short-time kernel behaviour: per-pair verification and distance recovery.

Two directions of the same fact.  Forward: for each vertex pair, the kernel's
Taylor prefix must vanish below the graph distance, lead with
``(geodesic weight)/d!``, and — on bipartite graphs — continue with a strictly
negative next coefficient.  Backward: given only a kernel sampler, the
distance and geodesic count can be read off short-time samples by dyadic
refinement.  Each pair's report or estimate is a named tuple.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction

from .errors import NoConvergence, PositivityFloor, UnreachableError
from .graphs import DistanceProfile, Graph, bfs_profile, is_bipartite
from .series import walk_vectors

# The annotations are never evaluated, so ``typing`` loads only for a type
# checker; the exact commands start without it.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Literal

    Verdict = Literal["pass", "fail", "na"]

#: Sampler signature: (t, x, y) -> kernel entry p_t(x, y).
Sampler = Callable[[float, int, int], float]

#: Samples at or below this are treated as structural zeros.
POSITIVITY_FLOOR = 1e-250

#: Dyadic exponent must sit this close to an integer to count as stable.
EXPONENT_TOL = 0.1

#: Number of consecutive agreeing exponent estimates required
#: (:func:`estimate_pair` writes its window of three out in line).
STABLE_ROUNDS = 3

#: Acceptance band around the rounded geodesic count.
COUNT_TOL = 0.25


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
    vanish_ok: Verdict = "pass" if all(us[k][y] == 0 for k in range(d)) else "fail"
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

    One BFS profile from x and one exact walk, as deep as the farthest
    reached target needs, serve every target.
    """
    profile = bfs_profile(g, x)
    dist = profile.dist
    depth = max([dist[y] for y in targets if dist[y] is not None], default=-1) + 1
    us, dens = walk_vectors(g, x, depth)
    for y in targets:
        yield None if dist[y] is None else _make_report(g, x, y, profile, us, dens, colors)


def verify_pair(g: Graph, x: int, y: int) -> VaradhanReport:
    """Check the short-time expansion facts for one pair of vertices.

    Each call colours the graph once and walks from x to order ``d + 1``.
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

    Each source's targets share one BFS profile and one exact walk, so a
    full verification costs n walks rather than one per pair, and holds one
    source's walk at a time.
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

    One exact walk per source vertex is shared by all of its targets, so a
    full verification costs n walks rather than one per pair.
    """
    reports: list[VaradhanReport] = []
    skipped: list[tuple[str, str]] = []
    for x, y, report in _verify_pairs(g):
        if report is None:
            skipped.append((g.labels[x], g.labels[y]))
        else:
            reports.append(report)
    return VerificationSummary(tuple(reports), tuple(skipped))


# --- distance/count recovery from kernel samples ---------------------------


class DistanceEstimate(namedtuple("DistanceEstimate", "d_hat n_hat t_used exponent_trace")):
    """Result of :func:`estimate_pair`.

    ``d_hat is None`` means every sample sat at or below the positivity
    floor: the pair is reported unreachable.
    ``exponent_trace`` keeps the raw dyadic exponent estimates, one per
    consecutive pair of live samples until the distance is fixed.
    """

    __slots__ = ()
    d_hat: int | None
    n_hat: int | None
    t_used: float
    exponent_trace: tuple[float, ...]

    @property
    def unreachable(self) -> bool:
        return self.d_hat is None


def check_schedule(t0: float, levels: int) -> None:
    """Reject a sample schedule :func:`estimate_pair` cannot run."""
    if t0 <= 0:
        raise ValueError(f"t0 must be positive, got {t0}")
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
    if levels < 2:
        raise ValueError(f"levels must be at least 2, got {levels}")


def _dyadic_times(t0: float, levels: int) -> Iterator[float]:
    """The sample times ``t0 * 0.5**j`` for ``j = 0..levels``, made as they
    are read, up to the first that underflows to 0.0: no kernel is read there.
    """
    for j in range(levels + 1):
        t = t0 * 0.5**j
        if t == 0.0:
            return
        yield t


_LOG2 = math.log(2.0)


def estimate_pair(
    sampler: Sampler, x: int, y: int, t0: float = 0.1, levels: int = 20
) -> DistanceEstimate:
    """Recover graph distance and geodesic count from short-time samples.

    One pass samples ``p(t)`` at ``t = t0 * 2^-j`` for ``j = 0..levels``,
    stopping before the first time that is 0.0.
    Until the distance is fixed, each consecutive pair of live samples gives
    a dyadic exponent estimate ``log2(p_j / p_{j+1})``; once
    :data:`STABLE_ROUNDS` consecutive estimates round to the same nonnegative
    integer, each within :data:`EXPONENT_TOL` of it, that integer is the
    distance d.  From that level on each sample gives a count read
    ``d! * p / t^d``.  The count is the rounded read at the first such level
    whose read lies within :data:`COUNT_TOL` of an integer; the last level or
    a sample at or below the floor ends the pass with the latest read.

    The estimate is scale-invariant: multiplying the sampler by a constant
    shifts no exponent estimate.

    Raises :class:`NoConvergence` when the levels are exhausted without a
    stable exponent, and :class:`PositivityFloor` when samples die below the
    floor after having been live.
    """
    check_schedule(t0, levels)
    # Rounding is half-up, math.floor(v + 0.5): plain round() is
    # round-half-even, and half-up keeps e.g. a 0.5-scaled single-geodesic
    # count from collapsing to zero.  This loop runs once per pair, so the
    # rounding and the window of STABLE_ROUNDS estimates, e0, e1 and the
    # latest e, are written out in line.
    trace: list[float] = []
    e0 = e1 = None  # the two exponent estimates before the latest
    prev: float | None = None  # the latest live sample
    d_hat: int | None = None
    for t in _dyadic_times(t0, levels):
        p = float(sampler(t, x, y))
        if not p > POSITIVITY_FLOOR:  # dead, NaN included
            if prev is None:
                continue
            if d_hat is None:
                raise PositivityFloor(
                    f"sample at t={t:.3e} fell to {p:.3e} before the exponent stabilized"
                )
            break  # deeper samples are below resolution; keep the current read
        if d_hat is None:
            if prev is not None:
                e = math.log(prev / p) / _LOG2
                trace.append(e)
                if e0 is not None:
                    r = math.floor(e0 + 0.5)
                    if (
                        r >= 0
                        and abs(e0 - r) < EXPONENT_TOL
                        and math.floor(e1 + 0.5) == r
                        and abs(e1 - r) < EXPONENT_TOL
                        and math.floor(e + 0.5) == r
                        and abs(e - r) < EXPONENT_TOL
                    ):
                        d_hat = r
                        log_d_factorial = math.lgamma(d_hat + 1)
                e0, e1 = e1, e
            prev = p
        if d_hat is not None:
            t_used = t
            raw = math.exp(log_d_factorial + math.log(p) - d_hat * math.log(t))
            n_hat = math.floor(raw + 0.5)
            if abs(raw - n_hat) < COUNT_TOL:
                break

    if d_hat is None:
        if prev is None:
            return DistanceEstimate(None, None, t, ())
        raise NoConvergence(
            f"no stable exponent after {levels} refinement levels", tuple(trace)
        )
    if n_hat < 1:
        raise NoConvergence(
            f"count estimate {raw:.3e} at t={t_used:.3e} is below 1", tuple(trace)
        )
    return DistanceEstimate(d_hat, n_hat, t_used, tuple(trace))


# --- kernel-backed samplers -------------------------------------------------
# The kernel engines need numpy, so the sampler factories import them when
# called and verification stays numpy-free.


def _kernel_sampler(
    build: Callable[[Sequence[float]], Sequence[Any]], times: Sequence[float] = ()
) -> Sampler:
    """Sampler reading every entry at time t off the kernel ``build`` made for t.

    ``build(ts)`` returns one kernel per time of ``ts``.  Kernels are cached
    per t.  A time outside ``times`` is built alone.  ``times`` is a schedule
    read from its start, like the dyadic times of :func:`estimate_pair`: a miss
    at ``times[j]`` builds ``times[j : 2j + 2]`` in one call, so a reader of
    levels ``0..J`` makes about ``log2(J)`` calls and holds at most
    ``2(J + 1)`` kernels.
    """
    first: dict[float, int] = {}
    for j, t in enumerate(times):
        first.setdefault(t, j)
    kernels: dict[float, Any] = {}

    def sample(t: float, x: int, y: int) -> float:
        if t not in kernels:
            j = first.get(t)
            block = [t] if j is None else times[j : 2 * j + 2]
            kernels.update(zip(block, build(block)))
        return kernels[t].item(x, y)  # a float, read in one step

    return sample


def spectral_sampler(g: Graph) -> Sampler:
    """Sampler backed by one eigendecomposition; kernels are cached per t."""
    from .kernels import kernel_spectral
    from .spectral import eigendecompose, kirchhoff_matrix

    dec = eigendecompose(kirchhoff_matrix(g))
    return _kernel_sampler(lambda ts: [kernel_spectral(dec, t) for t in ts])


def uniformization_sampler(
    g: Graph, eps: float = POSITIVITY_FLOOR, times: Sequence[float] = ()
) -> Sampler:
    """Cancellation-free sampler; kernels are cached per t.

    The default truncation is pushed down to the positivity floor so that a
    zero sample really means "no walk of any retained length connects the
    pair" — with a loose eps, short times would truncate the series before
    order d and report false zeros.

    ``times`` is the schedule the caller reads from its start, such as the
    dyadic times of :func:`estimate_pair`.
    Its kernels are summed in blocks of levels ``j .. 2j + 1``, each block in
    one Poisson pass (see :func:`graphheat.kernels.kernel_uniformization`),
    so the levels read cost about ``log2(levels)`` passes and at most twice
    their number in held kernels.  Every kernel has the bits of a pass of
    its own.
    """
    from .kernels import _check_eps, kernel_uniformization

    _check_eps(eps)
    return _kernel_sampler(lambda ts: kernel_uniformization(g, ts, eps), tuple(times))
