"""Short-time kernel behaviour: per-pair verification and distance recovery.

Two directions of the same fact.  Forward: for each vertex pair, the kernel's
Taylor prefix must vanish below the graph distance, lead with
``(geodesic weight)/d!``, and — on bipartite graphs — continue with a strictly
negative next coefficient.  Backward: given only a kernel sampler, the
distance and geodesic count can be read off short-time samples by dyadic
refinement.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator
from fractions import Fraction

from .errors import NoConvergence, PositivityFloor, UnreachableError
from .graphs import DistanceProfile, Graph, Record, bfs_profile, is_bipartite
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

#: Number of consecutive agreeing exponent estimates required.
STABLE_ROUNDS = 3

#: Acceptance band around the rounded geodesic count.
COUNT_TOL = 0.25


class VaradhanReport(Record):
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

    __slots__ = (
        "x", "y", "d", "n_geodesics", "leading", "next_coeff",
        "vanish_ok", "leading_ok", "bipartite_sign",
    )
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


class VerificationSummary(Record):
    """All pair reports for a graph, plus the cross-component pairs skipped."""

    __slots__ = ("reports", "skipped")
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


@functools.lru_cache(maxsize=1)
def _latest_colouring(g: Graph) -> tuple[int, ...] | None:
    return is_bipartite(g)


def verify_pair(g: Graph, x: int, y: int) -> VaradhanReport:
    """Check the short-time expansion facts for one pair of vertices.

    The 2-colouring of the latest graph is kept, so consecutive calls on one
    graph colour it once.  Raises :class:`UnreachableError` when the pair
    spans two components.
    """
    profile = bfs_profile(g, x)
    d = profile.dist[y]
    if d is None:
        raise UnreachableError(
            f"vertices {g.labels[x]!r} and {g.labels[y]!r} are in different components"
        )
    us, dens = walk_vectors(g, x, d + 1)
    return _make_report(g, x, y, profile, us, dens, _latest_colouring(g))


def _verify_pairs(g: Graph) -> Iterator[VaradhanReport | tuple[str, str]]:
    """The report of every connected pair ``x < y``, source by source, then the
    labels of every cross-component pair; both in x-major, y-ascending order.

    One BFS profile and one exact walk per source vertex are shared by all of
    its targets, so a full verification costs n walks rather than one per
    pair, and holds one source's walk at a time.
    """
    colors = is_bipartite(g)
    # The lowest vertex of each vertex's component: a vertex that no lower
    # vertex reaches is the lowest of its own, and its profile names the rest.
    component = list(range(g.n))
    for x in range(g.n - 1):
        profile = bfs_profile(g, x)
        reached = [y for y in range(x + 1, g.n) if profile.dist[y] is not None]
        if component[x] == x:
            for y in reached:
                component[y] = x
        depth = max(profile.dist[y] for y in reached) + 1 if reached else 0
        us, dens = walk_vectors(g, x, depth)
        for y in reached:
            yield _make_report(g, x, y, profile, us, dens, colors)
    for x in range(g.n - 1):
        cx = component[x]
        for y in range(x + 1, g.n):
            if component[y] != cx:
                yield g.labels[x], g.labels[y]


def verify_graph(g: Graph) -> VerificationSummary:
    """Verify every connected unordered pair ``x < y``; collect the rest.

    One exact walk per source vertex is shared by all of its targets, so a
    full verification costs n walks rather than one per pair.
    """
    reports: list[VaradhanReport] = []
    skipped: list[tuple[str, str]] = []
    for result in _verify_pairs(g):
        (skipped if isinstance(result, tuple) else reports).append(result)
    return VerificationSummary(tuple(reports), tuple(skipped))


# --- distance/count recovery from kernel samples ---------------------------


class DistanceEstimate(Record):
    """Result of :func:`estimate_pair`.

    ``d_hat is None`` means every sample sat at or below the positivity
    floor: the pair is reported unreachable.
    ``exponent_trace`` keeps the raw dyadic exponent estimates, one per
    consecutive pair of live samples until the distance is fixed.
    """

    __slots__ = ("d_hat", "n_hat", "t_used", "exponent_trace")
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


def _round_half_up(v: float) -> int:
    # Plain round() is round-half-even; half-up keeps e.g. a 0.5-scaled
    # single-geodesic count from collapsing to zero.
    return math.floor(v + 0.5)


def estimate_pair(
    sampler: Sampler, x: int, y: int, t0: float = 0.1, levels: int = 20
) -> DistanceEstimate:
    """Recover graph distance and geodesic count from short-time samples.

    One pass samples ``p(t)`` at ``t = t0 * 2^-j`` for ``j = 0..levels``.
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
    # Each time t0 * 0.5**j is made as it is sampled: the pass usually stops
    # a few levels in, and a list of every level grows with ``levels``.
    trace: list[float] = []
    prev: float | None = None  # the latest live sample
    d_hat: int | None = None
    for j in range(levels + 1):
        t = t0 * 0.5**j
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
                trace.append(math.log(prev / p) / math.log(2.0))
                if len(trace) >= STABLE_ROUNDS:
                    window = trace[-STABLE_ROUNDS:]
                    r = _round_half_up(window[0])
                    if r >= 0 and all(
                        _round_half_up(e) == r and abs(e - r) < EXPONENT_TOL
                        for e in window
                    ):
                        d_hat = r
            prev = p
        if d_hat is not None:
            t_used = t
            raw = math.exp(math.lgamma(d_hat + 1) + math.log(p) - d_hat * math.log(t))
            n_hat = _round_half_up(raw)
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


def _per_time_sampler(kernel_at: Callable[[float], Any]) -> Sampler:
    """Sampler reading every entry at time t off one kernel ``kernel_at(t)``."""
    kernel_at = functools.cache(kernel_at)
    return lambda t, x, y: float(kernel_at(t)[x, y])


def spectral_sampler(g: Graph) -> Sampler:
    """Sampler backed by one eigendecomposition; kernels are cached per t."""
    from .kernels import kernel_spectral
    from .spectral import eigendecompose, kirchhoff_matrix

    dec = eigendecompose(kirchhoff_matrix(g))
    return _per_time_sampler(lambda t: kernel_spectral(dec, t))


def uniformization_sampler(g: Graph, eps: float = POSITIVITY_FLOOR) -> Sampler:
    """Cancellation-free sampler; kernels are cached per t.

    The default truncation is pushed down to the positivity floor so that a
    zero sample really means "no walk of any retained length connects the
    pair" — with a loose eps, short times would truncate the series before
    order d and report false zeros.
    """
    from .kernels import _check_eps, kernel_uniformization

    _check_eps(eps)
    return _per_time_sampler(lambda t: kernel_uniformization(g, t, eps))
