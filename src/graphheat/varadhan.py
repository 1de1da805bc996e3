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
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Literal

from .errors import NoConvergence, PositivityFloor, UnreachableError
from .graphs import DistanceProfile, Graph, bfs_profile, is_bipartite
from .series import walk_vectors

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


@dataclass(frozen=True)
class VaradhanReport:
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


@dataclass(frozen=True)
class VerificationSummary:
    """All pair reports for a graph, plus the cross-component pairs skipped."""

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
    leading = Fraction(us[d][y], dens[d])
    next_coeff = Fraction(us[d + 1][y], dens[d + 1])
    vanish_ok: Verdict = "pass" if all(us[k][y] == 0 for k in range(d)) else "fail"
    leading_ok: Verdict = (
        "pass" if leading * math.factorial(d) == n_geodesics else "fail"
    )
    if colors is None:
        bipartite_sign: Verdict = "na"
    elif next_coeff == 0:
        bipartite_sign = "na"  # structurally zero: isolated vertex, diagonal pair
    elif next_coeff < 0:
        bipartite_sign = "pass"
    else:
        bipartite_sign = "fail"
    return VaradhanReport(
        x=g.labels[x],
        y=g.labels[y],
        d=d,
        n_geodesics=n_geodesics,
        leading=leading,
        next_coeff=next_coeff,
        vanish_ok=vanish_ok,
        leading_ok=leading_ok,
        bipartite_sign=bipartite_sign,
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


def verify_graph(g: Graph) -> VerificationSummary:
    """Verify every connected unordered pair ``x < y``; collect the rest.

    One exact walk per source vertex is shared by all of its targets, so a
    full verification costs n walks rather than one per pair.
    """
    colors = is_bipartite(g)
    reports: list[VaradhanReport] = []
    skipped: list[tuple[str, str]] = []
    for x in range(g.n - 1):
        targets = range(x + 1, g.n)
        profile = bfs_profile(g, x)
        finite = [profile.dist[y] for y in targets if profile.dist[y] is not None]
        us, dens = walk_vectors(g, x, (max(finite) + 1) if finite else 0)
        for y in targets:
            if profile.dist[y] is None:
                skipped.append((g.labels[x], g.labels[y]))
            else:
                reports.append(_make_report(g, x, y, profile, us, dens, colors))
    return VerificationSummary(tuple(reports), tuple(skipped))


# --- distance/count recovery from kernel samples ---------------------------


@dataclass(frozen=True)
class DistanceEstimate:
    """Result of :func:`estimate_pair`.

    ``d_hat is None`` means every sample sat at or below the positivity
    floor: the pair is reported unreachable.
    ``exponent_trace`` keeps the raw dyadic exponent estimates, one per
    consecutive pair of live samples.
    """

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

    Samples ``p(t)`` at ``t = t0 * 2^-j``.  Each consecutive pair of live
    samples gives a dyadic exponent estimate ``log2(p_j / p_{j+1})``; once
    :data:`STABLE_ROUNDS` consecutive estimates round to the same nonnegative
    integer, each within :data:`EXPONENT_TOL` of it, that integer is the
    distance.  The count is then ``round(d! * p / t^d)`` at the smallest live
    sample, shrinking t further while the pre-rounding value strays from an
    integer by :data:`COUNT_TOL` or more.

    The estimate is scale-invariant: multiplying the sampler by a constant
    shifts no exponent estimate.

    Raises :class:`NoConvergence` when the levels are exhausted without a
    stable exponent, and :class:`PositivityFloor` when samples die below the
    floor after having been live.
    """
    check_schedule(t0, levels)
    # Each time t0 * 0.5**j is made as it is sampled: the loop usually stops
    # a few levels in, and a list of every level grows with ``levels``.
    samples: list[float] = []
    trace: list[float] = []
    any_alive = False
    d_hat: int | None = None
    stable_at: int | None = None

    for j in range(levels + 1):
        t = t0 * 0.5**j
        p = float(sampler(t, x, y))
        alive = p > POSITIVITY_FLOOR
        samples.append(p)
        if not alive and any_alive:
            raise PositivityFloor(
                f"sample at t={t:.3e} fell to {p:.3e} before the exponent stabilized"
            )
        if alive and any_alive:  # no dead sample follows a live one
            trace.append(math.log(samples[j - 1] / p) / math.log(2.0))
            if len(trace) >= STABLE_ROUNDS:
                window = trace[-STABLE_ROUNDS:]
                r = _round_half_up(window[0])
                if r >= 0 and all(
                    _round_half_up(e) == r and abs(e - r) < EXPONENT_TOL
                    for e in window
                ):
                    d_hat = r
                    stable_at = j
                    break
        any_alive = any_alive or alive

    if d_hat is None or stable_at is None:
        if not any_alive:
            return DistanceEstimate(None, None, t0 * 0.5**levels, tuple(trace))
        raise NoConvergence(
            f"no stable exponent after {levels} refinement levels", tuple(trace)
        )

    # Count phase: read N off the smallest live sample; shrink while the
    # pre-rounding value is not within COUNT_TOL of an integer.
    idx = stable_at
    while True:
        t_used = t0 * 0.5**idx
        p_used = samples[idx]
        raw = math.exp(
            math.lgamma(d_hat + 1) + math.log(p_used) - d_hat * math.log(t_used)
        )
        n_hat = _round_half_up(raw)
        if abs(raw - n_hat) < COUNT_TOL or idx >= levels:
            break
        p_next = float(sampler(t0 * 0.5 ** (idx + 1), x, y))
        if p_next <= POSITIVITY_FLOOR:
            break  # deeper samples are below resolution; keep the current read
        samples.append(p_next)
        idx += 1

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
    cache: dict[float, Any] = {}

    def sample(t: float, x: int, y: int) -> float:
        K = cache.get(t)
        if K is None:
            K = cache[t] = kernel_at(t)
        return float(K[x, y])

    return sample


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
    from .kernels import kernel_uniformization

    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return _per_time_sampler(lambda t: kernel_uniformization(g, t, eps))
