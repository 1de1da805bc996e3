"""Short-time kernel behaviour: per-pair verification and distance recovery.

Two directions of the same fact.  Forward: for each vertex pair, the kernel's
Taylor prefix must vanish below the graph distance, lead with
``(geodesic weight)/d!``, and — on bipartite graphs — continue with a strictly
negative next coefficient; that is :mod:`graphheat.verification`, whose
public names are served here too.  Backward: given only a kernel sampler, the
distance and geodesic count can be read off short-time samples by dyadic
refinement.  Each pair's report or estimate is a named tuple.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence

from .errors import NoConvergence
from .graphs import Graph

# The annotations are never evaluated, so ``typing`` loads only for a type
# checker.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

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


_VERIFICATION_NAMES = ("VaradhanReport", "VerificationSummary", "verify_graph", "verify_pair")


def __getattr__(name: str):
    # The verification names, as callers and benchmarks/tracing.py read them
    # here; they load graphheat.verification on first use, so ``estimate``
    # runs without it (PEP 562).
    if name in _VERIFICATION_NAMES:
        from . import verification

        return getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    Raises :class:`NoConvergence`, carrying the exponent estimates made, when
    live samples die before the distance is fixed, a sample is inf, no
    exponent stabilizes within the levels, or the count read is below 1.
    """
    check_schedule(t0, levels)
    # Rounding is half-up, math.floor(v + 0.5): plain round() is
    # round-half-even, and half-up keeps e.g. a 0.5-scaled single-geodesic
    # count from collapsing to zero.
    trace: list[float] = []
    r = None  # the latest exponent estimate, rounded
    run = 0  # how many estimates in a row round to r >= 0, within EXPONENT_TOL
    prev: float | None = None  # the latest live sample
    d_hat: int | None = None
    for t in _dyadic_times(t0, levels):
        p = float(sampler(t, x, y))
        if not p > POSITIVITY_FLOOR:  # dead, NaN included
            if prev is None:
                continue
            if d_hat is None:
                raise NoConvergence(
                    f"sample at t={t:.3e} fell to {p:.3e} before the exponent stabilized",
                    tuple(trace),
                )
            break  # deeper samples are below resolution; keep the current read
        if p == math.inf:
            raise NoConvergence(f"sample at t={t:.3e} is inf", tuple(trace))
        if d_hat is None:
            if prev is not None:
                e = math.log(prev / p) / _LOG2
                trace.append(e)
                r_e = math.floor(e + 0.5)
                if r_e >= 0 and abs(e - r_e) < EXPONENT_TOL:
                    run = run + 1 if r_e == r else 1
                else:
                    run = 0
                r = r_e
                if run >= STABLE_ROUNDS:
                    d_hat = r
                    log_d_factorial = math.lgamma(d_hat + 1)
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


def uniformization_sampler(g: Graph, times: Iterable[float] = ()) -> Sampler:
    """Cancellation-free sampler; kernels are cached per t.

    Each Poisson series is summed until its tail mass is below
    :data:`POSITIVITY_FLOOR`, the line at which :func:`estimate_pair` calls
    a sample dead: a looser truncation would cut the series of a short time
    off before order d and make a reachable pair's samples false zeros.

    ``times`` is the schedule the caller reads from its start, such as the
    dyadic times of :func:`estimate_pair`; the engine's ``c*t`` limit at the
    largest of them is checked here, before any sample.
    Its kernels are summed in blocks of levels ``j .. 2j + 1``, each block in
    one Poisson pass (see :func:`graphheat.kernels.kernel_uniformization`),
    so the levels read cost about ``log2(levels)`` passes and at most twice
    their number in held kernels.  Every kernel has the bits of a pass of
    its own.
    """
    from .kernels import _check_ct, kernel_uniformization

    times = tuple(times)
    _check_ct(g.max_weighted_degree(), max(times, default=0.0))
    return _kernel_sampler(lambda ts: kernel_uniformization(g, ts, POSITIVITY_FLOOR), times)
