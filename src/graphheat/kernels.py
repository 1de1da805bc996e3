"""Heat-kernel evaluation: spectral synthesis and Poisson-series uniformization.

Both engines evaluate ``K(t) = exp(t (A - D))`` — a symmetric doubly
stochastic matrix whose entry ``K[x, y]`` is the heat at y after time t of a
unit source at x.  The spectral route is cheap per extra t; uniformization
never subtracts, so its entries are nonnegative by construction and tiny
entries keep relative accuracy.  Uniformization can also sum only a block of
source rows ``K[rows, :]``, applying the series to those unit vectors rather
than to the identity, so a few entries cost ``O(len(rows) n^2)`` per term
instead of ``O(n^3)``.  Its terms ``B P^k`` do not depend on t, so the
kernels of several times are summed in one pass over them: the pass costs
as many products as the largest time needs, not the sum over the times, and
each kernel keeps the bits of a pass of its own.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from .graphs import Graph
from .spectral import SpectralDecomposition, kirchhoff_matrix

#: Default truncation bound on the neglected Poisson tail mass.
DEFAULT_EPS = 1e-12

# Split e^{tL} into equal semigroup factors once c*t exceeds this, keeping
# e^{-ct} comfortably away from double underflow (exp(-200) ~ 1.4e-87).
_MAX_POISSON_MEAN = 200.0

# Largest ``c*t`` the uniformization engine accepts: at most 50 semigroup
# factors of Poisson mean 200 each, so a huge weight or time fails fast.
_MAX_CT = 1e4


def _check_time(t: float) -> None:
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")


def _check_eps(eps: float) -> None:
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")


def _check_ct(c: float, t: float) -> None:
    if c * t > _MAX_CT:
        raise ValueError(
            f"largest weighted degree {c!r} times t = {t!r} exceeds {_MAX_CT!r}, "
            "the uniformization engine's limit on c*t"
        )


def kernel_spectral(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """Evaluate ``V diag(e^{mu t}) V^T`` from a precomputed eigendecomposition.

    Returns the read-only kernel matrix, ``K[x, y] = p_t(x, y)``.  ``t = 0``
    returns the exact identity.  The result is symmetrized, so
    ``K[x, y] == K[y, x]`` holds exactly.
    """
    _check_time(t)
    n = dec.n
    if t == 0:
        K = np.eye(n)
    else:
        w = np.exp(dec.mu * t)
        K = (dec.V * w) @ dec.V.T
        K = K + K.T  # as 0.5 * (K + K.T), one n x n array fewer
        K *= 0.5
    K.setflags(write=False)
    return K


def _tail_is_below(w: float, ct: float, eps: float, k: int) -> bool:
    """Whether the Poisson mass after term k, of weight w, is bounded below eps."""
    return k + 2.0 > ct and w * ct / (k + 1.0) / (1.0 - ct / (k + 2.0)) < eps


def _poisson_series(
    P: np.ndarray, B: np.ndarray, cts: list[float], eps: float
) -> list[np.ndarray]:
    """Sum ``e^{-ct} sum_k (ct)^k / k! B P^k`` for each ct of ``cts``.

    Poisson weights are accumulated by the exact recurrence
    ``w_{k+1} = w_k * ct / (k+1)``.  Once ``k + 2 > ct`` the remaining mass is
    bounded by the geometric tail ``w_{k+1} / (1 - ct/(k+2))``; a sum stops
    when that bound drops below eps.  This terminates for any eps > 0 (the
    weights eventually underflow to zero) — an "accumulate until the partial
    sums reach 1 - eps" test would stall near machine precision instead.
    Every row of ``B`` is a unit vector of the standard basis, so the bound
    holds for each row of the sum.

    The powers ``M_k = B P^k`` do not depend on ct, so one pass walks them
    for every sum, until the last sum stops.  Each sum adds its terms in the
    order, and stops at the term, that a pass of its own would, so it has the
    bits of that pass.
    """
    ws = [math.exp(-ct) for ct in cts]
    sums = [w * B for w in ws]
    # Two buffers take turns: each product is written into the spare one,
    # and the spare then holds every w * M of that term.  The start block is
    # the caller's to give up, so it becomes one; the first product makes the other.
    M, spare = B, None
    del B
    live = range(len(cts))
    k = 0
    while True:
        live = [j for j in live if not _tail_is_below(ws[j], cts[j], eps, k)]
        if not live:
            return sums
        k += 1
        M, spare = np.matmul(M, P, out=spare), M
        for j in live:
            ws[j] *= cts[j] / k
            sums[j] += np.multiply(M, ws[j], out=spare)


def _unit_rows(n: int, rows: list[int] | None) -> np.ndarray:
    """Rows ``rows`` of the n x n identity, or all of it when ``rows`` is None."""
    if rows is None:
        return np.eye(n)
    B = np.zeros((len(rows), n))
    B[np.arange(len(rows)), rows] = 1.0
    return B


@functools.lru_cache(maxsize=1)
def _latest_shifted_matrix(g: Graph) -> np.ndarray:
    """``P = (A - D)/c + I`` of the latest graph, built once for all its times.

    :func:`kirchhoff_matrix` makes a new array on every call and hands it
    out read-only.  This array is nobody else's, so P is made of it in
    place: the build holds one n x n array, not two.
    """
    P = kirchhoff_matrix(g).dense
    P.setflags(write=True)
    P /= g.max_weighted_degree()
    P[np.diag_indices(g.n)] += 1.0  # in place: no n x n identity or sum
    P.setflags(write=False)
    return P


def kernel_uniformization(
    g: Graph,
    t: float | Sequence[float],
    eps: float = DEFAULT_EPS,
    rows: Sequence[int] | None = None,
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Evaluate ``e^{t(A-D)}`` through the substochastic shift ``P = (A-D)/c + I``.

    Returns the read-only kernel matrix, ``K[x, y] = p_t(x, y)``.
    ``c`` is the maximum weighted degree — the smallest shift making P
    entrywise nonnegative — so every series term is nonnegative and no
    cancellation occurs.  The neglected Poisson tail carries at most ``eps``
    of the total mass.  At ``c*t = 0`` (``t = 0`` or an edgeless graph) the
    sum is its first term, the exact identity.  Large ``c*t`` is split into
    equal semigroup factors to avoid underflow of ``e^{-ct}``; splitting
    preserves nonnegativity since it only multiplies nonnegative matrices.
    A ``c*t`` above ``1e4`` raises :class:`ValueError`.

    Given a sequence of times instead of one, returns a tuple with one kernel
    per time, in order, repeats allowed.  Their series share one pass over
    the powers of P (see :func:`_poisson_series`), and each kernel has the
    bits of a call with its time alone.  A time whose ``c*t`` is split into
    factors makes its own factor.

    With ``rows`` (vertex indices, in any order, repeats allowed), only those
    source rows are summed: the result is the read-only ``(len(rows), n)``
    block ``K[rows, :]``, at ``O(len(rows) n^2)`` per Poisson term instead of
    ``O(n^3)``.  It equals the full kernel's rows to rounding but is not
    symmetrized, so read an entry ``p_t(x, y)`` from one fixed end of the
    pair when both orders must agree bit for bit.  Several semigroup factors
    are still built once as full matrices, which the block then multiplies.
    Without ``rows`` the full kernel is symmetrized, so
    ``K[x, y] == K[y, x]`` holds exactly.
    """
    single = np.ndim(t) == 0
    times = [t] if single else list(t)
    c = g.max_weighted_degree()
    for s in times:  # each time's checks in turn, as one call per time makes them
        _check_time(s)
        _check_eps(eps)
        _check_ct(c, s)
    n = g.n
    if rows is not None:
        rows = list(rows)  # a tuple would index as one (row, column) entry
    cts = [c * s for s in times]
    P = _latest_shifted_matrix(g) if any(cts) else None  # a sum at c*t = 0 reads no P
    # One pass sums every time that needs no split, in order; each sum is
    # popped as its kernel is made, so its symmetrized copy replaces it.
    sums = _poisson_series(
        P, _unit_rows(n, rows), [ct for ct in cts if ct <= _MAX_POISSON_MEAN], eps
    )[::-1]
    kernels = []
    for ct in cts:
        if ct <= _MAX_POISSON_MEAN:
            K = sums.pop()
        else:
            steps = math.ceil(ct / _MAX_POISSON_MEAN)
            (factor,) = _poisson_series(P, np.eye(n), [ct / steps], eps / steps)
            K = factor if rows is None else factor[rows]
            for _ in range(steps - 1):
                K = K @ factor
        if rows is None:
            # The average of two nonnegative matrices stays nonnegative, and
            # the identity keeps its bits.  One new array, where
            # 0.5 * (K + K.T) makes two.
            K = K + K.T
            K *= 0.5
        K.setflags(write=False)
        kernels.append(K)
    return kernels[0] if single else tuple(kernels)
