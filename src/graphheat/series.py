"""Exact short-time Taylor data of the heat kernel.

``p_t(x, y) = sum_k c_k t^k`` with ``c_k = ((A - D)^k)[x, y] / k!``.  Every
coefficient of a source x is read off one walk ``u_k = (A - D)^k e_x``,
done in integers: with the weights scaled to integers ``w * s``, the walk
keeps ``s^k u_k`` and the common denominator ``s^k k!`` apart, and a
:class:`~fractions.Fraction` is built only for an entry that is read.  The
first nonzero coefficient sits at ``k = d(x, y)`` and equals
``(number of geodesics) / d!``.

``u_k`` vanishes outside the radius-k ball around x, so step k updates only
the closed neighbourhood of the support of ``u_{k-1}``.  A walk told the
highest order ``last[y]`` at which each entry is read also skips every
vertex z whose entries no read entry depends on: those with
``k > max_y (last[y] - dist(z, y))``.  Reading each y up to ``d(x, y) + 1``,
as verification does, updates each vertex at most twice, so a verified
source costs O(m); one pair's walk covers only the cone between x and y.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import islice

from .graphs import Graph, closed_neighbourhoods, scaled_laplacian_apply

_ZERO = Fraction(0)


def laplacian_apply(g: Graph, u: Sequence) -> list:
    """Exact matrix–vector product ``(A - D) u``.

    Input entries may be ints or Fractions; the result stays exact, and
    integer input on an unweighted graph gives integers.
    """
    if len(u) != g.n:
        raise ValueError(f"vector length {len(u)} != vertex count {g.n}")
    out = scaled_laplacian_apply(g, u)
    if g.weight_scale == 1:
        return out
    return [Fraction(v, g.weight_scale) for v in out]


def _read_horizon(g: Graph, last: Sequence[int], depth: int) -> list[int]:
    """``need[z] = max_y (min(last[y], depth) - dist(z, y))``, or 0 when that
    is below 1: the last step whose value at z an entry read depends on.

    One pass over buckets of equal ``need``, highest first: a vertex takes
    the bucket it is first met in and puts its neighbours in the next lower.
    """
    closed = closed_neighbourhoods(g)
    need = [0] * g.n
    buckets: list[list[int]] = [[] for _ in range(depth + 1)]
    for v, k in enumerate(last):
        if k > 0:
            buckets[min(k, depth)].append(v)
    for k in range(depth, 0, -1):
        for v in buckets[k]:
            if not need[v]:
                need[v] = k
                if k > 1:
                    buckets[k - 1].extend(closed[v])
    return need


def _walk(
    g: Graph, x: int, depth: int, last: Sequence[int] | None = None
) -> Iterator[tuple[list[int], int]]:
    """``(s^k (A - D)^k e_x, s^k k!)`` for ``k = 0 .. depth``; with ``last``,
    exact at every entry v with ``k <= last[v]`` (see :func:`walk_vectors`)."""
    n, scale = g.n, g.weight_scale
    need = [depth] * n if last is None else _read_horizon(g, last, depth)
    closed = closed_neighbourhoods(g)
    u = [0] * n
    u[x] = 1
    support = (x,)
    den = 1
    yield u, den
    for k in range(1, depth + 1):
        # An entry outside the rows is 0 at step k, or no read entry needs it.
        reached: set[int] = set()
        for v in support:
            reached.update(closed[v])
        rows = [z for z in reached if need[z] >= k]
        values = scaled_laplacian_apply(g, u, rows)
        u = [0] * n
        support = []
        for z, value in zip(rows, values):
            if value:
                u[z] = value
                support.append(z)
        den *= scale * k
        yield u, den


def walk_vectors(
    g: Graph, x: int, depth: int, last: Sequence[int] | None = None
) -> tuple[list[list[int]], list[int]]:
    """The exact walk from ``x``: ``us[k] / dens[k] == (A - D)^k e_x / k!``.

    Returns the integer vectors ``us[k] = s^k (A - D)^k e_x`` and the
    denominators ``dens[k] = s^k k!`` for ``k = 0 .. depth``, where ``s`` is
    ``g.weight_scale``, the lcm of the weight denominators (1 when
    unweighted).  So ``Fraction(us[k][y], dens[k])`` is the coefficient of
    ``t^k`` in ``p_t(x, y)``.

    ``last[v]``, one per vertex, is the highest order at which entry v is
    read (default ``depth`` for every vertex: the full walk).  Every entry
    with ``k <= last[v]`` is exact whatever the orders are; any other entry
    is exact or 0.  With ``last[y] = d(x, y) + 1`` for the targets y of a
    verification, each vertex is updated at most twice: O(m) for the walk.
    """
    if depth < 0:
        raise ValueError(f"order must be nonnegative, got {depth}")
    if not (0 <= x < g.n):
        raise ValueError(f"vertex {x} out of range for {g.n} vertices")
    if last is not None and len(last) != g.n:
        raise ValueError(f"{len(last)} read orders for {g.n} vertices")
    us, dens = zip(*_walk(g, x, depth, last))
    return list(us), list(dens)


def _check_pair(g: Graph, x: int, y: int) -> None:
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"vertex pair ({x}, {y}) out of range for {g.n} vertices")


def kernel_taylor_coefficient(g: Graph, x: int, y: int, k: int) -> Fraction:
    """The exact coefficient of ``t^k`` in ``p_t(x, y)``."""
    if k < 0:
        raise ValueError(f"order must be nonnegative, got {k}")
    _check_pair(g, x, y)
    last = [-1] * g.n
    last[y] = k  # only the cone between x and y is walked
    u, den = next(islice(_walk(g, x, k, last), k, None))
    return Fraction(u[y], den)


@functools.lru_cache(maxsize=1)
def _latest_walk(g: Graph, x: int, depth: int) -> tuple[list[list[int]], list[int]]:
    return walk_vectors(g, x, depth)


def series_prefix(g: Graph, x: int, y: int, max_order: int) -> tuple[Fraction, ...]:
    """All coefficients ``(c_0, .., c_max_order)``, read off one walk from x.

    The walk of the latest call is kept (``max_order + 1`` vectors), so
    consecutive calls with the same graph, source and order, as for all
    targets of one source, share one walk.
    """
    _check_pair(g, x, y)
    us, dens = _latest_walk(g, x, max_order)
    # From a list: a tuple built off a generator is resized, and the resized
    # tuples pile up on the interpreter's free list (+0.2 MiB on an 8x8 grid).
    # One shared zero: most coefficients of a short prefix are below the distance.
    return tuple([Fraction(u[y], den) if u[y] else _ZERO for u, den in zip(us, dens)])
