"""Exact short-time Taylor data of the heat kernel.

``p_t(x, y) = sum_k c_k t^k`` with ``c_k = ((A - D)^k)[x, y] / k!``.  Every
coefficient of a source x is read off one walk ``u_k = (A - D)^k e_x``,
done in integers: with the weights scaled to integers ``w * s``, the walk
keeps ``s^k u_k`` and the common denominator ``s^k k!`` apart, and a
:class:`~fractions.Fraction` is built only for an entry that is read.  The
first nonzero coefficient sits at ``k = d(x, y)`` and equals
``(number of geodesics) / d!``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterator, Sequence

from .graphs import Graph, scaled_laplacian_apply


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


def _walk(g: Graph, x: int) -> Iterator[tuple[list[int], int]]:
    """``(s^k (A - D)^k e_x, s^k k!)`` for ``k = 0, 1, ...``, without end."""
    u = [0] * g.n
    u[x] = 1
    den = 1
    for k in count(1):
        yield u, den
        u = scaled_laplacian_apply(g, u)
        den *= g.weight_scale * k


def walk_vectors(g: Graph, x: int, depth: int) -> tuple[list[list[int]], list[int]]:
    """The exact walk from ``x``: ``us[k] / dens[k] == (A - D)^k e_x / k!``.

    Returns the integer vectors ``us[k] = s^k (A - D)^k e_x`` and the
    denominators ``dens[k] = s^k k!`` for ``k = 0 .. depth``, where ``s`` is
    ``g.weight_scale``, the lcm of the weight denominators (1 when
    unweighted).  So ``Fraction(us[k][y], dens[k])`` is the coefficient of
    ``t^k`` in ``p_t(x, y)``.  Costs ``depth`` sweeps over the edges.
    """
    if depth < 0:
        raise ValueError(f"order must be nonnegative, got {depth}")
    if not (0 <= x < g.n):
        raise ValueError(f"vertex {x} out of range for {g.n} vertices")
    us, dens = zip(*islice(_walk(g, x), depth + 1))
    return list(us), list(dens)


def _check_pair(g: Graph, x: int, y: int) -> None:
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"vertex pair ({x}, {y}) out of range for {g.n} vertices")


def kernel_taylor_coefficient(g: Graph, x: int, y: int, k: int) -> Fraction:
    """The exact coefficient of ``t^k`` in ``p_t(x, y)``."""
    if k < 0:
        raise ValueError(f"order must be nonnegative, got {k}")
    _check_pair(g, x, y)
    u, den = next(islice(_walk(g, x), k, None))
    return Fraction(u[y], den)


@dataclass(frozen=True)
class SeriesPrefix:
    """Taylor prefix of ``p_t(x, y)``: ``coeffs[k]`` multiplies ``t^k``."""

    x: int
    y: int
    coeffs: tuple[Fraction, ...]


@functools.lru_cache(maxsize=1)
def _latest_walk(g: Graph, x: int, depth: int) -> tuple[list[list[int]], list[int]]:
    return walk_vectors(g, x, depth)


def series_prefix(g: Graph, x: int, y: int, max_order: int) -> SeriesPrefix:
    """All coefficients ``c_0 .. c_max_order``, read off one walk from x.

    The walk of the latest call is kept (``max_order + 1`` vectors), so
    consecutive calls with the same graph, source and order, as for all
    targets of one source, share one walk.
    """
    _check_pair(g, x, y)
    us, dens = _latest_walk(g, x, max_order)
    coeffs = [Fraction(u[y], den) for u, den in zip(us, dens)]
    return SeriesPrefix(x, y, tuple(coeffs))
