"""Exact short-time Taylor data of the heat kernel.

``p_t(x, y) = sum_k c_k t^k`` with ``c_k = ((A - D)^k)[x, y] / k!``.  The
coefficients are exact rationals, produced by repeated exact matrix–vector
application — no floats anywhere.  The first nonzero coefficient sits at
``k = d(x, y)`` and equals ``(number of geodesics) / d!``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import UnreachableError
from .graphs import Graph, bfs_profile


def laplacian_apply(g: Graph, u: Sequence) -> list:
    """Exact matrix–vector product ``(A - D) u``.

    Input entries may be ints or Fractions; the result stays exact.  This is
    the single step of the coefficient recursion ``u_{k+1} = (A - D) u_k``.
    """
    if len(u) != g.n:
        raise ValueError(f"vector length {len(u)} != vertex count {g.n}")
    out = [0] * g.n
    if g.is_weighted:
        for v in range(g.n):
            uv = u[v]
            acc = 0
            for nbr, w in zip(g.neighbors(v), g.neighbor_weights(v)):
                acc += w * (u[nbr] - uv)
            out[v] = acc
    else:
        for v in range(g.n):
            acc = -len(g.neighbors(v)) * u[v]
            for nbr in g.neighbors(v):
                acc += u[nbr]
            out[v] = acc
    return out


def kernel_taylor_coefficient(g: Graph, x: int, y: int, k: int) -> Fraction:
    """The exact coefficient of ``t^k`` in ``p_t(x, y)``."""
    if k < 0:
        raise ValueError(f"order must be nonnegative, got {k}")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"vertex pair ({x}, {y}) out of range for {g.n} vertices")
    u: list = [0] * g.n
    u[x] = 1
    for _ in range(k):
        u = laplacian_apply(g, u)
    return Fraction(u[y], math.factorial(k))


@dataclass(frozen=True)
class SeriesPrefix:
    """Taylor prefix of ``p_t(x, y)``: ``coeffs[k]`` multiplies ``t^k``."""

    x: int
    y: int
    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, t: Fraction | float):
        """Horner evaluation of the prefix polynomial at t."""
        acc = self.coeffs[-1] * 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def series_prefix(g: Graph, x: int, y: int, max_order: int) -> SeriesPrefix:
    """All coefficients ``c_0 .. c_max_order`` in one exact recursion pass."""
    if max_order < 0:
        raise ValueError(f"order must be nonnegative, got {max_order}")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"vertex pair ({x}, {y}) out of range for {g.n} vertices")
    u: list = [0] * g.n
    u[x] = 1
    coeffs = [Fraction(u[y])]
    for k in range(1, max_order + 1):
        u = laplacian_apply(g, u)
        coeffs.append(Fraction(u[y], math.factorial(k)))
    return SeriesPrefix(x, y, tuple(coeffs))


def leading_order(g: Graph, x: int, y: int) -> tuple[int, Fraction]:
    """Order and value of the first nonzero Taylor coefficient of ``p_t(x, y)``.

    Returns ``(d, c)`` where d is the graph distance and
    ``c = (geodesic weight) / d!`` is strictly positive.  Both facts are
    cross-checked against an independent BFS before returning; a mismatch
    raises :class:`RuntimeError`.  Raises :class:`UnreachableError` if no
    power up to n reaches y — i.e. the pair spans two components.
    """
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"vertex pair ({x}, {y}) out of range for {g.n} vertices")
    u: list = [0] * g.n
    u[x] = 1
    for k in range(g.n + 1):
        if u[y] != 0:
            c = Fraction(u[y], math.factorial(k))
            profile = bfs_profile(g, x)
            if profile.dist[y] != k:
                raise RuntimeError(
                    f"first nonzero coefficient at order {k}, BFS distance {profile.dist[y]}"
                )
            if c <= 0:
                raise RuntimeError(f"leading coefficient must be positive, got {c}")
            return k, c
        u = laplacian_apply(g, u)
    raise UnreachableError(
        f"vertices {g.labels[x]!r} and {g.labels[y]!r} are in different components"
    )
