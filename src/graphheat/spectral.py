"""Kirchhoff matrix (adjacency minus degree) and its dense eigendecomposition.

The matrix kept here is ``A - D``: symmetric, rows summing to zero, negative
semidefinite.  Its eigenvalues ``mu_k <= 0`` are stored directly; the
conventional nonnegative Laplacian spectrum is exposed as ``lambdas == -mu``
at the reporting boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph


@dataclass(frozen=True)
class KirchhoffMatrix:
    """Dense ``A - D`` as a read-only float64 array, used by the numeric engines."""

    dense: np.ndarray


def kirchhoff_matrix(g: Graph) -> KirchhoffMatrix:
    """Build ``A - D`` for a graph; diagonal entries are minus the weighted degree."""
    dense = np.zeros((g.n, g.n))
    weights = g.weights or {}
    for u, v in g.edges:
        dense[u, v] = dense[v, u] = float(weights.get((u, v), 1))
    for v in range(g.n):
        # Negate before converting so an isolated vertex gets +0.0, not -0.0.
        dense[v, v] = float(-g.weighted_degree(v))
    dense.setflags(write=False)
    return KirchhoffMatrix(dense)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a Kirchhoff matrix.

    ``mu`` is sorted descending, so ``mu[0]`` is the (near-)zero eigenvalue
    and column ``V[:, k]`` is the unit eigenvector for ``mu[k]``.  Column
    signs are whatever LAPACK returns; every consumer reads ``V`` through
    products of two entries of one column, which no sign flip changes.
    """

    mu: np.ndarray
    V: np.ndarray

    @property
    def n(self) -> int:
        return int(self.mu.shape[0])

    @property
    def lambdas(self) -> np.ndarray:
        """Nonnegative Laplacian eigenvalues ``-mu``, ascending."""
        return -self.mu


def eigendecompose(L: KirchhoffMatrix) -> SpectralDecomposition:
    """Symmetric eigendecomposition of the Kirchhoff matrix (LAPACK ``eigh``).

    A LAPACK failure raises :class:`numpy.linalg.LinAlgError`, a
    :class:`ValueError`.
    """
    mu, V = np.linalg.eigh(L.dense)
    order = np.argsort(-mu, kind="stable")
    mu = mu[order]
    V = np.ascontiguousarray(V[:, order])
    mu.setflags(write=False)
    V.setflags(write=False)
    return SpectralDecomposition(mu, V)


def spectral_path_identity(dec: SpectralDecomposition, x: int, y: int, d: int) -> float:
    """Power sum ``sum_k mu_k^d V[x,k] V[y,k]``.

    At ``d == d(x, y)`` this equals the number of geodesics between x and y
    (up to floating-point error); below the distance it vanishes.  The
    summation order is fixed, so the value is symmetric in x and y exactly.
    """
    if d < 0:
        raise ValueError(f"power must be nonnegative, got {d}")
    terms = (dec.mu**d) * dec.V[x, :] * dec.V[y, :]
    return float(np.sum(terms))
