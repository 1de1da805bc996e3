"""Deterministic graph builders shared by the test suite.

Every random builder takes an explicit seed and uses its own Random instance,
so the corpus is reproducible byte-for-byte; nothing here touches global RNG
state.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from graphheat import Graph, bfs_profile, parse_edge_list

# 2x3 grid with one row labelled a*, the other b*; the worked golden pairs
# live at (a0, b1) — distance 2, two geodesics — and (a0, b2) — distance 3,
# three geodesics.
REFERENCE_GRID_TEXT = """\
a0 a1
a1 a2
b0 b1
b1 b2
a0 b0
a1 b1
a2 b2
"""


def reference_grid() -> Graph:
    return parse_edge_list(REFERENCE_GRID_TEXT)


def path_graph(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> Graph:
    return Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(rows * cols, edges)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return all(d is not None for d in bfs_profile(g, 0).dist)


def random_connected_graph(seed: int, n: int, p: float) -> Graph:
    """Erdos–Renyi G(n, p), resampled until connected (bounded retries).

    If sampling keeps producing disconnected graphs, component representatives
    are chained together deterministically so the builder always terminates.
    """
    rng = random.Random(seed)
    for _ in range(60):
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = Graph(n, edges)
        if is_connected(g):
            return g
    # Chain the components of the last sample.
    present = set(edges)
    reps = []
    seen: set[int] = set()
    for v in range(n):
        if v not in seen:
            comp_profile = bfs_profile(g, v)
            members = [u for u in range(n) if comp_profile.dist[u] is not None]
            seen.update(members)
            reps.append(v)
    for a, b in zip(reps, reps[1:]):
        key = (a, b) if a < b else (b, a)
        if key not in present:
            edges.append(key)
            present.add(key)
    return Graph(n, edges)


def random_bipartite_graph(seed: int, n_left: int, n_right: int, p: float) -> Graph:
    """Random bipartite graph; may be disconnected (callers skip unreachable pairs)."""
    rng = random.Random(seed)
    edges = [
        (u, n_left + v)
        for u in range(n_left)
        for v in range(n_right)
        if rng.random() < p
    ]
    return Graph(n_left + n_right, edges)


def random_tree(seed: int, n: int, max_depth: int | None = None) -> Graph:
    """Random tree grown by uniform attachment.

    ``max_depth`` caps vertex depth (so diameter <= 2*max_depth); useful where
    double-precision kernel samples cannot resolve deep pairs.
    """
    rng = random.Random(seed)
    depth = [0]
    edges = []
    for v in range(1, n):
        candidates = (
            list(range(v))
            if max_depth is None
            else [u for u in range(v) if depth[u] < max_depth]
        )
        parent = rng.choice(candidates)
        edges.append((parent, v))
        depth.append(depth[parent] + 1)
    return Graph(n, edges)


WEIGHT_POOL = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def random_weighted_graph(seed: int, n: int, p: float) -> Graph:
    base = random_connected_graph(seed, n, p)
    rng = random.Random(seed ^ 0x5EED)
    weights = {e: rng.choice(WEIGHT_POOL) for e in base.edges}
    return Graph(base.n, base.edges, weights=weights)


def kirchhoff_exact(g: Graph) -> tuple[tuple[int | Fraction, ...], ...]:
    """Exact ``A - D`` as rows of ints (unweighted) or Fractions.

    Test-only oracle for the float matrix the numeric engines build and for
    the integer walk: built from the edge list and the rational weight map
    alone, with minus the row sum on the diagonal.
    """
    rows: list[list] = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = 1 if g.weights is None else g.weights[(u, v)]
    for v, row in enumerate(rows):
        row[v] = -sum(row)
    return tuple(map(tuple, rows))


def taylor_coefficients_oracle(g: Graph, x: int, y: int, max_order: int) -> list[Fraction]:
    """``c_0 .. c_max_order`` of ``p_t(x, y)``, one pair at a time, in Fractions.

    Test-only oracle for the integer walk: repeated products with the exact
    matrix :func:`kirchhoff_exact`, with no integer scaling of the weights.
    """
    L = kirchhoff_exact(g)
    u = [Fraction(0)] * g.n
    u[x] = Fraction(1)
    coeffs = [u[y]]
    for k in range(1, max_order + 1):
        u = [sum((a * b for a, b in zip(row, u)), Fraction(0)) for row in L]
        coeffs.append(u[y] / math.factorial(k))
    return coeffs


def adjacency_apply(g: Graph, u: Sequence) -> list:
    """Exact adjacency matrix–vector product ``A u`` (weighted where defined).

    Built from ``g.edges`` and the rational weight map alone.
    """
    if len(u) != g.n:
        raise ValueError(f"vector length {len(u)} != vertex count {g.n}")
    out = [0] * g.n
    for a, b in g.edges:
        w = 1 if g.weights is None else g.weights[(a, b)]
        out[a] += w * u[b]
        out[b] += w * u[a]
    return out


def adjacency_power_entry(g: Graph, k: int, x: int, y: int):
    """Entry ``(A^k)[x, y]`` computed exactly by repeated application.

    Counts walks of length k from x to y (weighted by edge-weight products on
    weighted graphs).  At ``k == d(x, y)`` every such walk is a geodesic, so
    the entry equals the geodesic count there; below the distance it is 0.
    """
    if k < 0:
        raise ValueError(f"power must be nonnegative, got {k}")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"vertex pair ({x}, {y}) out of range for {g.n} vertices")
    vec: list = [0] * g.n
    vec[x] = 1
    for _ in range(k):
        vec = adjacency_apply(g, vec)
    return vec[y]


def horner(coeffs: Sequence, t):
    """Evaluate the polynomial ``sum_k coeffs[k] t^k`` at t by Horner's rule.

    Exact on Fraction coefficients and a Fraction t; a float t gives a float.
    """
    acc = coeffs[-1] * 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc
