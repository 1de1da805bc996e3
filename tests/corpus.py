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
from graphheat.errors import NoConvergence, PositivityFloor
from graphheat.varadhan import (
    COUNT_TOL,
    EXPONENT_TOL,
    POSITIVITY_FLOOR,
    STABLE_ROUNDS,
    DistanceEstimate,
    Sampler,
    check_schedule,
)

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


def interleaved_grids(rows: int, cols: int) -> Graph:
    """Two ``rows x cols`` grids, one on the even and one on the odd vertices,
    so that the vertex order alternates between the two components."""
    grid = grid_graph(rows, cols)
    return Graph(2 * grid.n, [(2 * u + c, 2 * v + c) for u, v in grid.edges for c in (0, 1)])


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


def random_weighted_gnm(seed: int, n: int, m: int) -> Graph:
    """m weighted edges on n vertices: a random recursive tree, then random edges."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    edges = sorted(edges)
    return Graph(n, edges, weights={e: rng.choice(WEIGHT_POOL) for e in edges})


def product_graph(g: Graph, h: Graph) -> Graph:
    """The Cartesian product ``g □ h``; vertex ``(a, b)`` is ``a * h.n + b``.

    Each g-edge is copied for every b with its g weight, and each h-edge for
    every a with its h weight, so ``A - D`` is the Kronecker sum of the
    factors' matrices.  Weighted when either factor is.
    """
    m = h.n
    weights = {}
    for u, v in g.edges:
        for b in range(m):
            weights[(u * m + b, v * m + b)] = 1 if g.weights is None else g.weights[(u, v)]
    for u, v in h.edges:
        for a in range(g.n):
            weights[(a * m + u, a * m + v)] = 1 if h.weights is None else h.weights[(u, v)]
    weighted = g.is_weighted or h.is_weighted
    return Graph(g.n * m, list(weights), weights=weights if weighted else None)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """``g`` beside ``h``, no edge between them; vertex ``b`` of ``h`` is
    ``g.n + b``.  Weighted when either part is."""
    weights = {}
    for part, offset in ((g, 0), (h, g.n)):
        for u, v in part.edges:
            weights[(offset + u, offset + v)] = 1 if part.weights is None else part.weights[(u, v)]
    weighted = g.is_weighted or h.is_weighted
    return Graph(g.n + h.n, list(weights), weights=weights if weighted else None)


def scaled_graph(g: Graph, factor: Fraction) -> Graph:
    """``g`` with every edge weight multiplied by ``factor``; always weighted."""
    weights = {e: factor * (1 if g.weights is None else g.weights[e]) for e in g.edges}
    return Graph(g.n, g.edges, weights=weights)


def small_factor(kind: str, n: int, seed: int, weighted: bool) -> Graph:
    """A corpus graph of ``n`` vertices (a cycle has ``n + 2``) for product
    properties: the bipartite one may be split; ``weighted`` draws each
    weight from :data:`WEIGHT_POOL`."""
    if kind == "path":
        g = path_graph(n)
    elif kind == "cycle":
        g = cycle_graph(n + 2)
    elif kind == "complete":
        g = complete_graph(n)
    elif kind == "star":
        g = star_graph(n - 1)
    elif kind == "connected":
        g = random_connected_graph(seed, n, 0.5)
    else:
        g = random_bipartite_graph(seed, n // 2, n - n // 2, 0.5)
    if not weighted:
        return g
    rng = random.Random(seed)
    return Graph(g.n, g.edges, weights={e: rng.choice(WEIGHT_POOL) for e in g.edges})


def small_factors():
    """Hypothesis strategy: :func:`small_factor` of any kind, 1 to 4 vertices
    (a cycle 3 to 6), with or without weights."""
    from hypothesis import strategies as st

    return st.builds(
        small_factor,
        st.sampled_from(("path", "cycle", "complete", "star", "connected", "bipartite")),
        st.integers(1, 4),
        st.integers(0, 2**16),
        st.booleans(),
    )


def edge_list_text(g: Graph) -> str:
    """``g`` as an edge-list file, one ``u v [weight]`` line per edge."""
    if g.weights is None:
        return "".join(f"{u} {v}\n" for u, v in g.edges)
    return "".join(f"{u} {v} {g.weights[(u, v)]}\n" for u, v in g.edges)


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


def second_order_walk_weights(g: Graph, x: int) -> tuple[list, list]:
    """``(W, S)`` per vertex y, with ``(A - D)^{d+1}[x, y] = W[y] - S[y]`` at
    ``d = d(x, y)``, in exact Fractions; ``None`` where y is unreachable.

    A walk of length d + 1 from x to y either stays put once on a geodesic,
    a step of weight ``-deg(v)``, or takes one edge inside a BFS layer; it
    has no room to step back.  So with ``G`` the geodesic weight, one layer
    pass computes ``S(v) = sum_parents w * S(u) + deg(v) * G(v)`` and
    ``W(v) = sum_parents w * W(u) + sum_same_layer w * G(u)``, O(m) in all.
    Built from ``g.edges`` and the rational weight map alone.
    """
    nbrs: list[list] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        w = Fraction(1 if g.weights is None else g.weights[(u, v)])
        nbrs[u].append((v, w))
        nbrs[v].append((u, w))
    dist: list[int | None] = [None] * g.n
    G, S, W = ([Fraction(0)] * g.n for _ in range(3))
    dist[x], G[x] = 0, Fraction(1)
    layer = [x]
    while layer:
        # G, S and W of this layer have every parent's share; add its own.
        for v in layer:
            S[v] += sum(w for _, w in nbrs[v]) * G[v]
            W[v] += sum(w * G[u] for u, w in nbrs[v] if dist[u] == dist[v])
        below = []
        for v in layer:
            for u, w in nbrs[v]:
                if dist[u] is None:
                    dist[u] = dist[v] + 1
                    below.append(u)
                if dist[u] == dist[v] + 1:
                    G[u] += w * G[v]
                    S[u] += w * S[v]
                    W[u] += w * W[v]
        layer = below
    return (
        [None if d is None else w for w, d in zip(W, dist)],
        [None if d is None else s for s, d in zip(S, dist)],
    )


def horner(coeffs: Sequence, t):
    """Evaluate the polynomial ``sum_k coeffs[k] t^k`` at t by Horner's rule.

    Exact on Fraction coefficients and a Fraction t; a float t gives a float.
    """
    acc = coeffs[-1] * 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poisson_series_one_time(P, B, ct: float, eps: float):
    """Oracle for ``kernels._poisson_series``: the sum of one time, alone.

    ``e^{-ct} sum_k (ct)^k / k! B P^k``, with the weight recurrence and the
    geometric tail test of the engine, in a pass of its own.
    """
    w = math.exp(-ct)
    S = w * B
    M = B
    k = 0
    while True:
        if k + 2.0 > ct:
            w_next = w * ct / (k + 1.0)
            if w_next / (1.0 - ct / (k + 2.0)) < eps:
                break
        k += 1
        w *= ct / k
        M = M @ P
        S += w * M
    return S


def kernel_uniformization_one_time(g: Graph, t: float, eps: float, rows=None):
    """Oracle for ``kernel_uniformization``: one time, in a Poisson pass of its own.

    Builds its own P, and returns the identity at ``c*t = 0`` without a
    Poisson sum, where the engine sums the first term alone.  Splits a
    ``c*t`` above the engine's largest Poisson mean into equal semigroup
    factors and symmetrizes a full kernel, as the engine does.
    """
    import numpy as np

    from graphheat import kernels, kirchhoff_matrix

    n = g.n
    c = g.max_weighted_degree()
    if rows is not None:
        rows = list(rows)
    if c == 0.0 or t == 0:
        return kernels._unit_rows(n, rows)
    P = kirchhoff_matrix(g).dense / c + np.eye(n)  # not the engine's cached P
    ct = c * t
    steps = max(1, math.ceil(ct / kernels._MAX_POISSON_MEAN))
    if steps == 1:
        K = poisson_series_one_time(P, kernels._unit_rows(n, rows), ct, eps)
    else:
        factor = poisson_series_one_time(P, np.eye(n), ct / steps, eps / steps)
        K = factor if rows is None else factor[rows]
        for _ in range(steps - 1):
            K = K @ factor
    return K if rows is not None else 0.5 * (K + K.T)


def _round_half_up(v: float) -> int:
    return math.floor(v + 0.5)


def estimate_pair_two_phase(
    sampler: Sampler, x: int, y: int, t0: float = 0.1, levels: int = 20
) -> DistanceEstimate:
    """Per-pair oracle for :func:`graphheat.estimate_pair`, in two phases.

    The exponent phase samples dyadic levels until the exponent estimates
    stabilize; the count phase then rereads the count at that level and
    shrinks t while the read is not within ``COUNT_TOL`` of an integer.  It
    gives the same estimate, exception, message, exponent trace and sample
    times as the single pass, for any sampler whose samples are not NaN.
    """
    check_schedule(t0, levels)
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
