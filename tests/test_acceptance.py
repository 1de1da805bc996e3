"""End-to-end acceptance checks for the package.

Each test prints one ``[criterion n] PASS``/``FAIL`` line (visible under
``pytest -s``).  The checks are exact where the arithmetic is exact and use
the stated float tolerances where an eigensolver or series truncation is
involved.  Corpora are seeded and deterministic.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import corpus
from graphheat import (
    Graph,
    bfs_profile,
    eigendecompose,
    estimate_pair,
    kernel_spectral,
    kernel_taylor_coefficient,
    kernel_uniformization,
    kirchhoff_matrix,
    laplacian_apply,
    series_prefix,
    spectral_path_identity,
    spectral_sampler,
    uniformization_sampler,
    verify_graph,
)

F = Fraction


@contextmanager
def criterion(n: int):
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] FAIL")
        raise
    print(f"[criterion {n}] PASS")


# --- shared corpora ----------------------------------------------------------


@pytest.fixture(scope="module")
def grid():
    return corpus.reference_grid()


@pytest.fixture(scope="module")
def theorem_corpus():
    graphs = [
        corpus.path_graph(2),
        corpus.path_graph(5),
        corpus.path_graph(9),
        corpus.cycle_graph(3),
        corpus.cycle_graph(4),
        corpus.cycle_graph(7),
        corpus.cycle_graph(8),
        corpus.complete_graph(2),
        corpus.complete_graph(3),
        corpus.complete_graph(5),
        corpus.grid_graph(2, 3),
        corpus.grid_graph(3, 3),
        corpus.grid_graph(3, 4),
        corpus.star_graph(4),
        corpus.star_graph(9),
    ]
    rng_sizes = [(seed, 5 + (seed * 7) % 36) for seed in range(50)]
    for seed, n in rng_sizes:
        p_lo, p_hi = 2.0 / n, 0.5
        p = p_lo + (p_hi - p_lo) * ((seed * 13) % 10) / 9.0
        graphs.append(corpus.random_connected_graph(2000 + seed, n, p))
    return graphs


@pytest.fixture(scope="module")
def bipartite_corpus():
    graphs = [
        corpus.cycle_graph(4),
        corpus.cycle_graph(6),
        corpus.cycle_graph(8),
        corpus.cycle_graph(10),
        corpus.grid_graph(2, 3),
        corpus.grid_graph(3, 3),
        corpus.grid_graph(2, 5),
    ]
    for seed in range(20):
        nl = 3 + seed % 5
        nr = 3 + (seed // 5) % 5
        graphs.append(corpus.random_bipartite_graph(3000 + seed, nl, nr, 0.45))
    return graphs


@pytest.fixture(scope="module")
def tree_corpus():
    # shallow trees: every distance is at most 4, inside the window where
    # float64 kernel samples still resolve the leading power cleanly
    return [
        corpus.random_tree(4000 + seed, 5 + (seed * 5) % 26, max_depth=2)
        for seed in range(20)
    ]


@pytest.fixture(scope="module")
def weighted_corpus():
    return [
        corpus.random_weighted_graph(5000 + seed, 5 + (seed * 3) % 12, 0.4)
        for seed in range(10)
    ]


# --- criteria ----------------------------------------------------------------


def test_criterion_1_adjacent_corner_series_exact_and_fast(grid):
    with criterion(1):
        a, b = grid.index_of("a0"), grid.index_of("b1")
        coeffs = series_prefix(grid, a, b, 3)
        assert coeffs[2] == F(1)
        assert coeffs[3] == F(-5, 2)
        assert coeffs[0] == 0 and coeffs[1] == 0

        series_prefix(grid, a, b, 3)  # warm-up
        best = min(
            _timed(lambda: series_prefix(grid, a, b, 3)) for _ in range(3)
        )
        assert best < 1e-3, f"series took {best * 1e3:.3f} ms"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_far_corner_series_exact(grid):
    with criterion(2):
        a, c = grid.index_of("a0"), grid.index_of("b2")
        coeffs = series_prefix(grid, a, c, 4)
        assert coeffs[3] == F(1, 2)
        assert coeffs[4] == F(-7, 6)
        assert coeffs[0] == 0 and coeffs[1] == 0 and coeffs[2] == 0


def test_criterion_3_vanishing_and_leading_match_walk_counts(theorem_corpus):
    with criterion(3):
        start = time.perf_counter()
        pairs = 0
        for g in theorem_corpus:
            fact = [math.factorial(k) for k in range(g.n + 1)]
            for x in range(g.n):
                profile = bfs_profile(g, x)
                finite = [d for d in profile.dist if d is not None]
                depth = max(finite)
                # exact generator powers and adjacency powers, one sweep each
                u = [0] * g.n
                u[x] = 1
                us = [u]
                for _ in range(depth):
                    us.append(laplacian_apply(g, us[-1]))
                a = [0] * g.n
                a[x] = 1
                avs = [a]
                for _ in range(depth):
                    avs.append(corpus.adjacency_apply(g, avs[-1]))
                for y in range(g.n):
                    d = profile.dist[y]
                    if d is None:
                        continue
                    for k in range(d):
                        assert us[k][y] == 0  # c_k = us[k][y] / k!
                    n_walks = avs[d][y]
                    assert us[d][y] == profile.geodesic_count[y] == n_walks
                    pairs += 1
        elapsed = time.perf_counter() - start
        assert pairs > 20000
        assert elapsed < 30.0, f"sweep took {elapsed:.1f} s"


def test_criterion_4_bipartite_next_coefficient_strictly_negative(bipartite_corpus):
    with criterion(4):
        start = time.perf_counter()
        checked = 0
        for g in bipartite_corpus:
            summary = verify_graph(g)
            for r in summary.reports:
                # structurally-zero cases (isolated-vertex diagonals) are the
                # only admissible "na"; strict pairs must carry a verdict
                assert r.bipartite_sign == "pass", (r.x, r.y, r.next_coeff)
                assert r.next_coeff < 0
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked > 500
        assert elapsed < 10.0, f"sweep took {elapsed:.1f} s"


def test_criterion_5_spectral_identity_recovers_counts(theorem_corpus):
    with criterion(5):
        worst = 0.0
        for g in theorem_corpus:
            dec = eigendecompose(kirchhoff_matrix(g))
            for x in range(g.n):
                profile = bfs_profile(g, x)
                for y in range(x, g.n):
                    d = profile.dist[y]
                    if d is None or d > 6:
                        continue
                    want = profile.geodesic_count[y]
                    got = spectral_path_identity(dec, x, y, d)
                    err = abs(got - want) / max(1.0, float(want))
                    worst = max(worst, err)
        assert worst <= 1e-6, f"worst scaled identity error {worst:.3e}"


def test_criterion_6_engines_agree_and_kernel_is_stochastic():
    with criterion(6):
        graphs = [
            corpus.random_connected_graph(6001, 10, 0.4),
            corpus.random_connected_graph(6002, 25, 0.2),
            corpus.random_connected_graph(6003, 40, 0.12),
            corpus.random_connected_graph(6004, 50, 0.1),
            corpus.cycle_graph(8),
            corpus.complete_graph(7),
            corpus.grid_graph(5, 5),
            corpus.star_graph(15),
            corpus.random_weighted_graph(6005, 12, 0.35),
        ]
        ts = (0.01, 0.1, 1.0)
        for g in graphs:
            dec = eigendecompose(kirchhoff_matrix(g))
            kernels = {}
            for t in ts:
                ks = kernel_spectral(dec, t)
                ku = kernel_uniformization(g, t)
                kernels[t] = ks
                assert np.max(np.abs(ks - ku)) <= 1e-9
                for K in (ks, ku):
                    assert np.max(np.abs(K.sum(axis=1) - 1.0)) <= 1e-10
                    assert K.min() >= -1e-12
            for s in ts:
                for t in ts:
                    if s + t in kernels:
                        prod = kernels[s] @ kernels[t]
                        assert np.max(np.abs(prod - kernels[s + t])) <= 1e-9
                    else:
                        prod = kernels[s] @ kernels[t]
                        direct = kernel_spectral(dec, s + t)
                        assert np.max(np.abs(prod - direct)) <= 1e-9


def test_criterion_7_small_time_float_asymptotics(grid):
    with criterion(7):
        t = 1e-2
        a, b, c = grid.index_of("a0"), grid.index_of("b1"), grid.index_of("b2")
        dec = eigendecompose(kirchhoff_matrix(grid))
        for engine in (
            lambda x, y: kernel_spectral(dec, t)[x, y],
            lambda x, y: kernel_uniformization(grid, t, eps=1e-250)[x, y],
        ):
            p_ab = engine(a, b)
            assert abs(p_ab - (t**2 - 2.5 * t**3)) <= 10 * t**4
            p_ac = engine(a, c)
            assert abs(p_ac - (0.5 * t**3 - (7.0 / 6.0) * t**4)) <= 10 * t**5


def test_criterion_8_estimator_recovers_distances_and_counts(grid, tree_corpus):
    with criterion(8):
        start = time.perf_counter()

        def check_all_pairs(g):
            for sampler in (spectral_sampler(g), uniformization_sampler(g)):
                profiles = {}
                for x in range(g.n):
                    for y in range(x + 1, g.n):
                        profile = profiles.get(x)
                        if profile is None:
                            profile = profiles[x] = bfs_profile(g, x)
                        est = estimate_pair(sampler, x, y, t0=0.1, levels=16)
                        assert est.converged
                        assert est.d_hat == profile.dist[y]
                        assert est.n_hat == profile.geodesic_count[y]

        check_all_pairs(grid)
        for g in tree_corpus:
            check_all_pairs(g)

        # cross-component pairs must come back "unreachable"
        split = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        sampler = uniformization_sampler(split)
        for x in (0, 1, 2):
            for y in (3, 4, 5):
                est = estimate_pair(sampler, x, y, t0=0.1, levels=16)
                assert est.unreachable and not est.converged

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"estimation took {elapsed:.1f} s"


def test_criterion_9_weighted_leading_matches_geodesic_weights(weighted_corpus):
    with criterion(9):
        for g in weighted_corpus:
            assert g.is_weighted
            for x in range(g.n):
                profile = bfs_profile(g, x)
                for y in range(x + 1, g.n):
                    d = profile.dist[y]
                    if d is None:
                        continue
                    c_d = kernel_taylor_coefficient(g, x, y, d)
                    assert c_d * math.factorial(d) == profile.geodesic_weight[y]
