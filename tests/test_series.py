"""Exact short-time Taylor data for kernel entries."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from graphheat import (
    Graph,
    UnreachableError,
    bfs_profile,
    eigendecompose,
    kernel_spectral,
    kernel_taylor_coefficient,
    kirchhoff_matrix,
    laplacian_apply,
    series_prefix,
    verify_pair,
    walk_vectors,
)
from graphheat import series as series_module

F = Fraction


# --- exact generator application --------------------------------------------


def test_laplacian_apply_matches_matrix_columns():
    g = corpus.random_weighted_graph(13, 7, 0.5)
    L = corpus.kirchhoff_exact(g)
    np.testing.assert_array_equal(kirchhoff_matrix(g).dense, np.array(L, dtype=float))
    for j in range(g.n):
        unit = [0] * g.n
        unit[j] = 1
        col = laplacian_apply(g, unit)
        assert col == [L[i][j] for i in range(g.n)]


def test_laplacian_apply_is_exact_on_fractions():
    g = Graph(2, [(0, 1)], weights={(0, 1): F(1, 3)})
    assert laplacian_apply(g, [1, 0]) == [F(-1, 3), F(1, 3)]


def test_laplacian_apply_annihilates_constants():
    g = corpus.random_connected_graph(19, 10, 0.3)
    assert laplacian_apply(g, [1] * g.n) == [0] * g.n


# --- the integer walk ---------------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@st.composite
def walk_cases(draw):
    """An unweighted, weighted or two-component graph, a pair and a depth.

    Weights are drawn over 16 prime denominators, so the lcm that scales them
    to integers has many coprime factors.
    """
    kind = draw(st.sampled_from(("unweighted", "weighted", "two_component")))
    n = draw(st.integers(min_value=2, max_value=8))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "two_component":
        cut = draw(st.integers(min_value=1, max_value=n - 1))
        possible = [(u, v) for u, v in possible if (u < cut) == (v < cut)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    weights = None
    if kind == "weighted":
        weights = {
            e: Fraction(draw(st.integers(1, 60)), draw(st.sampled_from(PRIMES)))
            for e in edges
        }
    g = Graph(n, edges, weights=weights)
    x = draw(st.integers(0, n - 1))
    y = draw(st.integers(0, n - 1))
    return g, x, y, draw(st.integers(0, n + 1))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(walk_cases())
def test_walk_vectors_match_fraction_oracle(case):
    g, x, y, depth = case
    us, dens = walk_vectors(g, x, depth)
    assert len(us) == len(dens) == depth + 1
    assert all(type(v) is int for u in us for v in u)
    got = [Fraction(u[y], den) for u, den in zip(us, dens)]
    assert got == corpus.taylor_coefficients_oracle(g, x, y, depth)


def test_walk_vectors_denominators():
    g = Graph(3, [(0, 1), (1, 2)], weights={(0, 1): F(1, 2), (1, 2): F(2, 3)})
    us, dens = walk_vectors(g, 0, 3)
    assert dens == [1, 6, 72, 1296]  # s^k k! with s = lcm(2, 3)
    assert us[1] == [-3, 3, 0]  # 6 * (A - D) e_0
    _, dens = walk_vectors(corpus.path_graph(3), 0, 4)
    assert dens == [1, 1, 2, 6, 24]


def test_walk_vectors_rejects_bad_arguments():
    g = corpus.path_graph(3)
    with pytest.raises(ValueError):
        walk_vectors(g, 0, -1)
    with pytest.raises(ValueError):
        walk_vectors(g, 3, 2)


# --- golden coefficients on the 2x3 grid ------------------------------------


GRID_GOLDEN = [
    # (x_label, y_label, k, value)
    ("a0", "b1", 0, F(0)),
    ("a0", "b1", 1, F(0)),
    ("a0", "b1", 2, F(1)),
    ("a0", "b1", 3, F(-5, 2)),
    ("a0", "b1", 4, F(11, 3)),
    ("a0", "b1", 5, F(-95, 24)),
    ("a0", "b2", 0, F(0)),
    ("a0", "b2", 1, F(0)),
    ("a0", "b2", 2, F(0)),
    ("a0", "b2", 3, F(1, 2)),
    ("a0", "b2", 4, F(-7, 6)),
    ("a0", "b2", 5, F(37, 24)),
    ("a0", "b2", 6, F(-107, 72)),
]


@pytest.mark.parametrize("xl,yl,k,want", GRID_GOLDEN)
def test_grid_coefficients(xl, yl, k, want):
    g = corpus.reference_grid()
    got = kernel_taylor_coefficient(g, g.index_of(xl), g.index_of(yl), k)
    assert got == want
    assert isinstance(got, Fraction)


def test_single_edge_series():
    # off-diagonal (1 - e^{-2t})/2 = t - t^2 + (2/3)t^3 - ...
    g = corpus.complete_graph(2)
    sp = series_prefix(g, 0, 1, 3)
    assert sp == (F(0), F(1), F(-1), F(2, 3))
    # diagonal (1 + e^{-2t})/2 = 1 - t + t^2 - (2/3)t^3 + ...
    assert series_prefix(g, 0, 0, 3) == (F(1), F(-1), F(1), F(-2, 3))


def test_coefficient_symmetry_in_arguments():
    g = corpus.random_weighted_graph(23, 8, 0.4)
    for k in range(5):
        for x in range(0, g.n, 3):
            for y in range(g.n):
                assert kernel_taylor_coefficient(g, x, y, k) == kernel_taylor_coefficient(
                    g, y, x, k
                )


@pytest.mark.parametrize("seed", range(5))
def test_coefficients_match_float_matrix_powers(seed):
    g = corpus.random_connected_graph(800 + seed, 9, 0.35)
    L = kirchhoff_matrix(g).dense
    for k in range(6):
        Mk = np.linalg.matrix_power(L, k)
        for x in range(0, g.n, 4):
            for y in range(g.n):
                want = Mk[x, y] / math.factorial(k)
                got = float(kernel_taylor_coefficient(g, x, y, k))
                assert got == pytest.approx(want, abs=1e-9)


# --- leading order ----------------------------------------------------------


def leading(g: Graph, x: int, y: int) -> tuple[int, F]:
    """The BFS distance d and the Taylor coefficient of order d."""
    d = bfs_profile(g, x).dist[y]
    return d, kernel_taylor_coefficient(g, x, y, d)


def test_leading_order_grid():
    g = corpus.reference_grid()
    a, b, c = g.index_of("a0"), g.index_of("b1"), g.index_of("b2")
    assert leading(g, a, b) == (2, F(1))
    assert leading(g, a, c) == (3, F(1, 2))
    assert leading(g, a, a) == (0, F(1))


def test_leading_order_weighted_path():
    # path with edge weights 2 and 1/3: single geodesic of weight 2/3,
    # so the distance-2 coefficient is (2/3)/2! = 1/3
    g = Graph(3, [(0, 1), (1, 2)], weights={(0, 1): 2, (1, 2): F(1, 3)})
    assert leading(g, 0, 2) == (2, F(1, 3))


def test_leading_order_unreachable_raises():
    # across components p_t(x, y) is identically 0: no order leads
    g = Graph(4, [(0, 1), (2, 3)])
    assert bfs_profile(g, 0).dist[3] is None
    assert all(kernel_taylor_coefficient(g, 0, 3, k) == 0 for k in range(6))
    with pytest.raises(UnreachableError):
        verify_pair(g, 0, 3)


def test_series_prefix_calls_in_any_order_match_oracle():
    # series_prefix keeps its latest walk; a new graph, source or order must
    # not read a stale one.
    g, h = corpus.random_weighted_graph(11, 7, 0.5), corpus.cycle_graph(7)
    for g_, x, y, m in [(g, 0, 3, 4), (g, 0, 5, 4), (h, 0, 3, 4), (g, 0, 3, 5),
                        (g, 2, 3, 4), (g, 0, 3, 4)]:
        got = list(series_prefix(g_, x, y, m))
        assert got == corpus.taylor_coefficients_oracle(g_, x, y, m)


def test_leading_order_walks_only_to_the_distance(monkeypatch):
    steps = []
    real = series_module.scaled_laplacian_apply

    def counting(g, u, rows=None):
        steps.append(g.n if rows is None else len(rows))  # the rows updated
        return real(g, u, rows)

    monkeypatch.setattr(series_module, "scaled_laplacian_apply", counting)
    k = 2000
    two_paths = [(i, i + 1) for i in range(2 * k - 1) if i != k - 1]
    g = Graph(2 * k, two_paths)
    assert kernel_taylor_coefficient(g, 0, 40, 40) == F(1, math.factorial(40))
    assert len(steps) == 40
    assert steps == [1] * 40  # the cone between 0 and 40 on a path: one vertex a step
    steps.clear()
    assert verify_pair(g, 0, 40).d == 40
    assert len(steps) == 41  # one past the distance, for the next coefficient
    assert max(steps) <= 2
    steps.clear()
    with pytest.raises(UnreachableError):
        verify_pair(g, 0, 2 * k - 1)  # no walk step: BFS already decides
    assert steps == []


@pytest.mark.parametrize("seed", range(5))
def test_coefficients_vanish_below_distance_exactly(seed):
    g = corpus.random_connected_graph(900 + seed, 11, 0.3)
    for x in range(0, g.n, 5):
        profile = bfs_profile(g, x)
        for y in range(g.n):
            d = profile.dist[y]
            for k in range(d):
                assert kernel_taylor_coefficient(g, x, y, k) == 0
            lead = kernel_taylor_coefficient(g, x, y, d)
            assert lead == F(profile.geodesic_count[y], math.factorial(d))
            assert lead > 0


def test_bipartite_next_coefficient_is_negative():
    for g in (corpus.cycle_graph(6), corpus.reference_grid(), corpus.grid_graph(3, 3)):
        for x in range(0, g.n, 2):
            for y in range(x + 1, g.n):
                d = bfs_profile(g, x).dist[y]
                assert kernel_taylor_coefficient(g, x, y, d + 1) < 0


# --- prefix evaluation ------------------------------------------------------


def test_prefix_metadata_and_order():
    g = corpus.reference_grid()
    sp = series_prefix(g, 0, 5, 4)
    assert len(sp) == 5


def test_evaluate_is_exact_on_rational_inputs():
    g = corpus.complete_graph(2)
    sp = series_prefix(g, 0, 1, 3)
    t = F(1, 10)
    # t - t^2 + (2/3) t^3 at t = 1/10
    assert corpus.horner(sp, t) == F(1, 10) - F(1, 100) + F(2, 3000)


def test_evaluate_matches_horner_free_sum():
    g = corpus.reference_grid()
    sp = series_prefix(g, 0, 4, 6)
    t = 0.037
    direct = sum(float(c) * t**k for k, c in enumerate(sp))
    assert corpus.horner(sp, t) == pytest.approx(direct, rel=1e-12)


def test_negative_order_rejected():
    g = corpus.path_graph(3)
    with pytest.raises(ValueError):
        series_prefix(g, 0, 1, -1)
    with pytest.raises(ValueError):
        kernel_taylor_coefficient(g, 0, 1, -2)


# --- analytic consistency with the float kernel ------------------------------


def test_prefix_remainder_scales_with_next_power():
    # truncation error after order m behaves like t^{m+1}: shrinking t by 2
    # must shrink the defect by nearly 2^{m+1}
    g = corpus.reference_grid()
    dec = eigendecompose(kirchhoff_matrix(g))
    x, y = g.index_of("a0"), g.index_of("b2")
    m = 5
    sp = series_prefix(g, x, y, m)

    def defect(t: float) -> float:
        return abs(kernel_spectral(dec, t)[x, y] - corpus.horner(sp, t))

    t0 = 0.02
    d1, d2 = defect(t0), defect(t0 / 2)
    assert d1 < abs(float(kernel_taylor_coefficient(g, x, y, m + 1))) * t0 ** (m + 1) * 1.5
    assert d2 < d1 / 2 ** (m + 1) * 1.5


def test_partial_sums_converge_to_kernel_value():
    g = corpus.cycle_graph(5)
    dec = eigendecompose(kirchhoff_matrix(g))
    t = 0.11
    want = kernel_spectral(dec, t)[0, 2]
    got = corpus.horner(series_prefix(g, 0, 2, 30), t)
    assert got == pytest.approx(want, abs=1e-13)
