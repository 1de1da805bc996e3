"""Cartesian products as an exact oracle for the exact layer.

On ``G □ H`` the matrix ``A - D`` is the Kronecker sum of the factors'
matrices, so distances add, geodesics multiply, the Taylor coefficients of
``p_t`` are the Cauchy product of the factors' coefficients, and the product
is bipartite exactly when both factors are.  Every check here is exact.
The CLI's exact reports are checked on them too: renumbering the vertices
only reorders the rows.  This module imports no numpy.
"""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from graphheat import bfs_profile, is_bipartite, series_prefix, verify_graph
from graphheat.cli import main

pytestmark = pytest.mark.numpy_free

factors = corpus.small_factors()


def test_product_graph_numbers_the_pair_a_b_as_a_times_h_n_plus_b():
    g = corpus.path_graph(2)
    h = corpus.small_factor("path", 3, 0, weighted=True)
    gh = corpus.product_graph(g, h)
    assert gh.n == 6
    assert set(gh.edges) == {(0, 3), (1, 4), (2, 5), (0, 1), (1, 2), (3, 4), (4, 5)}
    for a in range(2):
        assert gh.weights[(3 * a, 3 * a + 1)] == h.weights[(0, 1)]
        assert gh.weights[(3 * a + 1, 3 * a + 2)] == h.weights[(1, 2)]
    assert all(gh.weights[(b, 3 + b)] == 1 for b in range(3))
    assert corpus.product_graph(g, g).weights is None


@settings(deadline=None, max_examples=100, derandomize=True)
@given(factors, factors, st.data())
def test_product_distances_add_and_geodesics_multiply(g, h, data):
    gh = corpus.product_graph(g, h)
    a, b = data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, h.n - 1))
    pg, ph, pgh = bfs_profile(g, a), bfs_profile(h, b), bfs_profile(gh, a * h.n + b)
    for a2 in range(g.n):
        for b2 in range(h.n):
            y = a2 * h.n + b2
            d1, d2 = pg.dist[a2], ph.dist[b2]
            if d1 is None or d2 is None:
                assert (pgh.dist[y], pgh.geodesic_count[y], pgh.geodesic_weight[y]) == (None, 0, 0)
                continue
            paths = math.comb(d1 + d2, d1)
            assert pgh.dist[y] == d1 + d2
            assert pgh.geodesic_count[y] == paths * pg.geodesic_count[a2] * ph.geodesic_count[b2]
            assert pgh.geodesic_weight[y] == (
                paths * pg.geodesic_weight[a2] * ph.geodesic_weight[b2]
            )


@settings(deadline=None, max_examples=100, derandomize=True)
@given(factors, factors, st.integers(0, 6), st.data())
def test_product_series_is_the_cauchy_product_of_the_factors(g, h, order, data):
    gh = corpus.product_graph(g, h)
    a, a2 = (data.draw(st.integers(0, g.n - 1)) for _ in range(2))
    b, b2 = (data.draw(st.integers(0, h.n - 1)) for _ in range(2))
    cg = series_prefix(g, a, a2, order)
    ch = series_prefix(h, b, b2, order)
    want = tuple(sum(cg[i] * ch[k - i] for i in range(k + 1)) for k in range(order + 1))
    assert series_prefix(gh, a * h.n + b, a2 * h.n + b2, order) == want


@settings(deadline=None, max_examples=100, derandomize=True)
@given(factors, factors)
def test_product_is_bipartite_iff_both_factors_are(g, h):
    both = is_bipartite(g) is not None and is_bipartite(h) is not None
    assert (is_bipartite(corpus.product_graph(g, h)) is not None) == both


@settings(deadline=None, max_examples=40, derandomize=True)
@given(factors, factors)
def test_product_verifies_every_pair(g, h):
    gh = corpus.product_graph(g, h)
    summary = verify_graph(gh)
    assert all(r.passed for r in summary.reports)
    assert len(summary.reports) + len(summary.skipped) == gh.n * (gh.n - 1) // 2


def _rows_by_label_pair(subcommand: str, text: str, rename: dict[str, str]):
    """Exit status, header and the rows of one call, each row's label pair
    renamed and sorted, so that rows compare whatever order they print in."""
    with tempfile.TemporaryDirectory() as tmp:
        graph, report = Path(tmp) / "graph.txt", Path(tmp) / "report.csv"
        graph.write_text(text, encoding="utf-8")
        code = main([subcommand, "--graph", str(graph), "--output", str(report)])
        header, *lines = report.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines:
        x, y, *rest = line.split(",")
        rows.append((*sorted((rename.get(x, x), rename.get(y, y))), *rest))
    return code, header, sorted(rows)


@settings(deadline=None, max_examples=30, derandomize=True)
@given(factors, factors, st.randoms(use_true_random=False))
def test_relabelling_permutes_the_rows(g, h, rnd):
    # New names in shuffled lines, each edge either way round, renumber the
    # vertices (they are numbered in first-appearance order), so the rows
    # print in another order; keyed by the unordered label pair, each keeps
    # its values.  bipartite is left out: each component's lowest index gets
    # colour 0, so its classes may swap.
    gh = corpus.product_graph(g, h)
    names = [f"v{i}" for i in range(gh.n)]
    rnd.shuffle(names)
    lines = []
    for u, v in gh.edges:
        a, b = (names[u], names[v]) if rnd.random() < 0.5 else (names[v], names[u])
        lines.append(f"{a} {b}" + ("" if gh.weights is None else f" {gh.weights[(u, v)]}"))
    rnd.shuffle(lines)
    relabelled = "".join(f"{line}\n" for line in lines)
    text = corpus.edge_list_text(gh)  # the labels are the vertex numbers
    rename = {str(u): name for u, name in enumerate(names)}
    for subcommand in ("series", "verify", "paths"):
        assert _rows_by_label_pair(subcommand, relabelled, {}) == (
            _rows_by_label_pair(subcommand, text, rename)
        )
