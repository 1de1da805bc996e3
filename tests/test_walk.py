"""The exact walk with read orders, and verification's use of it.

Every entry a caller reads keeps its exact value whatever read orders it
passes, and all-pairs verification updates each vertex at most twice per
source.  The walk's order-(d+1) entries match their closed form.  This
module imports no numpy.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from graphheat import (
    Graph,
    bfs_profile,
    is_bipartite,
    parse_edge_list,
    series,
    verification,
    walk_vectors,
)
from graphheat.cli import main

pytestmark = pytest.mark.numpy_free


@st.composite
def walks_with_read_orders(draw):
    """A corpus graph (connected, weighted, or split into components, with or
    without weights), a source, a depth and one read order per vertex: drawn
    at random, or ``d(x, y) + 1`` for a random set of targets y."""
    kind = draw(st.sampled_from(("connected", "weighted", "bipartite", "two_grids")))
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(2, 9))
    if kind == "connected":
        g = corpus.random_connected_graph(seed, n, 0.35)
    elif kind == "weighted":
        g = corpus.random_weighted_graph(seed, n, 0.35)
    elif kind == "bipartite":  # often split, with isolated vertices
        g = corpus.random_bipartite_graph(seed, n // 2, n - n // 2, 0.3)
    else:
        g = corpus.interleaved_grids(draw(st.integers(1, 2)), draw(st.integers(1, 3)))
    if g.weights is None and draw(st.booleans()):
        weights = {e: draw(st.sampled_from(corpus.WEIGHT_POOL)) for e in g.edges}
        g = Graph(g.n, g.edges, weights=weights)
    x = draw(st.integers(0, g.n - 1))
    depth = draw(st.integers(0, g.n + 1))
    if draw(st.booleans()):
        last = draw(st.lists(st.integers(-1, depth + 2), min_size=g.n, max_size=g.n))
    else:
        dist = bfs_profile(g, x).dist
        targets = draw(st.sets(st.integers(0, g.n - 1)))
        last = [-1 if d is None or y not in targets else d + 1 for y, d in enumerate(dist)]
    return g, x, depth, last


@settings(deadline=None, max_examples=200, derandomize=True)
@given(walks_with_read_orders())
def test_read_orders_keep_every_read_entry_exact(case):
    g, x, depth, last = case
    us, dens = walk_vectors(g, x, depth, last)
    assert dens == [g.weight_scale**k * math.factorial(k) for k in range(depth + 1)]
    for v in range(g.n):
        full = [c * den for c, den in zip(corpus.taylor_coefficients_oracle(g, x, v, depth), dens)]
        for k, (u, exact) in enumerate(zip(us, full)):
            if k <= last[v]:
                assert u[v] == exact
            else:  # not read: exact, or never updated
                assert u[v] in (0, exact)


def assert_second_order_closed_form(g: Graph) -> None:
    """Every reachable pair's ``(A - D)^{d+1}[x, y]`` off the walk equals
    ``W - S``, and ``W`` vanishes on a bipartite graph."""
    bipartite = is_bipartite(g) is not None
    for x in range(g.n):
        W, S = corpus.second_order_walk_weights(g, x)
        dist = bfs_profile(g, x).dist
        k = max(d for d in dist if d is not None) + 1
        us, dens = walk_vectors(g, x, k)
        for y, d in enumerate(dist):
            if d is None:
                assert W[y] is S[y] is None
                continue
            # us[k][y] / dens[k] = (A - D)^k[x, y] / k!
            assert Fraction(us[d + 1][y] * math.factorial(d + 1), dens[d + 1]) == W[y] - S[y]
            # no edge inside a BFS layer, so (d+1)! c_{d+1} = -S < 0 unless x is isolated
            assert not (bipartite and W[y])


@pytest.mark.parametrize("build", [
    pytest.param(lambda: corpus.grid_graph(6, 6), id="grid6x6"),
    pytest.param(lambda: corpus.random_weighted_gnm(3, 20, 45), id="weighted-gnm"),
    pytest.param(lambda: corpus.complete_graph(5), id="K5"),
    pytest.param(lambda: corpus.cycle_graph(7), id="C7"),
])
def test_second_order_coefficient_closed_form(build):
    assert_second_order_closed_form(build())


@settings(deadline=None, max_examples=100, derandomize=True)
@given(st.one_of(
    corpus.small_factors(),
    st.builds(corpus.product_graph, corpus.small_factors(), corpus.small_factors()),
    st.builds(corpus.interleaved_grids, st.integers(1, 3), st.integers(1, 3)),
))
def test_second_order_closed_form_on_corpus_and_product_graphs(g):
    assert_second_order_closed_form(g)


def test_verify_updates_each_vertex_at_most_twice_per_source(capsys, tmp_path, monkeypatch):
    g = corpus.grid_graph(12, 12)
    p = tmp_path / "grid12.txt"
    p.write_text(corpus.edge_list_text(g), encoding="utf-8")
    rows_per_source = []
    real_apply, real_walk = series.scaled_laplacian_apply, verification.walk_vectors

    def counting(g, u, rows=None):
        rows_per_source[-1] += g.n if rows is None else len(rows)
        return real_apply(g, u, rows)

    def new_source(*args):
        rows_per_source.append(0)
        return real_walk(*args)

    monkeypatch.setattr(series, "scaled_laplacian_apply", counting)
    monkeypatch.setattr(verification, "walk_vectors", new_source)
    assert main(["verify", "--graph", str(p)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + g.n * (g.n - 1) // 2
    assert len(rows_per_source) == g.n - 1
    assert max(rows_per_source) <= 2 * g.n


def _verify_rows(capsys, path: str) -> tuple[int, list[list[str]]]:
    code = main(["verify", "--graph", path])
    return code, [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]


def test_a_wrong_distance_fails_its_row(capsys, tmp_path, monkeypatch):
    # The walk reads y exactly up to whatever order the distance asks for, so
    # a distance off by one reads a zero or the wrong coefficient as leading,
    # and that pair's row, and only it, fails.
    text = corpus.edge_list_text(corpus.random_weighted_graph(5, 10, 0.35))
    p = tmp_path / "w10.txt"
    p.write_text(text, encoding="utf-8")
    g = parse_edge_list(text)  # vertices numbered as verify numbers them
    code, want = _verify_rows(capsys, str(p))
    assert code == 0
    real = verification.bfs_profile
    dist = real(g, 0).dist
    y = max(range(g.n), key=dist.__getitem__)
    row = next(i for i, r in enumerate(want) if r[:2] == [g.labels[0], g.labels[y]])
    d = dist[y]
    assert d >= 2
    for shift in (1, -1):

        def shifted(g_, x, shift=shift):
            profile = real(g_, x)
            if x != 0:
                return profile
            wrong = list(profile.dist)
            wrong[y] += shift
            return profile._replace(dist=tuple(wrong))

        monkeypatch.setattr(verification, "bfs_profile", shifted)
        code, got = _verify_rows(capsys, str(p))
        assert code == 1
        assert [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == [row]
        assert got[row][2] == str(d + shift)
        assert "fail" in got[row][8:10]
        leading, after = want[row][4:6], want[row][6:8]
        if shift == 1:  # reads c_(d+1) as leading
            assert got[row][4:6] == after
            assert got[row][8] == "fail"  # c_d is not 0
        else:  # reads c_(d-1) = 0 as leading and c_d next
            assert got[row][4:8] == ["0", "1", *leading]


def test_a_positive_next_coefficient_fails_the_bipartite_sign(capsys, tmp_path, monkeypatch):
    # on a bipartite graph the order-(d+1) coefficient is negative; negated,
    # it makes only the sign verdict fail
    p = tmp_path / "path.txt"
    p.write_text("a b\nb c\n", encoding="utf-8")
    real = verification.walk_vectors

    def negated(g, x, depth, last):
        us, dens = real(g, x, depth, last)
        us[depth] = [-v for v in us[depth]]  # depth is d + 1 for the one target
        return us, dens

    monkeypatch.setattr(verification, "walk_vectors", negated)
    assert main(["verify", "--graph", str(p), "--pair", "a", "c"]) == 1
    assert capsys.readouterr().out.splitlines()[1] == "a,c,2,1,1,2,2,3,pass,pass,fail"


@pytest.mark.parametrize("call, message", [
    (lambda g: series.laplacian_apply(g, [1, 0]), "vector length 2 != vertex count 3"),
    (lambda g: walk_vectors(g, 0, 2, last=[2, 2]), "2 read orders for 3 vertices"),
    (lambda g: series.series_prefix(g, 0, 3, 2), "vertex pair (0, 3) out of range for 3 vertices"),
    (lambda g: series.kernel_taylor_coefficient(g, -1, 0, 1),
     "vertex pair (-1, 0) out of range for 3 vertices"),
], ids=["laplacian-apply", "walk-last", "series-prefix", "taylor-coefficient"])
def test_walk_inputs_of_the_wrong_size_rejected(call, message):
    with pytest.raises(ValueError) as exc_info:
        call(corpus.path_graph(3))
    assert str(exc_info.value) == message
