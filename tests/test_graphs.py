"""Graph construction, parsing, BFS geodesic counting, bipartiteness."""

import math
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import graphheat
from graphheat import (
    DuplicateEdgeError,
    Graph,
    ParseError,
    SelfLoopError,
    UnknownVertexError,
    WeightError,
    bfs_profile,
    is_bipartite,
    parse_edge_list,
)
from graphheat import graphs

# Only the two numpy-backed records of the contract test need numpy; they
# skip without it.
pytestmark = pytest.mark.numpy_free


# --- parsing ----------------------------------------------------------------


def test_parse_path_p3():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.labels == ("0", "1", "2")
    assert not g.is_weighted


def test_parse_reference_grid():
    g = corpus.reference_grid()
    assert g.n == 6
    assert len(g.edges) == 7
    assert g.labels == ("a0", "a1", "a2", "b0", "b1", "b2")


def test_labels_numbered_in_first_appearance_order():
    g = parse_edge_list("b a\nc b\na d")
    assert g.labels == ("b", "a", "c", "d")


def test_unknown_label_raises_dedicated_error():
    g = parse_edge_list("b a\nc b")
    assert g.index_of("c") == 2
    with pytest.raises(UnknownVertexError) as info:
        g.index_of("zz")
    assert info.value.label == "zz"
    assert str(info.value) == "unknown vertex label 'zz'"


def test_comments_and_blank_lines_skipped():
    text = "# header\n\n0 1  # trailing comment\n   \n1 2\n"
    g = parse_edge_list(text)
    assert g.n == 3
    assert len(g.edges) == 2


def test_one_leading_byte_order_mark_is_dropped():
    # Windows editors start a UTF-8 file with U+FEFF; it is not part of a label
    g = parse_edge_list("\ufeffa b\nb c\n")
    assert g.labels == ("a", "b", "c")
    assert g.edges == parse_edge_list("a b\nb c\n").edges


@pytest.mark.parametrize(
    "text, labels",
    [
        ("a b\n\ufeffb c\n", ("a", "b", "\ufeffb", "c")),
        ("a \ufeffb\n", ("a", "\ufeffb")),
        ("\ufeff\ufeffa b\n", ("\ufeffa", "b")),
    ],
    ids=["second-line", "second-label", "second-mark"],
)
def test_a_byte_order_mark_elsewhere_stays_in_its_label(text, labels):
    assert parse_edge_list(text).labels == labels


def test_weights_parsed_exactly():
    # decimal literals go through exact decimal parsing, not binary floats
    g = parse_edge_list("a b 1.5\nb c 3/2\nc d 2\nd e\n")
    assert g.is_weighted
    assert g.weights[(0, 1)] == Fraction(3, 2)
    assert g.weights[(1, 2)] == Fraction(3, 2)
    assert g.weights[(2, 3)] == Fraction(2)
    assert g.weights[(3, 4)] == Fraction(1)  # missing weight defaults to 1


def test_each_weight_literal_is_parsed_once(monkeypatch):
    texts = []

    class Counting(Fraction):
        def __new__(cls, value=0, *args):
            if isinstance(value, str):
                texts.append(value)
            return Fraction(value, *args)

    monkeypatch.setattr(graphs, "Fraction", Counting)
    literals = ["1/2", "2.5", "7"]
    text = "".join(f"v{i} v{i + 1} {literals[i % 3]}\n" for i in range(1000))
    g = parse_edge_list(text)
    assert texts == literals
    assert [g.weights[(i, i + 1)] for i in range(1000)] == [
        Fraction(literals[i % 3]) for i in range(1000)
    ]
    # the first line of a bad literal is the one reported
    bad = "a b 2\nb c 3\nc d 0\nd e 2\ne f 3\nf g 2\ng h 0\n"
    with pytest.raises(WeightError, match="must be positive") as exc_info:
        parse_edge_list(bad)
    assert exc_info.value.line == 3


def test_parse_self_loop_rejected_with_line():
    with pytest.raises(SelfLoopError) as exc_info:
        parse_edge_list("0 1\nx x\n")
    assert exc_info.value.line == 2


def test_parse_duplicate_edge_rejected_either_orientation():
    with pytest.raises(DuplicateEdgeError) as exc_info:
        parse_edge_list("a b\nb a\n")
    assert exc_info.value.line == 2


@pytest.mark.parametrize("bad", ["a", "a b c d", "lonely"])
def test_parse_malformed_line(bad):
    with pytest.raises(ParseError):
        parse_edge_list(bad)


@pytest.mark.parametrize("w", ["0", "-1", "-3/2", "abc", "1/0"])
def test_parse_bad_weight(w):
    with pytest.raises(WeightError) as exc_info:
        parse_edge_list(f"a b {w}\n")
    assert exc_info.value.line == 1


@pytest.mark.parametrize(
    "w, message",
    [
        ("1e999999999", "edge weight 1e999999999 is not a positive finite float"),
        ("0.5E-999999999", "edge weight 0.5E-999999999 is not a positive finite float"),
        ("0e999999999", "edge weight must be positive, got 0e999999999"),
        ("-2e999999999", "edge weight must be positive, got -2e999999999"),
        ("1/2e999999999", "cannot parse weight '1/2e999999999'"),
    ],
)
def test_parse_huge_weight_exponent_rejected_fast(w, message):
    # Fraction builds 10**999999999 first: this once took minutes per line
    start = time.perf_counter()
    with pytest.raises(WeightError) as exc_info:
        parse_edge_list(f"a b\nb c {w}\n")
    assert time.perf_counter() - start < 1.0
    assert str(exc_info.value) == f"line 2: {message}"


@pytest.mark.parametrize(
    "w, kept",
    [("1e308", True), ("0.001e311", True), ("30000e-328", True), ("+2.5E-3", True),
     ("1e310", False), ("0000001e316", False), ("1e-324", False), ("10000e-329", False)],
)
def test_parse_weight_exponent_near_the_bound(w, kept):
    # each exponent is within the bound, so Fraction reads it as before
    if kept:
        assert parse_edge_list(f"a b {w}\n").weights[(0, 1)] == Fraction(w)
    else:
        with pytest.raises(WeightError, match="is not a positive finite float"):
            parse_edge_list(f"a b {w}\n")


def test_parse_empty_text_gives_empty_graph():
    g = parse_edge_list("# nothing but comments\n")
    assert g.n == 0
    assert g.edges == ()


# --- construction -----------------------------------------------------------


def test_constructor_rejects_out_of_range_edge():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_constructor_rejects_self_loop():
    # the parser rejects a self-loop first, so only a direct call reaches this
    with pytest.raises(SelfLoopError, match="^self-loop at vertex 'b'$") as exc_info:
        Graph(3, [(0, 1), (1, 1)], labels=["a", "b", "c"])
    assert exc_info.value.line is None


@pytest.mark.parametrize("edges", [[(0, 2), (0, 2)], [(0, 2), (2, 0)], [(2, 0), (0, 2)]])
def test_constructor_rejects_duplicate_edge_either_orientation(edges):
    with pytest.raises(DuplicateEdgeError, match="^duplicate edge 'a' -- 'c'$") as exc_info:
        Graph(3, edges, labels=["a", "b", "c"])
    assert exc_info.value.line is None


def test_constructor_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        Graph(2, [], labels=["x", "x"])


def test_constructor_rejects_nonpositive_weight():
    with pytest.raises(WeightError):
        Graph(2, [(0, 1)], weights={(0, 1): Fraction(-1, 2)})


@pytest.mark.parametrize(
    "weights",
    [
        pytest.param({(0, 1): Fraction(1, 10**400)}, id="weight-underflows"),
        pytest.param({(0, 1): Fraction(10**400)}, id="weight-overflows"),
        pytest.param({(0, 1): 10**308, (1, 2): 10**308}, id="degree-overflows"),
    ],
)
def test_constructor_rejects_weights_the_float_engines_cannot_see(weights):
    with pytest.raises(WeightError, match="'0' -- '1'|vertex '1'"):
        Graph(3, [(0, 1), (1, 2)], weights=weights)


def test_constructor_accepts_weighted_graph_without_edges():
    g = Graph(2, [], weights={})
    assert g.is_weighted
    assert g.max_weighted_degree() == 0.0


def test_constructor_rejects_weight_on_missing_edge():
    with pytest.raises(WeightError):
        Graph(3, [(0, 1)], weights={(1, 2): 1})


def test_degrees():
    g = corpus.reference_grid()
    a0, a1 = g.index_of("a0"), g.index_of("a1")
    assert sum(a0 in e for e in g.edges) == 2
    assert sum(a1 in e for e in g.edges) == 3
    assert g.weighted_degree(a1) == 3


def test_weighted_degree_sums_fractions():
    g = Graph(3, [(0, 1), (0, 2)], weights={(0, 1): Fraction(1, 3), (0, 2): Fraction(1, 2)})
    assert g.weighted_degree(0) == Fraction(5, 6)
    assert g.max_weighted_degree() == pytest.approx(5 / 6)


# --- BFS profiles -----------------------------------------------------------


def test_grid_golden_distances_and_counts():
    g = corpus.reference_grid()
    a, b, c = g.index_of("a0"), g.index_of("b1"), g.index_of("b2")
    profile = bfs_profile(g, a)
    # two geodesics of length 2 to the middle of the far row,
    # three geodesics of length 3 to the far corner
    assert profile.dist[b] == 2 and profile.geodesic_count[b] == 2
    assert profile.dist[c] == 3 and profile.geodesic_count[c] == 3


def test_source_is_its_own_single_geodesic():
    g = corpus.path_graph(4)
    profile = bfs_profile(g, 2)
    assert profile.dist[2] == 0
    assert profile.geodesic_count[2] == 1
    assert profile.geodesic_weight[2] == 1


def test_unreachable_vertices_get_none_and_zero():
    g = Graph(4, [(0, 1), (2, 3)])
    profile = bfs_profile(g, 0)
    assert profile.dist[2] is None and profile.dist[3] is None
    assert profile.geodesic_count[2] == 0
    assert profile.geodesic_weight[3] == 0


def test_geodesic_weight_multiplies_edge_weights():
    # path 0-1-2 with weights 2 and 1/3: the single geodesic weighs 2/3
    g = Graph(3, [(0, 1), (1, 2)], weights={(0, 1): 2, (1, 2): Fraction(1, 3)})
    profile = bfs_profile(g, 0)
    assert profile.geodesic_weight[2] == Fraction(2, 3)
    assert profile.geodesic_count[2] == 1


def test_geodesic_weight_sums_over_parallel_geodesics():
    # square with all weights 1/2: two geodesics 0-1-3 and 0-2-3, each 1/4
    g = Graph(
        4,
        [(0, 1), (0, 2), (1, 3), (2, 3)],
        weights={e: Fraction(1, 2) for e in [(0, 1), (0, 2), (1, 3), (2, 3)]},
    )
    profile = bfs_profile(g, 0)
    assert profile.dist[3] == 2
    assert profile.geodesic_count[3] == 2
    assert profile.geodesic_weight[3] == Fraction(1, 2)


def test_unweighted_geodesic_weight_equals_count():
    g = corpus.random_connected_graph(7, 18, 0.2)
    profile = bfs_profile(g, 3)
    assert profile.geodesic_weight == profile.geodesic_count


def test_eccentricity():
    g = corpus.path_graph(5)
    assert bfs_profile(g, 0).dist == (0, 1, 2, 3, 4)
    assert bfs_profile(g, 2).dist == (2, 1, 0, 1, 2)


# --- adjacency powers -------------------------------------------------------


def walk_count_oracle(g: Graph, k: int, x: int, y: int):
    """Brute-force walk enumeration, independent of the matrix recursion."""
    if k == 0:
        return 1 if x == y else 0
    nbrs: list[list] = [[] for _ in range(g.n)]
    for a, b in g.edges:
        w = 1 if g.weights is None else g.weights[(a, b)]
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    total = 0
    stack = [(x, 0, 1)]
    while stack:
        v, steps, acc = stack.pop()
        if steps == k:
            if v == y:
                total += acc
            continue
        for nbr, w in nbrs[v]:
            stack.append((nbr, steps + 1, acc * w))
    return total


def test_power_zero_is_identity():
    g = corpus.cycle_graph(5)
    assert corpus.adjacency_power_entry(g, 0, 2, 2) == 1
    assert corpus.adjacency_power_entry(g, 0, 2, 3) == 0


def test_grid_walk_counts_match_geodesics():
    g = corpus.reference_grid()
    a, b, c = g.index_of("a0"), g.index_of("b1"), g.index_of("b2")
    assert corpus.adjacency_power_entry(g, 2, a, b) == 2
    assert corpus.adjacency_power_entry(g, 3, a, c) == 3


@pytest.mark.parametrize("seed", range(6))
def test_adjacency_power_matches_brute_enumeration(seed):
    g = corpus.random_connected_graph(100 + seed, 7, 0.4)
    for k in range(4):
        for x in range(g.n):
            for y in range(g.n):
                assert corpus.adjacency_power_entry(g, k, x, y) == walk_count_oracle(g, k, x, y)


def test_weighted_adjacency_power_matches_brute_enumeration():
    g = corpus.random_weighted_graph(11, 6, 0.5)
    for k in range(4):
        for x in range(g.n):
            for y in range(g.n):
                assert corpus.adjacency_power_entry(g, k, x, y) == walk_count_oracle(g, k, x, y)


@pytest.mark.parametrize("seed", range(8))
def test_walks_below_distance_vanish_and_count_at_distance(seed):
    g = corpus.random_connected_graph(200 + seed, 16, 0.25)
    for x in range(0, g.n, 5):
        profile = bfs_profile(g, x)
        for y in range(g.n):
            d = profile.dist[y]
            for k in range(d):
                assert corpus.adjacency_power_entry(g, k, x, y) == 0
            assert corpus.adjacency_power_entry(g, d, x, y) == profile.geodesic_count[y]


def test_bipartite_parity_forces_zero_walks():
    g = corpus.cycle_graph(6)  # even cycle is bipartite
    # walks between opposite-parity vertices need an odd number of steps
    assert corpus.adjacency_power_entry(g, 2, 0, 1) == 0
    assert corpus.adjacency_power_entry(g, 4, 0, 3) == 0
    # distance 3, reached both ways around the cycle
    assert corpus.adjacency_power_entry(g, 3, 0, 3) == 2


def test_geodesic_counts_stay_exact_past_64_bits():
    # corner-to-corner geodesics in a k x k grid are lattice paths:
    # the central binomial coefficient, which overflows int64 by k = 35
    g = corpus.grid_graph(35, 35)
    profile = bfs_profile(g, 0)
    corner = g.n - 1
    assert profile.dist[corner] == 68
    assert profile.geodesic_count[corner] == math.comb(68, 34)
    assert profile.geodesic_count[corner] > 2**63


# --- bipartiteness ----------------------------------------------------------


def test_grid_two_coloring():
    g = corpus.reference_grid()
    colors = is_bipartite(g)
    assert colors is not None
    assert sum(colors) == 3  # classes of size 3 and 3
    for u, v in g.edges:
        assert colors[u] != colors[v]


def test_odd_cycle_is_not_bipartite():
    assert is_bipartite(corpus.cycle_graph(5)) is None
    assert is_bipartite(corpus.complete_graph(3)) is None


def test_single_vertex_and_edgeless_are_bipartite():
    assert is_bipartite(Graph(1)) == (0,)
    assert is_bipartite(Graph(3)) == (0, 0, 0)


def test_each_component_colored_from_lowest_index():
    g = Graph(4, [(0, 1), (2, 3)])
    assert is_bipartite(g) == (0, 1, 0, 1)


# --- model properties -------------------------------------------------------


@st.composite
def small_graphs_with_permutation(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    perm = draw(st.permutations(range(n)))
    return n, edges, perm


@settings(deadline=None, max_examples=60)
@given(small_graphs_with_permutation())
def test_bfs_is_invariant_under_relabeling(data):
    n, edges, perm = data
    g = Graph(n, edges)
    h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    for x in range(n):
        pg = bfs_profile(g, x)
        ph = bfs_profile(h, perm[x])
        for y in range(n):
            assert pg.dist[y] == ph.dist[perm[y]]
            assert pg.geodesic_count[y] == ph.geodesic_count[perm[y]]


# --- result records -----------------------------------------------------------

_REPORT_FIELDS = dict(
    x="a", y="c", d=2, n_geodesics=Fraction(3, 2), leading=Fraction(3, 4),
    next_coeff=Fraction(-1, 2), vanish_ok="pass", leading_ok="pass", bipartite_sign="na",
)
_RECORDS = [
    ("DistanceProfile", dict(
        dist=(0, 1, None), geodesic_count=(1, 1, 0), geodesic_weight=(1, Fraction(1, 2), 0),
    )),
    ("VaradhanReport", _REPORT_FIELDS),
    ("VerificationSummary", dict(
        reports=(graphheat.VaradhanReport(**_REPORT_FIELDS),), skipped=(("a", "z"),),
    )),
    ("DistanceEstimate", dict(d_hat=2, n_hat=3, t_used=0.025, exponent_trace=(1.9, 2.0, 2.0))),
    # arrays are unhashable, so the numeric records hold tuples here
    ("KirchhoffMatrix", dict(dense=((-1.0, 1.0), (1.0, -1.0)))),
    ("SpectralDecomposition", dict(mu=(0.0, -2.0), V=((0.5, 0.5), (0.5, -0.5)))),
]


@pytest.mark.parametrize("name, fields", _RECORDS, ids=[name for name, _ in _RECORDS])
def test_records_keep_their_contract(name, fields):
    if name in ("KirchhoffMatrix", "SpectralDecomposition"):
        pytest.importorskip("numpy")
    cls = getattr(graphheat, name)
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert cls(*list(fields.values())[:-1], "other") != a
    assert pickle.loads(pickle.dumps(a)) == a
    assert tuple(a) == tuple(fields.values())
    text = repr(a)
    assert text.startswith(f"{name}(")
    for field, value in fields.items():
        assert getattr(a, field) == value
        assert f"{field}={value!r}" in text
        with pytest.raises(AttributeError):
            setattr(a, field, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(TypeError):
        cls(**fields, extra=1)
    with pytest.raises(TypeError):
        cls(*list(fields.values())[:-1])
