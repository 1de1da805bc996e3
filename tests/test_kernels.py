"""Heat kernel engines: spectral synthesis and uniformized Poisson series."""

import importlib
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
import graphheat
from graphheat import (
    Graph,
    eigendecompose,
    kernel_spectral,
    kernel_uniformization,
    kirchhoff_matrix,
)
from graphheat import kernels
from graphheat.cli import main

TS = (0.01, 0.1, 1.0, 5.0)


def spectral(g: Graph, t: float) -> np.ndarray:
    return kernel_spectral(eigendecompose(kirchhoff_matrix(g)), t)


# --- closed forms -----------------------------------------------------------


def edge_kernel_exact(t: float) -> np.ndarray:
    # single edge: p_t(x,x) = (1 + e^{-2t})/2, p_t(x,y) = (1 - e^{-2t})/2
    s = math.exp(-2.0 * t)
    return 0.5 * np.array([[1 + s, 1 - s], [1 - s, 1 + s]])


def path3_kernel_exact(t: float) -> np.ndarray:
    # eigenvalues {0, -1, -3} with eigenvectors (1,1,1), (1,0,-1), (1,-2,1)
    e1, e3 = math.exp(-t), math.exp(-3.0 * t)
    k00 = 1 / 3 + e1 / 2 + e3 / 6
    k01 = 1 / 3 - e3 / 3
    k02 = 1 / 3 - e1 / 2 + e3 / 6
    k11 = 1 / 3 + 2 * e3 / 3
    return np.array([[k00, k01, k02], [k01, k11, k01], [k02, k01, k00]])


@pytest.mark.parametrize("t", TS)
def test_single_edge_closed_form(t):
    g = corpus.complete_graph(2)
    want = edge_kernel_exact(t)
    np.testing.assert_allclose(spectral(g, t), want, atol=1e-14)
    np.testing.assert_allclose(kernel_uniformization(g, t), want, atol=1e-12)


@pytest.mark.parametrize("t", TS)
def test_path3_closed_form(t):
    g = corpus.path_graph(3)
    want = path3_kernel_exact(t)
    np.testing.assert_allclose(spectral(g, t), want, atol=1e-13)
    np.testing.assert_allclose(kernel_uniformization(g, t), want, atol=1e-12)


def test_t_zero_is_exact_identity_both_engines():
    g = corpus.random_connected_graph(42, 9, 0.4)
    assert np.array_equal(spectral(g, 0.0), np.eye(g.n))
    assert np.array_equal(kernel_uniformization(g, 0.0), np.eye(g.n))


def test_edgeless_graph_is_identity_at_any_time():
    g = Graph(4)
    assert np.array_equal(kernel_uniformization(g, 7.5), np.eye(4))
    assert np.array_equal(spectral(g, 7.5), np.eye(4))


# --- engine agreement and semigroup structure -------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_engines_agree(seed):
    g = corpus.random_connected_graph(600 + seed, 6 + 3 * seed, 0.35)
    for t in TS:
        a = spectral(g, t)
        b = kernel_uniformization(g, t)
        np.testing.assert_allclose(a, b, atol=5e-12)


def test_engines_agree_weighted():
    g = corpus.random_weighted_graph(8, 9, 0.4)
    for t in (0.05, 0.7):
        np.testing.assert_allclose(
            spectral(g, t), kernel_uniformization(g, t), atol=5e-12
        )


@pytest.mark.parametrize("t", (0.05, 0.4, 1.3))
def test_semigroup_property(t):
    g = corpus.random_connected_graph(17, 11, 0.3)
    k1 = spectral(g, t)
    k2 = spectral(g, 2 * t)
    np.testing.assert_allclose(k1 @ k1, k2, atol=1e-12)


def test_time_derivative_matches_generator():
    # centered difference of K(t) approaches L K(t); halving h should shrink
    # the defect by about 4x (second-order stencil)
    g = corpus.reference_grid()
    L = kirchhoff_matrix(g).dense
    dec = eigendecompose(kirchhoff_matrix(g))
    t = 0.3
    want = L @ kernel_spectral(dec, t)

    def defect(h: float) -> float:
        diff = (kernel_spectral(dec, t + h) - kernel_spectral(dec, t - h)) / (2 * h)
        return float(np.max(np.abs(diff - want)))

    d1, d2 = defect(1e-3), defect(5e-4)
    assert d1 < 1e-5
    assert d2 < d1 / 2.5


# --- stochastic structure ---------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_rows_sum_to_one_and_entries_nonnegative(seed):
    g = corpus.random_connected_graph(700 + seed, 8 + 5 * seed, 0.3)
    for t in TS:
        for K in (spectral(g, t), kernel_uniformization(g, t)):
            np.testing.assert_allclose(K.sum(axis=1), np.ones(g.n), atol=1e-10)
            assert K.min() >= -1e-12


def test_kernel_is_symmetric():
    g = corpus.random_connected_graph(31, 13, 0.3)
    for t in (0.1, 2.0):
        K = kernel_uniformization(g, t)
        np.testing.assert_array_equal(K, K.T)
        S = spectral(g, t)
        np.testing.assert_array_equal(S, S.T)


def test_cross_component_entries_vanish():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    K = kernel_uniformization(g, 1.0)
    assert K[0, 3] == 0.0 and K[2, 4] == 0.0
    S = spectral(g, 1.0)
    assert abs(S[0, 3]) < 1e-14 and abs(S[2, 4]) < 1e-14


def test_diffusion_spreads_monotonically_on_path():
    g = corpus.path_graph(7)
    p_small = spectral(g, 0.1)[0, 6]
    p_big = spectral(g, 2.0)[0, 6]
    assert 0 <= p_small < p_big < 1


# --- uniformization internals -----------------------------------------------


def test_large_time_splitting_path():
    # star with 11 leaves: rate c = 11, so t = 30 forces the factored route
    # (poisson mean capped at 200); answer must still match the spectral engine
    g = corpus.star_graph(11)
    t = 30.0
    np.testing.assert_allclose(
        kernel_uniformization(g, t), spectral(g, t), atol=1e-11
    )


def test_eps_controls_truncation_depth():
    # far-apart pair at small t: a loose tolerance truncates the series before
    # any walk reaches, a strict one keeps the (tiny but positive) mass
    g = corpus.path_graph(8)
    t = 1e-3
    loose = kernel_uniformization(g, t, eps=1e-12)[0, 7]
    strict = kernel_uniformization(g, t, eps=1e-250)[0, 7]
    assert loose == 0.0
    assert strict > 0.0
    # leading Taylor term: t^7/7! for the single geodesic of length 7
    lead = t**7 / math.factorial(7)
    assert strict == pytest.approx(lead, rel=1e-3)


def test_eps_must_be_positive():
    g = corpus.path_graph(3)
    with pytest.raises(ValueError):
        kernel_uniformization(g, 0.5, eps=0.0)


def test_negative_time_rejected():
    g = corpus.path_graph(3)
    with pytest.raises(ValueError):
        kernel_uniformization(g, -1.0)
    with pytest.raises(ValueError):
        kernel_spectral(eigendecompose(kirchhoff_matrix(g)), -0.5)


def test_uniformization_caps_c_times_t():
    # path of 3: largest weighted degree c = 2, so t = 5000 is the largest
    # accepted c*t = 1e4 (50 semigroup factors), near the limit 1/3 everywhere
    g = corpus.path_graph(3)
    np.testing.assert_allclose(kernel_uniformization(g, 5000.0), 1 / 3, atol=1e-9)
    with pytest.raises(ValueError, match="largest weighted degree 2.0 times t = 5000.5"):
        kernel_uniformization(g, 5000.5)


def test_uniformization_builds_the_kirchhoff_matrix_once_per_graph(monkeypatch):
    calls = []
    real = kernels.kirchhoff_matrix

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(kernels, "kirchhoff_matrix", counting)
    g = corpus.random_weighted_graph(1, 12, 0.3)
    kept = [kernel_uniformization(g, t) for t in TS]
    assert calls == [g]
    # the kept matrix gives the same bits as one built afresh for an equal graph
    for t, K in zip(TS, kept):
        fresh = corpus.random_weighted_graph(1, 12, 0.3)
        assert np.array_equal(kernel_uniformization(fresh, t), K)
    assert len(calls) == 1 + len(TS)


def two_component_graph() -> Graph:
    a = corpus.random_connected_graph(5, 7, 0.4)
    b = corpus.random_weighted_graph(6, 6, 0.5)
    edges = [*a.edges, *((u + a.n, v + a.n) for u, v in b.edges)]
    weights = {
        **{e: 1 for e in a.edges},
        **{(u + a.n, v + a.n): w for (u, v), w in b.weights.items()},
    }
    return Graph(a.n + b.n, edges, weights=weights)


_ROW_BLOCK_CASES = [
    # (graph builder, times); star_graph(11) has c = 11, so t = 30 gives
    # c*t = 330, two semigroup factors
    pytest.param(lambda: corpus.random_connected_graph(41, 14, 0.3), (0.0, 0.1, 2.0),
                 id="unweighted"),
    pytest.param(lambda: corpus.random_weighted_graph(42, 12, 0.35), (0.05, 0.7),
                 id="weighted"),
    pytest.param(two_component_graph, (0.3, 4.0), id="two-component"),
    pytest.param(lambda: corpus.star_graph(11), (0.0, 30.0), id="several-factors"),
    pytest.param(lambda: Graph(5), (0.0, 7.5), id="edgeless"),
]


@pytest.mark.parametrize("build", [case.values[0] for case in _ROW_BLOCK_CASES[:4]],
                         ids=[case.id for case in _ROW_BLOCK_CASES[:4]])
def test_shifted_matrix_has_the_bits_of_the_identity_sum(build):
    # the diagonal is shifted in place, with the bits of (A - D)/c + I
    g = build()
    P = kernels._latest_shifted_matrix(g)
    want = kirchhoff_matrix(g).dense / g.max_weighted_degree() + np.eye(g.n)
    assert np.array_equal(P, want)
    assert np.array_equal(np.signbit(P), np.signbit(want))
    assert not P.flags.writeable


def test_engine_holds_its_n_squared_buffers_only():
    # numpy reports its array buffers to tracemalloc; one n x n array of
    # doubles is the unit
    g = corpus.random_weighted_gnm(3, 300, 900)
    unit = 8 * g.n**2

    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()

    # P is made in the Kirchhoff array itself, not divided into a second one
    kernels._latest_shifted_matrix.cache_clear()
    assert traced_peak(lambda: kernels._latest_shifted_matrix(g)) < 1.1
    # on a cached P, a pass holds one sum per time, M and a spare
    for times in ([0.5], [0.1, 0.5, 2.0]):
        assert traced_peak(lambda: kernel_uniformization(g, times)) < len(times) + 2.1
    # a pass whose every c*t is 0 stops before its first product, so it makes
    # no spare: one sum per time and the start block, then one symmetrized copy
    for graph, times in ((g, [0.0, 0.0]), (Graph(g.n), [0.5, 2.0])):
        assert traced_peak(lambda: kernel_uniformization(graph, times)) < 3.1


def test_zero_times_build_no_kirchhoff_matrix(monkeypatch):
    # a sum at c*t = 0 stops at its first term, 1.0 * I, and reads no P
    calls = []
    real = kernels.kirchhoff_matrix

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(kernels, "kirchhoff_matrix", counting)
    kernels._latest_shifted_matrix.cache_clear()
    g = corpus.random_weighted_graph(1, 12, 0.3)
    assert g.max_weighted_degree() > 0
    for K in kernel_uniformization(g, [0.0, 0.0]):
        assert np.array_equal(K, np.eye(g.n))
        assert not np.signbit(K).any()
    assert np.array_equal(kernel_uniformization(g, 0.0, rows=[3, 0]), np.eye(g.n)[[3, 0]])
    assert calls == []


@pytest.mark.parametrize("build, times", _ROW_BLOCK_CASES)
def test_row_block_equals_rows_of_the_full_kernel(build, times):
    g = build()
    n = g.n
    # any order, a repeated row, and a tuple (which must not index one entry)
    for r in ([0], (n - 1, 0, 2), [3, 3, 1], list(range(n))[::-1]):
        for t in times:
            full = kernel_uniformization(g, t)
            np.testing.assert_array_equal(full, full.T)
            block = kernel_uniformization(g, t, rows=r)
            assert block.shape == (len(r), n)
            assert not block.flags.writeable
            assert block.min() >= 0.0
            np.testing.assert_allclose(block, full[list(r)], rtol=0, atol=1e-12)
            if t == 0 or g.max_weighted_degree() == 0:
                assert np.array_equal(block, np.eye(n)[list(r)])


# Graphs of the shared-pass property: c = 11 on the star, so t = 30 and t = 60
# split into semigroup factors there (c*t above 200), and on no other graph.
_SHARED_PASS_GRAPHS = {
    "weighted": lambda: corpus.random_weighted_graph(42, 12, 0.35),
    "two-component": two_component_graph,
    "star": lambda: corpus.star_graph(11),
    "edgeless": lambda: Graph(5),
}


@settings(deadline=None, max_examples=80, derandomize=True)
@given(
    name=st.sampled_from(sorted(_SHARED_PASS_GRAPHS)),
    times=st.lists(st.sampled_from((0.0, 0.004, 0.05, 0.3, 1.0, 2.5, 30.0, 60.0)),
                   min_size=1, max_size=6),
    eps=st.sampled_from((1e-12, 1e-250, 1e-3)),
    rows=st.none() | st.lists(st.integers(0, 100), min_size=1, max_size=4),
)
@example(name="star", times=[30.0, 0.05, 0.0, 30.0, 1.0], eps=1e-12, rows=None)
@example(name="star", times=[1.0, 60.0, 0.3, 0.3], eps=1e-250, rows=[3, 0, 3])
@example(name="two-component", times=[2.5, 0.0, 0.004, 2.5], eps=1e-250, rows=None)
@example(name="weighted", times=[0.3, 1.0, 0.05, 0.3], eps=1e-12, rows=[11, 0])
@example(name="edgeless", times=[1.0, 0.0], eps=1e-12, rows=[4, 4])
def test_shared_pass_has_the_bits_of_one_pass_per_time(name, times, eps, rows):
    g = _SHARED_PASS_GRAPHS[name]()
    if rows is not None:
        rows = [r % g.n for r in rows]
    kernels_ = kernel_uniformization(g, times, eps, rows)
    assert isinstance(kernels_, tuple) and len(kernels_) == len(times)
    for t, K in zip(times, kernels_):
        want = corpus.kernel_uniformization_one_time(g, t, eps, rows)
        assert np.array_equal(K, want)
        assert not K.flags.writeable
        assert np.array_equal(kernel_uniformization(g, t, eps, rows), want)


@settings(deadline=None, max_examples=80, derandomize=True)
@given(
    g=corpus.small_factors(),
    h=corpus.small_factors(),
    t=st.sampled_from((0.0, 0.05, 0.7, 3.0)),
    kernel=st.sampled_from((kernel_uniformization, spectral)),
)
def test_product_kernel_is_the_kronecker_product_of_the_factors(g, h, t, kernel):
    # A - D of the product is the Kronecker sum of the factors', so p_t factors
    want = np.kron(kernel(g, t), kernel(h, t))
    got = kernel(corpus.product_graph(g, h), t)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


@pytest.mark.parametrize("method", ["spectral", "uniformization"])
def test_kernel_command_on_a_product_prints_the_kronecker_product(capsys, tmp_path, method):
    g = corpus.small_factor("cycle", 3, 0, weighted=True)
    h = corpus.small_factor("connected", 4, 5, weighted=False)
    p = tmp_path / "product.txt"
    p.write_text(corpus.edge_list_text(corpus.product_graph(g, h)), encoding="utf-8")
    kernel = spectral if method == "spectral" else kernel_uniformization
    want = np.kron(kernel(g, 0.7), kernel(h, 0.7))
    assert main(["kernel", "--graph", str(p), "--t", "0.7", "--method", method]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == len(want) * (len(want) + 1) // 2  # every pair x <= y
    for _, x, y, value in rows:  # a label is the vertex number product_graph gave
        assert abs(float(value) - want[int(x), int(y)]) <= 1e-11


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    g=st.one_of(
        corpus.small_factors(),
        st.builds(corpus.random_weighted_graph, st.integers(0, 2**16), st.integers(2, 10),
                  st.just(0.4)),
        st.builds(corpus.product_graph, corpus.small_factors(), corpus.small_factors()),
    ),
    j=st.sampled_from((-4, -1, 1, 3)),
    times=st.lists(st.sampled_from((0.0, 0.004, 0.05, 0.7, 3.0)), min_size=1, max_size=3),
    rows=st.none() | st.lists(st.integers(0, 100), min_size=1, max_size=3),
)
def test_weights_scaled_by_a_power_of_two_scale_time(g, j, times, rows):
    # Times 2^j, every weight and c scale exactly, so P = (A - D)/c + I and
    # each c*t keep their bits: p_t of 2^j G is p_{2^j t} of G, bit for bit.
    lam = 2.0**j
    c = g.max_weighted_degree()
    if c > 0:  # c*t of 250 and 900: two and five semigroup factors
        times = [*times, 250 / c / lam, 900 / c / lam]
    if rows is not None:
        rows = [r % g.n for r in rows]
    scaled = corpus.scaled_graph(g, Fraction(2) ** j)
    want = kernel_uniformization(g, [lam * t for t in times], rows=rows)
    got = kernel_uniformization(scaled, times, rows=rows)
    for t, K, W in zip(times, got, want):
        assert np.array_equal(K, W)
        assert np.array_equal(kernel_uniformization(scaled, t, rows=rows), W)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    g=corpus.small_factors(),
    h=corpus.small_factors(),
    t=st.sampled_from((0.0, 0.05, 0.7, 3.0)),
)
def test_disjoint_union_kernel_is_block_diagonal(g, h, t):
    # No walk joins the parts.  Uniformization's P is block diagonal, so its
    # cross blocks stay exact zeros; spectral synthesis cancels them to
    # rounding.  Each diagonal block is the part's own kernel.
    n = g.n
    union = corpus.disjoint_union(g, h)
    U, S = kernel_uniformization(union, t), spectral(union, t)
    assert not U[:n, n:].any() and not U[n:, :n].any()
    assert np.abs(S[:n, n:]).max(initial=0.0) <= 1e-12
    assert np.abs(S[n:, :n]).max(initial=0.0) <= 1e-12
    for K, engine in ((U, kernel_uniformization), (S, spectral)):
        np.testing.assert_allclose(K[:n, :n], engine(g, t), rtol=0, atol=1e-11)
        np.testing.assert_allclose(K[n:, n:], engine(h, t), rtol=0, atol=1e-11)


def test_shared_pass_checks_each_time_in_turn():
    # the error of the first bad time, with the eps check after its time check
    g = corpus.path_graph(3)
    with pytest.raises(ValueError, match="time must be nonnegative, got -1"):
        kernel_uniformization(g, [0.5, -1.0, math.inf])
    with pytest.raises(ValueError, match="time must be finite, got inf"):
        kernel_uniformization(g, [math.inf, 0.5], eps=-1.0)
    with pytest.raises(ValueError, match="eps must be positive"):
        kernel_uniformization(g, [0.5, -1.0], eps=-1.0)
    with pytest.raises(ValueError, match="times t = 6000.0 exceeds"):
        kernel_uniformization(g, [0.5, 6000.0, -1.0])
    assert kernel_uniformization(g, []) == ()


# --- accessors --------------------------------------------------------------


def test_method_dispatch(tmp_path):
    g = corpus.path_graph(4)
    a = spectral(g, 0.4)[0, 3]
    b = kernel_uniformization(g, 0.4)[0, 3]
    assert a == pytest.approx(b, abs=1e-12)
    # the method is chosen by name only on the command line
    p = tmp_path / "path4.txt"
    p.write_text("0 1\n1 2\n2 3\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc_info:
        main(["kernel", "--graph", str(p), "--t", "0.4", "--method", "magic"])
    assert exc_info.value.code == 2


def test_kernel_matrix_is_read_only():
    g = corpus.path_graph(3)
    K = kernel_uniformization(g, 0.1)
    with pytest.raises(ValueError):
        K[0, 0] = 2.0


# --- package surface ----------------------------------------------------------

_FLOAT_NAMES = [
    ("kernels", "DEFAULT_EPS"),
    ("kernels", "kernel_spectral"),
    ("kernels", "kernel_uniformization"),
    ("spectral", "KirchhoffMatrix"),
    ("spectral", "SpectralDecomposition"),
    ("spectral", "eigendecompose"),
    ("spectral", "kirchhoff_matrix"),
    ("spectral", "spectral_path_identity"),
]


@pytest.mark.parametrize("module, name", _FLOAT_NAMES)
def test_float_names_are_served_by_the_package(module, name):
    expected = getattr(importlib.import_module(f"graphheat.{module}"), name)
    assert getattr(graphheat, name) is expected
    namespace: dict = {}
    exec(f"from graphheat import {name}", namespace)
    assert namespace[name] is expected
    assert name in dir(graphheat)


def test_readme_library_block_runs_on_the_readme_grid(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    grid = readme.split("```\n# 2x3 grid\n", 1)[1].split("```", 1)[0]
    (tmp_path / "g.txt").write_text(grid, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    ns: dict = {}
    exec(block, ns)
    # vertex 5 is b2, three steps and three geodesics from a0
    assert ns["d"] == 3 and ns["lead"] == Fraction(1, 2) == ns["coeffs"][3]
    assert (ns["est"].d_hat, ns["est"].n_hat) == (3, 3)
    assert ns["K"][0, 5] == pytest.approx(kernel_spectral(ns["dec"], 0.5)[0, 5], abs=1e-12)
    np.testing.assert_allclose(ns["R"], ns["K"][[0]], rtol=0, atol=1e-12)


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        graphheat.no_such_name


@pytest.mark.parametrize("name", ["COUNT_TOL", "EXPONENT_TOL", "STABLE_ROUNDS"])
def test_estimator_thresholds_are_not_package_names(name):
    # internal to the estimator in graphheat.varadhan, not public API
    with pytest.raises(AttributeError, match=name):
        getattr(graphheat, name)
