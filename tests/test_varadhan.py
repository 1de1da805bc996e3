"""Pair verification reports and sample-based distance recovery."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from graphheat import (
    Graph,
    NoConvergence,
    POSITIVITY_FLOOR,
    PositivityFloor,
    UnreachableError,
    bfs_profile,
    estimate_pair,
    kernel_taylor_coefficient,
    spectral_sampler,
    uniformization_sampler,
    verify_graph,
    verify_pair,
)

F = Fraction


# --- verification reports ----------------------------------------------------


def test_grid_report_golden():
    g = corpus.reference_grid()
    r = verify_pair(g, g.index_of("a0"), g.index_of("b1"))
    assert (r.x, r.y) == ("a0", "b1")
    assert r.d == 2
    assert r.n_geodesics == 2
    assert r.leading == F(1)
    assert r.next_coeff == F(-5, 2)
    assert (r.vanish_ok, r.leading_ok, r.bipartite_sign) == ("pass", "pass", "pass")
    assert r.passed


def test_four_cycle_opposite_pair():
    r = verify_pair(corpus.cycle_graph(4), 0, 2)
    assert r.d == 2
    assert r.n_geodesics == 2
    assert r.leading == F(1)
    assert r.next_coeff == F(-2)
    assert r.passed


def test_odd_cycle_sign_check_is_na():
    # non-bipartite graph: the sign verdict must not be judged at all
    r = verify_pair(corpus.cycle_graph(5), 0, 1)
    assert r.d == 1
    assert r.leading == F(1)
    assert r.bipartite_sign == "na"
    assert r.passed


def test_diagonal_pair_report():
    g = corpus.reference_grid()
    r = verify_pair(g, 0, 0)
    assert r.d == 0
    assert r.n_geodesics == 1
    assert r.leading == F(1)
    # next coefficient is -degree, strictly negative on any non-isolated vertex
    assert r.next_coeff < 0
    assert r.bipartite_sign == "pass"


def test_isolated_vertex_diagonal_is_structurally_zero():
    g = Graph(2)  # two isolated vertices; bipartite with all-zero colors
    r = verify_pair(g, 0, 0)
    assert r.d == 0
    assert r.next_coeff == 0
    assert r.bipartite_sign == "na"
    assert r.passed


def test_verify_pair_unreachable_raises():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(UnreachableError):
        verify_pair(g, 0, 2)


def test_verify_graph_grid_shape():
    summary = verify_graph(corpus.reference_grid())
    assert len(summary.reports) == 15  # all unordered pairs of 6 vertices
    assert summary.skipped == ()
    assert all(r.passed for r in summary.reports)


def test_verify_graph_matches_pairwise_calls():
    g = corpus.random_connected_graph(61, 9, 0.35)
    summary = verify_graph(g)
    assert len(summary.reports) == g.n * (g.n - 1) // 2
    for r in summary.reports:
        single = verify_pair(g, g.index_of(r.x), g.index_of(r.y))
        assert single == r


def test_verify_graph_collects_cross_component_pairs():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)], labels=["a", "b", "c", "d", "e"])
    summary = verify_graph(g)
    assert len(summary.reports) == 4  # 3 pairs in the triangle path + 1 pair d-e
    assert set(summary.skipped) == {
        ("a", "d"), ("a", "e"), ("b", "d"), ("b", "e"), ("c", "d"), ("c", "e"),
    }
    assert all(r.passed for r in summary.reports)


@pytest.mark.parametrize(
    "g",
    [
        corpus.interleaved_grids(2, 3),
        Graph(7, [(1, 2), (4, 5)]),  # isolated first, middle and last vertices
        Graph(7, [(0, 5), (1, 6), (2, 4), (3, 5)], weights={(1, 6): F(3, 2)}),
    ],
    ids=["interleaved-grids", "isolated-vertices", "three-components"],
)
def test_verify_graph_keeps_the_pairwise_order(g):
    # connected pairs x < y in x-major, y-ascending order, each the report
    # verify_pair gives; then the other pairs x < y in the same order
    pairs = [(x, y) for x in range(g.n) for y in range(x + 1, g.n)]
    connected = [(x, y) for x, y in pairs if bfs_profile(g, x).dist[y] is not None]
    summary = verify_graph(g)
    assert summary.reports == tuple(verify_pair(g, x, y) for x, y in connected)
    assert summary.skipped == tuple(
        (g.labels[x], g.labels[y]) for x, y in pairs if (x, y) not in connected
    )


@pytest.mark.parametrize("seed", range(6))
def test_verify_graph_passes_on_random_bipartite(seed):
    g = corpus.random_bipartite_graph(1000 + seed, 5, 5, 0.4)
    summary = verify_graph(g)
    assert all(r.passed for r in summary.reports)
    for r in summary.reports:
        assert r.bipartite_sign in ("pass", "na")


def test_verify_graph_weighted_uses_geodesic_weight():
    g = Graph(3, [(0, 1), (1, 2)], weights={(0, 1): 2, (1, 2): F(1, 3)})
    summary = verify_graph(g)
    far = next(r for r in summary.reports if (r.x, r.y) == ("0", "2"))
    assert far.n_geodesics == F(2, 3)
    assert far.leading == F(1, 3)
    assert far.leading_ok == "pass"


def test_weighted_leading_golden():
    # the BFS geodesic weight equals d! times the order-d Taylor coefficient
    g = Graph(3, [(0, 1), (1, 2)], weights={(0, 1): 2, (1, 2): F(1, 3)})
    profile = bfs_profile(g, 0)
    for y, want in ((2, F(2, 3)), (1, F(2))):
        d = profile.dist[y]
        assert profile.geodesic_weight[y] == want
        assert kernel_taylor_coefficient(g, 0, y, d) * math.factorial(d) == want


def test_weighted_leading_unreachable():
    g = Graph(3, [(0, 1)], weights={(0, 1): F(1, 2)})
    profile = bfs_profile(g, 0)
    assert profile.dist[2] is None and profile.geodesic_weight[2] == 0
    with pytest.raises(UnreachableError):
        verify_pair(g, 0, 2)


# --- distance recovery -------------------------------------------------------


def test_estimate_grid_far_corner_both_samplers():
    g = corpus.reference_grid()
    x, y = g.index_of("a0"), g.index_of("b2")
    for sampler in (spectral_sampler(g), uniformization_sampler(g)):
        est = estimate_pair(sampler, x, y)
        assert (est.d_hat, est.n_hat) == (3, 3)
        assert not est.unreachable
        assert est.t_used > 0


def test_estimate_adjacent_and_middle_pairs():
    g = corpus.reference_grid()
    sampler = spectral_sampler(g)
    a0, a1, b1 = g.index_of("a0"), g.index_of("a1"), g.index_of("b1")
    assert (estimate_pair(sampler, a0, a1).d_hat, estimate_pair(sampler, a0, a1).n_hat) == (1, 1)
    est = estimate_pair(sampler, a0, b1)
    assert (est.d_hat, est.n_hat) == (2, 2)


def test_estimate_self_pair():
    g = corpus.reference_grid()
    est = estimate_pair(spectral_sampler(g), 0, 0)
    assert (est.d_hat, est.n_hat) == (0, 1)
    assert not est.unreachable


def test_estimate_is_scale_invariant_in_t0():
    g = corpus.cycle_graph(8)
    sampler = spectral_sampler(g)
    results = {
        estimate_pair(sampler, 0, 3, t0=t0).d_hat for t0 in (0.05, 0.1, 0.2)
    }
    assert results == {3}


def test_estimate_ignores_sampler_scale():
    # multiplying every sample by a constant shifts no exponent estimate
    g = corpus.reference_grid()
    base = spectral_sampler(g)
    scaled = lambda t, x, y: 7.0 * base(t, x, y)
    x, y = g.index_of("a0"), g.index_of("b2")
    assert estimate_pair(scaled, x, y).d_hat == 3


def test_estimate_exponent_trace_approaches_distance():
    g = corpus.reference_grid()
    est = estimate_pair(spectral_sampler(g), g.index_of("a0"), g.index_of("b2"))
    assert len(est.exponent_trace) >= 3
    for e in est.exponent_trace[-3:]:
        assert e == pytest.approx(3.0, abs=0.1)


def test_estimate_unreachable_pair():
    g = Graph(4, [(0, 1), (2, 3)])
    est = estimate_pair(uniformization_sampler(g), 0, 2)
    assert est.unreachable
    assert est.d_hat is None and est.n_hat is None
    assert est.exponent_trace == ()


def test_no_convergence_on_fractional_exponent():
    # p ~ t^2.5 never rounds to a stable integer exponent
    sampler = lambda t, x, y: t**2.5
    with pytest.raises(NoConvergence) as exc_info:
        estimate_pair(sampler, 0, 1, t0=0.1, levels=5)
    trace = exc_info.value.exponent_trace
    assert len(trace) == 5
    for e in trace:
        assert e == pytest.approx(2.5, abs=1e-9)


def test_positivity_floor_on_dying_samples():
    # live power-law samples that cut out below t = 1e-4
    sampler = lambda t, x, y: t**2.5 if t > 1e-4 else 0.0
    with pytest.raises(PositivityFloor):
        estimate_pair(sampler, 0, 1, t0=0.1, levels=20)


def test_count_below_one_is_rejected():
    # a sampler scaled down by 10 breaks the count normalization: the
    # exponent still stabilizes at 2 but the recovered count rounds to 0
    sampler = lambda t, x, y: 0.1 * t**2
    with pytest.raises(NoConvergence):
        estimate_pair(sampler, 0, 1, t0=0.1, levels=10)


def test_estimate_makes_only_the_sample_times_it_uses():
    # d = 2, N = 40 plus a first-order bias large enough that the count
    # phase shrinks t twice past the level where the exponent settles
    calls = []

    def sampler(t, x, y):
        calls.append(t)
        return 20.0 * t**2 * (1.0 + t)

    want = estimate_pair(sampler, 0, 1, t0=0.1, levels=16)
    used = len(calls)
    calls.clear()
    tracemalloc.start()
    try:
        got = estimate_pair(sampler, 0, 1, t0=0.1, levels=10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and (got.d_hat, got.n_hat) == (2, 40)
    assert len(calls) == used == 6
    assert peak < 2**20


def test_estimate_argument_validation():
    sampler = lambda t, x, y: t
    with pytest.raises(ValueError):
        estimate_pair(sampler, 0, 1, t0=0.0)
    with pytest.raises(ValueError):
        estimate_pair(sampler, 0, 1, levels=1)


@pytest.mark.parametrize("seed", range(4))
def test_estimates_match_bfs_on_small_trees(seed):
    # depth-capped trees keep every distance within the float64 window
    from graphheat import bfs_profile

    g = corpus.random_tree(1100 + seed, 12, max_depth=2)
    sampler = spectral_sampler(g)
    profile = bfs_profile(g, 0)
    for y in range(1, g.n):
        est = estimate_pair(sampler, 0, y, t0=0.1, levels=16)
        assert not est.unreachable
        assert est.d_hat == profile.dist[y]
        assert est.n_hat == profile.geodesic_count[y]


def test_uniformization_sampler_default_eps_keeps_deep_pairs_alive():
    # with a loose series tolerance the first samples at tiny t would be
    # exact zeros and the estimator would falsely report "unreachable"
    g = corpus.path_graph(7)
    est = estimate_pair(uniformization_sampler(g), 0, 6, t0=0.1, levels=16)
    assert not est.unreachable
    assert (est.d_hat, est.n_hat) == (6, 1)


@pytest.mark.parametrize("engine", ["kernel_spectral", "kernel_uniformization"])
def test_sampler_builds_one_kernel_per_time(monkeypatch, engine):
    from graphheat import POSITIVITY_FLOOR, eigendecompose, kirchhoff_matrix, kernels

    g = corpus.reference_grid()
    builds = []
    real = getattr(kernels, engine)

    def counting(*args):
        t = args[1]  # one time, or the list of a sampler's one-time block
        builds.extend(t if isinstance(t, list) else [t])
        return real(*args)

    monkeypatch.setattr(kernels, engine, counting)
    if engine == "kernel_spectral":
        sampler = spectral_sampler(g)
        dec = eigendecompose(kirchhoff_matrix(g))
        direct = lambda t: real(dec, t)
    else:
        sampler = uniformization_sampler(g)
        direct = lambda t: real(g, t, POSITIVITY_FLOOR)
    times = (0.1, 0.05, 0.1, 0.025, 0.05)
    for t in times:
        K = direct(t)
        for x in range(g.n):
            for y in range(g.n):
                assert sampler(t, x, y) == K[x, y]
    assert builds == [0.1, 0.05, 0.025]


# --- the single pass against the two-phase oracle -----------------------------


def _outcome(estimate, sampler, x, y, t0, levels):
    """What one estimator makes of a sampler: result or exception, and the times."""
    times = []

    def recording(t, x, y):
        times.append(t)
        return sampler(t, x, y)

    try:
        result = estimate(recording, x, y, t0=t0, levels=levels)
    except Exception as exc:  # the oracle must raise the same
        result = (type(exc), str(exc), getattr(exc, "exponent_trace", None))
    return result, times


def assert_matches_two_phase(sampler, x, y, t0, levels):
    got = _outcome(estimate_pair, sampler, x, y, t0, levels)
    assert got == _outcome(corpus.estimate_pair_two_phase, sampler, x, y, t0, levels)


_DEAD = st.sampled_from([0.0, POSITIVITY_FLOOR, POSITIVITY_FLOOR / 2, -4e-16])


@st.composite
def scripted_levels(draw):
    """A schedule and one drawn sample per level.

    Live samples follow ``c t^a (1 + b t)`` with an integer or fractional
    ``a`` and small relative noise; a dead head, a dead tail and single dead
    levels cut into them.
    """
    levels = draw(st.integers(2, 14))
    t0 = draw(st.sampled_from([0.5, 0.1, 1 / 3, 0.01]))
    a = draw(st.one_of(st.integers(0, 8).map(float), st.floats(0.0, 8.0)))
    c = draw(st.sampled_from([0.07, 0.5, 1.0, 2.0, 3.0, 7.5, 40.0, 1e-200]))
    b = draw(st.sampled_from([0.0, 1.0, -4.0, 20.0, 300.0]))
    noise = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.05]))
    head = draw(st.integers(0, levels + 1) | st.just(0))
    tail = draw(st.integers(0, levels + 1) | st.just(levels + 1))
    holes = draw(st.dictionaries(st.integers(0, levels), _DEAD, max_size=2))
    value_at = {}
    for j in range(levels + 1):
        t = t0 * 0.5**j
        if j < head or j >= tail:
            value_at[t] = draw(_DEAD)
        elif j in holes:
            value_at[t] = holes[j]
        else:
            wobble = draw(st.floats(-noise, noise)) if noise else 0.0
            value_at[t] = c * t**a * (1.0 + b * t) * (1.0 + wobble)
    return t0, levels, value_at


@settings(deadline=None, max_examples=400, derandomize=True)
@given(scripted_levels())
def test_single_pass_matches_two_phase_on_scripted_samples(case):
    t0, levels, value_at = case
    assert_matches_two_phase(lambda t, x, y: value_at[t], 0, 1, t0, levels)


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: corpus.random_weighted_graph(7, 9, 0.35),
        lambda: Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]),
        lambda: corpus.random_tree(1200, 10),
    ],
    ids=["weighted", "two-component", "tree"],
)
@pytest.mark.parametrize("make_sampler", [spectral_sampler, uniformization_sampler])
@pytest.mark.parametrize("t0, levels", [(0.1, 16), (0.5, 6), (0.02, 20)])
def test_single_pass_matches_two_phase_on_kernel_samples(make_graph, make_sampler, t0, levels):
    g = make_graph()
    sampler = make_sampler(g)
    for x in range(g.n):
        for y in range(g.n):
            assert_matches_two_phase(sampler, x, y, t0, levels)


def test_nan_sample_counts_as_dead():
    # d = 2 is fixed at level 4 with the count read 20.375 still off an
    # integer, so the NaN at level 5 ends the pass with that read (the
    # two-phase oracle fed the NaN to the count read and raised ValueError)
    t0 = 0.1

    def sampler(t, x, y):
        return math.nan if t < t0 / 20 else 10.0 * t**2 * (1.0 + 3.0 * t)

    est = estimate_pair(sampler, 0, 1, t0=t0, levels=8)
    assert (est.d_hat, est.n_hat, est.t_used) == (2, 20, t0 / 16)
    assert len(est.exponent_trace) == 4
    with pytest.raises(PositivityFloor, match="fell to nan"):
        estimate_pair(lambda t, x, y: t**2 if t > t0 / 4 else math.nan, 0, 1, t0=t0)
