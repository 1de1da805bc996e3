"""Kirchhoff matrix assembly and the LAPACK (``eigh``) eigendecomposition."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import corpus
from graphheat import (
    Graph,
    KirchhoffMatrix,
    SpectralDecomposition,
    bfs_profile,
    eigendecompose,
    kernel_spectral,
    kirchhoff_matrix,
    spectral_path_identity,
)


def decompose(g: Graph) -> tuple[KirchhoffMatrix, SpectralDecomposition]:
    L = kirchhoff_matrix(g)
    return L, eigendecompose(L)


# --- matrix assembly --------------------------------------------------------


def assert_dense_matches_oracle(g: Graph) -> tuple:
    exact = corpus.kirchhoff_exact(g)
    dense = kirchhoff_matrix(g).dense
    # bytes, not values: a -0.0 where the oracle has 0 would show up here
    assert dense.tobytes() == np.array(exact, dtype=float).tobytes()
    return exact


def test_kirchhoff_entries_path():
    exact = assert_dense_matches_oracle(corpus.path_graph(3))
    assert exact == (
        (-1, 1, 0),
        (1, -2, 1),
        (0, 1, -1),
    )


def test_kirchhoff_entries_weighted():
    g = Graph(3, [(0, 1), (1, 2)], weights={(0, 1): 2, (1, 2): Fraction(1, 3)})
    exact = assert_dense_matches_oracle(g)
    assert exact[0][0] == -2
    assert exact[0][1] == 2
    assert exact[1][1] == Fraction(-7, 3)
    assert exact[1][2] == Fraction(1, 3)
    assert exact[2][2] == Fraction(-1, 3)
    assert exact[0][2] == 0


def test_kirchhoff_rows_sum_to_zero():
    exact = assert_dense_matches_oracle(corpus.random_weighted_graph(3, 9, 0.4))
    for row in exact:
        assert sum(row) == 0


def test_dense_matches_exact_oracle():
    graphs = [corpus.random_weighted_graph(600 + s, 12, 0.3) for s in range(5)]
    graphs += [corpus.random_connected_graph(700 + s, 15, 0.2) for s in range(5)]
    # an isolated vertex: its diagonal is +0.0
    graphs.append(Graph(4, [(0, 1), (1, 2)], weights={(0, 1): Fraction(7, 10)}))
    for g in graphs:
        assert_dense_matches_oracle(g)


def test_dense_is_read_only():
    L = kirchhoff_matrix(corpus.cycle_graph(4))
    with pytest.raises(ValueError):
        L.dense[0, 0] = 99.0


# --- eigensolver: tiny closed forms ----------------------------------------


def test_single_edge_eigenpairs():
    # two vertices, one edge: mu = {0, -2}; the eigenvectors are
    # (1, 1)/sqrt(2) and (1, -1)/sqrt(2), each up to its sign
    _, dec = decompose(corpus.complete_graph(2))
    r = 1 / np.sqrt(2.0)
    np.testing.assert_allclose(dec.mu, [0.0, -2.0], atol=1e-14)
    np.testing.assert_allclose(dec.V * np.sign(dec.V[0]), [[r, r], [r, -r]], atol=1e-14)


def test_triangle_spectrum():
    _, dec = decompose(corpus.complete_graph(3))
    np.testing.assert_allclose(dec.mu, [0.0, -3.0, -3.0], atol=1e-13)


def test_edgeless_pair_is_identity_decomposition():
    _, dec = decompose(Graph(2))
    np.testing.assert_array_equal(dec.mu, [0.0, 0.0])
    np.testing.assert_array_equal(dec.V, np.eye(2))


def test_path3_known_eigenvalues():
    # L for the 3-path has eigenvalues {0, -1, -3}
    _, dec = decompose(corpus.path_graph(3))
    np.testing.assert_allclose(dec.mu, [0.0, -1.0, -3.0], atol=1e-13)


def test_lambdas_are_nonnegative_and_ascending():
    _, dec = decompose(corpus.random_connected_graph(9, 14, 0.3))
    lam = dec.lambdas
    assert lam[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(lam >= -1e-12)
    assert np.all(np.diff(lam) >= 0)


# --- eigensolver: invariants against the LAPACK oracle ----------------------


@pytest.mark.parametrize("seed", range(8))
def test_eigenvalues_match_lapack(seed):
    g = corpus.random_connected_graph(300 + seed, 5 + 3 * seed, 0.35)
    L, dec = decompose(g)
    oracle = np.linalg.eigvalsh(L.dense)  # ascending
    np.testing.assert_allclose(
        np.sort(dec.mu), oracle, atol=1e-10 * max(np.linalg.norm(L.dense), 1.0)
    )


@pytest.mark.parametrize("seed", range(8))
def test_decomposition_invariants(seed):
    g = corpus.random_connected_graph(400 + seed, 6 + 4 * seed, 0.3)
    L, dec = decompose(g)
    scale = max(np.linalg.norm(L.dense), 1.0)
    # eigen-equation, orthonormality, reconstruction
    assert np.linalg.norm(L.dense @ dec.V - dec.V * dec.mu) <= 1e-10 * scale
    assert np.linalg.norm(dec.V.T @ dec.V - np.eye(g.n)) <= 1e-12 * g.n
    assert np.linalg.norm((dec.V * dec.mu) @ dec.V.T - L.dense) <= 1e-10 * scale


def test_weighted_graph_invariants():
    g = corpus.random_weighted_graph(21, 10, 0.4)
    L, dec = decompose(g)
    scale = max(np.linalg.norm(L.dense), 1.0)
    assert np.linalg.norm((dec.V * dec.mu) @ dec.V.T - L.dense) <= 1e-10 * scale


def test_zero_eigenvalue_multiplicity_counts_components():
    # two triangles plus an isolated vertex: three components
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    _, dec = decompose(Graph(7, edges))
    near_zero = np.sum(np.abs(dec.mu) < 1e-9)
    assert near_zero == 3


def test_decomposition_is_deterministic():
    g = corpus.random_connected_graph(77, 20, 0.25)
    L = kirchhoff_matrix(g)
    a = eigendecompose(L)
    b = eigendecompose(L)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.V, b.V)


@pytest.mark.parametrize(
    "g",
    [
        corpus.reference_grid(),
        corpus.random_weighted_graph(55, 15, 0.3),
        Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    ],
    ids=["grid", "weighted", "two-component"],
)
def test_column_signs_change_no_bit(g):
    # LAPACK picks each eigenvector's sign; every consumer multiplies two
    # entries of one column, and (-a)(-b) is exactly ab
    _, dec = decompose(g)
    flip = np.where(np.random.default_rng(7).random(dec.n) < 0.5, -1.0, 1.0)
    assert (flip < 0).any()
    flipped = SpectralDecomposition(dec.mu, np.ascontiguousarray(dec.V * flip))
    for t in (0, 1e-3, 0.1, 1, 7.5):
        assert np.array_equal(kernel_spectral(flipped, t), kernel_spectral(dec, t))
    for x in range(g.n):
        for y in range(g.n):
            for d in range(4):
                assert spectral_path_identity(flipped, x, y, d) == spectral_path_identity(
                    dec, x, y, d
                )


def test_outputs_are_read_only():
    _, dec = decompose(corpus.cycle_graph(5))
    with pytest.raises(ValueError):
        dec.mu[0] = 1.0
    with pytest.raises(ValueError):
        dec.V[0, 0] = 1.0


# --- path identity ----------------------------------------------------------


def test_path_identity_grid_golden():
    g = corpus.reference_grid()
    _, dec = decompose(g)
    a, c = g.index_of("a0"), g.index_of("b2")
    assert spectral_path_identity(dec, a, c, 3) == pytest.approx(3.0, abs=1e-8)


def test_path_identity_rejects_a_negative_power():
    _, dec = decompose(corpus.path_graph(3))
    with pytest.raises(ValueError) as exc_info:
        spectral_path_identity(dec, 0, 1, -1)
    assert str(exc_info.value) == "power must be nonnegative, got -1"


@pytest.mark.parametrize("seed", range(5))
def test_path_identity_recovers_geodesic_counts(seed):
    g = corpus.random_connected_graph(500 + seed, 12, 0.3)
    L, dec = decompose(g)
    for x in range(0, g.n, 4):
        profile = bfs_profile(g, x)
        for y in range(g.n):
            d = profile.dist[y]
            got = spectral_path_identity(dec, x, y, d)
            assert got == pytest.approx(profile.geodesic_count[y], abs=1e-6 * np.linalg.norm(L.dense)**max(d, 1))
            for k in range(d):
                below = spectral_path_identity(dec, x, y, k)
                assert abs(below) <= 1e-8 * np.linalg.norm(L.dense) ** max(k, 1)


@settings(deadline=None, max_examples=100, derandomize=True)
@given(g=corpus.small_factors(), h=corpus.small_factors())
def test_product_spectrum_is_the_sums_of_the_factor_spectra(g, h):
    # A - D of g □ h is the Kronecker sum of the factors', so its eigenvalues
    # are the sums lambda_i + mu_j.  eigh's eigenvalues are those of a matrix
    # within n*eps*||A - D|| of its input, ||A - D|| <= 2c (each row's
    # absolute sum), and by Weyl's inequality that moves none by more.  Three
    # decompositions and the sums: k = 4 such terms, each at most the
    # product's, whose n and c are the largest.
    gh = corpus.product_graph(g, h)
    got = eigendecompose(kirchhoff_matrix(gh)).lambdas
    lg, lh = (eigendecompose(kirchhoff_matrix(f)).lambdas for f in (g, h))
    want = np.sort(np.add.outer(lg, lh), axis=None)
    bound = 4 * gh.n * np.finfo(float).eps * 2 * gh.max_weighted_degree()
    np.testing.assert_allclose(got, want, rtol=0, atol=bound)
