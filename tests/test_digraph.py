import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from oocsim.digraph import Digraph, is_strongly_connected, laplacian, spectral_data
from oocsim.errors import NotStronglyConnected


def cycle(n):
    return Digraph.from_edges(n, [(i, i % n + 1, 1.0) for i in range(1, n + 1)])


def test_laplacian_three_cycle():
    big_l = laplacian(cycle(3))
    assert np.array_equal(big_l, np.array([[1, 0, -1], [-1, 1, 0], [0, -1, 1]]))


def test_laplacian_single_edge():
    g = Digraph.from_edges(2, [(1, 2, 1.0)])
    assert np.array_equal(laplacian(g), np.array([[0, 0], [-1, 1]]))


def test_laplacian_fig3(fig3_graph):
    big_l = laplacian(fig3_graph)
    assert np.allclose(big_l.sum(axis=1), 0.0)
    assert big_l[0, 0] == 2.0  # node 1 receives from 3 and 5


def test_validation_errors():
    with pytest.raises(ValueError):
        Digraph(n=2, weights=np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Digraph(n=2, weights=np.array([[1.0, 0.0], [0.0, 0.0]]))  # self-loop
    with pytest.raises(ValueError):
        Digraph.from_edges(2, [(1, 3, 1.0)])


def test_strong_connectivity_cases(fig3_graph):
    assert is_strongly_connected(cycle(3))
    assert not is_strongly_connected(Digraph.from_edges(2, [(1, 2, 1.0)]))
    assert is_strongly_connected(fig3_graph)


def test_left_eigenvector_balanced():
    for n in (3, 4):
        rho = spectral_data(cycle(n)).rho
        assert np.allclose(rho, np.full(n, 1.0 / n), atol=1e-12)


def test_left_eigenvector_fig3(fig3_graph):
    rho = spectral_data(fig3_graph).rho
    big_l = laplacian(fig3_graph)
    assert np.abs(rho @ big_l).max() < 1e-12
    assert abs(rho.sum() - 1.0) < 1e-12
    assert np.all(rho > 0)
    # independent oracle: null space of L^T via full eigendecomposition
    w, v = np.linalg.eig(big_l.T)
    null = np.real(v[:, np.argmin(np.abs(w))])
    null = null / null.sum()
    assert np.allclose(rho, null, atol=1e-10)
    assert np.allclose(rho, np.array([2, 4, 3, 1, 1]) / 11.0, atol=1e-10)


def test_left_eigenvector_requires_strong_connectivity():
    with pytest.raises(NotStronglyConnected):
        spectral_data(Digraph.from_edges(2, [(1, 2, 1.0)]))


def test_lambda2_complete_graph():
    edges = [(i, j, 1.0) for i in range(1, 4) for j in range(1, 4) if i != j]
    assert abs(spectral_data(Digraph.from_edges(3, edges)).lambda2 - 1.0) < 1e-12


def test_lambda2_two_cycle():
    g = Digraph.from_edges(2, [(1, 2, 1.0), (2, 1, 1.0)])
    assert abs(spectral_data(g).lambda2 - 1.0) < 1e-12  # Lbar = L/2, spectrum {0, 2}/...


def test_lambda2_fig3_positive(fig3_graph):
    sd = spectral_data(fig3_graph)
    assert sd.lambda2 > 0
    # smallest eigenvalue of Lbar is 0 with eigenvector 1
    r = np.diag(sd.rho)
    lbar = 0.5 * (r @ sd.laplacian + sd.laplacian.T @ r)
    assert np.abs(lbar @ np.ones(5)).max() < 1e-10


def test_matrix_exponential_limit(fig3_graph):
    sd = spectral_data(fig3_graph)
    expm = scipy.linalg.expm(-sd.laplacian * 50.0)
    assert np.abs(expm - np.ones((5, 1)) @ sd.rho[None, :]).max() < 1e-8


@st.composite
def strongly_connected_digraphs(draw):
    """Random digraph containing a Hamiltonian cycle, so strongly connected."""
    n = draw(st.integers(min_value=2, max_value=7))
    w = np.zeros((n, n))
    for i in range(n):
        w[(i + 1) % n, i] = draw(st.floats(min_value=0.1, max_value=5.0))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.floats(min_value=0.1, max_value=5.0)),
        max_size=2 * n))
    for i, j, wt in extra:
        if i != j:
            w[j, i] = wt
    return Digraph(n=n, weights=w)


@settings(max_examples=50, deadline=None)
@given(strongly_connected_digraphs())
def test_spectral_invariants_random(g):
    sd = spectral_data(g)
    assert np.abs(sd.rho @ sd.laplacian).max() < 1e-10
    assert abs(sd.rho.sum() - 1.0) < 1e-12
    assert np.all(sd.rho > 0)
    assert sd.lambda2 > 0
    assert np.allclose(sd.laplacian.sum(axis=1), 0.0, atol=1e-12)


@st.composite
def digraphs(draw):
    """Random digraph on 1 to 12 nodes, strongly connected or not."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.floats(min_value=0.1, max_value=5.0)),
        max_size=3 * n))
    w = np.zeros((n, n))
    for i, j, wt in edges:
        if i != j:
            w[j, i] = wt
    return Digraph(n=n, weights=w)


@settings(max_examples=300, deadline=None)
@given(st.one_of(digraphs(), strongly_connected_digraphs()))
def test_strong_connectivity_matches_csgraph_oracle(g):
    n_components, _ = connected_components(g.weights, directed=True, connection="strong")
    assert is_strongly_connected(g) == (n_components == 1)
