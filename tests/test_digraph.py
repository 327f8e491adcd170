import numpy as np
import pytest
import scipy.linalg
import scipy.sparse._sparsetools
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from oocsim import digraph
from oocsim.digraph import (Digraph, _add_product, _matvec, _operator, is_strongly_connected,
                            laplacian, spectral_data)
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


def sparse_operator(index_dtype=np.int32, n=80, seed=0):
    """`_operator` of a random n x n matrix with about 5% nonzeros, so CSR."""
    rng = np.random.default_rng(seed)
    a = np.where(rng.random((n, n)) < 0.05, rng.uniform(-2.0, 2.0, (n, n)), 0.0)
    op = _operator(a)
    assert op.format == "csr"
    op.indices = op.indices.astype(index_dtype)
    op.indptr = op.indptr.astype(index_dtype)
    return a, op


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("x_shape", [(80,), (80, 7)], ids=["vector", "matrix"])
def test_csr_kernel_matches_dense_product(index_dtype, x_shape):
    a, op = sparse_operator(index_dtype)
    assert op.indices.dtype == op.indptr.dtype == index_dtype
    assert digraph._sparsetools is scipy.sparse._sparsetools  # no fallback path
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, x_shape)
    base = rng.uniform(-1.0, 1.0, x_shape)
    want = base + a @ x
    tol = 1e-14 * np.abs(want).max()
    out = np.empty(x_shape)
    assert _add_product(op, x, base, out) is out
    assert np.abs(out - want).max() <= tol
    in_place = base.copy()
    assert _add_product(op, x, in_place, in_place) is in_place  # out is base: no copy
    assert np.abs(in_place - want).max() <= tol
    if len(x_shape) == 1:
        assert np.abs(_matvec(op)(x) - a @ x).max() <= 1e-14 * np.abs(a @ x).max()


def test_dense_operator_runs_the_plain_numpy_calls():
    rng = np.random.default_rng(2)
    a = rng.uniform(-1.0, 1.0, (6, 6))
    assert _operator(a) is a
    x, base = rng.uniform(-1.0, 1.0, (6, 3)), rng.uniform(-1.0, 1.0, (6, 3))
    out = np.empty((6, 3))
    assert _add_product(a, x, base, out) is out
    assert np.array_equal(out, np.add(base, a @ x))
    v = rng.uniform(-1.0, 1.0, 6)
    assert np.array_equal(_matvec(a)(v), a @ v)


def test_csr_kernel_refuses_inputs_it_would_mishandle():
    _, op = sparse_operator()
    x, base = np.ones((80, 4)), np.zeros((80, 4))
    wide = np.zeros((80, 8))
    shape, dtype, layout = "cannot map", "must be float64", "C-contiguous"
    bad_calls = {  # name: (x, base, out, the guard's message)
        "x of the wrong length": (np.ones((81, 4)), base, np.zeros((80, 4)), shape),
        "out of the wrong length": (x, np.zeros((79, 4)), np.zeros((79, 4)), shape),
        "out of the wrong width": (x, np.zeros((80, 5)), np.zeros((80, 5)), shape),
        "x of three dimensions": (np.ones((80, 4, 1)), base, np.zeros((80, 4, 1)), shape),
        "float32 x": (x.astype(np.float32), base, np.zeros((80, 4)), dtype),
        "float32 out": (x, base, np.zeros((80, 4), dtype=np.float32), dtype),
        "non-contiguous x": (np.ones((80, 8))[:, ::2], base, np.zeros((80, 4)), layout),
        "non-contiguous out": (x, base, wide[:, ::2], layout),
        "out overlapping x": (x, base, x, "overlap"),
    }
    for name, (xx, bb, out, message) in bad_calls.items():
        before = out.copy()
        with pytest.raises(ValueError, match=message):
            _add_product(op, xx, bb, out)
        assert np.array_equal(out, before), f"{name}: out written before the refusal"
    for xx, message in ((np.ones(81), shape), (np.ones(160)[::2], layout),
                        (np.ones(80, dtype=np.float32), dtype)):
        with pytest.raises(ValueError, match=message):
            _matvec(op)(xx)
    with pytest.raises(ValueError, match=dtype):
        _matvec(op.astype(np.float32))(np.ones(80))


def test_csr_kernel_writes_into_the_callers_buffer():
    a, op = sparse_operator()
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (80, 3))
    bufs = np.zeros((3, 80, 3))
    out = bufs[1]  # a contiguous view, like the driver's Horner buffers
    result = _add_product(op, x, x, out)
    assert result is out and np.shares_memory(result, bufs)
    assert np.abs(bufs[1] - (x + a @ x)).max() <= 1e-14 * np.abs(x + a @ x).max()
    assert not bufs[0].any() and not bufs[2].any()
