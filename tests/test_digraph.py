import numpy as np
import pytest
import scipy.linalg
import scipy.sparse._sparsetools
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from oocsim import digraph
from oocsim.digraph import (Digraph, _block_operator, _bound_product, _diagonal,
                            is_strongly_connected, laplacian, spectral_data)
from oocsim.errors import InvalidSpectrum, NotStronglyConnected


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


def test_spectral_data_needs_two_nodes():
    with pytest.raises(InvalidSpectrum, match="at least 2 nodes"):
        spectral_data(Digraph(n=1, weights=np.zeros((1, 1))))


def ring_plus_chords(n, seed):
    """Directed ring plus n seeded chords, all with random weights: weight-unbalanced."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    w[(np.arange(n) + 1) % n, np.arange(n)] = rng.uniform(0.5, 2.0, size=n)
    placed = 0
    while placed < n:
        i, j = rng.integers(0, n, size=2)
        if i != j and w[i, j] == 0:
            w[i, j] = rng.uniform(0.5, 2.0)
            placed += 1
    return Digraph(n=n, weights=w)


@pytest.mark.parametrize("n", [20, 200])
def test_rho_and_lambda2_match_the_dense_oracles_on_unbalanced_rings(n):
    g = ring_plus_chords(n, seed=n)
    sd = spectral_data(g)
    big_l = laplacian(g)
    assert not np.allclose(g.weights.sum(axis=0), g.weights.sum(axis=1))
    # rho against the SVD null vector of L^T
    null = np.linalg.svd(big_l.T)[2][-1]
    np.testing.assert_allclose(sd.rho, null / null.sum(), rtol=0, atol=1e-12)
    assert np.abs(sd.rho @ big_l).max() <= 1e-13
    # lambda2 against Lbar formed with diag(rho) products
    r = np.diag(sd.rho)
    lambda2 = np.linalg.eigvalsh(0.5 * (r @ big_l + big_l.T @ r))[1]
    assert sd.lambda2 == pytest.approx(lambda2, rel=1e-12, abs=0)


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
    """A random n x n matrix with about 5% nonzeros, and the same as `_block_operator` makes it."""
    rng = np.random.default_rng(seed)
    a = np.where(rng.random((n, n)) < 0.05, rng.uniform(-2.0, 2.0, (n, n)), 0.0)
    rows, cols = np.nonzero(a)
    op = _block_operator((n, n), [(rows, cols, a[rows, cols])])
    assert op.format == "csr"
    op.indices = op.indices.astype(index_dtype)
    op.indptr = op.indptr.astype(index_dtype)
    return a, op


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("x_shape", [(80,)], ids=["vector"])
def test_csr_kernel_matches_dense_product(index_dtype, x_shape):
    a, op = sparse_operator(index_dtype)
    assert op.indices.dtype == op.indptr.dtype == index_dtype
    assert digraph._sparsetools is scipy.sparse._sparsetools  # no fallback path
    x = np.random.default_rng(1).uniform(-1.0, 1.0, x_shape)
    want = a @ x
    out = np.full(x_shape, np.nan)
    product = _bound_product(op, x, out)
    out.fill(0.0)  # the kernel accumulates, so its caller zeroes out
    product()
    assert np.abs(out - want).max() <= 1e-14 * np.abs(want).max()
    product()  # a second call without zeroing adds the product again
    assert np.abs(out - 2.0 * want).max() <= 1e-14 * np.abs(2.0 * want).max()


def test_csr_kernel_refuses_inputs_it_would_mishandle():
    a, op = sparse_operator()
    x = np.ones(80)
    shape, dtype, layout = "cannot map", "must be float64", "C-contiguous"
    bad_binds = {  # name: (x, out, the refusal's message)
        "x of the wrong length": (np.ones(81), np.zeros(80), shape),
        "out of the wrong length": (x, np.zeros(79), shape),
        "x with columns": (np.ones((80, 4)), np.zeros((80, 4)), shape),
        "float32 x": (x.astype(np.float32), np.zeros(80), dtype),
        "float32 out": (x, np.zeros(80, dtype=np.float32), dtype),
        "non-contiguous x": (np.ones(160)[::2], np.zeros(80), layout),
        "non-contiguous out": (x, np.zeros(160)[::2], layout),
        "out overlapping x": (x, x, "overlap"),
    }
    for name, (xx, out, message) in bad_binds.items():
        before = out.copy()
        with pytest.raises(ValueError, match=message):
            _bound_product(op, xx, out)
        assert np.array_equal(out, before), f"{name}: out written before the refusal"
    for other in (a, op.tocsc()):  # a dense or CSC operator the kernel would misread
        with pytest.raises(ValueError, match="must be a CSR array"):
            _bound_product(other, x, np.zeros(80))


def test_bound_product_checks_its_buffers_once_at_bind_time():
    a, op = sparse_operator()
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, 80)
    out = np.full(80, np.nan)
    product = _bound_product(op, x, out)
    for _ in range(2):  # the CSR kernel accumulates, so out is zeroed before each call
        out.fill(0.0)
        product()
        assert np.abs(out - a @ x).max() <= 1e-14 * np.abs(a @ x).max()
    product()  # without zeroing, a call adds to what out holds
    assert np.abs(out - 2.0 * (a @ x)).max() <= 1e-14 * np.abs(2.0 * (a @ x)).max()
    shared = np.zeros(120)
    bad_binds = {  # name: (x, out, the refusal's message)
        "non-contiguous x": (np.ones(160)[::2], np.zeros(80), "C-contiguous"),
        "non-contiguous out": (x, np.zeros(160)[::2], "C-contiguous"),
        "float32 x": (x.astype(np.float32), np.zeros(80), "must be float64"),
        "float32 out": (x, np.zeros(80, dtype=np.float32), "must be float64"),
        "x of the wrong length": (np.ones(81), np.zeros(80), "cannot map"),
        "out overlapping x": (shared[:80], shared[40:], "overlap"),
    }
    for name, (xx, out, message) in bad_binds.items():
        with pytest.raises(ValueError, match=message):
            _bound_product(op, xx, out)
    with pytest.raises(ValueError, match="must be float64"):
        _bound_product(op.astype(np.float32), x, np.zeros(80))


def test_csr_kernel_writes_into_the_callers_buffer():
    a, op = sparse_operator()
    x = np.random.default_rng(3).uniform(-1.0, 1.0, 80)
    bufs = np.zeros((3, 80))
    out = bufs[1]  # a contiguous view into a larger buffer
    _bound_product(op, x, out)()
    assert np.abs(bufs[1] - a @ x).max() <= 1e-14 * np.abs(a @ x).max()
    assert not bufs[0].any() and not bufs[2].any()


def test_bound_product_of_an_operator_without_rows_does_nothing():
    product = _bound_product(_block_operator((0, 5), []), np.ones(5), np.empty(0))
    assert product() is None


@pytest.mark.parametrize("shape, nnz", [((67, 156), 196), ((1802, 4405), 5602), ((0, 5), 0)])
def test_block_operator_is_what_the_checked_constructor_builds(shape, nnz):
    # the CSR array is set up without scipy's constructor, whose checks and
    # index scans it skips; it must be the array that constructor builds
    rng = np.random.default_rng(nnz)
    rows, cols = rng.integers(0, max(shape[0], 1), nnz), rng.integers(0, shape[1], nnz)
    op = _block_operator(shape, [(rows, cols, rng.uniform(-1.0, 1.0, nnz))] if nnz else [])
    checked = csr_array((op.data, op.indices, op.indptr), shape=shape)
    assert type(op) is type(checked) and vars(op).keys() == vars(checked).keys()
    assert op.shape == checked.shape and type(op.shape[0]) is int
    for name in ("data", "indices", "indptr"):
        assert getattr(op, name).dtype == getattr(checked, name).dtype
        assert np.array_equal(getattr(op, name), getattr(checked, name))
    full = op.copy()
    full.check_format(full_check=True)  # scipy's own check of every index
    assert np.array_equal(full.toarray(), checked.toarray())


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_block_operator_adds_entries_that_meet(index_dtype):
    # (1, 2) repeats within the first part and (0, 0) and (3, 4) across parts;
    # the CSR arrays keep each as its own entry, and every read adds them
    shape = (4, 6)
    parts = [([1, 1, 0, 1], [2, 2, 0, 5], [0.5, 0.25, 1.0, -2.0]),
             ([0, 3, 2], [0, 4, 1], [3.0, -1.5, 4.0]),
             _diagonal(2, 3, [0.125, 7.0])]
    parts = [(np.asarray(r, index_dtype), np.asarray(c, index_dtype), np.asarray(v, float))
             for r, c, v in parts]
    want = np.zeros(shape)
    for rows, cols, values in parts:
        np.add.at(want, (rows, cols), values)
    op = _block_operator(shape, parts)
    assert op.format == "csr" and op.nnz == 9
    assert np.array_equal(op.toarray(), want)
    x = np.random.default_rng(5).uniform(-1.0, 1.0, shape[1])
    out = np.zeros(shape[0])  # the kernel accumulates into a zeroed out
    product = _bound_product(op, x, out)
    product()
    assert np.abs(out - want @ x).max() <= 1e-15 * np.abs(want @ x).max()
    product()  # a second call without zeroing adds the product again
    assert np.abs(out - 2.0 * (want @ x)).max() <= 1e-15 * np.abs(2.0 * (want @ x)).max()
    # the kernel would write past its arrays: an entry outside the shape, or
    # parts of unequal lengths, is refused before it runs
    for rows, cols, values in (([4], [0], [1.0]), ([0], [6], [1.0]), ([-1], [0], [1.0]),
                               ([0, 1], [0], [1.0, 2.0]), ([0], [0], [1.0, 2.0])):
        with pytest.raises(ValueError, match="do not fit a"):
            _block_operator(shape, [(np.asarray(rows, index_dtype), np.asarray(cols, index_dtype),
                                     np.asarray(values))])
