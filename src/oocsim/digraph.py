"""Weighted directed graphs and the spectral quantities used for gain selection.

For a strongly connected digraph the Laplacian L has a simple zero eigenvalue
with a positive left eigenvector rho (normalized to sum 1).  The symmetrized
matrix Lbar = (R L + L^T R)/2 with R = diag(rho) is positive semidefinite and
its second-smallest eigenvalue lambda2 measures connectivity strength.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotStronglyConnected

@dataclass(frozen=True)
class Digraph:
    """Directed graph on n nodes; weights[i, j] > 0 iff node i receives from j."""

    n: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if self.n < 1:
            raise ValueError("node count must be >= 1")
        if w.shape != (self.n, self.n):
            raise ValueError(f"weights must be {self.n}x{self.n}, got {w.shape}")
        if np.any(w < 0):
            raise ValueError("edge weights must be nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValueError("self-loops are not allowed")
        object.__setattr__(self, "weights", w)

    @staticmethod
    def from_edges(n, edges):
        """Build from (from_node, to_node, weight) triples with 1-based nodes."""
        w = np.zeros((n, n))
        for src, dst, wt in edges:
            if not (1 <= src <= n and 1 <= dst <= n):
                raise ValueError(f"edge ({src}, {dst}) out of range for n={n}")
            w[dst - 1, src - 1] = wt
        return Digraph(n=n, weights=w)


@dataclass(frozen=True)
class SpectralData:
    """Laplacian plus the left-eigenvector quantities of a strongly connected digraph."""

    laplacian: np.ndarray
    rho: np.ndarray
    rho_min: float
    lambda2: float


def laplacian(g: Digraph) -> np.ndarray:
    """L with l_ii = sum_j a_ij and l_ij = -a_ij; rows sum to zero by construction."""
    return np.diag(g.weights.sum(axis=1)) - g.weights


# A matrix the RHS multiplies by at every RK4 stage is held as CSR when it has
# at least this many rows and at most this share of nonzero entries.
_CSR_MIN_ROWS = 64
_CSR_MAX_DENSITY = 0.1


def _operator(a: np.ndarray):
    """`a` as a scipy.sparse CSR array when it is large and sparse, else `a` itself.

    `_operator(a) @ x` is an ndarray either way.  CSR sums only the nonzeros,
    in its own order, so it can differ from the dense product in the last bits.
    scipy.sparse is imported here only, so dense systems never load it.
    """
    if a.shape[0] < _CSR_MIN_ROWS or np.count_nonzero(a) > _CSR_MAX_DENSITY * a.size:
        return a
    import scipy.sparse
    return scipy.sparse.csr_array(a)


def is_strongly_connected(g: Digraph) -> bool:
    """True iff the digraph forms a single strongly connected component (Tarjan)."""
    n = g.n
    adj = [np.nonzero(g.weights[:, j])[0] for j in range(n)]  # out-neighbors of j
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    counter = 0
    n_sccs = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # iterative Tarjan: (node, iterator position) frames
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                u = int(adj[v][k])
                if index[u] == -1:
                    work[-1] = (v, k + 1)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                n_sccs += 1
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    if u == v:
                        break
    return n_sccs == 1


def _require_strongly_connected(g: Digraph, what):
    if not is_strongly_connected(g):
        raise NotStronglyConnected(f"{what} requires a strongly connected digraph")


def _left_eigenvector(big_l):
    aug = np.vstack([big_l.T, np.ones(big_l.shape[0])])
    rhs = np.zeros(big_l.shape[0] + 1)
    rhs[-1] = 1.0
    rho, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    if np.any(rho <= 0):
        raise NotStronglyConnected("left eigenvector is not positive")
    return rho


def _lambda2(big_l, rho):
    r = np.diag(rho)
    lbar = 0.5 * (r @ big_l + big_l.T @ r)
    eigs = np.linalg.eigvalsh(lbar)
    return float(eigs[1])


def left_eigenvector(g: Digraph) -> np.ndarray:
    """Positive rho with rho^T L = 0 and sum(rho) = 1, by a direct dense solve.

    Solves the augmented overdetermined system {L^T rho = 0, 1^T rho = 1}
    in the least-squares sense; for a strongly connected graph the solution
    is exact and unique.
    """
    _require_strongly_connected(g, "left eigenvector")
    return _left_eigenvector(laplacian(g))


def lambda2(g: Digraph, rho: np.ndarray) -> float:
    """Second-smallest eigenvalue of Lbar = (R L + L^T R)/2 with R = diag(rho)."""
    _require_strongly_connected(g, "lambda2")
    return _lambda2(laplacian(g), rho)


def spectral_data(g: Digraph) -> SpectralData:
    """L, rho and lambda2 from one Laplacian and one connectivity check."""
    _require_strongly_connected(g, "left eigenvector")
    big_l = laplacian(g)
    rho = _left_eigenvector(big_l)
    return SpectralData(laplacian=big_l, rho=rho, rho_min=float(rho.min()),
                        lambda2=_lambda2(big_l, rho))
