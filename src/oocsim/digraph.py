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
    """True iff node 0 reaches every node and every node reaches node 0.

    A forward and a backward reachability sweep over `weights > 0`; each
    level of a sweep ORs the columns of the nodes it reached last.
    """
    adj = g.weights > 0  # adj[i, j]: edge j -> i
    for step in (adj, adj.T):
        seen = np.zeros(g.n, dtype=bool)
        seen[0] = True
        frontier = seen
        while frontier.any():
            frontier = step[:, frontier].any(axis=1) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def spectral_data(g: Digraph) -> SpectralData:
    """L, rho, rho_min and lambda2 from one Laplacian and one connectivity check.

    rho solves the augmented overdetermined system {L^T rho = 0, 1^T rho = 1}
    in the least-squares sense; for a strongly connected graph the solution is
    exact, unique and positive.  lambda2 is the second-smallest eigenvalue of
    Lbar = (R L + L^T R)/2 with R = diag(rho).
    """
    if not is_strongly_connected(g):
        raise NotStronglyConnected("left eigenvector requires a strongly connected digraph")
    big_l = laplacian(g)
    aug = np.vstack([big_l.T, np.ones(g.n)])
    rhs = np.zeros(g.n + 1)
    rhs[-1] = 1.0
    rho, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    if np.any(rho <= 0):
        raise NotStronglyConnected("left eigenvector is not positive")
    r = np.diag(rho)
    lbar = 0.5 * (r @ big_l + big_l.T @ r)
    return SpectralData(laplacian=big_l, rho=rho, rho_min=float(rho.min()),
                        lambda2=float(np.linalg.eigvalsh(lbar)[1]))
