"""Weighted directed graphs and the spectral quantities used for gain selection.

For a strongly connected digraph the Laplacian L has a simple zero eigenvalue
with a positive left eigenvector rho (normalized to sum 1).  The symmetrized
matrix Lbar = (R L + L^T R)/2 with R = diag(rho) is positive semidefinite and
its second-smallest eigenvalue lambda2 measures connectivity strength.
"""

from dataclasses import dataclass
from functools import partial

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

# scipy's private CSR kernels, bound by `_operator` when it makes the first
# CSR array, so a CSR operator always finds them
_sparsetools = None
_FLOAT64 = np.dtype(np.float64)  # comparing to a dtype is faster than to a type


def _operator(a: np.ndarray):
    """`a` as a scipy.sparse CSR array when it is large and sparse, else `a` itself.

    Operators on the step path are applied with `_add_product` and `_matvec`,
    not `@`.  For a dense operator those run the same numpy calls as `@`.  For
    CSR they call scipy's private accumulating kernels
    `scipy.sparse._sparsetools.csr_matvec` and `csr_matvecs` (Y += A X)
    directly, on the caller's buffers: `@` allocates and zero-fills its
    result and runs a few µs of Python checks and dispatch per call, and
    adding a base to it then needs a second full pass.  The kernels check
    nothing and silently work on a hidden copy of a non-contiguous or wrongly
    typed output, so every call first checks that the operator, x and the
    output are float64, that x and the output are C-contiguous and of the
    operator's shapes, and that they do not overlap; it raises ValueError
    otherwise.  CSR sums only the nonzeros, in its own order, so it can
    differ from the dense product in the last bits.  scipy.sparse is
    imported here only, so dense systems never load it.
    """
    global _sparsetools
    if a.shape[0] < _CSR_MIN_ROWS or np.count_nonzero(a) > _CSR_MAX_DENSITY * a.size:
        return a
    import scipy.sparse
    from scipy.sparse import _sparsetools
    return scipy.sparse.csr_array(a)


def _kernel(op, x, base, out):
    """out = base + op @ x for a CSR op through scipy's kernel; returns out.

    Checks the operator, x and out before it writes anything; base is then
    copied into out unless it is out, and the kernel adds the product.
    """
    rows, cols = op.shape
    if x.ndim > 2 or x.shape[:1] != (cols,) or out.shape != (rows,) + x.shape[1:]:
        raise ValueError(f"operator {op.shape} cannot map x {x.shape} into out {out.shape}")
    if op.dtype != _FLOAT64 or x.dtype != _FLOAT64 or out.dtype != _FLOAT64:
        raise ValueError(f"operator, x and out must be float64, "
                         f"got {op.dtype}, {x.dtype} and {out.dtype}")
    if not (x.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError(f"x and out must be C-contiguous, "
                         f"got strides {x.strides} and {out.strides}")
    if base is not out:
        np.copyto(out, base)
    if x.ndim == 1:
        _sparsetools.csr_matvec(rows, cols, op.indptr, op.indices, op.data, x, out)
    else:
        _sparsetools.csr_matvecs(rows, cols, x.shape[1], op.indptr, op.indices, op.data,
                                 x.ravel(), out.ravel())
    return out


def _add_product(op, x, base, out):
    """out = base + op @ x for an `_operator` op; returns out.

    Dense: np.add(base, op @ x, out=out).  CSR: base goes into out (no copy
    when out is base) and the kernel adds the product to it in place; out
    must not overlap x, which the kernel reads while it writes out.
    """
    if isinstance(op, np.ndarray):
        return np.add(base, op @ x, out=out)
    if np.may_share_memory(x, out):
        raise ValueError("out must not overlap x")
    return _kernel(op, x, base, out)


def _matvec(op):
    """The function x -> op @ x for an `_operator` op and a vector x, as a new ndarray.

    The dense or CSR path is chosen here, once, so the products of the step
    path pay no dispatch: dense gives op's own `@`, CSR the guarded kernel
    on a zeroed output.
    """
    if isinstance(op, np.ndarray):
        return op.__matmul__
    return partial(_csr_matvec, op)


def _csr_matvec(op, x):
    out = np.zeros(op.shape[0])
    return _kernel(op, x, out, out)


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
