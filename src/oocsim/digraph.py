"""Weighted directed graphs and the spectral quantities used for gain selection.

For a strongly connected digraph the Laplacian L has a simple zero eigenvalue
with a positive left eigenvector rho (normalized to sum 1).  The symmetrized
matrix Lbar = (R L + L^T R)/2 with R = diag(rho) is positive semidefinite and
its second-smallest eigenvalue lambda2 measures connectivity strength.
"""

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain

import numpy as np
from scipy.sparse import _sparsetools, csr_array

from .errors import InvalidSpectrum, NotStronglyConnected


def _frozen(a):
    """A read-only float64 copy of a."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _instance(cls, fields):
    """An instance of cls whose attributes are the dict fields, made without cls's __init__.

    For a frozen dataclass it is what cls(**fields) builds, in one dict
    update in place of a frozen __setattr__ call per field, and it is just
    as frozen; no __post_init__ runs, so the caller makes cls's checks itself.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Digraph:
    """Directed graph on n nodes; weights[i, j] > 0 iff node i receives from j.

    weights is a read-only float copy of the array given, so a graph never
    changes once built (a sweep's members share it and the set-up built
    from it) and the caller's array stays writable.
    """

    n: int
    weights: np.ndarray

    def __post_init__(self):
        w = _frozen(self.weights)
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
    """Laplacian plus the left-eigenvector quantities of a strongly connected digraph.

    `spectral_data` makes laplacian and rho read-only.  lambda2 is computed
    when first read and kept: only the gain rule and `oocsim graph` read it,
    so a run with fixed gains never factors Lbar.
    """

    laplacian: np.ndarray
    rho: np.ndarray
    rho_min: float

    @cached_property
    def lambda2(self) -> float:
        """The second-smallest eigenvalue of Lbar = (R L + L^T R)/2, R = diag(rho).

        R L is formed by scaling L's rows, not by a matrix product.
        """
        rl = self.rho[:, None] * self.laplacian
        return float(np.linalg.eigvalsh(0.5 * (rl + rl.T))[1])


def laplacian(g: Digraph) -> np.ndarray:
    """L with l_ii = sum_j a_ij and l_ij = -a_ij; rows sum to zero by construction."""
    return np.diag(g.weights.sum(axis=1)) - g.weights


def _diagonal(row, col, values):
    """The COO part (rows, cols, values) of a diagonal block whose first entry is at (row, col)."""
    idx = np.arange(len(values))
    return idx + row, idx + col, values


def _table(rows, width):
    """Equal-width rows of numbers as one float (len(rows), width) array, in one flat read."""
    return np.fromiter(chain.from_iterable(rows), float, width * len(rows)).reshape(-1, width)


# the attributes scipy's constructor gives a CSR array, of which `_block_operator`
# replaces the arrays and the shape
_CSR_ATTRIBUTES = vars(csr_array((0, 0)))


def _block_operator(shape, parts):
    """One CSR operator of `shape` from COO parts (rows, cols, values); entries that meet add.

    scipy's private kernel `coo_tocsr` lays the stacked parts out row by
    row, each row's entries in the order given, so the operator is never
    formed densely and nothing is sorted.  Entries that meet stay separate
    entries of the CSR arrays, and every product (`_bound_product`, `@`)
    and `.toarray()` adds them.  No parts give an operator without entries.
    Raises ValueError when the parts' lengths differ or an entry lies
    outside `shape`: the kernel checks nothing, and would write past its
    arrays.  Those checks are the only ones made: the CSR array is set up
    directly, as its constructor would set it up, without the constructor's
    checks of the kernel's output.
    """
    rows, cols, values = (np.concatenate(x) for x in zip(*parts)) if parts else [np.empty(0)] * 3
    rows, cols, nnz = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False), len(values)
    if not len(rows) == len(cols) == nnz or nnz and (
            min(rows.min(), cols.min()) < 0 or rows.max() >= shape[0] or cols.max() >= shape[1]):
        raise ValueError(f"COO parts of lengths {len(rows)}, {len(cols)} and {nnz} "
                         f"do not fit a {shape} operator")
    indptr, indices, data = np.empty(shape[0] + 1, np.intp), np.empty(nnz, np.intp), np.empty(nnz)
    _sparsetools.coo_tocsr(*shape, nnz, rows, cols, values.astype(float, copy=False),
                           indptr, indices, data)
    # what csr_array((data, indices, indptr), shape=shape) builds, without its
    # checks and index scans of what the kernel has just written
    return _instance(csr_array, {**_CSR_ATTRIBUTES, "_shape": (int(shape[0]), int(shape[1])),
                                 "indptr": indptr, "indices": indices, "data": data})


def _bound_product(op, x, out):
    """The function () -> out += op @ x for a CSR op on fixed vectors, checked once here.

    Raises ValueError now, not at a call, when op is not CSR, when x and
    out do not fit its shape, when op, x or out is not float64, when x or
    out is not C-contiguous, or when out overlaps x.  It is scipy's private
    accumulating kernel `csr_matvec` (Y += A X) with its arguments bound,
    so its caller zeroes out first, and it has none of the few µs of checks
    and dispatch, or the fresh result, of `@`; for an operator without rows
    it does nothing.  The kernel checks nothing, so any array the function
    reads or writes must stay the one bound here.  It sums each row's
    entries in their stored order, so it can differ from a dense product in
    the last bits.
    """
    if getattr(op, "format", None) != "csr":
        raise ValueError(f"operator must be a CSR array, got {type(op).__name__}")
    rows, cols = op.shape
    if x.shape != (cols,) or out.shape != (rows,):
        raise ValueError(f"operator {op.shape} cannot map x {x.shape} into out {out.shape}")
    if any(a.dtype != np.float64 for a in (op, x, out)):
        raise ValueError(f"operator, x and out must be float64, "
                         f"got {', '.join(str(a.dtype) for a in (op, x, out))}")
    if not (x.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError(f"x and out must be C-contiguous, "
                         f"got strides {x.strides} and {out.strides}")
    if np.may_share_memory(x, out):
        raise ValueError("out must not overlap x")
    return partial(_sparsetools.csr_matvec, rows, cols, op.indptr, op.indices, op.data, x, out)


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
    """L, rho and rho_min from one Laplacian and one connectivity check; lambda2 on demand.

    rho is the left null vector of L normalized to 1^T rho = 1, found by one
    square solve of (L^T + 1 1^T) rho = 1.  For a strongly connected graph
    that matrix is nonsingular: if (L^T + 1 1^T) x = 0, multiplying by 1^T
    gives n 1^T x = 0 because L 1 = 0, so L^T x = 0 and x is a multiple of
    rho, which 1^T x = 0 makes zero.  lambda2 (`SpectralData.lambda2`) is
    computed when first read.  It needs at least two nodes, so a one-node
    graph raises InvalidSpectrum here.
    """
    if g.n < 2:
        raise InvalidSpectrum(f"lambda2 needs a graph of at least 2 nodes, got n = {g.n}")
    if not is_strongly_connected(g):
        raise NotStronglyConnected("left eigenvector requires a strongly connected digraph")
    big_l = laplacian(g)
    rho = np.linalg.solve(big_l.T + 1.0, np.ones(g.n))
    if np.any(rho <= 0):
        raise NotStronglyConnected("left eigenvector is not positive")
    big_l.flags.writeable = rho.flags.writeable = False  # the Systems of one plan share them
    return SpectralData(laplacian=big_l, rho=rho, rho_min=float(rho.min()))
