"""Internal model construction and the decentralized adaptive stabilizer.

The controller side needs only a controllable Hurwitz pair (M, N) and the
adaptive law; the mode matrix Phi, the Sylvester solution T and the true
feedforward row Psi are verification-only artifacts kept in a separate
truth structure that the control loop never reads.

In the member derivative (`sim.assemble`) every tracker term is a product
of factors linear in the member state: with rho(theta) = theta^4 + 1,
u = psi_hat . eta - k theta - k theta^5, k' = theta^2 + theta^6 and
psi_hat' = -theta eta.  `tracker_linear` gives the pre operator's factor
rows (theta, -theta per eta entry, eta), the three multiplies that write
theta^2, theta^4 and [theta^6; k theta^5], and the main operator's entries,
which sum the features into u, eta', k' and psi_hat'; no per-agent sum is
taken outside that product.
"""

from dataclasses import dataclass

import numpy as np

from .digraph import _frozen
from .errors import DegenerateRoots, NotHurwitz, SingularSystem, SingularT

_HURWITZ_MARGIN = -1e-9
# psi_true refuses a T with a larger condition number
_MAX_T_COND = 1e12


def _companion(bottom_row):
    s = len(bottom_row)
    m = np.zeros((s, s))
    if s > 1:
        m[:-1, 1:] = np.eye(s - 1)
    m[-1, :] = bottom_row
    return m


def companion_pair(s_dim, char_coeffs):
    """Bottom-row companion (M, N) from characteristic coefficients (constant term first).

    M's characteristic polynomial is lambda^s + c_s lambda^{s-1} + ... + c_1,
    so the bottom row is -char_coeffs and N is the last unit vector.
    Raises NotHurwitz unless every eigenvalue has real part < -1e-9.
    The pair is controllable whatever the coefficients: its controllability
    matrix [N, M N, ..., M^(s-1) N] is anti-triangular with ones on the
    anti-diagonal, so its determinant is +-1.
    """
    coeffs = np.asarray(char_coeffs, dtype=float)
    if coeffs.shape != (s_dim,):
        raise ValueError(f"expected {s_dim} coefficients, got {coeffs.shape}")
    m = _companion(-coeffs)
    eigs = np.linalg.eigvals(m)
    if np.any(eigs.real >= _HURWITZ_MARGIN):
        raise NotHurwitz(f"max eigenvalue real part {eigs.real.max():.3e}")
    n_vec = np.zeros(s_dim)
    n_vec[-1] = 1.0
    return m, n_vec


def phi_gamma(frequencies):
    """Companion (Phi, Gamma) whose modes are the given imaginary-axis frequencies.

    Each omega > 0 contributes the conjugate pair +-j omega; omega == 0
    contributes a constant mode.  For a single sinusoid of frequency sigma
    this yields Phi = [[0, 1], [-sigma^2, 0]] and Gamma = [1, 0].
    """
    freqs = [float(w) for w in frequencies]
    if not freqs:
        raise ValueError("expected at least one frequency")
    if any(w < 0 for w in freqs):
        raise ValueError("frequencies must be nonnegative")
    if len(set(freqs)) != len(freqs):
        raise DegenerateRoots(f"repeated mode frequencies in {freqs}")
    # polynomial prod over modes: (x) for omega=0, (x^2 + omega^2) otherwise
    poly = np.array([1.0])
    for w in freqs:
        factor = [1.0, 0.0] if w == 0.0 else [1.0, 0.0, w * w]
        poly = np.polymul(poly, factor)
    s = len(poly) - 1
    # x^s = -poly[1] x^{s-1} - ... - poly[s]; bottom row holds ell_1 .. ell_s
    bottom = -poly[1:][::-1]
    phi = _companion(bottom)
    gamma = np.zeros(s)
    gamma[0] = 1.0
    return phi, gamma


def solve_sylvester(m, n_vec, phi, gamma):
    """Solve T Phi - M T = N Gamma by Kronecker vectorization; checks the residual."""
    s = m.shape[0]
    if phi.shape != (s, s):
        raise ValueError("M and Phi must have equal dimension")
    op = np.kron(phi.T, np.eye(s)) - np.kron(np.eye(s), m)
    rhs = np.outer(n_vec, gamma)
    try:
        vec_t = np.linalg.solve(op, rhs.ravel(order="F"))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("Sylvester operator singular; spectra overlap?") from exc
    t = vec_t.reshape((s, s), order="F")
    res = np.linalg.norm(t @ phi - m @ t - rhs)
    if not np.isfinite(res) or res > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        raise SingularSystem(f"Sylvester residual {res:.3e} too large; spectra overlap?")
    return t


def sylvester_residual(t, m, n_vec, phi, gamma):
    return float(np.linalg.norm(t @ phi - m @ t - np.outer(n_vec, gamma)))


def psi_true(t, gamma=None):
    """Psi = Gamma T^{-1}, solved as T^T Psi^T = Gamma^T; Gamma defaults to the first unit row.

    Raises SingularT when T is singular to working precision, by a test of
    its condition number that, unlike det T, does not depend on T's scale.
    """
    s = t.shape[0]
    if gamma is None:
        gamma = np.zeros(s)
        gamma[0] = 1.0
    if not np.linalg.cond(t) <= _MAX_T_COND:
        raise SingularT("Sylvester solution is not invertible")
    return np.linalg.solve(t.T, gamma)


@dataclass(frozen=True)
class InternalModelSpec:
    """Controller-side internal model data: the controllable Hurwitz pair.

    M and N_vec are read-only float copies of the arrays given, as
    `Digraph.weights` is.
    """

    s_dim: int
    M: np.ndarray
    N_vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "M", _frozen(self.M))
        object.__setattr__(self, "N_vec", _frozen(self.N_vec))

    @staticmethod
    def from_coeffs(char_coeffs):
        m, n_vec = companion_pair(len(char_coeffs), char_coeffs)
        return InternalModelSpec(s_dim=len(char_coeffs), M=m, N_vec=n_vec)


@dataclass(frozen=True)
class FeedforwardTruth:
    """Verification-only: Sylvester solution, true Psi row and its residual."""

    T: np.ndarray
    Psi: np.ndarray
    residual: float

    @staticmethod
    def build(im: InternalModelSpec, frequencies):
        phi, gamma = phi_gamma(frequencies)
        if phi.shape[0] != im.s_dim:
            raise ValueError(
                f"mode count gives order {phi.shape[0]}, internal model has {im.s_dim}")
        t = solve_sylvester(im.M, im.N_vec, phi, gamma)
        return FeedforwardTruth(
            T=t, Psi=psi_true(t, gamma),
            residual=sylvester_residual(t, im.M, im.N_vec, phi, gamma))


@dataclass(frozen=True)
class TrackerParams:
    gamma: float = 2.0

    def __post_init__(self):
        if self.gamma < 1.5:
            raise ValueError("gamma must be >= 1.5")


@dataclass(frozen=True)
class StackedInternalModel:
    """All agents' internal models as one block-diagonal system over the stacked eta."""

    M_entries: tuple   # block_diag(M_1, ..., M_n)'s nonzeros as COO (rows, cols, values)
    N: np.ndarray      # N_1, ..., N_n concatenated
    owner: np.ndarray  # agent index of each entry of eta

    @staticmethod
    def stack(im_specs):
        s_dims = [im.s_dim for im in im_specs]
        starts = np.cumsum([0] + s_dims[:-1])
        # one group of block offsets per distinct spec, so agents that share a
        # spec cost one broadcast and not one call each
        groups = {}
        for im, start in zip(im_specs, starts.tolist()):
            groups.setdefault(id(im), (im, []))[1].append(start)
        parts = []
        for im, offsets in groups.values():
            rows, cols = np.nonzero(im.M)
            offsets = np.array(offsets)[:, None]
            parts.append(((offsets + rows).ravel(), (offsets + cols).ravel(),
                          np.tile(im.M[rows, cols], len(offsets))))
        return StackedInternalModel(
            M_entries=tuple(np.concatenate(x) for x in zip(*parts)),
            N=np.concatenate([im.N_vec for im in im_specs]),
            owner=np.repeat(np.arange(len(s_dims)), s_dims))


def tracker_linear(slices, gamma, im, partner, product, theta2, high):
    """The tracker's terms as COO parts (rows, cols, values), and its writer: (pre, main, u, bind).

    The member derivative's first product multiplies each state entry j by
    its partner, pre row partner + j, into feature column product + j.  pre
    gives the partners of the tracker's entries: the filtered error
    theta = x2 + gamma x1 - gamma yr for k, -theta of the owning agent for
    each eta entry, and eta itself for psi_hat, so that product writes
    k theta, -theta eta and psi_hat eta.  bind(pre_out, buf) returns the
    multiplies (a, b, out) that write the rest, from the pre product's
    output and the feature buffer buf: theta^2 at column theta2, theta^4
    into a scratch of its own, and [theta^6; k theta^5] = [theta^2; k theta]
    theta^4 at columns high .. high + 2n, one broadcast over a (2, n) view
    whose rows are theta2 and k theta's columns; theta2 must come first, at
    least that far from the end of buf.

    With rho(theta) = theta^4 + 1, the control u = psi_hat . eta - k rho
    theta, the gain rate k' = rho theta^2 and psi_hat' = -theta eta are then
    sums of these features.  u = (cols, owners, signs) lists the terms of
    the control: every psi_hat eta (+), k theta (-) and k theta^5 (-), with
    the agent whose u each enters, so the main operator sums u per agent.
    main holds M eta, N of each term's agent onto its eta' rows, -theta eta
    onto psi_hat', and theta^2 and theta^6 onto k'.  With im=None (the
    internal model ablated) eta and psi_hat get no partners and no rates,
    and u = -k theta - k theta^5.  slices maps "yr", "x1", "x2", "eta", "k"
    and "psi" to their slices of the member state.
    """
    k, eta, psi = (slices[key].start for key in ("k", "eta", "psi"))
    n = slices["k"].stop - k
    agents, ones = np.arange(n), np.ones(n)
    terms = [(slices[key].start, coef) for key, coef in
             (("x2", 1.0), ("x1", gamma), ("yr", -gamma))]
    pre = [(partner + k + agents, col + agents, np.full(n, coef)) for col, coef in terms]
    main = [(k + agents, theta2 + agents, ones), (k + agents, high + agents, ones)]
    cols, owners = [product + k + agents, high + n + agents], [agents, agents]
    positive = 0  # the psi_hat eta terms lead
    if im is not None:
        positive = len(im.owner)
        entries = np.arange(positive)
        pre += [(partner + eta + entries, im.owner + col, np.full(positive, -coef))
                for col, coef in terms]
        pre.append((partner + psi + entries, eta + entries, np.ones(positive)))
        cols.insert(0, product + psi + entries)
        owners.insert(0, im.owner)
    cols, owners = np.concatenate(cols), np.concatenate(owners)
    signs = np.full(len(cols), -1.0)
    signs[:positive] = 1.0
    if im is not None:
        rows, m_cols, values = im.M_entries
        main += [(rows + eta, m_cols + eta, values),
                 (psi + entries, product + eta + entries, np.ones(positive))]
        # N u: each term reaches the eta entries of its agent where N is
        # nonzero, which are one run per agent since im.owner is sorted
        reached = np.flatnonzero(im.N)
        first, stop = (np.searchsorted(im.owner[reached], agents, side)
                       for side in ("left", "right"))
        count = stop - first
        for j in range(count.max(initial=0)):  # the j-th reached entry of each agent
            has = count[owners] > j
            entry = reached[first[owners[has]] + j]
            main.append((entry + eta, cols[has], signs[has] * im.N[entry]))

    def bind(pre_out, buf):
        theta = pre_out[partner + k:partner + k + n]
        theta4 = np.empty(n)
        square = buf[theta2:theta2 + n]
        step = product + k - theta2
        pair = buf[theta2:theta2 + 2 * step].reshape(2, step)[:, :n]
        return [(theta, theta, square), (square, square, theta4),
                (pair, theta4, buf[high:high + 2 * n].reshape(2, n))]

    return pre, main, (cols, owners, signs), bind
