"""Internal model construction and the decentralized adaptive stabilizer.

The controller side needs only a controllable Hurwitz pair (M, N) and the
adaptive law; the mode matrix Phi, the Sylvester solution T and the true
feedforward row Psi are verification-only artifacts kept in a separate
truth structure that the control loop never reads.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .digraph import _matvec, _operator
from .errors import DegenerateRoots, NotHurwitz, SingularSystem, SingularT

_HURWITZ_MARGIN = -1e-9


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
    _assert_controllable(m, n_vec)
    return m, n_vec


def _assert_controllable(m, n_vec):
    s = m.shape[0]
    ctrb = np.column_stack([np.linalg.matrix_power(m, k) @ n_vec for k in range(s)])
    _, r, _ = scipy.linalg.qr(ctrb, pivoting=True)
    rank = int(np.sum(np.abs(np.diag(r)) > 1e-9 * max(1.0, abs(r[0, 0]))))
    if rank != s:
        raise ValueError(f"(M, N) not controllable: rank {rank} < {s}")


def phi_gamma(frequencies):
    """Companion (Phi, Gamma) whose modes are the given imaginary-axis frequencies.

    Each omega > 0 contributes the conjugate pair +-j omega; omega == 0
    contributes a constant mode.  For a single sinusoid of frequency sigma
    this yields Phi = [[0, 1], [-sigma^2, 0]] and Gamma = [1, 0].
    """
    freqs = [float(w) for w in frequencies]
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
    """Psi = Gamma T^{-1}; Gamma defaults to the first unit row."""
    s = t.shape[0]
    if gamma is None:
        gamma = np.zeros(s)
        gamma[0] = 1.0
    if abs(np.linalg.det(t)) < 1e-12:
        raise SingularT("Sylvester solution is not invertible")
    return gamma @ np.linalg.inv(t)


@dataclass(frozen=True)
class InternalModelSpec:
    """Controller-side internal model data: the controllable Hurwitz pair."""

    s_dim: int
    M: np.ndarray
    N_vec: np.ndarray

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

    M: object           # block_diag(M_1, ..., M_n), CSR when large and sparse
    N: np.ndarray       # N_1, ..., N_n concatenated
    starts: np.ndarray  # offset of agent i's block in eta
    owner: np.ndarray   # agent index of each entry of eta
    matvec: callable = field(init=False, repr=False, compare=False)  # eta -> M eta

    def __post_init__(self):
        object.__setattr__(self, "matvec", _matvec(self.M))

    @staticmethod
    def stack(im_specs):
        s_dims = [im.s_dim for im in im_specs]
        starts = np.cumsum([0] + s_dims[:-1])
        # one slice per agent: scipy.linalg.block_diag takes about 20x as long
        # for 200 blocks of 2x2
        m = np.zeros((sum(s_dims), sum(s_dims)))
        for im, start in zip(im_specs, starts.tolist()):
            m[start:start + im.s_dim, start:start + im.s_dim] = im.M
        return StackedInternalModel(
            M=_operator(m),
            N=np.concatenate([im.N_vec for im in im_specs]),
            starts=starts,
            owner=np.repeat(np.arange(len(s_dims)), s_dims))


def tracker_rhs(x1, x2, yr, eta, k, psi, gamma, im: StackedInternalModel):
    """Control u and (eta', k', psi_hat') of all agents.

    theta = x2 + gamma (x1 - yr) and rho(theta) = theta^4 + 1 give
    u = -k rho(theta) theta + psi_hat_i . eta_i, eta' = M eta + N u,
    k' = rho(theta) theta^2 and psi_hat' = -eta theta.  With im=None the
    internal model is ablated: u drops psi_hat . eta, and eta' = psi_hat' = 0.
    theta^4 is (theta^2)^2: `theta ** 4` calls libm pow, about 7x slower.
    """
    theta = x2 + gamma * (x1 - yr)
    theta2 = theta * theta
    rho = theta2 * theta2 + 1.0
    u = -k * rho * theta
    dk = rho * theta2
    if im is None:
        return u, (np.zeros_like(eta), dk, np.zeros_like(psi))
    u = u + np.add.reduceat(psi * eta, im.starts)
    return u, (im.matvec(eta) + im.N * u[im.owner], dk, -eta * theta[im.owner])
