"""Distributed optimal coordinator: reference generation over unbalanced digraphs.

Per agent i the coordinator runs

    yr_i' = -(1/xi_i^i) grad c_i(yr_i) - beta1 sum_j a_ij (yr_i - yr_j) - beta2 z_i
    z_i'  =  beta1 sum_j a_ij (yr_i - yr_j),        z_i(0) = 0
    xi_i' = -sum_j a_ij (xi_i - xi_j),              xi_i(0) = e_i

The self-component xi_i^i stays positive and converges to rho_i, which
cancels the graph imbalance without knowing the left eigenvector a priori.
"""

from dataclasses import dataclass

import numpy as np

from .costs import ConvexityBounds, build_gradient
from .digraph import Digraph, _operator, laplacian
from .errors import InvalidSpectrum, XiUnderflow

XI_FLOOR = 1e-9


@dataclass(frozen=True)
class CoordinatorGains:
    beta1: float
    beta2: float
    delta: float

    def __post_init__(self):
        if self.beta1 <= 0 or self.beta2 <= 0 or self.delta <= 0:
            raise ValueError("gains must be positive")


def select_gains(bounds: ConvexityBounds, rho_min: float, lambda2: float) -> CoordinatorGains:
    """Closed-form gain rule satisfying the three selection inequalities.

    delta = iota^2/(4 varpi), beta2 = 4 delta / rho_min, beta1 = 2 beta2^2/(delta lambda2)
    give margins varpi, 2 delta and beta2^2/delta respectively.
    """
    if lambda2 <= 0 or rho_min <= 0:
        raise InvalidSpectrum(f"need lambda2 > 0 and rho_min > 0, got {lambda2}, {rho_min}")
    varpi, iota = bounds.varpi, bounds.iota_bar
    delta = iota ** 2 / (4.0 * varpi)
    beta2 = 4.0 * delta / rho_min
    beta1 = 2.0 * beta2 ** 2 / (delta * lambda2)
    gains = CoordinatorGains(beta1=beta1, beta2=beta2, delta=delta)
    check_gain_inequalities(gains, bounds, rho_min, lambda2)
    return gains


def check_gain_inequalities(gains, bounds, rho_min, lambda2):
    """Assert 2 varpi - iota^2/(4 delta) > 0, beta2 rho_min - 2 delta > 0, beta1 lambda2 - beta2^2/delta > 0."""
    m1 = 2.0 * bounds.varpi - bounds.iota_bar ** 2 / (4.0 * gains.delta)
    m2 = gains.beta2 * rho_min - 2.0 * gains.delta
    m3 = gains.beta1 * lambda2 - gains.beta2 ** 2 / gains.delta
    if not (m1 > 0 and m2 > 0 and m3 > 0):
        raise InvalidSpectrum(
            f"gain inequalities violated: margins ({m1:.3e}, {m2:.3e}, {m3:.3e})")
    return m1, m2, m3


def coordinator_rhs(t, yr, z, xi, big_l, grad_vec, gains: CoordinatorGains):
    """(yr', z', xi') of all agents; xi is (n, n) with row i holding agent i's vector.

    big_l is the Laplacian as an ndarray or, for a large sparse graph, as the
    CSR array `digraph._operator` returns; both give ndarray products.

    Raises XiUnderflow, naming the 1-based agent with the smallest xi_i^i and
    the time t, when that component drops below XI_FLOOR.
    """
    xi_diag = xi.diagonal()
    if xi_diag.min() < XI_FLOOR:
        i = int(xi_diag.argmin())
        raise XiUnderflow(f"agent {i + 1}: xi_i^i = {xi_diag[i]:.3e} below floor "
                          f"{XI_FLOOR:g} at t={t:.6g}", t=t)
    ly = big_l @ yr
    dyr = -grad_vec(yr) / xi_diag - gains.beta1 * ly - gains.beta2 * z
    dz = gains.beta1 * ly
    dxi = -(big_l @ xi)
    return dyr, dz, dxi


@dataclass
class CoordinatorTrajectory:
    times: np.ndarray
    y_r: np.ndarray   # (m, n)
    z: np.ndarray     # (m, n)
    xi: np.ndarray    # (m, n, n)


def coordinator_only_run(g: Digraph, cost_list, gains: CoordinatorGains, y0,
                         horizon, step, record_every=100) -> CoordinatorTrajectory:
    """Integrate only the coordinator layer with RK4 and a decimated record."""
    from .sim import integrate  # sim imports this module

    big_l = _operator(laplacian(g))
    grad_vec = build_gradient(cost_list)
    n = g.n

    def f(t, s):
        dyr, dz, dxi = coordinator_rhs(t, s[:n], s[n:2 * n], s[2 * n:].reshape(n, n),
                                       big_l, grad_vec, gains)
        return np.concatenate([dyr, dz, dxi.ravel()])

    state = np.concatenate([np.asarray(y0, dtype=float), np.zeros(n), np.eye(n).ravel()])
    times, arr = integrate(f, state, step, int(round(horizon / step)), record_every)
    return CoordinatorTrajectory(
        times=times,
        y_r=arr[:, :n],
        z=arr[:, n:2 * n],
        xi=arr[:, 2 * n:].reshape(-1, n, n),
    )
