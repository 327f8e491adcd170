"""Distributed optimal coordinator: reference generation over unbalanced digraphs.

Per agent i the coordinator runs

    yr_i' = -(1/xi_i^i) grad c_i(yr_i) - beta1 sum_j a_ij (yr_i - yr_j) - beta2 z_i
    z_i'  =  beta1 sum_j a_ij (yr_i - yr_j),        z_i(0) = 0
    xi_i' = -sum_j a_ij (xi_i - xi_j),              xi_i(0) = e_i

The self-component xi_i^i stays positive and converges to rho_i, which
cancels the graph imbalance without knowing the left eigenvector a priori.
The xi rows are linear and read no other state, so the xi/v source of `sim`
(`sim.xi_v_source`: RK4 per eigenmode of -L, or the Horner `sim.LinearDriver`
when L is defective or nearly so) advances them outside the per-agent state;
`coordinator_rhs` reads xi_i^i only.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .costs import ConvexityBounds, build_gradient
from .digraph import Digraph, _matvec, _operator, laplacian
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


def coordinator_rhs(t, c, w, l_matvec, grad_vec, gains: CoordinatorGains):
    """(yr', z') of all agents, stacked like c = (yr, z), given w = (xi_diag, v).

    xi_diag holds each agent's xi_i^i at time t; the xi/v source of `sim`
    advances xi (and v, which this layer does not read).  l_matvec is
    x -> L x, from `digraph._matvec` of the Laplacian's `digraph._operator`
    (an ndarray, or a CSR array for a large sparse graph).

    Raises XiUnderflow, naming the 1-based agent with the smallest xi_i^i and
    the time t, when that component drops below XI_FLOOR.
    """
    n = len(c) // 2
    yr, z = c[:n], c[n:]
    xi_diag = w[0]
    if xi_diag.min() < XI_FLOOR:
        i = int(xi_diag.argmin())
        raise XiUnderflow(f"agent {i + 1}: xi_i^i = {xi_diag[i]:.3e} below floor "
                          f"{XI_FLOOR:g} at t={t:.6g}", t=t)
    dz = gains.beta1 * l_matvec(yr)
    return np.concatenate((-grad_vec(yr) / xi_diag - dz - gains.beta2 * z, dz))


@dataclass
class CoordinatorTrajectory:
    times: np.ndarray
    y_r: np.ndarray        # (m, n)
    z: np.ndarray          # (m, n)
    xi_diag: np.ndarray    # (m, n): xi_i^i
    xi_rowsum: np.ndarray  # (m, n): sum_j xi_i^j, 1 for all t in exact arithmetic


def coordinator_only_run(g: Digraph, cost_list, gains: CoordinatorGains, y0,
                         horizon, step, record_every=100) -> CoordinatorTrajectory:
    """Integrate only the coordinator layer with RK4 and a decimated record.

    The state is (yr, z); the xi/v source, here without an exosystem, feeds
    coordinator_rhs its xi_i^i at every RK4 stage.
    """
    from .sim import integrate, xi_v_source  # sim imports this module

    big_l = laplacian(g)
    rhs = partial(coordinator_rhs, l_matvec=_matvec(_operator(big_l)),
                  grad_vec=build_gradient(cost_list), gains=gains)
    driver = xi_v_source(big_l, np.zeros((0, 0)), np.zeros(0), step)
    c0 = np.concatenate([np.asarray(y0, dtype=float), np.zeros(g.n)])
    times, arr = integrate(rhs, c0, step, int(round(horizon / step)), record_every, driver)
    return CoordinatorTrajectory(times=times, y_r=arr[:, :g.n], z=arr[:, g.n:],
                                 xi_diag=driver.xi_diag, xi_rowsum=driver.xi_rowsum)
