"""Distributed optimal coordinator: reference generation over unbalanced digraphs.

Per agent i the coordinator runs

    yr_i' = -(1/xi_i^i) grad c_i(yr_i) - beta1 sum_j a_ij (yr_i - yr_j) - beta2 z_i
    z_i'  =  beta1 sum_j a_ij (yr_i - yr_j),        z_i(0) = 0
    xi_i' = -sum_j a_ij (xi_i - xi_j),              xi_i(0) = e_i

The self-component xi_i^i stays positive and converges to rho_i, which
cancels the graph imbalance without knowing the left eigenvector a priori.
The xi rows are linear and read no other state, so the xi source of `sim`
(`sim.ModalSource`, built by `sim.SourceParts`: RK4 per eigenmode of -L,
with one small real block for the modes of a defective or nearly defective
L, empty on a well-conditioned one) advances them outside the per-agent
state.
Everything in yr' and z' but the gradient term is linear in (yr, z):
`coordinator_linear` gives those entries of a derivative's main operator,
and the -1 that scatters the feature grad c_i(yr_i)/xi_i^i onto yr'; one
builder binds it over the member state (`sim.bind_derivative`) or over
(yr, z) alone (`sim.coordinator_derivative`), and either reads xi_i^i only.
The floor xi_i^i >= `sim.XI_FLOOR` is a property of the xi trajectory alone,
so the xi source checks it once per RK4 step over all four stage inputs
(`sim.check_xi_floor`), not the member derivative at each stage.  This module
keeps the coordinator's gains, its linear parts and its own run
(`coordinator_only_run`); the RK4 step, its loop and its stage checks are
`sim`'s.
"""

from dataclasses import dataclass

import numpy as np

from .costs import ConvexityBounds
from .digraph import Digraph, _diagonal, laplacian
from .errors import InvalidSpectrum


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


def coordinator_linear(big_l, gains: CoordinatorGains, grad_col):
    """(yr', z') as COO parts (rows, cols, values) of a main operator.

    Over a buffer that leads with (yr, z) and holds grad c / xi at columns
    grad_col.., yr' is -beta1 L yr - beta2 z - grad c / xi and z' is
    beta1 L yr.  The entries come from L's nonzeros, so the operator built
    from them keeps L's sparsity.
    """
    n = len(big_l)
    rows, cols = np.nonzero(big_l)
    weights = gains.beta1 * big_l[rows, cols]
    return [(rows, cols, -weights), _diagonal(0, n, np.full(n, -gains.beta2)),
            (rows + n, cols, weights), _diagonal(0, grad_col, np.full(n, -1.0))]


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

    The state is (yr, z) and its derivative `sim.coordinator_derivative`,
    which the xi source feeds xi_i^i at every RK4 stage; the source checks
    the xi floor once per step, as in `sim.run`, and its snapshots give
    xi_diag and xi_rowsum.  A timing a scenario refuses raises ValueError
    (`sim.step_count`).
    """
    from .sim import SourceParts, coordinator_derivative, integrate, step_count  # sim imports this

    n_steps = step_count(horizon, step, record_every)
    n = g.n
    big_l = laplacian(g)
    c0 = np.concatenate([np.asarray(y0, dtype=float), np.zeros(n)])
    f, source = coordinator_derivative(big_l, gains, cost_list), SourceParts(big_l).source(step)
    times, arr, (xi_diag, xi_rowsum) = integrate(f, c0, step, n_steps, record_every, source)
    return CoordinatorTrajectory(times=times, y_r=arr[:, :n], z=arr[:, n:],
                                 xi_diag=xi_diag, xi_rowsum=xi_rowsum)
