import numpy as np
import pytest

from oocsim import costs
from oocsim.coordinator import (CoordinatorGains, check_gain_inequalities, coordinator_linear,
                                coordinator_nonlinear, coordinator_only_run, select_gains)
from oocsim.costs import ConvexityBounds
from oocsim.digraph import Digraph, _block_operator, laplacian, spectral_data
from oocsim.errors import InvalidSpectrum, XiUnderflow
from oocsim.sim import LinearDriver


def test_select_gains_closed_form_small():
    g = select_gains(ConvexityBounds(varpi=0.2, iota_bar=0.2), 1.0 / 3.0, 1.0)
    assert abs(g.delta - 0.05) < 1e-12
    assert abs(g.beta2 - 0.6) < 1e-12
    assert abs(g.beta1 - 14.4) < 1e-12


def test_select_gains_closed_form_unit():
    g = select_gains(ConvexityBounds(varpi=1.0, iota_bar=1.0), 1.0, 2.0)
    assert (g.delta, g.beta2, g.beta1) == (0.25, 1.0, 4.0)


def test_select_gains_margin_identity():
    bounds = ConvexityBounds(varpi=0.7, iota_bar=1.3)
    g = select_gains(bounds, 0.2, 0.5)
    m1, m2, m3 = check_gain_inequalities(g, bounds, 0.2, 0.5)
    assert abs(m1 - bounds.varpi) < 1e-12  # 2*varpi - iota^2/(4 delta) = varpi exactly
    assert m2 > 0 and m3 > 0


def test_select_gains_invalid_spectrum():
    with pytest.raises(InvalidSpectrum):
        select_gains(ConvexityBounds(varpi=1.0, iota_bar=1.0), 0.0, 1.0)
    with pytest.raises(InvalidSpectrum):
        select_gains(ConvexityBounds(varpi=1.0, iota_bar=1.0), 1.0, -1.0)


def single_agent():
    return Digraph(n=1, weights=np.zeros((1, 1)))


def rhs_at(g, cost_list, gains, yr, z=None, xi=None, t=0.0):
    """(yr', z', xi') at one state; z defaults to 0 and xi to the identity.

    yr' and z' are the product with `coordinator_linear`'s operator plus
    `coordinator_nonlinear`, which reads diag xi; xi' = -B xi comes from the
    operator the xi/v driver advances xi with.
    """
    n = g.n
    z = np.zeros(n) if z is None else z
    xi = np.eye(n) if xi is None else xi
    big_l = laplacian(g)
    op = _block_operator((2 * n, 2 * n), coordinator_linear(big_l, gains))
    dc = op @ np.concatenate([yr, z])
    coordinator_nonlinear(t, dc[:n], yr, xi.diagonal(), costs.build_gradient(cost_list))
    driver = LinearDriver(big_l, np.zeros((0, 0)), np.zeros(0), 1e-3)
    return dc[:n], dc[n:], -(driver.b @ xi)


def test_derivative_single_agent_gradient_flow():
    g = single_agent()
    c = [costs.quadratic(1.0, 5.0)]
    gains = CoordinatorGains(beta1=1.0, beta2=1.0, delta=1.0)
    dyr, dz, dxi = rhs_at(g, c, gains, np.array([0.0]))
    assert abs(dyr[0] - (-c[0].grad(0.0))) < 1e-15
    assert dz[0] == 0.0
    assert np.all(dxi == 0.0)


def test_derivative_zero_at_equilibrium(fig3_graph):
    cost_list = [costs.quadratic(0.1, float(i)) for i in range(1, 6)]
    rho = spectral_data(fig3_graph).rho
    gains = CoordinatorGains(beta1=20.0, beta2=2.0, delta=1.0)
    s_star = 3.0
    y_bar = np.full(5, s_star)
    # z_bar from the equilibrium relation beta2 z = -Xi^{-1} grad c(s*) (L y = 0)
    grads = np.array([c.grad(s_star) for c in cost_list])
    z_bar = -grads / rho / gains.beta2
    assert abs(rho @ z_bar) < 1e-12
    dyr, dz, dxi = rhs_at(fig3_graph, cost_list, gains, y_bar, z_bar,
                          np.outer(np.ones(5), rho))
    assert np.abs(dyr).max() < 1e-12
    assert np.abs(dz).max() < 1e-12
    assert np.abs(dxi).max() < 1e-12


def test_derivative_zero_disagreement():
    g = Digraph.from_edges(2, [(1, 2, 1.0), (2, 1, 1.0)])
    cost_list = [costs.quadratic(0.3, 2.0), costs.quadratic(0.4, 2.0)]
    gains = CoordinatorGains(beta1=5.0, beta2=1.0, delta=1.0)
    dyr, _, _ = rhs_at(g, cost_list, gains, np.array([2.0, 2.0]))
    assert np.abs(dyr).max() < 1e-15


def test_xi_underflow_raises(fig3_graph):
    cost_list = [costs.quadratic(0.1, float(i)) for i in range(1, 6)]
    xi = np.eye(5)
    xi[2, 2] = 1e-12
    gains = CoordinatorGains(beta1=1.0, beta2=1.0, delta=1.0)
    with pytest.raises(XiUnderflow, match=r"agent 3\b.*t=1\.25") as info:
        rhs_at(fig3_graph, cost_list, gains, np.zeros(5), xi=xi, t=1.25)
    assert info.value.t == 1.25


def test_single_agent_run_converges():
    traj = coordinator_only_run(single_agent(), [costs.quadratic(1.0, 5.0)],
                                CoordinatorGains(beta1=1.0, beta2=1.0, delta=1.0),
                                np.array([0.0]), horizon=20.0, step=1e-3)
    assert abs(traj.y_r[-1, 0] - 5.0) < 1e-8


def test_run_sample_count_and_times(fig3_graph):
    cost_list = [costs.quadratic(0.1, float(i)) for i in range(1, 6)]
    gains = CoordinatorGains(beta1=20.0, beta2=2.0, delta=1.0)
    traj = coordinator_only_run(fig3_graph, cost_list, gains, np.zeros(5),
                                horizon=2.0, step=1e-3, record_every=100)
    assert len(traj.times) == 21  # floor(T/(h*record_every)) + 1
    assert np.all(np.diff(traj.times) > 0)


def test_conservation_short_run(fig3_graph):
    cost_list = [costs.quadratic(0.1, float(i)) for i in range(1, 6)]
    gains = CoordinatorGains(beta1=20.0, beta2=2.0, delta=1.0)
    rho = spectral_data(fig3_graph).rho
    traj = coordinator_only_run(fig3_graph, cost_list, gains,
                                np.array([-3.0, 1.0, 4.0, 0.5, -1.0]),
                                horizon=5.0, step=1e-3)
    assert np.abs(traj.z @ rho).max() < 1e-10
    assert np.abs(traj.xi_rowsum - 1.0).max() < 1e-10


def test_exponential_rate_evidence(fig3_graph):
    cost_list = [costs.quadratic(0.1, float(i)) for i in range(1, 6)]
    gains = CoordinatorGains(beta1=20.0, beta2=2.0, delta=1.0)
    traj = coordinator_only_run(fig3_graph, cost_list, gains,
                                np.array([-3.0, 1.0, 4.0, 0.5, -1.0]),
                                horizon=40.0, step=1e-3)
    err = np.linalg.norm(traj.y_r - 3.0, axis=1)
    half = len(err) // 2
    mask = err[half:] > 1e-14
    logs = np.log(err[half:][mask])
    slope = np.polyfit(traj.times[half:][mask], logs, 1)[0]
    assert slope < 0
    # optimality condition at convergence
    agg = sum(c.grad(traj.y_r[-1, i]) for i, c in enumerate(cost_list))
    assert abs(agg) < 1e-6
