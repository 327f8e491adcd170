import json
import math
import re
from importlib import resources

import numpy as np
import pytest

from oocsim import costs
from oocsim.coordinator import (CoordinatorGains, check_gain_inequalities, coordinator_only_run,
                                select_gains)
from oocsim.costs import ConvexityBounds
from oocsim.digraph import Digraph, laplacian, spectral_data
from oocsim.errors import InvalidSpectrum, XiUnderflow
from oocsim.scenario import scenario_from_dict
from oocsim import sim
from oocsim.sim import SourceParts, assemble, check_xi_floor, coordinator_derivative, run


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


def rhs_at(g, cost_list, gains, yr, z=None, xi=None):
    """(yr', z', xi') at one state; z defaults to 0 and xi to the identity.

    yr' and z' come from the coordinator-only derivative
    (`sim.coordinator_derivative`), which reads diag xi; xi' = -L xi is the
    system the xi source advances.
    """
    n = g.n
    z = np.zeros(n) if z is None else z
    xi = np.eye(n) if xi is None else xi
    big_l = laplacian(g)
    derivative = coordinator_derivative(big_l, gains, cost_list)
    dc = derivative(0.0, np.concatenate([yr, z]), xi.diagonal())
    return dc[:n], dc[n:], -(big_l @ xi)


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


def test_xi_underflow_raises(monkeypatch):
    # xi' = -L xi with L = diag(1, 2) and h = 0.5: per agent z = -0.5 and -1,
    # and agent 2's xi_22 = R(-1)^k (1, 1/2, 3/4, 1/4) at the stages of step k,
    # R(-1) = 3/8; 0.25 R^20 = 7.5e-10 is the first stage value below 1e-9;
    # the same as two modes and as a 2 x 2 block
    big_l, h = np.diag([1.0, 2.0]), 0.5
    modes = SourceParts(big_l).source(h)
    monkeypatch.setattr(sim, "_MODAL_MAX_COND", 0.0)  # every mode in the block
    block = SourceParts(big_l).source(h)
    assert modes.m == 0 and block.m == 2
    for source in (modes, block):
        for _ in range(20):
            source.stages()
        with pytest.raises(XiUnderflow, match=r"^agent 2: xi_i\^i = 7\.5\d\de-10 below floor "
                                              r"1e-09 at t=10\.5$") as info:
            source.stages()
        assert info.value.t == 10.5  # stage 4 of the step from t = 20 h


def test_xi_floor_names_the_first_underflowing_stage():
    h = 0.2
    xi = np.full((4, 3), 0.5)
    xi[1, 2] = 2e-9    # stage 2: the smallest entry of the stages before 3, above the floor
    xi[2, 1] = 1e-10   # stage 3 (t + h/2): agent 2 underflows
    xi[2, 0] = 3e-10   # and agent 1 too, less deeply
    xi[3, 0] = -1.0    # stage 4 (t + h) holds the smallest entry of the block
    with pytest.raises(XiUnderflow, match=r"^agent 2: xi_i\^i = 1\.000e-10 below floor "
                                          r"1e-09 at t=3\.1$") as info:
        check_xi_floor(xi, 3.0, h)
    assert info.value.t == 3.0 + 0.5 * h
    # each stage in turn is the first to underflow, at its own time
    for stage, t in enumerate(("3", "3.1", "3.1", "3.2")):
        low = np.full((4, 3), 0.5)
        low[stage:, 2] = 0.0
        with pytest.raises(XiUnderflow, match=rf"^agent 3: .* at t={re.escape(t)}$") as info:
            check_xi_floor(low, 3.0, h)
        assert info.value.t == (3.0, 3.0 + 0.5 * h, 3.0 + 0.5 * h, 3.0 + h)[stage]
    # the floor itself passes, and so does NaN: the finite checks report it
    check_xi_floor(np.full((4, 3), 1e-9), 3.0, h)
    check_xi_floor(np.array([[np.nan, 0.0, 1.0]] * 4), 3.0, h)


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


def test_composite_costs_take_the_gradient_loop(fig3_graph):
    # ex2 composites have no pre rows: the derivative runs `build_gradient`
    cost_list = [costs.composite(f"ex2_f{i}") for i in range(1, 6)]
    gains = CoordinatorGains(beta1=20.0, beta2=2.0, delta=1.0)
    yr, z = np.array([-1.0, 0.5, 2.0, 0.0, 1.5]), np.array([0.1, -0.2, 0.3, 0.0, -0.2])
    xi = np.diag([0.5, 0.25, 1.0, 2.0, 0.75])
    dyr, dz, _ = rhs_at(fig3_graph, cost_list, gains, yr, z, xi)
    big_l = laplacian(fig3_graph)
    grads = np.array([c.grad(s) for c, s in zip(cost_list, yr)])
    want = -grads / xi.diagonal() - gains.beta1 * big_l @ yr - gains.beta2 * z
    assert np.abs(dyr - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(dz - gains.beta1 * big_l @ yr).max() <= 1e-14 * np.abs(dz).max()


@pytest.mark.parametrize("horizon, step, record_every, message", [
    (1.0, 0.3, 1, "at least 10 steps"),                  # stopped at t = 0.9
    (1.0, 0.07, 1, "not a whole number of steps"),       # 14.29 steps
    (1.0, 1e-2, 0, "record_every must be >= 1"),         # divided by zero
    (-1.0, -1e-2, 1, "step must be positive"),           # negative dimensions
    (math.inf, 1e-2, 1, "must be finite"),
])
def test_run_refuses_a_timing_a_scenario_refuses(fig3_graph, horizon, step, record_every,
                                                  message):
    cost_list = [costs.quadratic(0.1, float(i)) for i in range(1, 6)]
    gains = CoordinatorGains(beta1=20.0, beta2=2.0, delta=1.0)
    with pytest.raises(ValueError, match=message):
        coordinator_only_run(fig3_graph, cost_list, gains, np.zeros(5), horizon, step,
                             record_every)


def preset_doc(name):
    """The preset at a 2 s horizon, from the narrow initial ranges."""
    doc = json.loads(resources.files("oocsim").joinpath(f"presets/{name}.json").read_text())
    doc["sim"].update(horizon=2.0)
    doc["init"] = {"x_range": [-0.5, 0.5], "yr_range": [-1.0, 1.0]}
    return doc


@pytest.mark.parametrize("preset", ["example1", "example2"])
def test_coordinator_only_run_is_the_member_runs_coordinator(preset):
    # example1's quadratic costs take the pre product's gradient, example2's
    # composites `build_gradient`
    sc = scenario_from_dict(preset_doc(preset))
    member = run(sc)
    alone = coordinator_only_run(sc.graph, sc.costs, assemble(sc).gains, member.yr[0],
                                 sc.horizon, sc.step, sc.record_every)
    assert np.array_equal(alone.times, member.times)
    for got, want in ((alone.y_r, member.yr), (alone.z, member.z),
                      (alone.xi_diag, member.xi_diag)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
