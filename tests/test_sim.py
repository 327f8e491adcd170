import dataclasses

import numpy as np
import pytest

from oocsim import costs
from oocsim.digraph import Digraph
from oocsim.errors import Diverged, NotStronglyConnected, XiUnderflow
from oocsim.plant import rotation_exosystem, vdp_like
from oocsim.scenario import parse_scenario
from oocsim.sim import (InitPolicy, Scenario, StateLayout, Trajectory, assemble,
                        initial_state, metrics, run, verify)
from oocsim.tracker import InternalModelSpec, TrackerParams


def short(sc, horizon=2.0):
    return dataclasses.replace(sc, horizon=horizon)


def tiny_scenario(**overrides):
    """Three-agent cycle with mild plants; cheap enough for many short runs."""
    g = Digraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)])
    kwargs = dict(
        graph=g,
        costs=[costs.quadratic(0.5, float(i)) for i in (1, 2, 3)],
        plants=[vdp_like(mu1=1.0, mu2=0.2, b=1.0, amplitude=1.0) for _ in range(3)],
        exo=rotation_exosystem(0.8, np.array([0.0, 1.0])),
        tracker=TrackerParams(),
        im_specs=[InternalModelSpec.from_coeffs([2.0, 3.0]) for _ in range(3)],
        seed=11,
        init=InitPolicy(x_range=(-0.5, 0.5), yr_range=(-1.0, 1.0)),
        frequencies=[0.8],
        horizon=2.0,
        step=1e-3,
        record_every=10,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def test_assemble_example1_shape(example1_scenario):
    system = assemble(example1_scenario)
    assert system.layout.n == 5
    assert system.layout.s_dims == (2,) * 5
    assert system.layout.dim == 5 + 5 + 25 + 10 + 10 + 5 + 10 + 2


def test_assemble_example2_shape(example2_scenario):
    system = assemble(example2_scenario)
    assert system.layout.s_dims == (4,) * 5


def test_assemble_rejects_disconnected():
    g = Digraph.from_edges(2, [(1, 2, 1.0)])
    sc = tiny_scenario()
    bad = dataclasses.replace(
        sc, graph=g, costs=sc.costs[:2], plants=sc.plants[:2], im_specs=sc.im_specs[:2])
    with pytest.raises(NotStronglyConnected):
        assemble(bad)


def test_scenario_invariants():
    with pytest.raises(ValueError):
        tiny_scenario(step=-1e-3)
    with pytest.raises(ValueError):
        tiny_scenario(horizon=1e-3)
    with pytest.raises(ValueError):
        tiny_scenario(record_every=0)
    with pytest.raises(ValueError, match="whole number of steps"):
        tiny_scenario(horizon=2.0005)


def test_run_sample_count():
    sc = tiny_scenario()
    traj = run(sc)
    assert len(traj.times) == int(2.0 / (1e-3 * 10)) + 1
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(np.isfinite(traj.raw))


def test_determinism_bit_identical():
    sc = tiny_scenario()
    t1 = run(sc)
    t2 = run(sc)
    assert np.array_equal(t1.raw, t2.raw)
    t3 = run(dataclasses.replace(sc, seed=12))
    assert not np.array_equal(t1.raw, t3.raw)


def test_initial_state_structure():
    sc = tiny_scenario()
    layout = assemble(sc).layout
    y0 = initial_state(sc, layout)
    assert np.array_equal(y0[layout.slices["z"]], np.zeros(3))
    assert np.array_equal(y0[layout.slices["xi"]].reshape(3, 3), np.eye(3))
    assert np.array_equal(y0[layout.slices["k"]], np.zeros(3))
    assert np.array_equal(y0[layout.slices["v"]], sc.exo.v0)
    x = y0[layout.slices["x"]]
    assert np.all((x >= -2.0) & (x <= 2.0))


def test_conservation_on_recorded_samples():
    sc = tiny_scenario(horizon=5.0)
    traj = run(sc)
    assert np.abs(traj.rho_z).max() < 1e-10
    assert np.abs(traj.xi.sum(axis=2) - 1.0).max() < 1e-10
    assert np.all(np.diff(traj.k, axis=0) >= -1e-12)


def test_ablation_changes_trajectory():
    sc = tiny_scenario(horizon=5.0)
    base = run(sc)
    ablated = run(dataclasses.replace(sc, ablate_internal_model=True))
    # eta and psi stay frozen at zero in the ablated run
    assert np.abs(ablated.eta).max() == 0.0
    assert np.abs(ablated.psi).max() == 0.0
    assert not np.array_equal(base.y, ablated.y)


def test_divergence_is_an_error():
    sc = tiny_scenario(step=0.8, horizon=40.0)
    with pytest.raises(Diverged):
        run(sc)
    # h * weight = 2.5 drives xi_i^i to 1 - 1.25 < 0 in the second RK4 stage
    sc = tiny_scenario(step=2.5, horizon=25.0, name="tiny")
    with pytest.raises(XiUnderflow, match=r"^tiny: agent [123]: .* at t=1\.25$") as info:
        run(sc)
    assert info.value.t == 1.25


def test_metrics_constant_at_optimum():
    sc = tiny_scenario()
    layout = StateLayout(n=3, s_dims=(2, 2, 2), nv=2)
    m = 11
    raw = np.zeros((m, layout.dim))
    raw[:, layout.slices["x"]] = np.tile([2.0, 0.0], 3)  # x1 = s* = 2, x2 = 0
    traj = Trajectory(times=np.linspace(0, 1, m), raw=raw, layout=layout,
                      rho=np.full(3, 1 / 3))
    out = metrics(traj, s_star=2.0)
    assert out["final_error"] == [0.0] * 3
    assert out["settling_time"] == [0.0] * 3


def test_metrics_finite_on_real_run():
    sc = tiny_scenario(horizon=5.0)
    traj = run(sc)
    out = metrics(traj, s_star=costs.global_optimum(sc.costs))
    for key in ("final_error", "max_gain", "final_gain"):
        assert np.all(np.isfinite(out[key]))
    # settling may legitimately be inf on a short horizon
    assert all(s >= 0.0 for s in out["settling_time"])


def test_verify_report_fields():
    sc = tiny_scenario(horizon=5.0)
    traj = run(sc)
    rep = verify(sc, traj)
    assert rep.k_monotone
    assert rep.exo_energy_drift is not None and rep.exo_energy_drift < 1e-8
    assert rep.sylvester_residuals is not None
    assert max(rep.sylvester_residuals) < 1e-10
    assert rep.psi_error is None  # check_psi off for the tiny scenario
    d = rep.to_dict(sc)
    assert "checks" in d and isinstance(d["passed"], bool)
