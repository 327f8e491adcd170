import dataclasses
import json
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from oocsim import costs, sim
from oocsim.coordinator import CoordinatorGains
from oocsim.digraph import Digraph, _block_operator, laplacian, spectral_data
from oocsim.errors import Diverged, NonConvexDetected, NotStronglyConnected, XiUnderflow
from oocsim.plant import (Exosystem, custom, damping_spring, plant_remainder,
                          rotation_exosystem, vdp_like)
from oocsim.scenario import parse_scenario, scenario_from_dict
from oocsim.sim import (DEFAULT_TOLERANCES, XI_FLOOR, InitPolicy, ModalSource, Scenario,
                        SourceParts, StateLayout, Trajectory, _log_step_factor, _split_modes,
                        assemble, check_xi_floor, initial_state, integrate, metrics,
                        modal_readout, reseed, rk4_stage_factors, rk4_step, run, sweep, verify)
from oocsim.tracker import FeedforwardTruth, InternalModelSpec, TrackerParams
from plant_equations import paper_drift
from stepping import plain_step


EPS = np.finfo(float).eps
# the member states and the xi source's snapshots of a Trajectory
RECORDS = ("raw", "xi_diag", "xi_rowsum")


def short(sc, horizon=2.0):
    return dataclasses.replace(sc, horizon=horizon)


def same_records(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in RECORDS)


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
    # yr, z, x1, x2, eta (s = 2 each), k, psi_hat, v; xi is the source's
    assert system.layout.dim == 5 + 5 + 5 + 5 + 10 + 5 + 10 + 2


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


def test_assemble_rejects_concave_cost_with_fixed_gains():
    sc = tiny_scenario()
    concave = costs.CostFunction(kind="concave", params={},
                                 value_fn=lambda s: -s * s,
                                 grad_fn=lambda s: -2.0 * s)
    fixed = dataclasses.replace(sc, costs=[concave] + sc.costs[1:],
                                gains=CoordinatorGains(beta1=10.0, beta2=2.0, delta=1.0))
    with pytest.raises(NonConvexDetected):
        assemble(fixed)


def ring_doc(n, internal_model, chords=0):
    """n-agent directed ring plus `chords` seeded unit chords, quadratic costs, fixed gains."""
    edges = {(i, i % n + 1) for i in range(1, n + 1)}
    rng = np.random.default_rng(n)
    while len(edges) < n + chords:
        src, dst = (int(v) for v in rng.integers(1, n + 1, size=2))
        if src != dst:
            edges.add((src, dst))
    return {
        "seed": 4,
        "graph": {"n": n, "edges": [[src, dst, 1.0] for src, dst in sorted(edges)]},
        "costs": [{"kind": "quadratic", "a": 0.5, "b": float(i % 5)} for i in range(n)],
        "plants": [{"kind": "vdp_like", "mu1": 1.0, "mu2": 0.2, "b": 1.0,
                    "amplitude": 1.0}] * n,
        "exosystem": {"kind": "rotation", "sigma": 0.8, "v0": [0.0, 1.0]},
        "coordinator": {"gains": {"beta1": 20.0, "beta2": 2.0}},
        "tracker": {"internal_model": internal_model},
    }


def counting_costs(cost_list):
    """The costs with each grad_fn wrapped to count its calls on a scalar."""
    calls = [0]

    def counted(fn):
        def grad(s):
            if np.ndim(s) == 0:
                calls[0] += 1
            return fn(s)
        return grad

    return [dataclasses.replace(c, grad_fn=counted(c.grad_fn)) for c in cost_list], calls


def test_assemble_scans_curvature_without_scalar_gradient_calls(example2_scenario):
    ring = scenario_from_dict(ring_doc(50, {"coeffs": [2.0, 3.0]}))
    for sc in (example2_scenario, ring):
        counted, calls = counting_costs(sc.costs)
        assemble(dataclasses.replace(sc, costs=counted))
        assert calls == [0]
    # a shared internal_model spec is built once; a per-agent list is not
    assert ring.im_specs[0] is ring.im_specs[-1]
    per_agent = scenario_from_dict(ring_doc(50, [{"coeffs": [2.0, 3.0]}] * 50))
    assert len({id(spec) for spec in per_agent.im_specs}) == 50


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
    for name in RECORDS:
        block = getattr(traj, name)
        assert block.shape[0] == len(traj.times)
        assert np.all(np.isfinite(block))


def test_integrate_records_every_kth_step():
    def f(t, y, w):
        return np.array([y[1], -y[0] + 0.1 * t + w[0]])

    h = 0.05
    y0 = np.array([1.0, 0.5])
    big_l = laplacian(weighted_three_cycle(2.0))
    # the same steps by hand, from a second source of the same build
    twin = SourceParts(big_l).source(h)
    states, snapshots = [y0], [tuple(x.copy() for x in twin.snapshot())]
    for kstep in range(7):
        states.append(rk4_step(f, kstep * h, states[-1], h, twin.stages()))
        snapshots.append(tuple(x.copy() for x in twin.snapshot()))
    times, samples, records = integrate(f, y0, h, 7, 3, SourceParts(big_l).source(h))
    assert len(records) == 2
    assert times.tolist() == [0.0, 3 * h, 6 * h]
    assert np.array_equal(samples, np.array([states[0], states[3], states[6]]))
    for block, want in zip(records, zip(*snapshots)):
        assert np.array_equal(block, np.array([want[0], want[3], want[6]]))


def test_determinism_bit_identical():
    sc = tiny_scenario()
    t1 = run(sc)
    t2 = run(sc)
    assert same_records(t1, t2)
    t3 = run(dataclasses.replace(sc, seed=12))
    assert not np.array_equal(t1.raw, t3.raw)


def test_initial_state_structure():
    sc = tiny_scenario()
    layout = assemble(sc).layout
    y0 = initial_state(sc, layout)
    assert y0.shape == (layout.dim,)
    assert np.array_equal(y0[layout.slices["z"]], np.zeros(3))
    assert np.array_equal(y0[layout.slices["k"]], np.zeros(3))
    # the plant draw is one (x1, x2) pair per agent in turn, after yr
    rng = np.random.default_rng([sc.seed, 1])
    assert np.array_equal(y0[layout.slices["yr"]], rng.uniform(-1.0, 1.0, size=3))
    x = rng.uniform(-0.5, 0.5, size=6)
    assert np.array_equal(y0[layout.slices["x1"]], x[0::2])
    assert np.array_equal(y0[layout.slices["x2"]], x[1::2])
    # v(0) = v0 trails the member state
    assert layout.slices["v"] == slice(layout.dim - 2, layout.dim)
    assert np.array_equal(y0[layout.slices["v"]], sc.exo.v0)
    # xi(0) = I: the source starts there up to the modes' rounding, and its
    # diagonal is the derivative's default input
    system = assemble(sc)
    source = SourceParts(system.spectral.laplacian).source(sc.step)
    xi_diag, xi_rowsum = source.snapshot()
    assert np.abs(np.array([xi_diag, xi_rowsum, source.stages()[0]]) - 1.0).max() <= 4 * EPS
    # the derivative returns its own buffer, which the second call refills
    default = system.derivative(0.0, y0).copy()
    assert np.array_equal(default, system.derivative(0.0, y0, np.ones(3)))


def test_conservation_on_recorded_samples():
    sc = tiny_scenario(horizon=5.0)
    traj = run(sc)
    assert np.abs(traj.rho_z).max() < 1e-10
    assert np.abs(traj.xi_rowsum - 1.0).max() < 1e-10
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


def member_trajectory(times, raw, layout):
    """A Trajectory of given member states, with xi = I throughout."""
    m, n = len(times), layout.n
    return Trajectory(times=times, raw=raw, layout=layout, rho=np.full(n, 1 / n),
                      xi_diag=np.ones((m, n)), xi_rowsum=np.ones((m, n)))


def test_metrics_constant_at_optimum():
    layout = StateLayout(n=3, s_dims=(2, 2, 2), nv=2)
    m = 11
    raw = np.zeros((m, layout.dim))
    raw[:, layout.slices["x1"]] = 2.0  # x1 = s* = 2, x2 = 0
    traj = member_trajectory(np.linspace(0, 1, m), raw, layout)
    out = metrics(traj, s_star=2.0)
    assert out["final_error"] == [0.0] * 3
    assert out["settling_time"] == [0.0] * 3


def test_metrics_settling_hand_values():
    # columns: leaves and re-enters the band, never inside it, inside until
    # the last sample, NaN in the middle (NaN counts as outside)
    err = np.array([[0.5, 1.0, 0.0, 0.5],
                    [0.01, 1.0, 0.0, 0.0],
                    [0.03, 1.0, 0.0, np.nan],
                    [0.01, 1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.05, 0.0]])
    layout = StateLayout(n=4, s_dims=(2,) * 4, nv=2)
    raw = np.zeros((6, layout.dim))
    raw[:, layout.slices["x1"]] = 2.0 + err
    traj = member_trajectory(np.arange(6) * 0.5, raw, layout)
    out = metrics(traj, s_star=2.0)
    assert out["settling_time"] == [1.5, math.inf, math.inf, 1.5]
    wide = metrics(traj, s_star=2.0, settle_tol=2.0)
    assert wide["settling_time"] == [0.0, 0.0, 0.0, 1.5]


def test_metrics_finite_on_real_run():
    sc = tiny_scenario(horizon=5.0)
    traj = run(sc)
    out = metrics(traj, s_star=costs.global_optimum(sc.costs))
    for key in ("final_error", "max_gain", "final_gain"):
        assert np.all(np.isfinite(out[key]))
    # settling may legitimately be inf on a short horizon
    assert all(s >= 0.0 for s in out["settling_time"])


def test_exo_energy_drift_is_measured_only_for_a_skew_s(example1_scenario):
    # skew only to 8e-7, v's norm drifts by about 5e-6 over example1's first 3 s,
    # against the 1e-8 of a norm-preserving S: it is not measured
    nearly = Exosystem(S=np.array([[0.0, 0.8], [-0.8000008, 0.0]]), v0=np.array([0.0, 1.0]))
    sc = tiny_scenario(exo=nearly, frequencies=None, horizon=0.1)
    assert verify(sc, run(sc)).exo_energy_drift is None
    # the presets' rotation S is still gated
    assert example1_scenario.exo.is_conservative()
    sc = dataclasses.replace(example1_scenario, horizon=0.1)
    assert verify(sc, run(sc)).exo_energy_drift < 1e-8


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
    assert list(d)[:-2] == [f.name for f in dataclasses.fields(rep)]
    # one check per measured tolerance key, in DEFAULT_TOLERANCES order
    measured = [k for k in DEFAULT_TOLERANCES if k != "psi_error"]
    assert list(d["checks"]) == measured + ["k_monotone"]
    assert d["checks"]["sylvester_residual"]["value"] == max(rep.sylvester_residuals)
    assert d["checks"]["k_monotone"] == {"value": True, "tolerance": True, "pass": True}
    loose = dataclasses.replace(sc, tolerances={"xi_error": 123.0})
    assert rep.checks(loose)["xi_error"] == {"value": rep.xi_error, "tolerance": 123.0,
                                             "pass": True}
    unmeasured = dataclasses.replace(rep, sylvester_residuals=None, exo_energy_drift=None)
    assert list(unmeasured.checks(sc)) == ["final_output_error", "xi_error",
                                           "z_conservation_drift", "xi_rowsum_drift",
                                           "k_monotone"]


def sparse_ring(n=100, chords=60, plant=None):
    """A ring with chords and one shared s = 2 internal model: both operators are CSR."""
    doc = ring_doc(n, {"coeffs": [2.0, 3.0]}, chords=chords)
    doc["init"] = {"x_range": [-0.5, 0.5], "yr_range": [-1.0, 1.0]}
    if plant is not None:
        doc["plants"] = [plant] * n
    return scenario_from_dict(doc)


def spring_ring():
    """`sparse_ring` with damping-spring plants: x1^3 and x2^3 per agent and the
    one shared v1^2 v2 feature, through the CSR products."""
    return sparse_ring(plant={"kind": "damping_spring", "m": 1.1, "k1": 2.2, "k2": 2.9,
                              "mu1": 3.8, "mu2": 4.7, "a_w": 100.0})


def ablated_ring():
    return dataclasses.replace(sparse_ring(), ablate_internal_model=True)


def operators(system):
    return system.pre_operator, system.operator


def test_every_operator_is_csr(example1_scenario, example2_scenario, monkeypatch):
    # the member operators of each System and both of the coordinator-only run's
    bound, bind = [], sim.bind_derivative
    monkeypatch.setattr(sim, "bind_derivative",
                        lambda pre, main, *args: bound.append((pre, main)) or bind(pre, main, *args))
    scenarios = [dataclasses.replace(sc, ablate_internal_model=ablated)
                 for sc in (example1_scenario, example2_scenario) for ablated in (False, True)]
    for sc in scenarios + [sparse_ring(), spring_ring(), ablated_ring()]:
        system = assemble(sc)
        n = sc.graph.n
        bound.clear()
        sim.coordinator_derivative(system.spectral.laplacian, system.gains, sc.costs)
        (pre, main), = bound
        # pre has no rows unless the costs are all quadratic
        quadratic = all(c.kind == "quadratic" for c in sc.costs)
        assert (pre.shape, main.shape) == ((n if quadratic else 0, 2 * n + 1), (2 * n, 3 * n + 1))
        assert [op.format for op in operators(system) + (pre, main)] == ["csr"] * 4
    # example2's operators are 57 x 68 and 67 x 156
    assert [op.shape for op in operators(assemble(example2_scenario))] == [(57, 68), (67, 156)]
    # a 40-agent ring with s = 4: the 482 x 523 pre and the 522 x 1,205 main
    # operator are CSR
    mid = scenario_from_dict(ring_doc(40, {"coeffs": [10.0, 18.0, 15.0, 6.0]}, chords=40))
    assert [op.shape for op in operators(assemble(mid))] == [(482, 523), (522, 1205)]
    assert [op.format for op in operators(assemble(mid))] == ["csr", "csr"]


def paper_derivative(sc, system, t, y, xi_diag):
    """The member derivative agent by agent, written straight from the paper's equations."""
    keys = ("yr", "z", "x1", "x2", "eta", "k", "psi", "v")
    sl, a, gains, gamma = system.layout.slices, sc.graph.weights, system.gains, sc.tracker.gamma
    yr, z, x1, x2, eta, k, psi, v = (y[sl[key]] for key in keys)
    out = np.zeros_like(y)
    d_yr, d_z, d_x1, d_x2, d_eta, d_k, d_psi, d_v = (out[sl[key]] for key in keys)
    d_v[:] = sc.exo.S @ v
    start = 0
    for i, (cost, plant, spec) in enumerate(zip(sc.costs, sc.plants, sc.im_specs)):
        disagreement = sum(a[i, j] * (yr[i] - yr[j]) for j in range(sc.graph.n))
        d_yr[i] = (-cost.grad(yr[i]) / xi_diag[i] - gains.beta1 * disagreement
                   - gains.beta2 * z[i])
        d_z[i] = gains.beta1 * disagreement
        theta = x2[i] + gamma * (x1[i] - yr[i])
        rho = theta ** 4 + 1.0
        u = -k[i] * rho * theta
        block = slice(start, start + spec.s_dim)
        start += spec.s_dim
        if not sc.ablate_internal_model:
            u += psi[block] @ eta[block]
            d_eta[block] = spec.M @ eta[block] + spec.N_vec * u
            d_psi[block] = -eta[block] * theta
        d_x1[i] = x2[i]
        # a custom plant's f is its whole drift
        drift = (plant.f(x1[i], x2[i], v, t) if plant.kind == "custom"
                 else paper_drift(plant, x1[i], x2[i], v)[0])
        d_x2[i] = drift + plant.b * u
        d_k[i] = rho * theta ** 2
    return out


def mixed_orders():
    orders = ([2.0, 3.0], [1.0, 4.0, 6.0, 4.0], [5.0])
    return tiny_scenario(im_specs=[InternalModelSpec.from_coeffs(c) for c in orders],
                         frequencies=None)


def custom_plants():
    return tiny_scenario(plants=[custom(lambda x1, x2, v, t: -x1 - x2 ** 3 + v[1] * x1, 2.0)] * 3)


def mixed_kinds():
    spring = damping_spring(m=1.1, k1=2.2, k2=2.9, mu1=3.8, mu2=4.7, a_w=100.0)
    return tiny_scenario(plants=[vdp_like(1.0, 0.5, 1.2, 3.0), spring,
                                 vdp_like(2.0, 1.5, 0.8, 1.0)])


def feature_count(sc, dim):
    """theta^2, each state entry from x1 to v times its partner, grad c / xi and
    [theta^6 | k theta^5] of each agent, then x1 (x1 p1) and x2 (x2 p2) of each
    agent when a plant is built in, the one shared v1^2 v2 of a damping_spring
    set and one feature per custom plant."""
    n = sc.graph.n
    kinds = {p.kind for p in sc.plants}
    return (n + (dim - 2 * n) + 3 * n + 2 * n * bool(kinds & {"vdp_like", "damping_spring"})
            + ("damping_spring" in kinds) + sum(p.kind == "custom" for p in sc.plants))


@pytest.mark.parametrize("case", ["example1", "example2", "example2-ablated", "mixed-orders",
                                  "custom-plant", "mixed-kinds", "sparse-ring", "spring-ring",
                                  "ablated-ring"])
def test_derivative_matches_the_paper_agent_by_agent(case, request):
    if case.startswith("example"):
        sc = request.getfixturevalue(f"{case[:8]}_scenario")
        sc = dataclasses.replace(sc, ablate_internal_model=case.endswith("ablated"))
    else:
        sc = {"mixed-orders": mixed_orders, "custom-plant": custom_plants,
              "mixed-kinds": mixed_kinds, "sparse-ring": sparse_ring,
              "spring-ring": spring_ring, "ablated-ring": ablated_ring}[case]()
    system = assemble(sc)
    if case.endswith("ring"):
        # the CSR kernel adds into the derivative's buffers, so the calls below
        # also show that each call starts from zeroed ones
        assert [op.format for op in operators(system)] == ["csr", "csr"]
    # pre: the partner of each state entry from x1 to v and, for quadratic
    # costs, the gradient, over [y | 1]; main: every linear term and the
    # features' scatter, over [y | 1 | features]
    layout, n = system.layout, system.layout.n
    grad_rows = n if all(c.kind == "quadratic" for c in sc.costs) else 0
    assert system.pre_operator.shape == (layout.dim - 2 * n + grad_rows, layout.dim + 1)
    assert system.operator.shape == (layout.dim,
                                     layout.dim + 1 + feature_count(sc, layout.dim))
    rng = np.random.default_rng(7)
    for _ in range(3):
        y = rng.uniform(-1.0, 1.0, system.layout.dim)
        w = rng.uniform(0.1, 1.0, sc.graph.n)
        got = system.derivative(0.3, y, w)
        want = paper_derivative(sc, system, 0.3, y, w)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def most_numpy_data_during(call):
    """The most numpy data alive at any call, return or opcode event inside call(), in bytes.

    tracemalloc counts only arrays made after it starts, filtered to numpy's
    data domain; a profile hook takes a snapshot at every Python and C call
    and return, and a trace hook at every opcode of Python code, so a
    temporary that lives through any of them shows (a ufunc call raises no
    call event, but the operand it is given lives through the opcodes that
    load the rest of its arguments).
    """
    only_numpy = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    most = 0

    def watch(frame, event, arg):
        nonlocal most
        snapshot = tracemalloc.take_snapshot().filter_traces(only_numpy)
        most = max(most, sum(trace.size for trace in snapshot.traces))

    def each_opcode(frame, event, arg):
        frame.f_trace_opcodes = True
        watch(frame, event, arg)
        return each_opcode

    tracemalloc.start()
    sys.setprofile(watch)
    sys.settrace(each_opcode)
    try:
        call()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
        tracemalloc.stop()
    return most


@pytest.mark.parametrize("case", ["example1", "sparse-ring"])
def test_derivative_call_makes_no_numpy_data(case, request):
    sc = request.getfixturevalue("example1_scenario") if case == "example1" else sparse_ring()
    system = assemble(sc)
    y, w = initial_state(sc, system.layout), np.full(sc.graph.n, 0.5)
    assert most_numpy_data_during(lambda: system.derivative(0.3, y, w)) == 0
    # the watch does see a temporary that lives through a call
    assert most_numpy_data_during(lambda: (y + y).fill(0.0)) == y.nbytes


def test_systems_share_no_buffer(example1_scenario):
    sc = dataclasses.replace(example1_scenario, horizon=0.02)
    first, second = assemble(sc), assemble(sc)
    y0 = initial_state(sc, first.layout)
    got = first.derivative(0.0, y0)
    want = got.copy()
    other = second.derivative(0.0, 2.0 * y0)
    assert not np.may_share_memory(got, other)
    assert np.array_equal(got, want)
    # a result is valid until the System's own next call, which refills it
    again = first.derivative(0.0, 2.0 * y0)
    assert np.shares_memory(again, got) and np.array_equal(got, other)

    def disturbed(t, x):  # the other System's call lands before the result is used
        out = first.derivative(t, x)
        second.derivative(t, 2.0 * x)
        return out

    alone = assemble(sc).derivative
    assert np.array_equal(plain_step(disturbed, 0.0, y0, sc.step),
                          plain_step(alone, 0.0, y0, sc.step))


@pytest.mark.parametrize("preset, kind, entry, coefficient", [
    ("example1", "vdp_like", 0, lambda q: q["a_w"]),
    ("example2", "damping_spring", 1, lambda q: -q["a_w"] / q["m"]),
])
def test_operator_holds_the_drifts_terms_in_v(preset, kind, entry, coefficient, request):
    # every term linear in the member state is in the operator: the drift's
    # Aw v1 (vdp_like) and -Aw v2 / m (damping_spring) too
    sc = request.getfixturevalue(f"{preset}_scenario")
    system = assemble(sc)
    sl, n, nv = system.layout.slices, sc.graph.n, sc.exo.dim
    assert {p.kind for p in sc.plants} == {kind}
    want = np.zeros((n, nv))
    want[:, entry] = [coefficient(p.params) for p in sc.plants]
    main = system.operator.toarray()
    assert np.array_equal(main[sl["x2"], sl["v"]], want)
    # and nothing else of the main operator reads v but v' = S v
    assert not main[:sl["x2"].start, sl["v"]].any()
    assert not main[sl["eta"].start:sl["v"].start, sl["v"]].any()
    # so the nonlinear remainder has no term linear in v alone: it is 0 at x = 0, v = e_j
    dim, x1 = system.layout.dim, sl["x1"].start
    # features: each state entry from x1 on times its partner, then the rest
    pre, parts, width, bind = plant_remainder(sl, sc.plants, -x1, dim - x1, 2 * dim - x1)
    partners = _block_operator((dim - x1, dim), pre)
    op = _block_operator((dim, 2 * dim - x1 + width), parts)
    for v in np.eye(nv):
        buf = np.zeros(2 * dim - x1 + width)
        buf[sl["v"]] = v
        np.multiply(buf[x1:dim], partners @ buf[:dim], out=buf[dim:2 * dim - x1])
        for a, b, out in bind(buf)[0]:
            np.multiply(a, b, out=out)
        assert not (op @ buf).any()


def test_tracing_call_contract(monkeypatch):
    # benchmark/tracing.py wraps System.derivative and sim.rk4_step with
    # positional-only counters and times derivative(t, y) with the default input
    sc = tiny_scenario(horizon=0.05, record_every=5)
    system = assemble(sc)
    y0 = initial_state(sc, system.layout)
    default = system.derivative(0.0, y0).copy()  # the next call refills the buffer
    assert np.array_equal(default, system.derivative(0.0, y0, np.ones(3)))
    plain = run(sc, system)
    calls = {"rhs": 0, "steps": 0}
    derivative, step = system.derivative, sim.rk4_step

    def counted_rhs(*args):
        calls["rhs"] += 1
        return derivative(*args)

    def counted_step(*args):
        calls["steps"] += 1
        return step(*args)

    system.derivative = counted_rhs
    monkeypatch.setattr(sim, "rk4_step", counted_step)
    assert same_records(run(sc, system), plain)
    assert calls == {"rhs": 4 * sc.n_steps, "steps": sc.n_steps}
    # the loop talks to its xi source through two calls: stages() once per
    # step and snapshot() once per record row, with the eigenmodes or with
    # every mode in the block
    build = sim.SourceParts.source
    for bound in (math.inf, 0.0):
        monkeypatch.setattr(sim, "_MODAL_MAX_COND", bound)
        source_calls = {"stages": 0, "snapshot": 0}

        def counted_source(parts, h):
            source = build(sim.SourceParts(parts.big_l), h)
            for name in source_calls:
                def counted(method=getattr(source, name), name=name):
                    source_calls[name] += 1
                    return method()
                setattr(source, name, counted)
            return source

        monkeypatch.setattr(sim.SourceParts, "source", counted_source)
        traj = run(sc, system)
        assert source_calls == {"stages": sc.n_steps, "snapshot": len(traj.times)}
        assert len(traj.times) == sc.n_steps // sc.record_every + 1


def test_seed_sweep_members_draw_their_own_plants(monkeypatch):
    doc = json.loads(resources.files("oocsim").joinpath("presets/example1.json").read_text())
    doc["sim"]["horizon"] = 0.01
    doc["sim"]["record_every"] = 5
    doc["init"] = {"x_range": [-0.5, 0.5], "yr_range": [-1.0, 1.0]}  # the preset's diverge
    sc = scenario_from_dict(doc)
    seeds = [7, 8, 105]
    members = []

    def captured(sub, system=None):
        members.append(sub)
        return run(sub, system)

    monkeypatch.setattr(sim, "run", captured)
    reports = sweep(sc, "seed", seeds)
    assert [val for val, _ in reports] == seeds
    for seed, sub in zip(seeds, members):
        parsed = scenario_from_dict(dict(doc, seed=seed))
        assert sub.seed == seed and sub.name == f"example1[seed={seed}]"
        assert [p.params for p in sub.plants] == [p.params for p in parsed.plants]
        assert [p.b for p in sub.plants] == [p.b for p in parsed.plants]
        assert np.array_equal(initial_state(sub, assemble(sub).layout),
                              initial_state(parsed, assemble(parsed).layout))
    # the parent seed's plants stay the parent's; other seeds move them
    assert [p.params for p in members[2].plants] == [p.params for p in sc.plants]
    assert members[0].plants[0].params["mu1"] != sc.plants[0].params["mu1"]


def test_reseed_keeps_plants_without_uncertainty(example2_scenario):
    # example2's plants carry no uncertainty, so a seed member keeps them
    sub = reseed(example2_scenario, 3)
    assert sub.seed == 3
    assert all(a is b for a, b in zip(sub.plants, example2_scenario.plants))


def test_sparse_run_keeps_invariants_and_reruns_bit_identical():
    sc = dataclasses.replace(sparse_ring(), horizon=0.05, record_every=10)
    first = run(sc)
    rep = verify(sc, first)
    assert rep.z_conservation_drift < 1e-8
    assert rep.xi_rowsum_drift < 1e-9
    assert np.abs(first.xi_rowsum - 1.0).max() < 1e-9
    assert same_records(first, run(sc))


def test_verify_builds_one_truth_per_distinct_spec(monkeypatch):
    sc = tiny_scenario(horizon=0.1, check_psi=True)
    shared = dataclasses.replace(sc, im_specs=[sc.im_specs[0]] * 3)
    builds = []
    build = FeedforwardTruth.build

    def counted(im, frequencies):
        builds.append(id(im))
        return build(im, frequencies)

    monkeypatch.setattr(FeedforwardTruth, "build", staticmethod(counted))
    separate_report = verify(sc, run(sc)).to_dict(sc)
    assert len(builds) == 3
    builds.clear()
    shared_report = verify(shared, run(shared)).to_dict(shared)
    assert len(builds) == 1
    # equal specs give equal values, shared or not
    assert shared_report == separate_report


def rk4_alone(f, y0, h, n_steps, record_every):
    """Classic RK4 on y' = f(y) alone: every record_every-th state and every stage value."""
    stages = []

    def g(t, y):
        stages.append(y)
        return f(y)

    states = [y0]
    for kstep in range(n_steps):
        states.append(plain_step(g, kstep * h, states[-1], h))
    return np.array(states[::record_every]), stages


@pytest.mark.parametrize("source", ["modal", "block"])
@pytest.mark.parametrize("preset", ["example1", "example2", "jordan"])
def test_driver_matches_xi_and_v_integrated_alone(preset, source, request, monkeypatch):
    if preset == "jordan":  # the double eigenvalue 3 of L is a Jordan block: m = 2
        sc = tiny_scenario(graph=weighted_three_cycle(4.0), gains=FIXED_GAINS)
    else:
        sc = request.getfixturevalue(f"{preset}_scenario")
    big_l, h, n = spectral_data(sc.graph).laplacian, sc.step, sc.graph.n
    if source == "block":  # no split passes the bound: every mode goes into the block
        monkeypatch.setattr(sim, "_MODAL_MAX_COND", 0.0)
    driver = SourceParts(big_l).source(h)
    assert driver.m == {"modal": 2 if preset == "jordan" else 0, "block": n}[source]
    inputs = []

    def member(t, y, w):
        inputs.append(w.copy())
        return np.zeros(1)

    _, _, (xi_diag, xi_rowsum) = integrate(member, np.zeros(1), h, 500, 100, driver)
    # classic RK4 on xi and on v alone, keeping every stage value
    xi, xi_stages = rk4_alone(lambda x: -(big_l @ x), np.eye(n), h, 500, 100)
    v, _ = rk4_alone(lambda v: sc.exo.S @ v, sc.exo.v0, h, 500, 100)
    # the modes, the block and the member operator round differently in the
    # last bits (measured <= 1.4e-15 of the block's largest entry); a wrong
    # coefficient is off by about h
    xi_tol = 1e-14 * np.abs(xi).max()
    v_tol = 1e-14 * np.abs(v).max()
    assert np.abs(xi_diag - xi.diagonal(axis1=1, axis2=2)).max() <= xi_tol
    assert np.abs(xi_rowsum - xi.sum(axis=2)).max() <= xi_tol
    assert len(inputs) == len(xi_stages) == 4 * 500
    for xi_got, xi_want in zip(inputs, xi_stages):
        assert np.abs(xi_got - xi_want.diagonal()).max() <= xi_tol
    # v is part of the member state, which run steps with this source
    traj = run(dataclasses.replace(sc, horizon=500 * h, record_every=100))
    assert np.abs(traj.v - v).max() <= v_tol


def test_driver_runs_an_integer_or_float32_laplacian_in_float64():
    # whole numbers, exact in either dtype; at 4 the modes and a block of 2
    for last, m in ((2.0, 0), (4.0, 2)):
        big_l = laplacian(weighted_three_cycle(last))
        for dtype in (np.int64, np.float32):
            want = SourceParts(big_l).source(1e-3)
            source = SourceParts(big_l.astype(dtype)).source(1e-3)
            assert source.m == want.m == m
            for _ in range(2 * sim._BLOCK):
                got = np.array(source.stages())
                assert got.dtype == np.float64 and np.array_equal(got, want.stages())
            assert np.array_equal(source.snapshot(), want.snapshot())


def test_rk4_stage_factors_are_classic_rk4_in_exact_arithmetic():
    # w' = lambda w from w = 1: the stage values and the step, in fractions
    h = Fraction(1, 1000)
    for lam in (Fraction(-3), Fraction(7, 2), Fraction(-2001, 7), Fraction(0)):
        z = h * lam
        y2 = 1 + h / 2 * (lam * 1)
        y3 = 1 + h / 2 * (lam * y2)
        y4 = 1 + h * (lam * y3)
        step = 1 + h / 6 * (lam * 1 + 2 * lam * y2 + 2 * lam * y3 + lam * y4)
        stages, r = rk4_stage_factors(z)
        assert stages == (y2, y3, y4)
        assert r == step == 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
        assert all(type(x) is Fraction for x in stages + (r,))


def test_log_step_factor_matches_fifty_digits():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    # |z| from 1e-6 to 2.8, on the real axis both ways, on the imaginary axis
    # and off both, through the roots of R at |z| = 1.94 and 2.52
    radii = np.geomspace(1e-6, 2.8, 60)
    angles = np.linspace(0.0, np.pi, 13)
    z = (radii[:, None] * np.exp(1j * angles)).ravel()
    z = np.concatenate((z, z.conj(), [1.1e-6, -2.8, 2.8, 2.8j]))
    got = _log_step_factor(z)
    for zi, li in zip(z, got):
        zm = mpmath.mpc(zi.real, zi.imag)
        r = 1 + zm + zm ** 2 / 2 + zm ** 3 / 6 + zm ** 4 / 24
        # z + log(e^-z R(z)): log R(z) on the branch whose exp(k l) is R(z)^k
        want = zm + mpmath.log(mpmath.exp(-zm) * r)
        # k steps multiply an error in l by k, so it is measured against the
        # step's own size: |z|, or |l| where that is larger (measured <= 5.4
        # eps on a 200 x 82 grid; log of R(z) rounded to a double errs by up
        # to 9e5 eps)
        scale = max(abs(want), abs(zm))
        assert abs(mpmath.mpc(li.real, li.imag) - want) <= 8 * EPS * scale, zi
    # past |z| = 3 every RK4 step grows, and log R(z) is taken directly
    far = np.array([3.5 + 0j, -3.2 + 1j, 1e300 + 0j])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(np.exp(_log_step_factor(far).real[:2]) > 1)
        assert not np.isfinite(_log_step_factor(far)[2])


FIXED_GAINS = CoordinatorGains(beta1=1.0, beta2=1.0, delta=1.0)


def weighted_three_cycle(last):
    """Edges 1 -> 2 and 2 -> 3 of weight 1, 3 -> 1 of weight `last`.

    Weight-unbalanced and strongly connected; L has eigenvalues 0 and the roots
    of s^2 - (2 + last) s + (1 + 2 last), a double 3 (a Jordan block) at last = 4.
    """
    return Digraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, last)])


def test_defective_laplacian_gets_a_cluster_block(monkeypatch):
    sc = tiny_scenario(graph=weighted_three_cycle(4.0), horizon=5.0, gains=FIXED_GAINS)
    big_l = laplacian(sc.graph)
    # eig's two copies of the double eigenvalue -3 of -L have 1/s_i about 1e8:
    # they are the block, the simple 0 the one mode
    (lam, _, _), block, kappa = _split_modes(-big_l)
    assert len(block[0]) == 2 and np.abs(lam).max() < 1e-12 and kappa < 10
    traj = run(sc)
    rep = verify(sc, traj)
    assert rep.z_conservation_drift < 1e-8
    assert rep.xi_rowsum_drift < 1e-9
    assert same_records(traj, run(sc))
    # the eigenmodes alone, let through, would break the row-sum bound there
    monkeypatch.setattr(sim, "_MODE_MAX_COND", math.inf)
    monkeypatch.setattr(sim, "_MODAL_MAX_COND", math.inf)
    assert [a.shape for a in _split_modes(-big_l)[1]] == [(0, 0), (3, 0), (0, 3)]  # m = 0
    assert verify(sc, run(sc)).xi_rowsum_drift > 1e-9


def test_diagonalizable_scenarios_get_the_modal_source(example1_scenario, example2_scenario):
    ring = dataclasses.replace(sparse_ring(200, 60), horizon=0.02, record_every=5)
    near = tiny_scenario(graph=weighted_three_cycle(4.001), horizon=0.5, gains=FIXED_GAINS)
    for sc in (example1_scenario, example2_scenario, ring, near):
        n = sc.graph.n  # eigenmodes alone: m = 0
        assert [a.shape for a in _split_modes(-laplacian(sc.graph))[1]] == [(0, 0), (n, 0), (0, n)]
    for sc in (ring, near):
        traj = run(sc)
        assert np.abs(traj.xi_rowsum - 1.0).max() < 1e-9
        assert same_records(traj, run(sc))


def test_an_overflowing_exosystem_fails_the_member_step():
    # v is member state, so an overflowing v is the member RK4 step's
    # Diverged; the xi source never reads S and stays modal
    exo = Exosystem(S=np.array([[1e300, 0.0], [0.0, 0.0]]), v0=np.array([1.0, 0.0]))
    sc = tiny_scenario(graph=weighted_three_cycle(1.0), exo=exo, frequencies=None,
                       name="blowup")
    assert type(SourceParts(laplacian(sc.graph)).source(sc.step)) is ModalSource
    with pytest.raises(Diverged, match=r"^blowup: non-finite state after step at t=0$") as info:
        run(sc)
    assert info.value.t == 0.0


def test_defective_exosystem_keeps_the_modal_source(example1_scenario, monkeypatch):
    # a ramp disturbance: S = [[0, 1], [0, 0]] is a Jordan block, L is fine
    v0 = np.array([0.3, -0.2])
    exo = Exosystem(S=np.array([[0.0, 1.0], [0.0, 0.0]]), v0=v0)
    sc = dataclasses.replace(example1_scenario, exo=exo, frequencies=None, horizon=2.0)
    built = []

    class Spy(ModalSource):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(sim, "ModalSource", Spy)
    traj = run(sc)
    assert len(built) == 1
    # RK4 integrates the linear-in-t solution exactly, up to rounding
    want = np.column_stack((v0[0] + v0[1] * traj.times, np.full(len(traj.times), v0[1])))
    assert np.abs(traj.v - want).max() <= 1e-12


def test_modal_source_matches_the_all_modes_block_on_a_sparse_ring(monkeypatch):
    sc = sparse_ring(200, 60)
    big_l = laplacian(sc.graph)
    modal = SourceParts(big_l).source(sc.step)
    monkeypatch.setattr(sim, "_MODAL_MAX_COND", 0.0)  # every mode in the block
    schur = SourceParts(big_l).source(sc.step)
    assert modal.m == 0 and schur.m == 200
    for kstep in range(300):
        assert np.abs(np.subtract(modal.stages(), schur.stages())).max() <= 1e-12


def modal_formula(big_l, h):
    """(F, l) of the modal source of -L at step h: step k's (4, m) stage values
    per mode are F exp(k l), F the stage factors and l = log R(h lambda)."""
    z = h * _split_modes(-big_l)[0][0]
    return np.array((np.ones_like(z),) + rk4_stage_factors(z)[0]), _log_step_factor(z)


@pytest.mark.parametrize("preset", ["example1", "ring"])
def test_modal_blocks_match_the_per_step_read_out(preset, example1_scenario):
    sc = example1_scenario if preset == "example1" else sparse_ring(200, 60)
    big_l, h = laplacian(sc.graph), sc.step
    source = SourceParts(big_l).source(h)
    assert type(source) is ModalSource
    factors, ell = modal_formula(big_l, h)
    # 3 K + 5 steps cross three block boundaries and end mid-block
    for k in range(3 * sim._BLOCK + 5):
        e = np.exp(k * ell)
        diag, rowsum = source.snapshot()
        assert np.array_equal(diag, e.view(float) @ source._read_xi)
        assert np.array_equal(rowsum, e.view(float) @ source._read_rowsum)
        got = np.array(source.stages())
        want = (factors * e).view(float) @ source._read_xi
        # a taller product may sum in another order: at most 1e-15 relative
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), k


@pytest.mark.parametrize("error, a", [(Diverged, -2550.0), (XiUnderflow, 5.5)],
                         ids=["diverged", "underflow"])
def test_modal_block_failures_keep_the_per_step_message_and_time(error, a):
    # "L" = [[a]] at h = 0.1: z = -h a = 255 overflows and z = -0.55 decays
    # past the floor, each first at step 37, inside the block of steps 32 to 63
    big_l, h, fail = np.array([[a]]), 0.1, 37
    assert fail % sim._BLOCK
    source = SourceParts(big_l).source(h)
    factors, ell = modal_formula(big_l, h)
    with np.errstate(over="ignore", invalid="ignore"):
        inputs = [(factors * np.exp(k * ell)).view(float) @ source._read_xi
                  for k in range(fail + 1)]
    t = fail * h
    if error is Diverged:
        assert all(np.isfinite(x).all() for x in inputs[:fail])
        assert not np.isfinite(inputs[fail]).all()
        message = f"xi source: non-finite stage input at t={t:.6g}"
        want_t = t
    else:
        assert all(x.min() >= XI_FLOOR for x in inputs[:fail]) and inputs[fail].min() < XI_FLOOR
        with pytest.raises(XiUnderflow) as per_step:
            check_xi_floor(inputs[fail], t, h)
        message, want_t = str(per_step.value), per_step.value.t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(fail):
            source.stages()
        with pytest.raises(error) as info:
            source.stages()
    assert str(info.value) == message and info.value.t == want_t


def test_driver_divergence_names_the_driver_and_time(monkeypatch):
    # "L" = [[-50]]: xi' = 50 xi at h = 0.1 grows by R(5) = 65.4 a step until
    # xi overflows, with every stage factor positive, so the floor holds; the
    # source checks its stage inputs, as a mode or as a 1 x 1 block
    h = 0.1
    for bound in (math.inf, 0.0):
        with monkeypatch.context() as patch:
            patch.setattr(sim, "_MODAL_MAX_COND", bound)
            driver = SourceParts(np.array([[-50.0]])).source(h)
        assert driver.m == (bound == 0.0)
        steps = 0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Diverged, match=r"^xi source: non-finite stage input "
                                               r"at t=[\d.]+$") as info:
                for steps in range(200):  # R(5)^170 overflows
                    driver.stages()
        assert steps > 100 and info.value.t == steps * h
        assert str(info.value).endswith(f"at t={steps * h:.6g}")
    # run names the scenario: the same growth on every agent's xi_i^i, which
    # only divides the gradient term, so the source fails first
    growing = _split_modes(50.0 * np.eye(3))
    monkeypatch.setattr(sim.SourceParts, "source",
                        lambda parts, h: ModalSource(h, modal_readout(growing, h)))
    sc = tiny_scenario(step=h, horizon=20.0, gains=FIXED_GAINS, frequencies=None,
                       name="blowup")
    with pytest.raises(Diverged, match=r"^blowup: xi source: .* at t=[\d.]+$") as info:
        run(sc)
    assert info.value.t > 10.0


def test_unstable_xi_step_names_scenario_and_time():
    # h max|lambda(L)| = 1e-3 * 2000 * sqrt(3) = 3.46, past RK4's stability bound
    # on this spectrum (about 2.8 on the negative real axis)
    g = Digraph.from_edges(3, [(1, 2, 2000.0), (2, 3, 2000.0), (3, 1, 2000.0)])
    sc = tiny_scenario(graph=g, gains=CoordinatorGains(beta1=1.0, beta2=1.0, delta=1.0),
                       name="stiff")
    assert sc.step * np.abs(np.linalg.eigvals(laplacian(g))).max() > 3.4
    with pytest.raises((Diverged, XiUnderflow), match=r"^stiff: .*at t=") as info:
        run(sc)
    assert 0.0 <= info.value.t < sc.horizon
    assert str(info.value).endswith(f"at t={info.value.t:.6g}")


def test_ring200_records_no_n_squared_array():
    sc = dataclasses.replace(sparse_ring(200, 200), horizon=0.02, record_every=5)
    n, total_s, nv = 200, 400, 2
    traj = run(sc)
    arrays = [value for value in vars(traj).values() if isinstance(value, np.ndarray)]
    assert all(n * n not in a.shape and a[0].size <= 5 * n + 2 * total_s + nv for a in arrays)
    # per sample: yr, z, x1, x2, k, diag xi and xi row sums (n each), eta and psi_hat, v
    assert sum(getattr(traj, name).shape[1] for name in RECORDS) == 7 * n + 2 * total_s + nv
    assert traj.raw.shape == (5, 5 * n + 2 * total_s + nv)
