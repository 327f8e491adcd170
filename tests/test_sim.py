import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import oocsim
from oocsim import costs, digraph, sim
from oocsim.coordinator import CoordinatorGains, coordinator_rhs
from oocsim.digraph import Digraph, _matvec, _operator, laplacian, spectral_data
from oocsim.errors import Diverged, NonConvexDetected, NotStronglyConnected, XiUnderflow
from oocsim.plant import Exosystem, custom, plant_drift, rotation_exosystem, vdp_like
from oocsim.scenario import parse_scenario, scenario_from_dict
from oocsim.integrate import rk4_step
from oocsim.sim import (DEFAULT_TOLERANCES, InitPolicy, LinearDriver, ModalSource, Scenario,
                        StateLayout, Trajectory, _eigenmodes, _log_step_factor, assemble,
                        initial_state, integrate, metrics, rk4_stage_factors, run, verify,
                        xi_v_source)
from oocsim.tracker import (FeedforwardTruth, InternalModelSpec, StackedInternalModel,
                            TrackerParams, tracker_rhs)


EPS = np.finfo(float).eps
# the member states and the xi/v driver's records of a Trajectory
RECORDS = ("raw", "xi_diag", "xi_rowsum", "v")


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
    # yr, z, x1, x2, eta (s = 2 each), k, psi_hat; xi and v are the driver's
    assert system.layout.dim == 5 + 5 + 5 + 5 + 10 + 5 + 10


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
    def f(t, y):
        return np.array([y[1], -y[0] + 0.1 * t])

    h = 0.05
    y0 = np.array([1.0, 0.5])
    states = [y0]
    for kstep in range(7):
        states.append(rk4_step(f, kstep * h, states[-1], h))
    times, samples = integrate(f, y0, h, 7, 3)
    assert times.tolist() == [0.0, 3 * h, 6 * h]
    assert np.array_equal(samples, np.array([states[0], states[3], states[6]]))


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
    # xi(0) = I and v(0) = v0 are the driver's, and the derivative's default input
    system = assemble(sc)
    driver = LinearDriver(system.spectral.laplacian, sc.exo.S, sc.exo.v0, sc.step)
    assert np.array_equal(driver.w[:3, :3], np.eye(3))
    xi_diag, v = driver.inputs[0]
    assert np.array_equal(xi_diag, np.ones(3)) and np.array_equal(v, sc.exo.v0)
    assert np.array_equal(system.derivative(0.0, y0),
                          system.derivative(0.0, y0, driver.inputs[0]))


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
    """A Trajectory of given member states, with xi = I and v = 0 throughout."""
    m, n = len(times), layout.n
    return Trajectory(times=times, raw=raw, layout=layout, rho=np.full(n, 1 / n),
                      xi_diag=np.ones((m, n)), xi_rowsum=np.ones((m, n)), v=np.zeros((m, 2)))


def test_metrics_constant_at_optimum():
    layout = StateLayout(n=3, s_dims=(2, 2, 2))
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
    layout = StateLayout(n=4, s_dims=(2,) * 4)
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


def sparse_ring(n=100, chords=60):
    """A ring with chords and one shared s = 2 internal model: both operators are CSR."""
    doc = ring_doc(n, {"coeffs": [2.0, 3.0]}, chords=chords)
    doc["init"] = {"x_range": [-0.5, 0.5], "yr_range": [-1.0, 1.0]}
    return scenario_from_dict(doc)


def test_operator_is_csr_only_for_large_sparse_matrices(example1_scenario, example2_scenario):
    for sc in (example1_scenario, example2_scenario):
        assert type(_operator(spectral_data(sc.graph).laplacian)) is np.ndarray
        assert type(StackedInternalModel.stack(sc.im_specs).M) is np.ndarray
    ring = sparse_ring()
    assert _operator(laplacian(ring.graph)).format == "csr"
    assert StackedInternalModel.stack(ring.im_specs).M.format == "csr"
    # too few rows: a 63-agent ring stays dense, a 64-agent ring does not
    assert type(_operator(laplacian(sparse_ring(63, 0).graph))) is np.ndarray
    assert _operator(laplacian(sparse_ring(64, 0).graph)).format == "csr"
    # too full: the complete graph on 64 nodes
    complete = Digraph(n=64, weights=np.ones((64, 64)) - np.eye(64))
    assert type(_operator(laplacian(complete))) is np.ndarray


def dense_derivative(sc, system):
    """The member derivative composed from the layer RHS with dense L and M."""
    big_l = system.spectral.laplacian
    im = dataclasses.replace(StackedInternalModel.stack(sc.im_specs),
                             M=scipy.linalg.block_diag(*[spec.M for spec in sc.im_specs]))
    grad_vec = costs.build_gradient(sc.costs)
    drift = plant_drift(sc.plants)
    b = np.array([p.b for p in sc.plants])
    sl = system.layout.slices

    def f(t, y, w):
        yr, x1, x2 = y[sl["yr"]], y[sl["x1"]], y[sl["x2"]]
        out = np.empty_like(y)
        out[:2 * len(yr)] = coordinator_rhs(t, y[:2 * len(yr)], w, _matvec(big_l), grad_vec,
                                            system.gains)
        u, (out[sl["eta"]], out[sl["k"]], out[sl["psi"]]) = tracker_rhs(
            x1, x2, yr, y[sl["eta"]], y[sl["k"]], y[sl["psi"]], sc.tracker.gamma, im)
        out[sl["x1"]] = x2
        out[sl["x2"]] = drift(x1, x2, w[1], t) + b * u
        return out

    return f


def test_sparse_derivative_matches_dense_oracle():
    sc = sparse_ring()
    system = assemble(sc)
    rng = np.random.default_rng(7)
    y = rng.uniform(-1.0, 1.0, system.layout.dim)
    w = (rng.uniform(0.1, 1.0, sc.graph.n), rng.uniform(-1.0, 1.0, sc.exo.dim))
    got = system.derivative(0.3, y, w)
    want = dense_derivative(sc, system)(0.3, y, w)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_sparse_run_keeps_invariants_and_reruns_bit_identical():
    sc = dataclasses.replace(sparse_ring(), horizon=0.05, record_every=10)
    first = run(sc)
    rep = verify(sc, first)
    assert rep.z_conservation_drift < 1e-8
    assert rep.xi_rowsum_drift < 1e-9
    assert np.abs(first.xi_rowsum - 1.0).max() < 1e-9
    assert same_records(first, run(sc))


def test_dense_systems_never_import_scipy_sparse():
    # the lazy import keeps small workloads' peak memory where it was
    code = ("import dataclasses, sys\n"
            "from oocsim.scenario import parse_scenario\n"
            "from oocsim.sim import run\n"
            "run(dataclasses.replace(parse_scenario('example1'), horizon=0.05))\n"
            "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse was imported'\n")
    src = str(Path(oocsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


# both xi/v sources, built directly so that each is tested whatever xi_v_source picks
SOURCES = {
    "modal": lambda big_l, s_exo, v0, h: ModalSource(_eigenmodes(-big_l), _eigenmodes(s_exo),
                                                     v0, h),
    "horner": LinearDriver,
}


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("preset", ["example1", "example2"])
def test_driver_matches_xi_and_v_integrated_alone(preset, source, request):
    sc = request.getfixturevalue(f"{preset}_scenario")
    big_l, s_exo, h, n = spectral_data(sc.graph).laplacian, sc.exo.S, sc.step, sc.graph.n
    driver = SOURCES[source](big_l, s_exo, sc.exo.v0, h)
    inputs = []

    def member(t, y, w):
        inputs.append((w[0].copy(), w[1].copy()))
        return np.zeros(1)

    integrate(member, np.zeros(1), h, 500, 100, driver)
    # classic RK4 on xi and on v alone, keeping every stage value
    xi_stages, v_stages = [], []
    _, xi = integrate(lambda t, x: xi_stages.append(x) or -(big_l @ x), np.eye(n), h, 500, 100)
    _, v = integrate(lambda t, v: v_stages.append(v) or s_exo @ v, sc.exo.v0, h, 500, 100)
    # Horner form and the modes round differently in the last bits (measured
    # <= 1.4e-15 of the block's largest entry for either source); a wrong
    # coefficient is off by about h
    xi_tol = 1e-14 * np.abs(xi).max()
    v_tol = 1e-14 * np.abs(v).max()
    if source == "horner":  # the modal source never forms xi itself
        assert np.abs(driver.w[:n, :n] - xi[-1]).max() <= xi_tol
        assert np.abs(driver.w[n:, n] - v[-1]).max() <= v_tol
    assert np.abs(driver.xi_diag - xi.diagonal(axis1=1, axis2=2)).max() <= xi_tol
    assert np.abs(driver.xi_rowsum - xi.sum(axis=2)).max() <= xi_tol
    assert np.abs(driver.v - v).max() <= v_tol
    assert len(inputs) == len(xi_stages) == len(v_stages) == 4 * 500
    for (xi_got, v_got), xi_want, v_want in zip(inputs, xi_stages, v_stages):
        assert np.abs(xi_got - xi_want.diagonal()).max() <= xi_tol
        assert np.abs(v_got - v_want).max() <= v_tol


def test_driver_horner_steps_are_classic_rk4_in_exact_arithmetic():
    # a weight-unbalanced 3-agent digraph and a 2-D rotation exosystem, in fractions
    g = Digraph.from_edges(3, [(1, 2, 2.0), (2, 3, 1.0), (3, 1, 3.0), (1, 3, 1.0)])
    sigma = Fraction(4, 5)
    big_l = np.array([[Fraction(x) for x in row] for row in laplacian(g)], dtype=object)
    s_exo = np.array([[Fraction(0), Fraction(1)], [-sigma * sigma, Fraction(0)]], dtype=object)
    b = np.zeros((5, 5), dtype=object)
    b[:3, :3] = big_l
    b[3:, 3:] = -s_exo
    v0 = np.array([Fraction(0), Fraction(1)], dtype=object)
    h = Fraction(1, 1000)
    driver = LinearDriver(big_l, s_exo, v0, h)
    w = driver.w.copy()
    assert w.dtype == object and w[0, 0] == 1 and w[3, 3] == 0 and w[4, 3] == 1
    for kstep in range(2):
        k1 = -(b @ w)
        y2 = w + (h / 2) * k1
        k2 = -(b @ y2)
        y3 = w + (h / 2) * k2
        k3 = -(b @ y3)
        y4 = w + h * k3
        k4 = -(b @ y4)
        inputs = driver.stages()
        for (xi_diag, v), y in zip(inputs, (w, y2, y3, y4)):
            assert list(xi_diag) == list(y[:3, :3].diagonal())
            assert list(v) == list(y[3:, 3])
        driver.finish(kstep * h)
        w = w + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert (driver.w == w).all()
        assert all(type(x) is Fraction for x in driver.w.ravel())


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


def test_defective_laplacian_gets_the_horner_driver(monkeypatch):
    sc = tiny_scenario(graph=weighted_three_cycle(4.0), horizon=5.0, gains=FIXED_GAINS)
    big_l = laplacian(sc.graph)
    assert _eigenmodes(-big_l) is None  # kappa_1(V) about 1e8
    assert type(xi_v_source(big_l, sc.exo.S, sc.exo.v0, sc.step)) is LinearDriver
    traj = run(sc)
    rep = verify(sc, traj)
    assert rep.z_conservation_drift < 1e-8
    assert rep.xi_rowsum_drift < 1e-9
    assert same_records(traj, run(sc))
    # the modal source, let through, would break the row-sum bound there
    monkeypatch.setattr(sim, "_MODAL_MAX_COND", math.inf)
    assert type(xi_v_source(big_l, sc.exo.S, sc.exo.v0, sc.step)) is ModalSource
    assert verify(sc, run(sc)).xi_rowsum_drift > 1e-9


def test_diagonalizable_scenarios_get_the_modal_source(example1_scenario, example2_scenario):
    ring = dataclasses.replace(sparse_ring(200, 60), horizon=0.02, record_every=5)
    near = tiny_scenario(graph=weighted_three_cycle(4.001), horizon=0.5, gains=FIXED_GAINS)
    for sc in (example1_scenario, example2_scenario, ring, near):
        source = xi_v_source(laplacian(sc.graph), sc.exo.S, sc.exo.v0, sc.step)
        assert type(source) is ModalSource
    for sc in (ring, near):
        traj = run(sc)
        assert np.abs(traj.xi_rowsum - 1.0).max() < 1e-9
        assert same_records(traj, run(sc))


def test_modal_source_names_a_non_finite_v_and_keeps_xi_finite():
    exo = np.array([[1e300, 0.0], [0.0, 0.0]])
    source = xi_v_source(laplacian(weighted_three_cycle(1.0)), exo, np.array([1.0, 0.0]), 0.1)
    assert type(source) is ModalSource
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(Diverged, match=r"^xi/v driver: non-finite stage input at t=0$"):
            source.stages()
    # xi and v are separate products, so the inf in v reaches no xi input
    assert all(np.isfinite(xi).all() for xi, _ in source.inputs)


def test_modal_source_matches_the_horner_driver_on_a_sparse_ring():
    sc = sparse_ring(200, 60)
    big_l = laplacian(sc.graph)
    modal = xi_v_source(big_l, sc.exo.S, sc.exo.v0, sc.step)
    horner = LinearDriver(big_l, sc.exo.S, sc.exo.v0, sc.step)
    assert type(modal) is ModalSource
    for kstep in range(300):
        for (xi_got, v_got), (xi_want, v_want) in zip(modal.stages(), horner.stages()):
            assert np.abs(xi_got - xi_want).max() <= 1e-12
            assert np.abs(v_got - v_want).max() <= 1e-12
        modal.finish(kstep * sc.step)
        horner.finish(kstep * sc.step)


def test_csr_driver_matches_dense_driver(monkeypatch):
    sc = sparse_ring()
    big_l = laplacian(sc.graph)
    sparse = LinearDriver(big_l, sc.exo.S, sc.exo.v0, sc.step)
    monkeypatch.setattr(digraph, "_CSR_MIN_ROWS", 10 ** 9)  # every operator dense
    dense = LinearDriver(big_l, sc.exo.S, sc.exo.v0, sc.step)
    assert sparse.b.format == "csr" and type(dense.b) is np.ndarray
    assert np.array_equal(dense.b, scipy.linalg.block_diag(big_l, -sc.exo.S))
    for kstep in range(500):
        got, want = sparse.stages(), dense.stages()
        for (xi_got, v_got), (xi_want, v_want) in zip(got, want):
            assert np.abs(xi_got - xi_want).max() <= 1e-12
            assert np.abs(v_got - v_want).max() <= 1e-12
        sparse.finish(kstep * sc.step)
        dense.finish(kstep * sc.step)
    assert np.abs(sparse.w - dense.w).max() <= 1e-12


def test_driver_divergence_names_the_driver_and_time():
    g = Digraph.from_edges(2, [(1, 2, 1e200), (2, 1, 1e200)])
    driver = LinearDriver(laplacian(g), np.zeros((0, 0)), np.zeros(0), 0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        driver.stages()
        with pytest.raises(Diverged, match=r"^xi/v driver: .* at t=0\.5$") as info:
            driver.finish(0.5)
    assert info.value.t == 0.5
    # run names the scenario; these plants do not read v, so the driver fails first
    plants = [custom(lambda x1, x2, v, t: -x1 - x2, 1.0)] * 3
    exo = Exosystem(S=np.array([[1e300, 0.0], [0.0, 0.0]]), v0=np.array([1.0, 0.0]))
    sc = tiny_scenario(plants=plants, exo=exo, frequencies=None, name="blowup")
    with pytest.raises(Diverged, match=r"^blowup: xi/v driver: .* at t=0$") as info:
        run(sc)
    assert info.value.t == 0.0


@pytest.mark.parametrize("csr", [True, False], ids=["csr", "dense"])
def test_driver_finish_raises_on_any_non_finite_entry(csr, monkeypatch):
    if not csr:
        monkeypatch.setattr(digraph, "_CSR_MIN_ROWS", 10 ** 9)  # every operator dense
    sc = sparse_ring()
    n = sc.graph.n
    # a NaN at an off-diagonal xi entry, then an inf in v, each set between
    # stages and finish so that W holds it at that one entry only
    for row, col, value, t in ((0, 1, math.nan, 0.25), (n + 1, n, math.inf, 0.5)):
        driver = LinearDriver(laplacian(sc.graph), sc.exo.S, sc.exo.v0, sc.step)
        assert (type(driver.b) is not np.ndarray) == csr
        driver.stages()
        driver.finish(0.0)  # finite: no error
        driver.stages()
        driver.w[row, col] = value
        with pytest.raises(Diverged, match=rf"^xi/v driver: non-finite state after "
                                           rf"step at t={t}$") as info:
            driver.finish(t)
        assert info.value.t == t
        assert np.isfinite(np.delete(driver.w.ravel(), row * (n + 1) + col)).all()


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
    assert all(n * n not in a.shape and a[0].size <= 5 * n + 2 * total_s for a in arrays)
    # per sample: yr, z, x1, x2, k, diag xi and xi row sums (n each), eta and psi_hat, v
    assert sum(getattr(traj, name).shape[1] for name in RECORDS) == 7 * n + 2 * total_s + nv
    assert traj.raw.shape == (5, 5 * n + 2 * total_s)
