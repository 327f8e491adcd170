import csv
import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

from oocsim import sim
from oocsim.cli import cmd_dispatch, write_trajectory
from oocsim.digraph import spectral_data
from oocsim.scenario import parse_scenario, scenario_from_dict
from oocsim.sim import SourceParts, assemble, initial_state, run


@pytest.fixture(scope="module")
def tiny_path(tmp_path_factory):
    """A fast two-agent scenario used by every CLI smoke test."""
    doc = {
        "seed": 3,
        "graph": {"n": 2, "edges": [[1, 2, 1.0], [2, 1, 1.0]]},
        "costs": [{"kind": "quadratic", "a": 0.5, "b": 1.0},
                  {"kind": "quadratic", "a": 0.5, "b": 2.0}],
        "plants": [{"kind": "vdp_like", "mu1": 1.0, "mu2": 1.0, "b": 1.0,
                    "amplitude": 1.0} for _ in range(2)],
        "exosystem": {"kind": "rotation", "sigma": 0.8, "v0": [0.0, 1.0]},
        "coordinator": {"gains": {"beta1": 10.0, "beta2": 2.0}},
        "tracker": {"internal_model": {"coeffs": [2.0, 3.0]},
                    "frequencies": [0.8]},
        "init": {"x_range": [-0.5, 0.5], "yr_range": [-1.0, 1.0]},
        "sim": {"horizon": 5.0, "step": 1e-3, "record_every": 100},
    }
    path = tmp_path_factory.mktemp("scen") / "tiny.json"
    path.write_text(json.dumps(doc))
    return path


def test_graph_command_output(capsys, tiny_path):
    assert cmd_dispatch(["graph", "--scenario", str(tiny_path)]) == 0
    out = capsys.readouterr().out
    # lambda2 of Lbar = (R L + L^T R)/2, formed as spectral_data always has
    spectral = spectral_data(parse_scenario(tiny_path).graph)
    rl = spectral.rho[:, None] * spectral.laplacian
    assert f"lambda2: {float(np.linalg.eigvalsh(0.5 * (rl + rl.T))[1]):.17g}\n" in out
    assert "nodes: 2" in out
    assert "strongly_connected: True" in out
    assert "rho_sum: 1" in out
    assert "lambda2:" in out
    # the xi source's split of -L: no block, and kappa_1(P) of its eigenmodes
    _, _, kappa = SourceParts(spectral.laplacian).split()
    assert out.endswith(f"xi_block_size: 0\nxi_split_kappa: {kappa:.17g}\n")


def test_graph_command_prints_the_xi_block(capsys, tmp_path, tiny_path):
    # the cycle 1 -> 2 -> 3 -> 1 weighted (1, 1, 4): L's double eigenvalue 3 is
    # a Jordan block, which the split holds in a 2 x 2 block
    doc = json.loads(tiny_path.read_text())
    doc["graph"] = {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 4.0]]}
    for key in ("costs", "plants"):
        doc[key] = doc[key] + doc[key][:1]
    p = tmp_path / "jordan.json"
    p.write_text(json.dumps(doc))
    assert cmd_dispatch(["graph", "--scenario", str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "xi_block_size: 2"
    assert 1 <= float(lines[-1].removeprefix("xi_split_kappa: ")) < 10


def test_one_agent_scenario_exits_2(capsys, tmp_path, tiny_path):
    doc = json.loads(tiny_path.read_text())
    doc["graph"] = {"n": 1, "edges": []}
    for key in ("costs", "plants"):
        doc[key] = doc[key][:1]
    p = tmp_path / "one.json"
    p.write_text(json.dumps(doc))
    for command in (["sim", "--scenario", str(p), "--out", str(tmp_path)],
                    ["graph", "--scenario", str(p)]):
        assert cmd_dispatch(command) == 2
        assert "graph.n: a consensus needs at least 2 agents, got 1" in capsys.readouterr().err


def test_graph_command_disconnected(capsys, tmp_path, tiny_path):
    doc = json.loads(tiny_path.read_text())
    doc["graph"]["edges"] = [[1, 2, 1.0]]
    p = tmp_path / "disc.json"
    p.write_text(json.dumps(doc))
    assert cmd_dispatch(["graph", "--scenario", str(p)]) == 1
    assert "strongly_connected: False" in capsys.readouterr().out


def test_sim_command_csv_and_metrics(tmp_path, tiny_path):
    out = tmp_path / "out"
    assert cmd_dispatch(["sim", "--scenario", str(tiny_path),
                         "--out", str(out)]) == 0
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:8] == ["t", "y_1", "x2_1", "yr_1", "z_1", "xii_1",
                          "theta_1", "k_1"]
    assert "psi_1_1" in header and "psi_2_2" in header
    assert header[-4:] == ["v_1", "v_2", "rho_z", "exo_norm"]
    assert len(rows) == 1 + 51  # header + floor(5/(1e-3*100)) + 1 samples
    summary = json.loads((out / "metrics.json").read_text())
    assert summary["s_star"] == pytest.approx(1.5)
    assert len(summary["final_error"]) == 2


def test_csv_round_trip_exact(tmp_path, tiny_path):
    sc = parse_scenario(tiny_path)
    traj = run(sc)
    path = tmp_path / "traj.csv"
    write_trajectory(traj, path, sc.tracker.gamma)
    data = np.genfromtxt(path, delimiter=",", names=True)
    for i in (1, 2):
        assert np.array_equal(data[f"y_{i}"], traj.y[:, i - 1])
        assert np.array_equal(data[f"k_{i}"], traj.k[:, i - 1])
    assert np.array_equal(data["t"], traj.times)


def oracle_csv(traj, gamma):
    """The trajectory CSV's text built column by column, in its documented order."""
    columns = [("t", traj.times)]
    blocks = [("y", traj.y), ("x2", traj.x2), ("yr", traj.yr), ("z", traj.z),
              ("xii", traj.xi_diag), ("theta", traj.theta(gamma)), ("k", traj.k)]
    start = 0
    for i, s_dim in enumerate(traj.layout.s_dims):
        columns += [(f"{name}_{i + 1}", block[:, i]) for name, block in blocks]
        columns += [(f"psi_{i + 1}_{j + 1}", traj.psi[:, start + j]) for j in range(s_dim)]
        start += s_dim
    columns += [(f"v_{j + 1}", traj.v[:, j]) for j in range(traj.v.shape[1])]
    columns += [("rho_z", traj.rho_z), ("exo_norm", traj.exo_norm)]
    rows = [",".join("%.17g" % col[r] for _, col in columns) for r in range(len(traj.times))]
    return "\n".join([",".join(name for name, _ in columns)] + rows) + "\n"


def test_csv_matches_a_column_by_column_oracle(tmp_path, tiny_path):
    # agents whose internal models have unequal orders put psi rows of unequal widths
    doc = json.loads(tiny_path.read_text())
    doc["tracker"] = {"internal_model": [{"coeffs": [2.0, 3.0]},
                                         {"coeffs": [1.0, 4.0, 6.0, 4.0]}]}
    doc["sim"]["horizon"] = 0.5
    sc = scenario_from_dict(doc)
    traj = run(sc)
    assert traj.layout.s_dims == (2, 4)
    path = tmp_path / "traj.csv"
    write_trajectory(traj, path, sc.tracker.gamma)
    assert path.read_text() == oracle_csv(traj, sc.tracker.gamma)


def test_verify_command(tmp_path, tiny_path, capsys):
    out = tmp_path / "v"
    code = cmd_dispatch(["verify", "--scenario", str(tiny_path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    printed = capsys.readouterr().out
    for name in report["checks"]:
        assert name in printed
    assert code == (0 if report["passed"] else 1)
    # conservation checks must pass regardless of tracking accuracy
    for key in ("z_conservation_drift", "xi_rowsum_drift", "exo_energy_drift"):
        assert report["checks"][key]["pass"]


def test_verify_failure_exit_code(tmp_path, tiny_path):
    doc = json.loads(tiny_path.read_text())
    doc["tolerances"] = {"z_conservation_drift": 1e-300}
    p = tmp_path / "strict.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "v"
    assert cmd_dispatch(["verify", "--scenario", str(p), "--out", str(out)]) == 1


def test_coordinator_command(tmp_path, tiny_path, capsys):
    out = tmp_path / "c"
    assert cmd_dispatch(["coordinator", "--scenario", str(tiny_path),
                         "--out", str(out)]) == 0
    with open(out / "coordinator.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "yr_1", "yr_2", "z_1", "z_2", "xii_1", "xii_2", "rho_z"]
    summary = json.loads((out / "coordinator_metrics.json").read_text())
    assert summary["final_reference_error"] < 1e-3
    assert summary["xi_error"] < 1e-3


def read_columns(path):
    """A CSV as a dict of float columns by header name."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {name: np.array([float(row[name]) for row in rows]) for name in rows[0]}


def test_coordinator_command_builds_no_member_plan(tmp_path, tiny_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("oocsim coordinator built a member plan")

    with monkeypatch.context() as patch:
        patch.setattr(sim, "Plan", refuse)
        assert cmd_dispatch(["coordinator", "--scenario", str(tiny_path),
                             "--out", str(tmp_path / "c")]) == 0
    assert cmd_dispatch(["sim", "--scenario", str(tiny_path), "--out", str(tmp_path / "s")]) == 0
    alone = read_columns(tmp_path / "c" / "coordinator.csv")
    member = read_columns(tmp_path / "s" / "trajectory.csv")
    for i in (1, 2):
        assert alone[f"yr_{i}"][0] == member[f"yr_{i}"][0]  # the same y_r(0) draw
    summary = json.loads((tmp_path / "c" / "coordinator_metrics.json").read_text())
    sc = parse_scenario(str(tiny_path))
    assert summary["gains"] == dataclasses.asdict(assemble(sc).gains)
    assert summary["s_star"] == json.loads((tmp_path / "s" / "metrics.json").read_text())["s_star"]
    rho = spectral_data(sc.graph).rho
    xii = np.array([member[f"xii_{i}"][-1] for i in (1, 2)])
    assert summary["xi_error"] == float(np.abs(xii - rho).max())


def test_coordinator_failure_names_the_scenario(tmp_path, tiny_path, capsys):
    # h = 2.5 drives xi_i^i to 1 - 1.25 < 0 in the second RK4 stage of the first step
    doc = json.loads(tiny_path.read_text())
    doc["name"] = "bigstep"
    doc["sim"] = {"horizon": 25.0, "step": 2.5, "record_every": 1}
    p = tmp_path / "bigstep.json"
    p.write_text(json.dumps(doc))
    messages = []
    for command in ("coordinator", "sim"):
        assert cmd_dispatch([command, "--scenario", str(p), "--out", str(tmp_path / command)]) == 1
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert messages[0] == ("error: bigstep: agent 1: xi_i^i = -2.500e-01 below floor 1e-09 "
                           "at t=1.25\n")


def test_overflowing_gradient_is_a_named_divergence(tmp_path, capsys):
    # the scan of 60 e^{60 s} over [-10, 10] is finite, but the first RK4 step
    # sends yr where math.exp overflows; that is a divergence, not a traceback
    doc = json.loads(resources.files("oocsim").joinpath("presets/example1.json").read_text())
    doc["name"] = "steep"
    doc["costs"][0] = {"kind": "exp_sum", "c1": 1, "k1": 60, "c2": 1, "k2": -60}
    p = tmp_path / "steep.json"
    p.write_text(json.dumps(doc))
    for command in ("verify", "coordinator"):
        assert cmd_dispatch([command, "--scenario", str(p), "--out", str(tmp_path / command)]) == 1
        assert capsys.readouterr().err == ("error: steep: non-finite state after step at t=0: "
                                           "first in yr of agent 1\n")


def test_ablate_command(tmp_path, tiny_path, capsys):
    out = tmp_path / "a"
    assert cmd_dispatch(["ablate", "--scenario", str(tiny_path),
                         "--out", str(out)]) == 0
    comparison = json.loads((out / "ablation.json").read_text())
    assert comparison["ratio"] > 0
    assert (out / "with_internal_model.csv").exists()
    assert (out / "without_internal_model.csv").exists()


def test_sweep_command(tmp_path, tiny_path):
    out = tmp_path / "s"
    assert cmd_dispatch(["sweep", "--scenario", str(tiny_path), "--out", str(out),
                         "--attr", "seed", "--values", "3,4"]) == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert [entry["value"] for entry in payload] == [3, 4]
    assert cmd_dispatch(["sweep", "--scenario", str(tiny_path), "--out", str(out),
                         "--attr", "gamma", "--values", "1"]) == 2
    assert cmd_dispatch(["sweep", "--scenario", str(tiny_path), "--out", str(out),
                         "--attr", "seed", "--values", "x"]) == 2
    assert cmd_dispatch(["sweep", "--scenario", str(tiny_path), "--out", str(out),
                         "--attr", "seed", "--values", "1.5"]) == 2
    assert cmd_dispatch(["sweep", "--scenario", str(tiny_path), "--out", str(out),
                         "--attr", "seed", "--values", str(2 ** 64)]) == 2
    # a seed past 2**53 runs as itself, not as its nearest float
    assert cmd_dispatch(["sweep", "--scenario", str(tiny_path), "--out", str(out),
                         "--attr", "seed", "--values", "9007199254740993"]) == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert [entry["value"] for entry in payload] == [9007199254740993]
    assert cmd_dispatch(["sweep", "--scenario", str(tiny_path), "--out", str(out),
                         "--attr", "step", "--values", "0.003"]) == 2  # 5 s is not whole steps


def test_usage_errors(tmp_path, tiny_path, capsys):
    assert cmd_dispatch(["sim", "--scenario", "example1"]) == 2  # missing --out
    assert cmd_dispatch(["nonsense"]) == 2
    assert cmd_dispatch(["sim", "--scenario", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)]) == 2  # missing file -> schema error
    capsys.readouterr()
    text = tiny_path.read_text()
    for good, bad, field in (('"horizon": 5.0', '"horizon": Infinity', "sim.horizon"),
                             ('"a": 0.5', '"a": NaN', "costs[0].a")):
        assert good in text
        path = tmp_path / "nonfinite.json"
        path.write_text(text.replace(good, bad))  # JSON extensions Python accepts
        assert cmd_dispatch(["sim", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert f"{field}: expected a finite number" in capsys.readouterr().err
    # a second weight for a pair the list already has would overwrite the first
    doc = json.loads(resources.files("oocsim").joinpath("presets/example1.json").read_text())
    edges = doc["graph"]["edges"]
    edges.append(edges[0][:2] + [7.5])
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(doc))
    assert cmd_dispatch(["sim", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"graph.edges[{len(edges) - 1}]" in err and "graph.edges[0]" in err


@pytest.mark.parametrize("good, bad, message", [
    ('"n": 2', '"n": true', "graph.n: expected a positive integer"),
    ('[[1, 2, 1.0]', '[[true, 2, 1.0]', "graph.edges[0]: node ids must be integers"),
    ('"record_every": 100', '"record_every": true', "sim.record_every: expected a positive"),
], ids=["graph.n", "graph.edges", "sim.record_every"])
def test_boolean_integer_fields_exit_2(tmp_path, tiny_path, capsys, good, bad, message):
    text = tiny_path.read_text()
    assert good in text
    path = tmp_path / "boolean.json"
    path.write_text(text.replace(good, bad))
    assert cmd_dispatch(["sim", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_init_ranges_are_drawn_after_yr_and_x(tmp_path, tiny_path, capsys):
    doc = json.loads(tiny_path.read_text())
    doc["init"].update(eta_range=[-3.0, -2.0], k_range=[0.5, 1.5], psi_range=[4.0, 6.0])
    sc = scenario_from_dict(doc)
    layout = assemble(sc).layout
    y0 = initial_state(sc, layout)
    # eta, k and psi_hat follow yr and the (x1, x2) pairs on the same stream
    rng = np.random.default_rng([sc.seed, 1])
    assert np.array_equal(y0[layout.slices["yr"]], rng.uniform(-1.0, 1.0, size=2))
    rng.uniform(-0.5, 0.5, size=4)
    assert np.array_equal(y0[layout.slices["eta"]], rng.uniform(-3.0, -2.0, size=4))
    assert np.array_equal(y0[layout.slices["k"]], rng.uniform(0.5, 1.5, size=2))
    assert np.array_equal(y0[layout.slices["psi"]], rng.uniform(4.0, 6.0, size=4))
    assert np.array_equal(y0[layout.slices["z"]], np.zeros(2))
    doc["init"]["k_range"] = [1.0]
    path = tmp_path / "bad_k_range.json"
    path.write_text(json.dumps(doc))
    assert cmd_dispatch(["sim", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "init.k_range" in capsys.readouterr().err


@pytest.mark.parametrize("preset, fields, message", [
    ("example1", {"b": 0, "uncertainty": 0}, "plants[0]: control gain b must be positive"),
    ("example2", {"m": 0}, "plants[0]: mass must be positive"),
    ("example1", {"uncertainty": -0.1}, "plants[0].uncertainty: must be nonnegative"),
], ids=["gain", "mass", "negative-uncertainty"])
def test_refused_plant_parameter_exits_2(tmp_path, capsys, preset, fields, message):
    # each was a ValueError traceback and exit 1
    doc = json.loads(resources.files("oocsim").joinpath(f"presets/{preset}.json").read_text())
    doc["plants"][0].update(fields)
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(doc))
    assert cmd_dispatch(["graph", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("section, key, value, message", [
    ("exosystem", "v0", [0.0, 1.0, 2.0], "exosystem: v0 dimension must match S"),
    ("init", "x_range", [0.5, -0.5], "init.x_range: low 0.5 is above high -0.5"),
    (None, "domain_hint", [3.0, -3.0], "domain_hint: low 3.0 is above high -3.0"),
    ("tracker", "frequencies", [0.8, 1.6],
     "tracker.frequencies: [0.8, 1.6] give order 4, tracker.internal_model[0] has order 2"),
    ("tracker", "frequencies", [0.8, 0.8], "tracker.frequencies: repeated mode frequencies"),
    ("costs", 0, {"kind": "composite", "name": ["ex2_f1"]},
     "costs[0].name: expected a string, got ['ex2_f1']"),
    (None, "exosystem", {"kind": "matrix", "S": [["0", 1.0], [-1.0, False]], "v0": [0.0, 1.0]},
     "exosystem.S: expected a number, got '0'"),
    (None, "name", ["x"], "name: expected a string, got ['x']"),
    (None, "name", 5, "name: expected a string, got 5"),
    (None, "domain_hint", [1.0, 1.0],
     "domain_hint: low equals high 1.0, expected an interval of positive width"),
    ("plants", 0, ["vdp_like"], "plants[0]: expected an object, got list"),
    ("plants", 1, "vdp_like", "plants[1]: expected an object, got str"),
    ("costs", 0, 5, "costs[0]: expected an object, got int"),
    ("costs", 1, ["kind"], "costs[1]: expected an object, got list"),
    ("tracker", "frequencies", [], "tracker.frequencies: expected at least one frequency"),
    # the whole line, so the coefficient's name is not wrapped in its spec's again
    ("tracker", "internal_model", {"coeffs": [1.0, "x"]},
     "error: tracker.internal_model[0].coeffs: expected a number, got 'x'\n"),
], ids=["rotation-v0", "init-range", "domain-hint", "frequency-count", "repeated-frequency",
        "composite-name", "exosystem-S", "name-list", "name-number", "domain-hint-width",
        "plant-list", "plant-string", "cost-number", "cost-list", "no-frequency",
        "internal-model-coefficient"])
def test_schema_holes_exit_2(tmp_path, tiny_path, capsys, section, key, value, message):
    # each was a traceback, a run-time numpy error, a failure after the run
    # or, for the string and boolean entries of S, a run
    doc = json.loads(tiny_path.read_text())
    (doc if section is None else doc[section])[key] = value
    path = tmp_path / "hole.json"
    path.write_text(json.dumps(doc))
    assert cmd_dispatch(["sim", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
