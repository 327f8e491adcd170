import csv
import json

import numpy as np
import pytest

from oocsim.cli import cmd_dispatch, write_trajectory
from oocsim.scenario import parse_scenario
from oocsim.sim import run


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
    assert "nodes: 2" in out
    assert "strongly_connected: True" in out
    assert "rho_sum: 1" in out
    assert "lambda2:" in out


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
