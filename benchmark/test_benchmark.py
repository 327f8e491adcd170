"""Self-tests of the benchmark: generators, traced counts and the correctness gate.

    PYTHONPATH=src python3 -m pytest benchmark
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run
import workloads
from oocsim import costs as costs_mod
from oocsim import sim as sim_mod
from oocsim.digraph import is_strongly_connected, spectral_data
from oocsim.scenario import scenario_from_dict
from tracing import Tracer


def shortened(wl, horizon, **doc_changes):
    doc = dict(wl.doc, sim=dict(wl.doc["sim"], horizon=horizon), **doc_changes)
    return replace(wl, doc=doc)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_per_seed(name):
    gen = workloads.GENERATORS[name]
    first, second = gen(5), gen(5)
    assert json.dumps(first.doc, sort_keys=True) == json.dumps(second.doc, sort_keys=True)
    assert first.member_seeds == second.member_seeds
    scenario_from_dict(first.doc)


def test_seeded_generators_follow_the_seed():
    assert (workloads.example2_seed_sweep(1).member_seeds
            != workloads.example2_seed_sweep(2).member_seeds)
    assert len(workloads.example2_seed_sweep(1).member_seeds) == 16
    assert (workloads.ring200_closed_loop(1).doc["graph"]
            != workloads.ring200_closed_loop(2).doc["graph"])


@pytest.mark.parametrize("seed", [1, 7, 2 ** 40])
def test_ring_is_strongly_connected_with_positive_rho_at_the_margin(seed):
    doc = workloads.ring200_closed_loop(seed).doc
    n = doc["graph"]["n"]
    edges = [(src, dst) for src, dst, _ in doc["graph"]["edges"]]
    assert n == 200 and len(set(edges)) == 2 * n
    sc = scenario_from_dict(doc)
    assert is_strongly_connected(sc.graph)
    rho = workloads.left_eigenvector(n, edges)
    assert rho.min() > 0
    np.testing.assert_allclose(rho, spectral_data(sc.graph).rho, rtol=1e-8, atol=0)
    curvature = max(2.0 * c["a"] for c in doc["costs"])
    assert workloads.RING_STEP * curvature / rho.min() <= workloads.RING_MARGIN * (1 + 1e-12)


@pytest.mark.parametrize("name,horizon", [("example1_verify", 0.05),
                                          ("example2_seed_sweep", 0.02),
                                          ("ring200_closed_loop", 0.1)])
def test_traced_counts_are_exact(tmp_path, monkeypatch, name, horizon):
    monkeypatch.setattr(run, "MIN_REPS", 1)
    wl = shortened(workloads.GENERATORS[name](3), horizon)
    plain, traced, tracers, _ = run.timed_ops(wl, tmp_path, seconds=0, traced=True)
    metrics, problems = run.trace_metrics(plain, traced, tracers, wl)
    assert problems == []
    steps = wl.trajectories * round(horizon / wl.doc["sim"]["step"])
    assert metrics["integrate.steps"] == steps
    assert metrics["sim.rhs_calls"] == 4 * steps
    assert metrics["sim.assemble_calls"] == (16 if wl.member_seeds else 1)
    # tracing changes no output
    assert run.gate(plain + traced) == []


@pytest.mark.parametrize("name,horizon", [("example1_verify", 0.05),
                                          ("example2_seed_sweep", 0.02)])
def test_untraced_repeats_are_bracketed_by_calibration(tmp_path, monkeypatch, name, horizon):
    monkeypatch.setattr(run, "MIN_REPS", 2)
    wl = shortened(workloads.GENERATORS[name](0), horizon)
    plain, traced, tracers, setups = run.timed_ops(wl, tmp_path, seconds=0)
    assert len(plain) == len(setups) == 2 and traced == tracers == []
    assert all(op.host_s > 0 for op in plain) and all(host > 0 for _, host in setups)
    # twice as slow a host halves the reported time
    assert run.reference_s(2.0, 2 * run.CALIBRATION_REF_S) == pytest.approx(1.0)


def test_tracer_restores_the_program_names():
    names = [(sim_mod, "assemble"), (sim_mod, "rk4_step"), (sim_mod, "spectral_data"),
             (sim_mod, "verify"), (costs_mod, "convexity_bounds"),
             (costs_mod, "global_optimum")]
    before = [getattr(mod, attr) for mod, attr in names]
    with Tracer().install():
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(names, before))
    assert [getattr(mod, attr) for mod, attr in names] == before


def test_divergence_is_counted_not_hidden(tmp_path):
    # example2's own ranges (x in +-2, yr in +-5) diverge for most members
    wl = shortened(workloads.example2_seed_sweep(1), 0.02, init={})
    op = run.run_op(wl, tmp_path)
    failed = [o for o in op.outcomes if o.failed]
    assert len(op.outcomes) == 16 and failed
    assert all("Diverged" in o.error or "XiUnderflow" in o.error for o in failed)
    assert run.gate([op])


def test_reference_check_passes_here_and_rejects_a_coarser_step(monkeypatch):
    assert run.reference_errors("example1_verify")[0][0] <= run.REFERENCE_RTOL

    def coarse(seed):
        wl = workloads.example1_verify(seed)
        return replace(wl, doc=dict(wl.doc, sim=dict(wl.doc["sim"], step=2e-3,
                                                     record_every=50)))

    monkeypatch.setitem(run.GENERATORS, "example1_verify", coarse)
    assert run.reference_errors("example1_verify")[0][0] > 1e3 * run.REFERENCE_RTOL


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmark/run.py"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: gen(0).why for name, gen in workloads.GENERATORS.items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "benchmark", tmp_path / "benchmark")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "example1_verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
