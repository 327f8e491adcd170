"""Golden values: s* and the curvature bounds of the presets and one ring200 graph.

Each value is pinned as `float.hex`, so any move, even of one ulp, fails.
They were recorded on a 2-core x86_64 host and come from its libm and
numpy's array math (the composites' exp, log and sqrt, in s* and in the
curvature scan) and its LAPACK (the SVD that scales ring200's a_i); a host
with another build of these may read other last bits.  As for
`benchmark/reference.json`, re-record them only in a change that states
why, with the measured move.  The ring200 graph and costs are the
benchmark's, from `benchmark/workloads.py`, which is only read.
"""

import importlib.util
from pathlib import Path

import pytest

from oocsim import costs
from oocsim.scenario import parse_scenario, scenario_from_dict

_spec = importlib.util.spec_from_file_location(
    "benchmark_workloads", Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# name -> (s*, varpi, iota_bar)
GOLDEN = {
    "example1": ("0x1.8000000000000p+1", "0x1.999999999999ap-3", "0x1.999999999999ap-3"),
    "example2": ("0x1.0632d94c36d18p-2", "0x1.32a1e2b4b7067p-5", "0x1.1505754ff449cp+3"),
    "ring200_seed1": ("0x1.80ad565848201p+1", "0x1.00c647e9e90a8p-6",
                      "0x1.f88d8d7a6f1d1p-5"),
}


def cost_list(name):
    if name == "ring200_seed1":
        return scenario_from_dict(workloads.ring200_closed_loop(1).doc).costs
    return parse_scenario(name).costs


@pytest.mark.parametrize("name", GOLDEN)
def test_optimum_and_bounds_are_the_recorded_doubles(name):
    cs = cost_list(name)
    bounds = costs.convexity_bounds(cs)
    got = (costs.global_optimum(cs).hex(), bounds.varpi.hex(), bounds.iota_bar.hex())
    assert got == GOLDEN[name]
