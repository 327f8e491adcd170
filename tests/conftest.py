"""Shared fixtures.  The two preset closed-loop runs are expensive (about a
minute together at h = 1e-3), so they are computed once per session and shared
between the unit tests and the acceptance suite."""

import numpy as np
import pytest

from oocsim.digraph import Digraph
from oocsim.scenario import parse_scenario
from oocsim.sim import ablate_compare, run


@pytest.fixture(scope="session")
def fig3_graph():
    """The five-node weight-unbalanced example topology, unit weights."""
    edges = [(3, 1, 1.0), (5, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
             (3, 4, 1.0), (2, 5, 1.0), (4, 5, 1.0)]
    return Digraph.from_edges(5, edges)


@pytest.fixture(scope="session")
def example1_scenario():
    return parse_scenario("example1")


@pytest.fixture(scope="session")
def example2_scenario():
    return parse_scenario("example2")


@pytest.fixture(scope="session")
def example1_run(example1_scenario):
    sc = example1_scenario
    return sc, run(sc)


@pytest.fixture(scope="session")
def example2_ablation(example2_scenario):
    """Paired run with/without the internal model; the with-arm doubles as the
    plain example2 trajectory."""
    sc = example2_scenario
    comparison, traj_with, traj_without = ablate_compare(sc)
    return sc, comparison, traj_with, traj_without


@pytest.fixture(scope="session")
def example2_run(example2_ablation):
    sc, _, traj_with, _ = example2_ablation
    return sc, traj_with
