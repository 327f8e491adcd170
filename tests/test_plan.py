"""Shared set-up: `sim.plan`, its slot, and the scenario arrays its identity keys rely on."""

import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

from oocsim import costs, sim
from oocsim.digraph import Digraph
from oocsim.plant import Exosystem
from oocsim.scenario import scenario_from_dict
from oocsim.sim import (LinearDriver, ModalSource, assemble, initial_state, plan, reseed, run,
                        sweep, verify, xi_source)
from oocsim.tracker import InternalModelSpec

SEEDS = [3, 7, 105]
NARROW = {"x_range": [-0.5, 0.5], "yr_range": [-1.0, 1.0]}


def preset_doc(name, horizon):
    doc = json.loads(resources.files("oocsim").joinpath(f"presets/{name}.json").read_text())
    doc["sim"].update(horizon=horizon, record_every=5)
    doc["init"] = dict(NARROW)
    return doc


def horner_doc():
    """Three agents on the weighted 3-cycle (1, 1, 4), whose L has a Jordan block."""
    doc = preset_doc("example1", 0.05)
    doc["graph"] = {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 4.0]]}
    doc["costs"] = doc["costs"][:3]
    doc["plants"] = doc["plants"][:3]
    doc["coordinator"] = {"gains": {"beta1": 1.0, "beta2": 1.0, "delta": 1.0}}
    return doc


DOCS = {"example2": lambda: preset_doc("example2", 0.05),
        "example1": lambda: preset_doc("example1", 0.05),
        "horner": horner_doc}


@pytest.mark.parametrize("case", DOCS)
def test_sweep_members_equal_their_runs_from_a_fresh_parse(case):
    doc = DOCS[case]()
    reports = sweep(scenario_from_dict(doc), "seed", SEEDS)
    for seed, (val, rep) in zip(SEEDS, reports):
        alone = scenario_from_dict(dict(doc, seed=seed))
        assert val == seed
        assert rep.to_dict() == verify(alone, run(alone)).to_dict()
    if case == "horner":
        sc = scenario_from_dict(doc)
        assert type(xi_source(assemble(sc).spectral.laplacian, sc.step)) is LinearDriver


def counting(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("case", ["example2", "example1"])
def test_a_sweep_runs_the_shared_set_up_once(case, monkeypatch):
    calls = {}
    counting(monkeypatch, sim, "_eigendecomposition", calls)
    counting(monkeypatch, sim, "spectral_data", calls)
    counting(monkeypatch, costs, "convexity_bounds", calls)
    counting(monkeypatch, costs, "global_optimum", calls)
    systems = []
    build = sim.assemble

    def kept(sc):
        systems.append(build(sc))
        return systems[-1]

    monkeypatch.setattr(sim, "assemble", kept)
    sweep(scenario_from_dict(DOCS[case]()), "seed", SEEDS)
    assert calls == {"_eigendecomposition": 1, "spectral_data": 1, "convexity_bounds": 1,
                     "global_optimum": 1}
    # one System per member, each with a derivative and buffers of its own
    assert len(systems) == len(SEEDS)
    assert len({id(s.derivative) for s in systems}) == len(SEEDS)
    y0 = np.zeros(systems[0].layout.dim)
    assert len({id(s.derivative(0.0, y0)) for s in systems}) == len(SEEDS)
    # example2's plants carry no uncertainty, so its members share the operators
    shared = case == "example2"
    assert (systems[0].operator is systems[1].operator) == shared
    assert systems[0].spectral is systems[1].spectral


def test_plans_are_keyed_by_identity():
    doc = preset_doc("example2", 0.05)
    first, second = scenario_from_dict(doc), scenario_from_dict(doc)
    a = plan(first)
    assert plan(first) is a
    # what the plan shares, nothing may write
    assert not a.structure.spectral.laplacian.flags.writeable
    assert plan(reseed(first, 3)) is a
    assert plan(dataclasses.replace(first, horizon=0.1, step=5e-4)) is a
    # two parses of one document share nothing
    b = plan(second)
    assert b is not a and b.structure is not a.structure
    # the slot holds one plan: the first parse builds anew
    assert plan(first) is not a
    # new plants share the structure, not the operators
    ex1 = scenario_from_dict(preset_doc("example1", 0.05))
    c = plan(ex1)
    d = plan(reseed(ex1, 3))
    assert d is not c and d.structure is c.structure
    assert d.main is not c.main


def test_sources_share_the_plan_read_out_but_not_their_state():
    sc = scenario_from_dict(preset_doc("example2", 0.05))
    big_l = assemble(sc).spectral.laplacian
    a, b = xi_source(big_l, sc.step), xi_source(big_l, sc.step)
    assert type(a) is ModalSource and a is not b
    assert a._read_xi is b._read_xi and a._ell is b._ell
    first = np.array(a.stages())
    for _ in range(40):
        a.stages()
    # b starts from t = 0 whatever a did
    assert np.array_equal(np.array(b.stages()), first)
    # another step gets its own factors; an equal L that is another array shares nothing
    assert xi_source(big_l, sc.step / 2)._ell is not a._ell
    assert xi_source(big_l.copy(), sc.step)._read_xi is not a._read_xi


def test_initial_state_does_not_come_from_the_plan():
    doc = preset_doc("example1", 0.05)
    sc = scenario_from_dict(doc)
    layout = assemble(sc).layout
    for seed in SEEDS:
        member = reseed(sc, seed)
        alone = scenario_from_dict(dict(doc, seed=seed))
        assert np.array_equal(initial_state(member, assemble(member).layout),
                              initial_state(alone, layout))


FROZEN = {
    "Digraph.weights": (lambda a: Digraph(n=2, weights=a).weights, np.array([[0, 1.0], [1, 0]])),
    "Exosystem.S": (lambda a: Exosystem(S=a, v0=np.ones(2)).S, np.array([[0, 1.0], [-1, 0]])),
    "Exosystem.v0": (lambda a: Exosystem(S=np.eye(2), v0=a).v0, np.array([0.0, 1.0])),
    "InternalModelSpec.M": (lambda a: InternalModelSpec(2, a, np.array([0.0, 1.0])).M,
                            np.array([[0, 1.0], [-2, -3]])),
    "InternalModelSpec.N_vec": (lambda a: InternalModelSpec(2, -np.eye(2), a).N_vec,
                                np.array([0.0, 1.0])),
}


@pytest.mark.parametrize("field", FROZEN)
def test_scenario_arrays_are_read_only_copies(field):
    get, given = FROZEN[field]
    given = given.copy()
    held = get(given)
    assert np.array_equal(held, given) and held is not given
    with pytest.raises(ValueError, match="read-only"):
        held[0] = 5.0
    given[0] = 5.0  # the caller's array stays its own and writable
    assert not np.array_equal(held, given)
