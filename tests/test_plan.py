"""Shared set-up: what a sweep shares, what nothing keeps, and the read-only arrays it relies on."""

import dataclasses
import gc
import json
import weakref
from importlib import resources

import numpy as np
import pytest

from oocsim import costs, digraph, sim
from oocsim.coordinator import select_gains
from oocsim.digraph import Digraph
from oocsim.errors import Diverged
from oocsim.plant import Exosystem
from oocsim.scenario import scenario_from_dict
from oocsim.sim import (ModalSource, SourceParts, Structure, assemble, initial_state, reseed,
                        run, sweep, verify)
from oocsim.tracker import InternalModelSpec

SEEDS = [3, 7, 105]
NARROW = {"x_range": [-0.5, 0.5], "yr_range": [-1.0, 1.0]}


def preset_doc(name, horizon):
    doc = json.loads(resources.files("oocsim").joinpath(f"presets/{name}.json").read_text())
    doc["sim"].update(horizon=horizon, record_every=5)
    doc["init"] = dict(NARROW)
    return doc


def jordan_doc():
    """Three agents on the weighted 3-cycle (1, 1, 4), whose L has a Jordan block."""
    doc = preset_doc("example1", 0.05)
    doc["graph"] = {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 4.0]]}
    doc["costs"] = doc["costs"][:3]
    doc["plants"] = doc["plants"][:3]
    doc["coordinator"] = {"gains": {"beta1": 1.0, "beta2": 1.0, "delta": 1.0}}
    return doc


DOCS = {"example2": lambda: preset_doc("example2", 0.05),
        "example1": lambda: preset_doc("example1", 0.05),
        "jordan": jordan_doc}


@pytest.mark.parametrize("case", DOCS)
def test_sweep_members_equal_their_runs_from_a_fresh_parse(case):
    doc = DOCS[case]()
    reports = sweep(scenario_from_dict(doc), "seed", SEEDS)
    for seed, (val, rep) in zip(SEEDS, reports):
        alone = scenario_from_dict(dict(doc, seed=seed))
        assert val == seed
        assert rep.to_dict() == verify(alone, run(alone)).to_dict()
    if case == "jordan":  # the source holds the double eigenvalue in a 2 x 2 block
        sc = scenario_from_dict(doc)
        source = SourceParts(assemble(sc).spectral.laplacian).source(sc.step)
        assert source.m == 2


def counting(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)


# (document, swept field, values) of each sweep whose shared set-up is counted
SWEEPS = {"example2": ("example2", "seed", SEEDS), "example1": ("example1", "seed", SEEDS),
          "example2-step": ("example2", "step", [1e-3, 5e-4])}


@pytest.mark.parametrize("case", SWEEPS)
def test_a_sweep_runs_the_shared_set_up_once(case, monkeypatch):
    doc, attr, values = SWEEPS[case]
    calls = {}
    counting(monkeypatch, sim, "_split_modes", calls)
    counting(monkeypatch, sim, "spectral_data", calls)
    counting(monkeypatch, costs, "convexity_bounds", calls)
    counting(monkeypatch, costs, "global_optimum", calls)
    systems = []
    build = sim.assemble

    def kept(sc):
        systems.append(build(sc))
        return systems[-1]

    monkeypatch.setattr(sim, "assemble", kept)
    sweep(scenario_from_dict(DOCS[doc]()), attr, values)
    assert calls == {"_split_modes": 1, "spectral_data": 1, "convexity_bounds": 1,
                     "global_optimum": 1}
    # one System per member, each with a derivative and buffers of its own
    assert len(systems) == len(values)
    assert len({id(s.derivative) for s in systems}) == len(values)
    y0 = np.zeros(systems[0].layout.dim)
    assert len({id(s.derivative(0.0, y0)) for s in systems}) == len(values)
    # example2's plants carry no uncertainty and a step sweep draws none, so
    # those members share the operators; example1's seed members do not
    shared = case != "example1"
    assert (systems[0].operator is systems[1].operator) == shared
    assert systems[0].spectral is systems[1].spectral


def test_a_sweep_over_a_field_the_set_up_reads_shares_nothing():
    sc = scenario_from_dict(preset_doc("example2", 0.05))
    reports = sweep(sc, "ablate_internal_model", [False, True])
    for val, rep in reports:
        alone = dataclasses.replace(sc, ablate_internal_model=val)
        assert rep.to_dict() == verify(alone, run(alone)).to_dict()
    assert reports[0][1].to_dict() != reports[1][1].to_dict()


def test_ablate_compare_runs_the_shared_set_up_once(monkeypatch):
    sc = scenario_from_dict(preset_doc("example2", 0.05))
    calls = {}
    counting(monkeypatch, sim, "_split_modes", calls)
    counting(monkeypatch, sim, "spectral_data", calls)
    counting(monkeypatch, costs, "convexity_bounds", calls)
    counting(monkeypatch, costs, "global_optimum", calls)
    comparison, traj_with, traj_without = sim.ablate_compare(sc)
    assert calls == {"_split_modes": 1, "spectral_data": 1, "convexity_bounds": 1,
                     "global_optimum": 1}
    # each arm is the run its scenario makes alone, and s* is the costs' own
    monkeypatch.undo()
    for traj, ablate in ((traj_with, False), (traj_without, True)):
        alone = run(dataclasses.replace(sc, ablate_internal_model=ablate))
        assert all(np.array_equal(getattr(traj, key), getattr(alone, key))
                   for key in ("times", "raw", "xi_diag", "xi_rowsum"))
    assert comparison["s_star"] == costs.global_optimum(sc.costs)


def test_nothing_outlives_a_run_or_a_sweep(monkeypatch):
    sc = scenario_from_dict(preset_doc("example2", 0.05))
    # outside a sweep, every System has a set-up of its own
    a, b = assemble(sc), assemble(sc)
    assert a.operator is not b.operator and a.spectral is not b.spectral
    # what the Systems of one plan share, nothing may write
    assert not a.spectral.laplacian.flags.writeable
    system = assemble(sc)
    operator = weakref.ref(system.operator)
    run(sc, system)
    del a, b, system
    gc.collect()
    assert operator() is None
    # a sweep's operators go when it returns
    operators = []
    build = sim.assemble

    def kept(member):
        system = build(member)
        operators.append(weakref.ref(system.operator))
        return system

    monkeypatch.setattr(sim, "assemble", kept)
    sweep(sc, "seed", SEEDS)
    gc.collect()
    assert len(operators) == len(SEEDS) and all(ref() is None for ref in operators)
    assert sim._member is None
    # and when its second member diverges
    operators.clear()
    integrate = sim.integrate

    def second_diverges(*args):
        if len(operators) == 2:
            raise Diverged("non-finite state", t=0.0)
        return integrate(*args)

    monkeypatch.setattr(sim, "integrate", second_diverges)
    with pytest.raises(Diverged, match=r"\[seed=7\]: non-finite state"):
        sweep(sc, "seed", SEEDS)
    assert sim._member is None
    gc.collect()
    assert len(operators) == 2 and all(ref() is None for ref in operators)


def test_sources_share_the_plan_read_out_but_not_their_state():
    sc = scenario_from_dict(preset_doc("example2", 0.05))
    parts = assemble(sc).sources
    a, b = parts.source(sc.step), parts.source(sc.step)
    assert type(a) is ModalSource and a is not b
    assert a._read_xi is b._read_xi and a._ell is b._ell
    first = np.array(a.stages())
    for _ in range(40):
        a.stages()
    # b starts from t = 0 whatever a did
    assert np.array_equal(np.array(b.stages()), first)
    # another step gets its own factors; a source built alone shares nothing
    assert parts.source(sc.step / 2)._ell is not a._ell
    assert SourceParts(parts.big_l).source(sc.step)._read_xi is not a._read_xi


def test_initial_state_does_not_come_from_the_plan():
    doc = preset_doc("example1", 0.05)
    sc = scenario_from_dict(doc)
    layout = assemble(sc).layout
    for seed in SEEDS:
        member = reseed(sc, seed)
        alone = scenario_from_dict(dict(doc, seed=seed))
        assert np.array_equal(initial_state(member, assemble(member).layout),
                              initial_state(alone, layout))


def test_fixed_gains_never_factor_lbar(monkeypatch):
    # lambda2 is read by the gain rule alone, so a run with fixed gains skips eigvalsh
    def refused(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(digraph.np.linalg, "eigvalsh", refused)
    for name in ("example1", "example2"):
        sc = scenario_from_dict(preset_doc(name, 0.05))
        assert sc.gains is not None
        system = assemble(sc)
        verify(sc, run(sc, system=system))
        sweep(sc, "seed", SEEDS[:2])


def test_auto_gains_compute_lambda2_once_per_structure(monkeypatch):
    doc = preset_doc("example1", 0.05)
    doc["coordinator"] = {"gains": "auto"}
    sc = scenario_from_dict(doc)
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(a):
        calls.append(a)
        return eigvalsh(a)

    monkeypatch.setattr(digraph.np.linalg, "eigvalsh", counted)
    structure = Structure(sc)
    spectral = structure.spectral
    assert spectral.lambda2 == spectral.lambda2
    assert len(calls) == 1
    # Lbar formed apart from SpectralData, by the same row scaling; equal bit for bit
    rl = spectral.rho[:, None] * spectral.laplacian
    lambda2 = float(eigvalsh(0.5 * (rl + rl.T))[1])
    assert spectral.lambda2 == lambda2
    assert structure.gains == select_gains(costs.convexity_bounds(sc.costs),
                                           spectral.rho_min, lambda2)
    assert Structure(sc).gains == structure.gains
    assert len(calls) == 2  # a new Structure computes its own


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
