import copy
import json

import numpy as np
import pytest

from oocsim.errors import SchemaError
from oocsim.scenario import PRESETS, parse_scenario, scenario_from_dict


def minimal_doc():
    return {
        "seed": 3,
        "graph": {"n": 2, "edges": [[1, 2, 1.0], [2, 1, 1.0]]},
        "costs": [{"kind": "quadratic", "a": 0.5, "b": 1.0},
                  {"kind": "quadratic", "a": 0.5, "b": 2.0}],
        "plants": [{"kind": "vdp_like", "mu1": 1.0, "mu2": 1.0, "b": 1.0,
                    "amplitude": 1.0} for _ in range(2)],
        "exosystem": {"kind": "rotation", "sigma": 0.8, "v0": [0.0, 1.0]},
        "tracker": {"internal_model": {"coeffs": [2.0, 3.0]}},
    }


def test_presets_listed():
    assert PRESETS == ("example1", "example2")


def test_example1_preset_fields():
    sc = parse_scenario("example1")
    assert sc.graph.n == 5
    lap = np.array([[2., 0., -1., 0., -1.],
                    [-1., 1., 0., 0., 0.],
                    [0., -1., 1., 0., 0.],
                    [0., 0., -1., 1., 0.],
                    [0., -1., 0., -1., 2.]])
    from oocsim.digraph import laplacian
    assert np.array_equal(laplacian(sc.graph), lap)
    # quadratic costs 0.1 (s - i)^2
    for i, c in enumerate(sc.costs, start=1):
        assert c.kind == "quadratic"
        assert abs(c.grad(float(i))) < 1e-15
        assert abs(c.grad(float(i) + 1.0) - 0.2) < 1e-15
    # plants are perturbed around the nominal table, within 20 percent
    for i, p in enumerate(sc.plants, start=1):
        assert p.kind == "vdp_like"
        assert abs(p.params["mu1"] - i) <= 0.2 * i + 1e-12
        assert abs(p.params["mu2"] - i) <= 0.2 * i + 1e-12
        assert abs(p.b - 1.0) <= 0.2 + 1e-12
    assert sc.exo.S[0, 1] == 0.8
    assert np.array_equal(sc.exo.v0, [0.0, 10.0])
    assert (sc.gains.beta1, sc.gains.beta2) == (20.0, 2.0)
    assert sc.frequencies == [0.8]
    assert sc.check_psi
    assert (sc.horizon, sc.step, sc.record_every) == (100.0, 1e-3, 100)
    assert all(spec.s_dim == 2 for spec in sc.im_specs)


def test_example2_preset_fields():
    sc = parse_scenario("example2")
    assert [c.kind for c in sc.costs] == [f"ex2_f{i}" for i in range(1, 6)]
    for i, p in enumerate(sc.plants, start=1):
        assert p.kind == "damping_spring"
        assert p.params["m"] == pytest.approx(1.0 + 0.1 * i)
        assert p.params["k1"] == pytest.approx(2.0 + 0.2 * i)
        assert p.params["k2"] == pytest.approx(3.0 - 0.1 * i)
        assert p.params["mu1"] == pytest.approx(4.0 - 0.2 * i)
        assert p.params["mu2"] == pytest.approx(5.0 - 0.3 * i)
        assert p.params["a_w"] == 100.0
        assert p.b == pytest.approx(1.0 / (1.0 + 0.1 * i))
    assert sc.exo.S[0, 1] == 1.0
    assert all(spec.s_dim == 4 for spec in sc.im_specs)
    assert sc.frequencies is None and not sc.check_psi
    assert sc.domain_hint == (-5.0, 5.0)


def test_minimal_doc_parses():
    sc = scenario_from_dict(minimal_doc())
    assert sc.graph.n == 2
    assert sc.gains is None  # auto
    assert sc.horizon == 100.0


def test_uncertainty_is_seeded():
    doc = minimal_doc()
    for p in doc["plants"]:
        p["uncertainty"] = 0.2
    a = scenario_from_dict(copy.deepcopy(doc))
    b = scenario_from_dict(copy.deepcopy(doc))
    assert [p.params for p in a.plants] == [p.params for p in b.plants]
    doc2 = copy.deepcopy(doc)
    doc2["seed"] = 4
    c = scenario_from_dict(doc2)
    assert [p.params for p in a.plants] != [p.params for p in c.plants]
    for p, q in zip(a.plants, scenario_from_dict(copy.deepcopy(doc)).plants):
        assert abs(p.params["mu1"] - 1.0) <= 0.2


def test_negative_weight_names_edge():
    doc = minimal_doc()
    doc["graph"]["edges"][1] = [2, 1, -0.5]
    with pytest.raises(SchemaError, match=r"\(2, 1\)"):
        scenario_from_dict(doc)


def test_unknown_keys_rejected_at_each_level():
    doc = minimal_doc()
    doc["bogus"] = 1
    with pytest.raises(SchemaError, match="bogus"):
        scenario_from_dict(doc)
    doc = minimal_doc()
    doc["graph"]["directed"] = True
    with pytest.raises(SchemaError, match="directed"):
        scenario_from_dict(doc)
    doc = minimal_doc()
    doc["tracker"]["extra"] = 1
    with pytest.raises(SchemaError, match="extra"):
        scenario_from_dict(doc)
    doc = minimal_doc()
    doc["plants"][0]["spring"] = 2.0
    with pytest.raises(SchemaError, match="spring"):
        scenario_from_dict(doc)


def test_missing_required_key():
    doc = minimal_doc()
    del doc["graph"]
    with pytest.raises(SchemaError, match="graph"):
        scenario_from_dict(doc)
    doc = minimal_doc()
    del doc["plants"][0]["mu1"]
    with pytest.raises(SchemaError, match="mu1"):
        scenario_from_dict(doc)


def test_bad_seed_rejected():
    for bad in (-1, 2 ** 64, 1.5, True, "x"):
        doc = minimal_doc()
        doc["seed"] = bad
        with pytest.raises(SchemaError, match="seed"):
            scenario_from_dict(doc)


def test_length_mismatches():
    doc = minimal_doc()
    doc["costs"] = doc["costs"][:1]
    with pytest.raises(SchemaError, match="costs"):
        scenario_from_dict(doc)
    doc = minimal_doc()
    doc["tracker"]["internal_model"] = [{"coeffs": [2.0, 3.0]}] * 3
    with pytest.raises(SchemaError, match="internal_model"):
        scenario_from_dict(doc)


def test_exosystem_kind_exclusive_fields():
    doc = minimal_doc()
    doc["exosystem"]["S"] = [[0.0, 1.0], [-1.0, 0.0]]
    with pytest.raises(SchemaError, match="S"):
        scenario_from_dict(doc)
    doc = minimal_doc()
    doc["exosystem"] = {"kind": "matrix", "S": [[0.0, 1.0], [-1.0, 0.0]],
                        "v0": [1.0, 0.0]}
    sc = scenario_from_dict(doc)
    assert sc.exo.is_conservative()
    doc["exosystem"]["S"][0][1] = float("nan")
    with pytest.raises(SchemaError, match="exosystem.S"):
        scenario_from_dict(doc)


def test_check_psi_requires_frequencies():
    doc = minimal_doc()
    doc["tracker"]["check_psi"] = True
    with pytest.raises(SchemaError, match="frequencies"):
        scenario_from_dict(doc)


def test_gains_parsing():
    doc = minimal_doc()
    doc["coordinator"] = {"gains": {"beta1": 5.0, "beta2": 1.0}}
    sc = scenario_from_dict(doc)
    assert (sc.gains.beta1, sc.gains.beta2, sc.gains.delta) == (5.0, 1.0, 1.0)
    doc["coordinator"] = {"gains": {"beta1": -5.0, "beta2": 1.0}}
    with pytest.raises(SchemaError, match="beta1"):
        scenario_from_dict(doc)


def test_tracker_rho_has_one_shape():
    doc = minimal_doc()
    doc["tracker"]["rho"] = "quartic_plus_one"
    assert scenario_from_dict(doc).tracker.gamma == 2.0
    doc["tracker"]["rho"] = "nope"
    with pytest.raises(SchemaError, match="tracker.rho"):
        scenario_from_dict(doc)


def test_tolerances_override():
    doc = minimal_doc()
    doc["tolerances"] = {"final_output_error": 1e-1}
    sc = scenario_from_dict(doc)
    assert sc.tolerance("final_output_error") == 1e-1
    assert sc.tolerance("xi_error") == 1e-6
    doc["tolerances"] = {"nope": 1.0}
    with pytest.raises(SchemaError, match="nope"):
        scenario_from_dict(doc)


def test_parse_scenario_file_roundtrip(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(minimal_doc()))
    sc = parse_scenario(path)
    assert sc.name == "tiny"
    with pytest.raises(SchemaError, match="not found"):
        parse_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        parse_scenario(bad)
