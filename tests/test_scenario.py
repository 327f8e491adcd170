import copy
import json
import re
from importlib import resources

import numpy as np
import pytest

from oocsim.errors import SchemaError
from oocsim.plant import KINDS, draw
from oocsim.scenario import PRESETS, parse_scenario, scenario_from_dict
from oocsim.sim import reseed


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
    # the document's domain_hint is every cost's, and so the curvature scan's interval
    assert all(c.domain_hint == (-5.0, 5.0) for c in sc.costs)


def test_minimal_doc_parses():
    sc = scenario_from_dict(minimal_doc())
    assert sc.graph.n == 2
    assert sc.gains is None  # auto
    assert sc.horizon == 100.0


@pytest.mark.parametrize("coeffs", [[1e5, 5e4, 1e4, 1e3, 50.0],  # (lambda + 10)^5
                                    [810000.0, 108000.0, 5400.0, 120.0],  # (lambda + 30)^4
                                    [1e6, 3e4, 300.0]])  # (lambda + 100)^3
def test_fast_internal_models_parse(coeffs):
    # a companion pair is controllable whatever its poles, however fast
    doc = minimal_doc()
    doc["tracker"]["internal_model"] = {"coeffs": coeffs}
    spec = scenario_from_dict(doc).im_specs[0]
    assert spec.s_dim == len(coeffs)
    assert np.array_equal(spec.M[-1], -np.array(coeffs))


def long_doc(n=200):
    """n agents on a two-way ring (2n edges); every fifth plant is vdp_like at
    uncertainty 0.2, the rest damping_spring at 1.5, where a try that draws
    a nonpositive m is refused."""
    vdp = {"kind": "vdp_like", "mu1": 1.0, "mu2": 1.0, "b": 1.0, "amplitude": 10.0,
           "uncertainty": 0.2}
    spring = {"kind": "damping_spring", "m": 1.1, "k1": 2.2, "k2": 2.9, "mu1": 3.8,
              "mu2": 4.7, "a_w": 100.0, "uncertainty": 1.5}
    ring = [[i, i % n + 1, 1.0] for i in range(1, n + 1)]
    return dict(minimal_doc(), seed=5,
                graph={"n": n, "edges": ring + [[dst, src, 0.5] for src, dst, _ in ring]},
                costs=[{"kind": "quadratic", "a": 0.5, "b": float(i)} for i in range(n)],
                plants=[dict(spring if i % 5 else vdp) for i in range(n)])


class Counted:
    """A Generator's `random`, counting the doubles drawn."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def random(self, size):
        self.drawn += size
        return self.rng.random(size)


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


def preset_doc(name):
    return json.loads(resources.files("oocsim").joinpath(f"presets/{name}.json").read_text())


# the perturbed parameters drawn from rng([seed, 0]), bit for bit; the
# benchmark's reference.json depends on this stream
EXAMPLE1_DRAWS = [  # mu1, mu2, b
    (1.0552781334406178, 1.1965839101925033, 0.8386917821786495),
    (2.0053634734158035, 1.9171511611863643, 0.882406494418658),
    (3.4600425880449395, 3.048579455859949, 1.0448817842233498),
    (3.65657854014726, 4.089694437154453, 1.0934703089165017),
    (4.397750205460104, 4.529528002360182, 0.9301841990828152),
]
SPRING_DRAWS = [  # m, k1, k2, mu1, mu2; two draws of a nonpositive m are rejected
    (0.8793189027803637, 2.061738567729505, -0.06027144265741615, 6.474179526065044,
     -0.747224519108212),
    (0.8084214857843833, 2.520529314873818, 2.217275371479093, 4.53742457153192,
     7.539458792256515),
    (3.0794422938607844, 0.9167690772405733, 3.9032323773465833, 5.4014031660355855,
     1.5504652128535914),
    (1.7576843475418136, 2.5590011875273833, 4.731560675260769, -1.308678326440277,
     6.159402090474108),
    (0.9340972506531185, -0.6823255784616795, 3.7037505057092113, 6.88317469267219,
     0.42550726485051305),
]


def test_uncertainty_draws_are_pinned():
    sc = parse_scenario("example1")
    assert [tuple(p.params[k] for k in ("mu1", "mu2", "b")) for p in sc.plants] == EXAMPLE1_DRAWS
    doc = preset_doc("example2")
    doc["seed"] = 3
    for entry in doc["plants"]:
        entry["uncertainty"] = 1.5
    sc = scenario_from_dict(doc)
    keys = ("m", "k1", "k2", "mu1", "mu2")
    assert [tuple(p.params[k] for k in keys) for p in sc.plants] == SPRING_DRAWS
    # 200 plants draw from the parser's one buffered stream what per-plant
    # draws on a plain generator give them, float for float, though the
    # refused tries at 1.5 take more doubles than its first block holds
    doc = long_doc()
    sc = scenario_from_dict(doc)
    rng = Counted(np.random.default_rng([doc["seed"], 0]))
    want = [draw(e["kind"], {k: e[k] for k in KINDS[e["kind"]].keys}, e["uncertainty"], rng)
            for e in doc["plants"]]
    assert rng.drawn > len(want) * max(kind.perturbed for kind in KINDS.values())
    assert [(p.params, p.b, p.split) for p in sc.plants] == [(p.params, p.b, p.split)
                                                              for p in want]
    # and a reseed draws what a fresh parse at its seed draws
    again = scenario_from_dict(dict(doc, seed=9))
    assert [(p.params, p.b, p.split) for p in reseed(sc, 9).plants] == [
        (p.params, p.b, p.split) for p in again.plants]


@pytest.mark.parametrize("preset, fields, message", [
    ("example1", {"b": 0.0, "uncertainty": 0.0}, "plants[0]: control gain b must be positive"),
    ("example2", {"m": 0.0}, "plants[0]: mass must be positive"),
    ("example1", {"mu1": -1.0}, "plants[0].uncertainty: rejection sampling failed to find "
                                "admissible parameters"),
    ("example1", {"kind": "custom"},
     "plants[0].kind: unknown plant kind 'custom' (custom plants are library-only)"),
    ("example1", {"kind": ["vdp_like"]},
     "plants[0].kind: unknown plant kind ['vdp_like'] (custom plants are library-only)"),
    ("example1", {"uncertainty": -0.1}, "plants[0].uncertainty: must be nonnegative"),
], ids=["gain", "mass", "rejection", "custom", "unhashable", "negative-uncertainty"])
def test_refused_plant_parameters_name_the_plant(preset, fields, message):
    doc = preset_doc(preset)
    doc["plants"][0].update(fields)
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("section", ["plants", "costs"])
@pytest.mark.parametrize("entry", [["kind"], "kind", 5, None],
                         ids=["list", "string", "number", "null"])
def test_non_object_plant_or_cost_entry_names_the_entry(section, entry):
    # each was a bare TypeError from the key lookup, or a missing-key message
    doc = minimal_doc()
    doc[section][1] = entry
    message = f"{section}[1]: expected an object, got {type(entry).__name__}"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("name", [["ex2_f1"], {"ex2_f1": 1}, 1],
                         ids=["unhashable-list", "unhashable-dict", "number"])
def test_refused_composite_cost_name_names_the_cost(name):
    # a list or dict name was a TypeError from the composite table's lookup
    doc = preset_doc("example2")
    doc["costs"][0]["name"] = name
    message = f"costs[0].name: expected a string, got {name!r}"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("name", [["x"], 5, None], ids=["list", "number", "null"])
def test_refused_scenario_name(name):
    # each parsed and reached file names and messages
    doc = minimal_doc()
    doc["name"] = name
    message = f"name: expected a string, got {name!r}"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("section, idx, value, message", [
    ("graph.edges", 350, True, "graph.edges[350].weight: expected a number, got True"),
    ("graph.edges", 350, float("nan"), "graph.edges[350].weight: expected a finite number, "
                                       "got nan"),
    ("graph.edges", 350, 0.0, "graph.edges[350]: edge (152, 151) has non-positive weight 0.0"),
    ("graph.edges", 399, [201, 1, 0.5], "graph: edge (201, 1) out of range for n=200"),
    ("plants", 150, {"mu1": "1"}, "plants[150].mu1: expected a number, got '1'"),
    ("costs", 199, {"a": float("nan")}, "costs[199].a: expected a finite number, got nan"),
], ids=["true-weight", "nan-weight", "zero-weight", "last-edge-node", "string-mu1", "nan-a"])
def test_entries_deep_in_a_long_section_are_named(section, idx, value, message):
    doc = long_doc()
    if section == "graph.edges":
        edges = doc["graph"]["edges"]
        edges[idx] = value if isinstance(value, list) else edges[idx][:2] + [value]
    else:
        doc[section][idx].update(value)
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(doc)


def test_zero_width_domain_hint_refused_but_one_valued_init_range_kept():
    # a [1, 1] domain parsed, and assembly then found a curvature grid of spacing 0
    doc = minimal_doc()
    doc["domain_hint"] = [1.0, 1.0]
    with pytest.raises(SchemaError, match=r"^domain_hint: low equals high 1\.0, "):
        scenario_from_dict(doc)
    doc = minimal_doc()
    doc["init"] = {"x_range": [0.25, 0.25]}  # equal ends fix the value
    assert scenario_from_dict(doc).init.x_range == (0.25, 0.25)


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


def test_graph_n_boolean_rejected():
    doc = minimal_doc()
    doc["graph"]["n"] = True
    with pytest.raises(SchemaError, match=r"^graph\.n: expected a positive integer"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("edge", [[True, 2, 1.0], [2, False, 1.0]])
def test_edge_node_boolean_rejected(edge):
    doc = minimal_doc()
    doc["graph"]["edges"][1] = edge
    with pytest.raises(SchemaError, match=r"^graph\.edges\[1\]: node ids must be integers"):
        scenario_from_dict(doc)


def test_record_every_boolean_rejected():
    doc = minimal_doc()
    doc["sim"] = {"record_every": True}
    with pytest.raises(SchemaError, match=r"^sim\.record_every: expected a positive integer"):
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


@pytest.mark.parametrize("s, message", [
    ([["0", 1.0], [-1.0, 0.0]], "exosystem.S: expected a number, got '0'"),
    ([[0.0, 1.0], [-1.0, False]], "exosystem.S: expected a number, got False"),
    ([[0.0, 1.0], [-1.0]], "exosystem.S: expected a list of equal-length lists of numbers"),
    ([[0.0, 1.0, 2.0], [-1.0, 0.0, 1.0]], "exosystem: S must be square"),
], ids=["string", "boolean", "ragged", "non-square"])
def test_exosystem_matrix_takes_numbers_only(s, message):
    doc = minimal_doc()
    doc["exosystem"] = {"kind": "matrix", "S": s, "v0": [1.0, 0.0]}
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
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
