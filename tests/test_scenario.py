import copy
import dataclasses
import json
import re
from importlib import resources

import numpy as np
import pytest

from oocsim import costs
from oocsim.errors import SchemaError
from oocsim.plant import KINDS, custom, damping_spring, draw, vdp_like
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
    # a refused first try at the first entry of a kind's run, and at the
    # last: the parser's one pass per kind ends there and per-plant draws
    # carry on, still float for float
    for seed, plants, refused in REFUSED_FIRST_TRIES:
        doc = dict(long_doc(len(plants)), seed=seed, plants=plants)
        want, tries = per_plant_draws(doc)
        assert [i for i, t in enumerate(tries) if t > 1] == [refused]
        assert [(p.params, p.b, p.split, p.nominal, p.uncertainty)
                for p in scenario_from_dict(doc).plants] == want


@pytest.mark.parametrize("section, key, given", [
    ("costs", "a", 1), ("plants", "b", 1), ("plants", "uncertainty", 0),
    ("plants", "uncertainty", None)], ids=["int-cost", "int-plant", "int-uncertainty",
                                         "no-uncertainty"])
def test_entry_by_entry_parse_agrees_with_the_plain_one(section, key, given):
    # an integer is not plain, so its section is checked entry by entry,
    # which converts it; a left-out uncertainty is plain, and 0.0.  Either
    # way the objects are the all-float document's
    floats, other = long_doc(20), long_doc(20)
    for entry, changed in zip(floats[section], other[section]):
        if key in entry:
            entry[key] = 0.0 if given is None else float(given)
            if given is None:
                del changed[key]
            else:
                changed[key] = given
    want, got = scenario_from_dict(floats), scenario_from_dict(other)
    # repr tells an integer from its float
    assert repr([(p.params, p.b, p.split, p.nominal, p.uncertainty) for p in got.plants]) == repr(
        [(p.params, p.b, p.split, p.nominal, p.uncertainty) for p in want.plants])
    assert repr([(c.kind, c.params) for c in got.costs]) == repr(
        [(c.kind, c.params) for c in want.costs])


VDP_WIDE = {"kind": "vdp_like", "mu1": 1.0, "mu2": 1.0, "b": 1.0, "amplitude": 10.0,
            "uncertainty": 1.5}
SPRING_NARROW = {"kind": "damping_spring", "m": 1.1, "k1": 2.2, "k2": 2.9, "mu1": 3.8,
                 "mu2": 4.7, "a_w": 100.0, "uncertainty": 0.3}
# (seed, plant entries, the one plant whose first try is refused); sixteen
# plants draw, enough for the parser's plain passes and its vector pass
REFUSED_FIRST_TRIES = [(26, [VDP_WIDE] * 8 + [SPRING_NARROW] * 8, 0),
                       (13, [SPRING_NARROW] * 8 + [VDP_WIDE] * 8, 15)]


def per_plant_draws(doc):
    """Each plant of doc as per-plant `draw` calls on rng([seed, 0]) make it, and its tries."""
    rng = Counted(np.random.default_rng([doc["seed"], 0]))
    want, tries = [], []
    for entry in doc["plants"]:
        kind, before = KINDS[entry["kind"]], rng.drawn
        nominal = {key: entry[key] for key in kind.keys}
        p = draw(entry["kind"], nominal, entry["uncertainty"], rng)
        want.append((p.params, p.b, p.split, p.nominal, p.uncertainty))
        tries.append((rng.drawn - before) // kind.perturbed)
    return want, tries


def test_every_plant_and_cost_is_frozen():
    # each construction path builds its objects without the dataclass's
    # __init__; they must be what __init__ builds, and as frozen
    parsed = [scenario_from_dict(long_doc()), parse_scenario("example2")]
    parsed += [scenario_from_dict(dict(long_doc(len(plants)), seed=seed, plants=plants))
               for seed, plants, _ in REFUSED_FIRST_TRIES]
    rng = np.random.default_rng(2)
    nominal = {"mu1": 1.0, "mu2": 1.0, "b": 1.0, "amplitude": 10.0}
    plants = [p for sc in parsed for p in sc.plants] + reseed(parsed[0], 3).plants + [
        draw("vdp_like", nominal, 0.2, rng), draw("vdp_like", nominal, 0.0, rng),
        vdp_like(1.0, 2.0, 1.0, 10.0), damping_spring(1.1, 2.2, 2.9, 3.8, 4.7, 100.0),
        custom(lambda x1, x2, v, t: 0.0, 2.0)]
    cost_list = [c for sc in parsed for c in sc.costs] + [
        costs.quadratic(0.5, 1.0), costs.exp_sum(0.25, -0.2, 0.5, 0.5), costs.composite("ex2_f3")]
    for obj in plants + cost_list:
        names = [f.name for f in dataclasses.fields(obj)]
        assert list(vars(obj)) == names
        assert obj == type(obj)(**{name: getattr(obj, name) for name in names})
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
    assert {p.kind for p in plants} == {"vdp_like", "damping_spring", "custom"}
    assert {c.kind for c in cost_list} >= {"quadratic", "exp_sum", "ex2_f1", "ex2_f3"}
    for p in plants:
        with pytest.raises(ValueError, match="^control gain b must be positive$"):
            dataclasses.replace(p, b=-1.0)


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
    ("costs", 150, {"a": -1.0}, "costs[150]: quadratic coefficient must be positive"),
    ("plants", 199, {"m": 0.0, "uncertainty": 0.0}, "plants[199]: mass must be positive"),
    ("plants", 155, {"mu1": -1.0}, "plants[155].uncertainty: rejection sampling failed to "
                                   "find admissible parameters"),
    ("costs", 150, {"c": 1.0}, "costs[150]: unknown key(s) ['c']"),
    ("plants", 151, {"m2": 1.0}, "plants[151]: unknown key(s) ['m2']"),
], ids=["true-weight", "nan-weight", "zero-weight", "last-edge-node", "string-mu1", "nan-a",
        "negative-a", "zero-mass", "rejection", "unknown-cost-key", "unknown-plant-key"])
def test_entries_deep_in_a_long_section_are_named(section, idx, value, message):
    doc = long_doc()
    if section == "graph.edges":
        edges = doc["graph"]["edges"]
        edges[idx] = value if isinstance(value, list) else edges[idx][:2] + [value]
    else:
        doc[section][idx].update(value)
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("later, integer", [
    ({"m": 0.0, "uncertainty": 0.0}, False), ({"m": 0.0, "uncertainty": 0.0}, True),
    ({"mu1": "1"}, True)], ids=["plain", "entry-by-entry", "schema-fault"])
def test_the_first_faulty_plant_is_named(later, integer):
    # plants[155] draws no admissible try and plants[171] is refused later:
    # each entry is checked and drawn before the next, on the plain path and
    # on the entry-by-entry one that an integer at plants[11] takes
    doc = long_doc()
    doc["plants"][155].update(mu1=-1.0)
    doc["plants"][171].update(later)
    if integer:
        doc["plants"][11]["k1"] = 2
    message = "plants[155].uncertainty: rejection sampling failed to find admissible parameters"
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
