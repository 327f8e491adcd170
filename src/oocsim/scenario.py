"""Scenario file parsing: JSON schema, presets, and seeded uncertainty draws.

A scenario file is a JSON document with sections graph, costs, plants,
exosystem, coordinator, tracker, init, sim, plus a name, a seed and optional
tolerances.  Unknown keys anywhere are rejected with a field-level message.
All randomness (plant parameter perturbations, initial conditions) flows from
the single seed: the plants draw from rng([seed, 0]), through one buffered
stream that all of them share (`plant.draw_stream`, which `sim.reseed` reads
the same way), and the initial state from rng([seed, 1]).  A list entry
(plants[i], costs[i], graph.edges[i]) is named only to refuse it, so an
accepted entry builds no message for it.
"""

import json
import logging
import math
import operator
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from . import costs as costs_mod
from . import plant as plant_mod
from .coordinator import CoordinatorGains
from .errors import OocError, SchemaError
from .sim import DEFAULT_TOLERANCES, InitPolicy, Scenario
from .tracker import InternalModelSpec, TrackerParams, phi_gamma

log = logging.getLogger(__name__)

PRESETS = ("example1", "example2")


def _require(section, key, context):
    if key not in section:
        raise SchemaError(f"{context}: missing required key {key!r}")
    return section[key]


def _object(section, context):
    if not isinstance(section, dict):
        raise SchemaError(f"{context}: expected an object, got {type(section).__name__}")
    return section


def _check_keys(section, context, allowed):
    """Refuse a section that is not an object or has a key outside the set allowed."""
    unknown = _object(section, context).keys() - allowed
    if unknown:
        raise SchemaError(f"{context}: unknown key(s) {sorted(unknown)}")


def _is_int(value):
    """True for a JSON integer; JSON true and false load as bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, *name, positive=False):
    """value as a finite float; the name parts are joined with '.' only to refuse it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{'.'.join(name)}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{'.'.join(name)}: expected a finite number, got {value!r}")
    if positive and number <= 0:
        raise SchemaError(f"{'.'.join(name)}: must be positive, got {value}")
    return number


def _field(section, key, context, default=None, positive=False):
    """section[key] as a number named context.key (`_number`); required unless given a default."""
    value = _require(section, key, context) if default is None else section.get(key, default)
    return _number(value, context, key, positive=positive)


def _entry_kind(entry, section, idx):
    """entry["kind"] of the list entry section[idx], which is named only to refuse it."""
    if isinstance(entry, dict) and "kind" in entry:
        return entry["kind"]
    context = f"{section}[{idx}]"
    return _require(_object(entry, context), "kind", context)


def _check_entry_keys(entry, section, idx, allowed):
    """`_check_keys` of the list entry section[idx], which is named only to refuse it."""
    if not entry.keys() <= allowed:
        _check_keys(entry, f"{section}[{idx}]", allowed)


def _entry_fields(entry, keys, section, idx):
    """The list entry section[idx]'s values at keys, each as `_field` takes it.

    Finite floats, all JSON numbers with a fraction or exponent, are taken
    as they are; anything else goes to `_field`, which converts an integer
    or refuses the first bad key, in order, with the entry named.
    """
    values = []
    for key in keys:
        value = entry.get(key)
        if type(value) is not float or not math.isfinite(value):
            return [_field(entry, key, f"{section}[{idx}]") for key in keys]
        values.append(value)
    return values


# Below this many entries, checking a list entry by entry costs less than the
# plain passes' fixed calls: on ring200's entries the two crossed near 12 costs
# and near 16 plants (one BLAS thread, 2-core x86_64 host).
_FEWEST_FOR_PLAIN_PASS = 16


def _plain_entries(entries, allowed, numbers):
    """Each list entry's kind, and its values at that kind's number keys, when all are plain.

    Plain means what the per-entry checks take as it is: every entry is an
    object whose kind is a key of allowed, with no key outside that kind's
    allowed keys and a finite float at each key numbers[kind] gets (a
    getter of a tuple).  Each check is one pass over the whole list or over
    one kind's entries, so a plain list is checked at a cost per kind, not
    per entry.  Returns (kinds, values), or None for a list of fewer than
    `_FEWEST_FOR_PLAIN_PASS` entries and at the first check that fails; the
    caller then checks entry by entry, which converts an integer or names
    the fault.
    """
    if len(entries) < _FEWEST_FOR_PLAIN_PASS or set(map(type, entries)) != {dict}:
        return None
    kinds = [entry.get("kind") for entry in entries]
    if set(map(type, kinds)) != {str} or not allowed.keys() >= set(kinds):
        return None
    one_kind = len(set(kinds)) == 1
    for kind in set(kinds):
        group = entries if one_kind else [e for k, e in zip(kinds, entries) if k == kind]
        if not allowed[kind].issuperset(chain.from_iterable(group)):  # every entry's keys
            return None
    try:
        values = (list(map(numbers[kinds[0]], entries)) if one_kind
                  else [numbers[kind](entry) for kind, entry in zip(kinds, entries)])
    except KeyError:
        return None
    if not (set(map(type, chain.from_iterable(values))) <= {float}
            and all(map(math.isfinite, chain.from_iterable(values)))):
        return None
    return kinds, values


def _pair(value, context):
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{context}: expected [low, high]")
    low, high = _number(value[0], context), _number(value[1], context)
    if low > high:
        raise SchemaError(f"{context}: low {low} is above high {high}")
    return low, high


def _parse_graph(section):
    _check_keys(section, "graph", {"n", "edges"})
    n = _require(section, "n", "graph")
    if not _is_int(n) or n < 1:
        raise SchemaError(f"graph.n: expected a positive integer, got {n!r}")
    if n < 2:
        raise SchemaError(f"graph.n: a consensus needs at least 2 agents, got {n}")
    edges = _require(section, "edges", "graph")
    if not isinstance(edges, list):
        raise SchemaError("graph.edges: expected a list of [from, to, weight]")
    triples = []
    first_index = {}  # (from, to) -> index of the edge that set it
    for idx, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 3:
            raise SchemaError(f"graph.edges[{idx}]: expected [from, to, weight]")
        src, dst, wt = e
        if not (type(src) is int and type(dst) is int or _is_int(src) and _is_int(dst)):
            raise SchemaError(f"graph.edges[{idx}]: node ids must be integers")
        first = first_index.setdefault((src, dst), idx)
        if first != idx:
            raise SchemaError(f"graph.edges[{idx}]: edge ({src}, {dst}) repeats "
                              f"graph.edges[{first}]")
        if type(wt) is not float or not math.isfinite(wt):
            wt = _number(wt, f"graph.edges[{idx}].weight")
        if wt <= 0:
            raise SchemaError(f"graph.edges[{idx}]: edge ({src}, {dst}) has "
                              f"non-positive weight {wt}")
        triples.append((src, dst, wt))
    from .digraph import Digraph
    try:
        return Digraph.from_edges(n, triples)
    except ValueError as exc:
        raise SchemaError(f"graph: {exc}") from None


# each cost kind's allowed entry keys, and the numbers its constructor takes, in order
_COST_KEYS = {"quadratic": frozenset({"kind", "a", "b"}),
              "exp_sum": frozenset({"kind", "c1", "k1", "c2", "k2"}),
              "composite": frozenset({"kind", "name"})}
_COST_NUMBERS = {"quadratic": ("a", "b"), "exp_sum": ("c1", "k1", "c2", "k2")}
_COST_BUILDERS = {"quadratic": costs_mod.quadratic, "exp_sum": costs_mod.exp_sum}
# each cost kind's entry -> those numbers (a composite has none: its name is a string)
_COST_GETTERS = {"composite": lambda entry: (),
                 **{kind: operator.itemgetter(*keys) for kind, keys in _COST_NUMBERS.items()}}


def _parse_cost(entry, idx, kwargs):
    """The cost of the entry costs[idx], with kwargs (its domain hint, if any), checked."""
    kind = _entry_kind(entry, "costs", idx)
    allowed = _COST_KEYS.get(kind) if isinstance(kind, str) else None
    if allowed is None:
        raise SchemaError(f"costs[{idx}].kind: unknown cost kind {kind!r}")
    _check_entry_keys(entry, "costs", idx, allowed)
    try:
        if kind == "composite":
            name = entry.get("name")
            if not isinstance(name, str):
                name = _require(entry, "name", f"costs[{idx}]")  # a missing name is refused here
                raise SchemaError(f"costs[{idx}].name: expected a string, got {name!r}")
            return costs_mod.composite(name, **kwargs)
        return _COST_BUILDERS[kind](*_entry_fields(entry, _COST_NUMBERS[kind], "costs", idx),
                                    **kwargs)
    except ValueError as exc:
        raise SchemaError(f"costs[{idx}]: {exc}") from None


def _parse_costs(entries, domain_hint):
    """The costs of entries, each with domain_hint (None: its kind's own).

    A plain list (`_plain_entries`) whose composite names are strings is
    built straight from its values; any other list, or one whose values a
    constructor refuses, goes entry by entry (`_parse_cost`), which names
    the first fault.
    """
    kwargs = {} if domain_hint is None else {"domain_hint": domain_hint}
    plain = _plain_entries(entries, _COST_KEYS, _COST_GETTERS)
    if plain is not None and all(type(entry.get("name")) is str
                                 for kind, entry in zip(plain[0], entries) if kind == "composite"):
        try:
            return [costs_mod.composite(entry["name"], **kwargs) if kind == "composite"
                    else _COST_BUILDERS[kind](*values, **kwargs)
                    for kind, values, entry in zip(*plain, entries)]
        except ValueError:
            pass  # refused: named entry by entry below
    return [_parse_cost(entry, idx, kwargs) for idx, entry in enumerate(entries)]


# each built-in plant kind's allowed entry keys, built once for all its entries
_PLANT_KEYS = {name: frozenset({"kind", "uncertainty", *spec.keys})
               for name, spec in plant_mod.KINDS.items()}
_PLANT_GETTERS = {name: operator.itemgetter(*spec.keys) for name, spec in plant_mod.KINDS.items()}


def _plant_entry(entry, idx):
    """The entry plants[idx] as (kind, its nominal values by key, uncertainty), checked."""
    kind = _entry_kind(entry, "plants", idx)
    spec = plant_mod.KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise SchemaError(f"plants[{idx}].kind: unknown plant kind {kind!r} "
                          "(custom plants are library-only)")
    _check_entry_keys(entry, "plants", idx, _PLANT_KEYS[kind])
    values = _entry_fields(entry, spec.keys, "plants", idx)
    frac = entry.get("uncertainty", 0.0)
    if type(frac) is not float or not math.isfinite(frac):
        frac = _field(entry, "uncertainty", f"plants[{idx}]", 0.0)
    if frac < 0:
        raise SchemaError(f"plants[{idx}].uncertainty: must be nonnegative")
    return kind, dict(zip(spec.keys, values)), frac


def _plain_uncertainties(entries):
    """Each plant entry's uncertainty (0.0 if left out) if all are finite floats >= 0, else None."""
    fracs = [entry.get("uncertainty", 0.0) for entry in entries]
    if set(map(type, fracs)) == {float} and all(map(math.isfinite, fracs)) and min(fracs) >= 0:
        return fracs
    return None


def _parse_plants(entries, uniforms):
    """The plants of entries, drawn in order from uniforms.

    A plain list (`_plain_entries`) whose uncertainties are plain as well
    (`_plain_uncertainties`) is checked in a few passes and drawn by
    `plant.draw_all`.  Any other goes entry by entry, each checked
    (`_plant_entry`) before it draws, so the first fault in order is named.
    """
    plain = _plain_entries(entries, _PLANT_KEYS, _PLANT_GETTERS)
    fracs = plain and _plain_uncertainties(entries)
    if fracs:
        kinds, rows = plain
        nominals = [dict(zip(plant_mod.KINDS[kind].keys, row)) for kind, row in zip(kinds, rows)]
        drawn = plant_mod.draw_all(kinds, nominals, fracs, uniforms)
    else:
        drawn = (plant_mod.draw(*_plant_entry(e, i), uniforms) for i, e in enumerate(entries))
    plants = []  # the plant being drawn is plants[len(plants)]
    try:
        for p in drawn:
            plants.append(p)
    except plant_mod.NoAdmissibleDraw as exc:
        raise SchemaError(f"plants[{len(plants)}].uncertainty: {exc}") from None
    except ValueError as exc:
        raise SchemaError(f"plants[{len(plants)}]: {exc}") from None
    return plants


def _parse_exosystem(section):
    _check_keys(section, "exosystem", {"kind", "sigma", "v0", "S"})
    kind = _require(section, "kind", "exosystem")
    v0 = section.get("v0")
    if v0 is not None:
        if not isinstance(v0, list):
            raise SchemaError("exosystem.v0: expected a list of numbers")
        v0 = np.array([_number(x, "exosystem.v0") for x in v0])
    if kind == "rotation":
        sigma = _field(section, "sigma", "exosystem")
        if "S" in section:
            raise SchemaError("exosystem: S is only valid with kind 'matrix'")
        try:
            return plant_mod.rotation_exosystem(sigma, v0)
        except ValueError as exc:  # a v0 of the wrong length
            raise SchemaError(f"exosystem: {exc}") from None
    if kind == "matrix":
        s = _require(section, "S", "exosystem")
        if "sigma" in section:
            raise SchemaError("exosystem: sigma is only valid with kind 'rotation'")
        if not (isinstance(s, list) and s and all(isinstance(row, list) and len(row) == len(s[0])
                                                  for row in s)):
            raise SchemaError("exosystem.S: expected a list of equal-length lists of numbers")
        s = np.array([[_number(x, "exosystem.S") for x in row] for row in s])
        if v0 is None:
            raise SchemaError("exosystem.v0: required for kind 'matrix'")
        try:
            return plant_mod.Exosystem(S=s, v0=v0)
        except ValueError as exc:
            raise SchemaError(f"exosystem: {exc}") from None
    raise SchemaError(f"exosystem.kind: unknown kind {kind!r}")


def _parse_gains(section):
    _check_keys(section, "coordinator", {"gains"})
    gains = _require(section, "gains", "coordinator")
    if gains == "auto":
        return None
    _check_keys(gains, "coordinator.gains", {"beta1", "beta2", "delta"})
    beta1 = _field(gains, "beta1", "coordinator.gains", positive=True)
    beta2 = _field(gains, "beta2", "coordinator.gains", positive=True)
    delta = _field(gains, "delta", "coordinator.gains", 1.0, positive=True)
    return CoordinatorGains(beta1=beta1, beta2=beta2, delta=delta)


def _parse_internal_model(entry, context):
    _check_keys(entry, context, {"coeffs"})
    coeffs = _require(entry, "coeffs", context)
    if not isinstance(coeffs, list) or not coeffs:
        raise SchemaError(f"{context}.coeffs: expected a nonempty list")
    # outside the try, whose handler would put context in front of the name again
    coeffs = [_number(c, context, "coeffs") for c in coeffs]
    try:
        return InternalModelSpec.from_coeffs(coeffs)
    except (ValueError, OocError) as exc:
        raise SchemaError(f"{context}: {exc}") from None


def _parse_tracker(section, n):
    _check_keys(section, "tracker",
                {"gamma", "rho", "internal_model", "frequencies", "check_psi"})
    rho = section.get("rho", "quartic_plus_one")
    if rho != "quartic_plus_one":
        raise SchemaError(f"tracker.rho: the only shape is 'quartic_plus_one', got {rho!r}")
    try:
        params = TrackerParams(gamma=_field(section, "gamma", "tracker", 2.0))
    except ValueError as exc:
        raise SchemaError(f"tracker: {exc}") from None

    im = _require(section, "internal_model", "tracker")
    if isinstance(im, dict):
        # one frozen spec serves every agent
        im_specs = [_parse_internal_model(im, "tracker.internal_model[0]")] * n
    elif isinstance(im, list) and len(im) == n:
        im_specs = [_parse_internal_model(entry, f"tracker.internal_model[{idx}]")
                    for idx, entry in enumerate(im)]
    else:
        raise SchemaError("tracker.internal_model: expected one spec (shared) or "
                          f"a list of {n}")

    frequencies = section.get("frequencies")
    if frequencies is not None:
        if not isinstance(frequencies, list):
            raise SchemaError("tracker.frequencies: expected a list of numbers")
        frequencies = [_number(w, "tracker.frequencies") for w in frequencies]
        try:
            order = len(phi_gamma(frequencies)[1])
        except (ValueError, OocError) as exc:
            raise SchemaError(f"tracker.frequencies: {exc}") from None
        for idx, spec in enumerate(im_specs):
            if spec.s_dim != order:
                raise SchemaError(f"tracker.frequencies: {frequencies} give order {order}, "
                                  f"tracker.internal_model[{idx}] has order {spec.s_dim}")
    check_psi = section.get("check_psi", False)
    if not isinstance(check_psi, bool):
        raise SchemaError("tracker.check_psi: expected a boolean")
    if check_psi and frequencies is None:
        raise SchemaError("tracker.check_psi requires tracker.frequencies")
    return params, im_specs, frequencies, check_psi


def _parse_init(section):
    _check_keys(section, "init",
                {"x_range", "yr_range", "eta_range", "k_range", "psi_range"})
    kwargs = {}
    for key in ("x_range", "yr_range", "eta_range", "k_range", "psi_range"):
        if key in section:
            kwargs[key] = _pair(section[key], f"init.{key}")
    return InitPolicy(**kwargs)


def _parse_sim(section):
    _check_keys(section, "sim", {"horizon", "step", "record_every", "ablate_internal_model"})
    horizon = _field(section, "horizon", "sim", 100.0, positive=True)
    step = _field(section, "step", "sim", 1e-3, positive=True)
    record_every = section.get("record_every", 100)
    if not _is_int(record_every) or record_every < 1:
        raise SchemaError("sim.record_every: expected a positive integer")
    ablate = section.get("ablate_internal_model", False)
    if not isinstance(ablate, bool):
        raise SchemaError("sim.ablate_internal_model: expected a boolean")
    return horizon, step, record_every, ablate


_TOP_KEYS = {"name", "seed", "graph", "costs", "plants", "exosystem", "coordinator",
             "tracker", "init", "sim", "tolerances", "domain_hint"}


def scenario_from_dict(doc, name_hint="scenario") -> Scenario:
    _check_keys(doc, "scenario", _TOP_KEYS)
    name = doc.get("name", name_hint)
    if not isinstance(name, str):
        raise SchemaError(f"name: expected a string, got {name!r}")
    seed = _require(doc, "seed", "scenario")
    if not _is_int(seed) or not (0 <= seed < 2 ** 64):
        raise SchemaError("seed: expected a 64-bit unsigned integer")

    graph = _parse_graph(_require(doc, "graph", "scenario"))
    n = graph.n

    domain_hint = doc.get("domain_hint")
    if domain_hint is not None:
        domain_hint = _pair(domain_hint, "domain_hint")
        if domain_hint[0] == domain_hint[1]:  # an init range may be one value, a domain not
            raise SchemaError(f"domain_hint: low equals high {domain_hint[1]}, "
                              "expected an interval of positive width")

    cost_entries = _require(doc, "costs", "scenario")
    if not isinstance(cost_entries, list) or len(cost_entries) != n:
        raise SchemaError(f"costs: expected a list of {n} entries")
    cost_list = _parse_costs(cost_entries, domain_hint)

    plant_entries = _require(doc, "plants", "scenario")
    if not isinstance(plant_entries, list) or len(plant_entries) != n:
        raise SchemaError(f"plants: expected a list of {n} entries")
    # all uncertainty draws come from one buffered stream of their own, so
    # the init draws stay stable
    uniforms = plant_mod.draw_stream(np.random.default_rng([seed, 0]), n)
    plants = _parse_plants(plant_entries, uniforms)

    exo = _parse_exosystem(_require(doc, "exosystem", "scenario"))
    gains = _parse_gains(doc.get("coordinator", {"gains": "auto"}))
    tracker, im_specs, frequencies, check_psi = _parse_tracker(
        _require(doc, "tracker", "scenario"), n)
    init = _parse_init(doc.get("init", {}))
    horizon, step, record_every, ablate = _parse_sim(doc.get("sim", {}))

    tolerances = doc.get("tolerances", {})
    _check_keys(tolerances, "tolerances", set(DEFAULT_TOLERANCES))
    tolerances = {k: _number(v, "tolerances", k, positive=True)
                  for k, v in tolerances.items()}

    try:
        sc = Scenario(graph=graph, costs=cost_list, plants=plants, exo=exo,
                      tracker=tracker, im_specs=im_specs, seed=seed, gains=gains,
                      frequencies=frequencies, check_psi=check_psi, init=init,
                      horizon=horizon, step=step, record_every=record_every,
                      ablate_internal_model=ablate, tolerances=tolerances, name=name)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    if gains is None:
        log.info("scenario %s: gains 'auto', resolved at assembly via select_gains", name)
    return sc


def parse_scenario(path) -> Scenario:
    """Load a scenario from a JSON file path or a built-in preset name."""
    text = None
    name_hint = str(path)
    if isinstance(path, str) and path in PRESETS:
        text = resources.files("oocsim").joinpath(f"presets/{path}.json").read_text()
        name_hint = path
    else:
        p = Path(path)
        if not p.exists():
            raise SchemaError(f"scenario file not found: {path}")
        text = p.read_text()
        name_hint = p.stem
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from None
    return scenario_from_dict(doc, name_hint=name_hint)
