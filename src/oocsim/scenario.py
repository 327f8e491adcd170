"""Scenario file parsing: JSON schema, presets, and seeded uncertainty draws.

A scenario file is a JSON document with sections graph, costs, plants,
exosystem, coordinator, tracker, init, sim, plus a name, a seed and optional
tolerances.  Unknown keys anywhere are rejected with a field-level message.
All randomness (plant parameter perturbations, initial conditions) flows from
the single seed.
"""

import json
import logging
import math
from importlib import resources
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
        if not (_is_int(src) and _is_int(dst)):
            raise SchemaError(f"graph.edges[{idx}]: node ids must be integers")
        first = first_index.setdefault((src, dst), idx)
        if first != idx:
            raise SchemaError(f"graph.edges[{idx}]: edge ({src}, {dst}) repeats "
                              f"graph.edges[{first}]")
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


def _parse_cost(entry, idx, domain_hint):
    context = f"costs[{idx}]"
    kind = _require(_object(entry, context), "kind", context)
    kwargs = {} if domain_hint is None else {"domain_hint": domain_hint}
    try:
        if kind == "quadratic":
            _check_keys(entry, context, {"kind", "a", "b"})
            return costs_mod.quadratic(_field(entry, "a", context), _field(entry, "b", context),
                                       **kwargs)
        if kind == "exp_sum":
            _check_keys(entry, context, {"kind", "c1", "k1", "c2", "k2"})
            return costs_mod.exp_sum(
                *[_field(entry, k, context) for k in ("c1", "k1", "c2", "k2")], **kwargs)
        if kind == "composite":
            _check_keys(entry, context, {"kind", "name"})
            name = _require(entry, "name", context)
            if not isinstance(name, str):
                raise SchemaError(f"{context}.name: expected a string, got {name!r}")
            return costs_mod.composite(name, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{context}: {exc}") from None
    raise SchemaError(f"{context}.kind: unknown cost kind {kind!r}")


# each built-in plant kind's allowed entry keys, built once for all its entries
_PLANT_KEYS = {name: frozenset({"kind", "uncertainty", *spec.keys})
               for name, spec in plant_mod.KINDS.items()}


def _parse_plant(entry, idx, rng):
    context = f"plants[{idx}]"
    kind = _require(_object(entry, context), "kind", context)
    spec = plant_mod.KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise SchemaError(f"{context}.kind: unknown plant kind {kind!r} "
                          "(custom plants are library-only)")
    _check_keys(entry, context, _PLANT_KEYS[kind])
    values = {k: _field(entry, k, context) for k in spec.keys}
    frac = _field(entry, "uncertainty", context, 0.0)
    if frac < 0:
        raise SchemaError(f"{context}.uncertainty: must be nonnegative")
    try:
        return plant_mod.draw(kind, values, frac, rng)
    except plant_mod.NoAdmissibleDraw as exc:
        raise SchemaError(f"{context}.uncertainty: {exc}") from None
    except ValueError as exc:
        raise SchemaError(f"{context}: {exc}") from None


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
    cost_list = [_parse_cost(e, i, domain_hint) for i, e in enumerate(cost_entries)]

    # uncertainty draws use a dedicated stream so init draws stay stable
    rng = np.random.default_rng([seed, 0])
    plant_entries = _require(doc, "plants", "scenario")
    if not isinstance(plant_entries, list) or len(plant_entries) != n:
        raise SchemaError(f"plants: expected a list of {n} entries")
    plants = [_parse_plant(e, i, rng) for i, e in enumerate(plant_entries)]

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
