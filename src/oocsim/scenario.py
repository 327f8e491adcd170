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
from .tracker import InternalModelSpec, TrackerParams

log = logging.getLogger(__name__)

PRESETS = ("example1", "example2")


def _require(section, key, context):
    if key not in section:
        raise SchemaError(f"{context}: missing required key {key!r}")
    return section[key]


def _check_keys(section, context, allowed):
    if not isinstance(section, dict):
        raise SchemaError(f"{context}: expected an object, got {type(section).__name__}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise SchemaError(f"{context}: unknown key(s) {sorted(unknown)}")


def _number(value, context, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{context}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{context}: expected a finite number, got {value!r}")
    if positive and number <= 0:
        raise SchemaError(f"{context}: must be positive, got {value}")
    return number


def _pair(value, context):
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{context}: expected [low, high]")
    return (_number(value[0], context), _number(value[1], context))


def _parse_graph(section):
    _check_keys(section, "graph", {"n", "edges"})
    n = _require(section, "n", "graph")
    if not isinstance(n, int) or n < 1:
        raise SchemaError(f"graph.n: expected a positive integer, got {n!r}")
    edges = _require(section, "edges", "graph")
    if not isinstance(edges, list):
        raise SchemaError("graph.edges: expected a list of [from, to, weight]")
    triples = []
    for idx, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 3:
            raise SchemaError(f"graph.edges[{idx}]: expected [from, to, weight]")
        src, dst, wt = e
        if not isinstance(src, int) or not isinstance(dst, int):
            raise SchemaError(f"graph.edges[{idx}]: node ids must be integers")
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
    kind = _require(entry, "kind", context)
    kwargs = {} if domain_hint is None else {"domain_hint": domain_hint}
    try:
        if kind == "quadratic":
            _check_keys(entry, context, {"kind", "a", "b"})
            return costs_mod.quadratic(_number(_require(entry, "a", context), context + ".a"),
                                       _number(_require(entry, "b", context), context + ".b"),
                                       **kwargs)
        if kind == "exp_sum":
            _check_keys(entry, context, {"kind", "c1", "k1", "c2", "k2"})
            return costs_mod.exp_sum(
                *[_number(_require(entry, k, context), f"{context}.{k}")
                  for k in ("c1", "k1", "c2", "k2")], **kwargs)
        if kind == "composite":
            _check_keys(entry, context, {"kind", "name"})
            return costs_mod.composite(_require(entry, "name", context), **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{context}: {exc}") from None
    raise SchemaError(f"{context}.kind: unknown cost kind {kind!r}")


def _perturb(nominal, fraction, rng, reject=None, max_draws=1000):
    """Uniform multiplicative perturbation within +-fraction, with rejection."""
    for _ in range(max_draws):
        drawn = {k: v * (1.0 + rng.uniform(-fraction, fraction))
                 for k, v in nominal.items()}
        if reject is None or not reject(drawn):
            return drawn
    raise SchemaError("plant uncertainty: rejection sampling failed to find "
                      "admissible parameters")


def _parse_plant(entry, idx, rng):
    context = f"plants[{idx}]"
    kind = _require(entry, "kind", context)
    if kind == "vdp_like":
        _check_keys(entry, context, {"kind", "mu1", "mu2", "b", "amplitude", "uncertainty"})
        nominal = {k: _number(_require(entry, k, context), f"{context}.{k}")
                   for k in ("mu1", "mu2", "b")}
        amplitude = _number(_require(entry, "amplitude", context), f"{context}.amplitude")
        frac = _number(entry.get("uncertainty", 0.0), f"{context}.uncertainty")
        if frac:
            nominal = _perturb(nominal, frac, rng,
                               reject=lambda d: d["mu1"] <= 0 or d["b"] <= 0)
        return plant_mod.vdp_like(nominal["mu1"], nominal["mu2"], nominal["b"], amplitude)
    if kind == "damping_spring":
        _check_keys(entry, context,
                    {"kind", "m", "k1", "k2", "mu1", "mu2", "a_w", "uncertainty"})
        nominal = {k: _number(_require(entry, k, context), f"{context}.{k}")
                   for k in ("m", "k1", "k2", "mu1", "mu2")}
        a_w = _number(_require(entry, "a_w", context), f"{context}.a_w")
        frac = _number(entry.get("uncertainty", 0.0), f"{context}.uncertainty")
        if frac:
            nominal = _perturb(nominal, frac, rng, reject=lambda d: d["m"] <= 0)
        return plant_mod.damping_spring(nominal["m"], nominal["k1"], nominal["k2"],
                                        nominal["mu1"], nominal["mu2"], a_w)
    raise SchemaError(f"{context}.kind: unknown plant kind {kind!r} "
                      "(custom plants are library-only)")


def _parse_exosystem(section):
    _check_keys(section, "exosystem", {"kind", "sigma", "v0", "S"})
    kind = _require(section, "kind", "exosystem")
    v0 = section.get("v0")
    if v0 is not None:
        if not isinstance(v0, list):
            raise SchemaError("exosystem.v0: expected a list of numbers")
        v0 = np.array([_number(x, "exosystem.v0") for x in v0])
    if kind == "rotation":
        sigma = _number(_require(section, "sigma", "exosystem"), "exosystem.sigma")
        if "S" in section:
            raise SchemaError("exosystem: S is only valid with kind 'matrix'")
        return plant_mod.rotation_exosystem(sigma, v0)
    if kind == "matrix":
        s = _require(section, "S", "exosystem")
        if "sigma" in section:
            raise SchemaError("exosystem: sigma is only valid with kind 'rotation'")
        try:
            s = np.array(s, dtype=float)
            if not np.isfinite(s).all():
                raise SchemaError("exosystem.S: expected finite numbers")
            if v0 is None:
                raise SchemaError("exosystem.v0: required for kind 'matrix'")
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
    beta1 = _number(_require(gains, "beta1", "coordinator.gains"),
                    "coordinator.gains.beta1", positive=True)
    beta2 = _number(_require(gains, "beta2", "coordinator.gains"),
                    "coordinator.gains.beta2", positive=True)
    delta = _number(gains.get("delta", 1.0), "coordinator.gains.delta", positive=True)
    return CoordinatorGains(beta1=beta1, beta2=beta2, delta=delta)


def _parse_tracker(section, n):
    _check_keys(section, "tracker",
                {"gamma", "rho", "internal_model", "frequencies", "check_psi"})
    rho = section.get("rho", "quartic_plus_one")
    if rho != "quartic_plus_one":
        raise SchemaError(f"tracker.rho: the only shape is 'quartic_plus_one', got {rho!r}")
    try:
        params = TrackerParams(gamma=_number(section.get("gamma", 2.0), "tracker.gamma"))
    except ValueError as exc:
        raise SchemaError(f"tracker: {exc}") from None

    im = _require(section, "internal_model", "tracker")
    if isinstance(im, dict):
        im = [im] * n
    if not isinstance(im, list) or len(im) != n:
        raise SchemaError("tracker.internal_model: expected one spec (shared) or "
                          f"a list of {n}")
    im_specs = []
    for idx, entry in enumerate(im):
        context = f"tracker.internal_model[{idx}]"
        _check_keys(entry, context, {"coeffs"})
        coeffs = _require(entry, "coeffs", context)
        if not isinstance(coeffs, list) or not coeffs:
            raise SchemaError(f"{context}.coeffs: expected a nonempty list")
        try:
            im_specs.append(InternalModelSpec.from_coeffs(
                [_number(c, f"{context}.coeffs") for c in coeffs]))
        except (ValueError, OocError) as exc:
            raise SchemaError(f"{context}: {exc}") from None

    frequencies = section.get("frequencies")
    if frequencies is not None:
        if not isinstance(frequencies, list):
            raise SchemaError("tracker.frequencies: expected a list of numbers")
        frequencies = [_number(w, "tracker.frequencies") for w in frequencies]
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
    horizon = _number(section.get("horizon", 100.0), "sim.horizon", positive=True)
    step = _number(section.get("step", 1e-3), "sim.step", positive=True)
    record_every = section.get("record_every", 100)
    if not isinstance(record_every, int) or record_every < 1:
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
    seed = _require(doc, "seed", "scenario")
    if isinstance(seed, bool) or not isinstance(seed, int) or not (0 <= seed < 2 ** 64):
        raise SchemaError("seed: expected a 64-bit unsigned integer")

    graph = _parse_graph(_require(doc, "graph", "scenario"))
    n = graph.n

    domain_hint = doc.get("domain_hint")
    if domain_hint is not None:
        domain_hint = _pair(domain_hint, "domain_hint")

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
    tolerances = {k: _number(v, f"tolerances.{k}", positive=True)
                  for k, v in tolerances.items()}

    try:
        sc = Scenario(graph=graph, costs=cost_list, plants=plants, exo=exo,
                      tracker=tracker, im_specs=im_specs, seed=seed, gains=gains,
                      frequencies=frequencies, check_psi=check_psi, init=init,
                      horizon=horizon, step=step, record_every=record_every,
                      ablate_internal_model=ablate, tolerances=tolerances,
                      domain_hint=domain_hint, name=name)
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
