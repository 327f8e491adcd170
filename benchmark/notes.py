"""Untimed measurements behind NOTES.md: known divergences, recorded as numbers.

    python3 benchmark/notes.py

Run from the root of a checkout.  It prints:
  * how many example2_seed_sweep member seeds diverge within a short horizon
    under example2's own initial ranges (x in +-2, yr in +-5);
  * ring200's stability margin h * max c_i'' / rho_min per workload seed, and
    the same graph with unscaled costs (a_i = 0.1, as in example1) run until
    it diverges;
  * that replacing the seed of a parsed scenario re-draws the initial state
    but keeps the plant parameters drawn at parse time.
"""

import run  # noqa: F401  (first: puts src on the path, fixes the BLAS threads)

from dataclasses import replace

import numpy as np

from oocsim import sim as sim_mod
from oocsim.digraph import spectral_data
from oocsim.errors import Diverged, XiUnderflow
from oocsim.scenario import scenario_from_dict
from workloads import (RING_STEP, example2_seed_sweep, preset_doc,
                       ring200_closed_loop)

SEEDS = range(1, 11)
SHORT_HORIZON = 0.2
UNSCALED_A = 0.1
UNSCALED_HORIZON = 3.0


def first_failure(sc):
    try:
        sim_mod.run(sc)
    except (Diverged, XiUnderflow) as exc:
        return exc
    return None


def preset_range_divergences():
    diverged = total = 0
    for seed in SEEDS:
        wl = example2_seed_sweep(seed)
        doc = dict(wl.doc, init={}, sim=dict(wl.doc["sim"], horizon=SHORT_HORIZON))
        sc = scenario_from_dict(doc)
        for member in wl.member_seeds:
            total += 1
            diverged += first_failure(replace(sc, seed=member)) is not None
    print(f"example2_seed_sweep, preset ranges, horizon {SHORT_HORIZON} s: "
          f"{diverged} of {total} member seeds diverge (workload seeds "
          f"{SEEDS.start}..{SEEDS.stop - 1})")


def ring_margins():
    for seed in SEEDS:
        doc = ring200_closed_loop(seed).doc
        sc = scenario_from_dict(doc)
        spec = spectral_data(sc.graph)
        curvature = max(2.0 * c["a"] for c in doc["costs"])
        print(f"ring200 seed {seed}: rho_min {spec.rho_min:.3e}, lambda2 {spec.lambda2:.3e}, "
              f"h * max c'' / rho_min = {RING_STEP * curvature / spec.rho_min:.4f}")


def ring_unscaled(seed=7):
    doc = ring200_closed_loop(seed).doc
    doc["costs"] = [dict(c, a=UNSCALED_A) for c in doc["costs"]]
    doc["sim"] = dict(doc["sim"], horizon=UNSCALED_HORIZON)
    sc = scenario_from_dict(doc)
    rho_min = spectral_data(sc.graph).rho_min
    exc = first_failure(sc)
    print(f"ring200 seed {seed} unscaled (a_i = {UNSCALED_A}): rho_min {rho_min:.3e}, "
          f"h * max c'' / rho_min = {RING_STEP * 2 * UNSCALED_A / rho_min:.1f}, "
          f"outcome within {UNSCALED_HORIZON} s: {exc!r}")


def sweep_keeps_plants():
    doc = preset_doc("example1")
    base = scenario_from_dict(doc)
    swept = replace(base, seed=7)
    reparsed = scenario_from_dict(dict(doc, seed=7))
    mu1 = [[p.params["mu1"] for p in sc.plants] for sc in (base, swept, reparsed)]
    y0 = [sim_mod.initial_state(sc, sim_mod.assemble(sc).layout)[:5]
          for sc in (base, swept)]
    print(f"example1 mu1, seed 105: {np.round(mu1[0], 4).tolist()}")
    print(f"example1 mu1, replace(seed=7) as sweep does: {np.round(mu1[1], 4).tolist()}")
    print(f"example1 mu1, parsed with seed 7: {np.round(mu1[2], 4).tolist()}")
    print(f"yr(0) re-drawn by replace(seed=7): {not np.array_equal(y0[0], y0[1])}")


if __name__ == "__main__":
    preset_range_divergences()
    ring_margins()
    sweep_keeps_plants()
    ring_unscaled()
