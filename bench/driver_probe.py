"""Time the xi/v source that `run` picks and the member RK4 step of each benchmark workload.

    python3 bench/driver_probe.py --checkout PATH --blocks 15 --calls 100

For each workload of `benchmark/workloads.py` on the checkout at PATH (default:
the checkout holding this script), it assembles the workload's scenario (the
sweep's first member) and builds the xi/v source the way `run` does, with
`sim.xi_v_source(L, S, v0, h)`: the modal source, or the Horner
`LinearDriver` for a defective or ill-conditioned L or S.  It prints which
source was chosen and its construction time (eig and inverse of -L and S for
the modal source; the min over `--blocks` builds), then advances it by 100
steps and prints the µs per source step (`stages` plus `finish`), the µs per
member derivative call and the µs per member RK4 step (`rk4_step` with its
four derivative calls, fed the source's four stage inputs), each the min over
`--blocks` blocks of `--calls` calls, and the source's share of a whole step,
source / (source + member RK4 step).
`run` builds the source, so its construction lands in the benchmark's
`steps_per_s` (the integrate phase), not in `setup_s`.  A checkout without
`xi_v_source` gets `LinearDriver(L, S, v0, h)`, stepped by `stages()` and
`finish(t)`; older checkouts, where `assemble` built B and every step passed
h, need the older copy of this script.
`benchmark/run.py`'s per-layer metrics cannot see the source: it runs between
the traced `rk4_step` calls.  Like `benchmark/run.py`, it fixes one BLAS
thread before numpy loads.  The last line of standard output is one JSON
object holding every number.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

perf = time.perf_counter
WARMUP_STEPS = 100


def min_block_us(fn, blocks, calls):
    """Min over blocks of the mean µs per call of `calls` calls of fn()."""
    best = float("inf")
    for _ in range(blocks):
        t0 = perf()
        for _ in range(calls):
            fn()
        best = min(best, (perf() - t0) / calls * 1e6)
    return best


def probe(sim_mod, rk4_step, scenario_from_dict, wl, blocks, calls):
    sc = scenario_from_dict(wl.doc)
    if wl.member_seeds:
        sc = replace(sc, seed=wl.member_seeds[0])
    system = sim_mod.assemble(sc)
    h = sc.step
    build = getattr(sim_mod, "xi_v_source", sim_mod.LinearDriver)
    args = (system.spectral.laplacian, sc.exo.S, sc.exo.v0, h)
    driver = build(*args)
    build_ms = min_block_us(lambda: build(*args), blocks, 1) / 1e3
    for _ in range(WARMUP_STEPS):
        driver.stages()
        driver.finish(0.0)

    def driver_step():
        driver.stages()
        driver.finish(0.0)

    y0 = sim_mod.initial_state(sc, system.layout)
    w = driver.inputs
    driver_us = min_block_us(driver_step, blocks, calls)
    member_us = min_block_us(lambda: rk4_step(system.derivative, 0.0, y0, h, w),
                             blocks, calls)
    return {"n": sc.graph.n,
            "source": type(driver).__name__,
            "build_ms": build_ms,
            "driver_step_us": driver_us,
            "derivative_us": min_block_us(lambda: system.derivative(0.5 * h, y0, w[1]),
                                          blocks, calls),
            "member_step_us": member_us,
            "driver_share": driver_us / (driver_us + member_us)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", default=str(Path(__file__).resolve().parent.parent))
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--blocks", type=int, default=15)
    parser.add_argument("--calls", type=int, default=100)
    args = parser.parse_args(argv)

    root = Path(args.checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmark")]
    from oocsim import sim as sim_mod
    from oocsim.integrate import rk4_step
    from oocsim.scenario import scenario_from_dict
    from workloads import GENERATORS

    out = {"checkout": str(root), "seed": args.seed, "blocks": args.blocks,
           "calls": args.calls, "workloads": {}}
    for name, generate in GENERATORS.items():
        res = probe(sim_mod, rk4_step, scenario_from_dict, generate(args.seed),
                    args.blocks, args.calls)
        out["workloads"][name] = res
        print(f"{name}: n {res['n']}, {res['source']} built in {res['build_ms']:.2f} ms, "
              f"source step {res['driver_step_us']:.1f} us, "
              f"derivative call {res['derivative_us']:.1f} us, member RK4 step "
              f"{res['member_step_us']:.1f} us, source share {res['driver_share']:.2f}",
              flush=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
