"""Time the xi source that `run` builds and the member RK4 step of each benchmark workload.

    python3 bench/driver_probe.py --checkout PATH --seed 25 --blocks 15 --calls 100

For each workload of `benchmark/workloads.py` on the checkout at PATH (default:
the checkout holding this script), it assembles the workload's scenario (the
sweep's first member) and builds the source the way `run` does, with
`sim.SourceParts(L).source(h)`.  That is `ModalSource`, which splits -L
into eigenmodes plus one real m x m block for the ill-conditioned modes of
a defective or nearly defective L (`sim._split_modes`); the probe prints
the block size m, read off the split's block T, and kappa_1(P) of the split
(m = 0 on a well-conditioned L).
It prints the source's construction time (the split and the read-out; the
min over `--blocks` builds), then advances it by 100 steps and prints the
µs per source step (`stages()`, which returns a step's four stage inputs
and moves the source to the step's end), the µs per member derivative call
and the µs per member RK4 step (`rk4_step` with its four derivative calls,
fed the tuple that `stages()` returned, inside the one
`np.errstate(over="ignore", invalid="ignore")` that `integrate` holds around
its whole loop, so it times what a run executes), each the min over
`--blocks` blocks of `--calls` calls, and the source's share of a whole step,
source / (source + member RK4 step).  The source reads out its stage
inputs `sim._BLOCK` steps at a time, so it is timed over `--calls` rounded
up to a multiple of that block: each timed block holds the same number of
read-outs, and the µs per source step is amortized over them.  `run`
builds the source, so its construction lands in the benchmark's
`steps_per_s` (the integrate phase), not in `setup_s`.  The checkout must
have `sim.SourceParts`, `sim._split_modes`, `sim._BLOCK`, `sim.assemble`,
`sim.initial_state`, `sim.rk4_step` (taking the stage inputs w; a step
that enters its own error state is timed with that cost) and
`scenario.scenario_from_dict`, and `benchmark/workloads.py` its
`GENERATORS`; a checkout whose split gives no block at m = 0 (None) is
read as m = 0.
`benchmark/run.py`'s per-layer metrics cannot see the source: it runs
between the traced `rk4_step` calls.  Like `benchmark/run.py`, it fixes one
BLAS thread before numpy loads.  The last line of standard output is one
JSON object holding every number.
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

import numpy as np

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


def probe(sim_mod, scenario_from_dict, wl, blocks, calls):
    sc = scenario_from_dict(wl.doc)
    if wl.member_seeds:
        sc = replace(sc, seed=wl.member_seeds[0])
    system = sim_mod.assemble(sc)
    h = sc.step
    big_l = system.spectral.laplacian
    _, block, kappa = sim_mod._split_modes(-big_l)
    m = len(block[0]) if block else 0  # block: (T, Q, W_c), T m x m

    def build():
        return sim_mod.SourceParts(big_l).source(h)

    driver = build()
    build_ms = min_block_us(build, blocks, 1) / 1e3
    for _ in range(WARMUP_STEPS):
        w = driver.stages()
    y0 = sim_mod.initial_state(sc, system.layout)
    per_read = sim_mod._BLOCK
    driver_us = min_block_us(driver.stages, blocks, -(-calls // per_read) * per_read)
    with np.errstate(over="ignore", invalid="ignore"):
        member_us = min_block_us(lambda: sim_mod.rk4_step(system.derivative, 0.0, y0, h, w),
                                 blocks, calls)
    return {"n": sc.graph.n,
            "source": type(driver).__name__,
            "block_size": m,
            "kappa_1": kappa,
            "build_ms": build_ms,
            "driver_step_us": driver_us,
            "steps_per_read_out": per_read,
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
    from oocsim.scenario import scenario_from_dict
    from workloads import GENERATORS

    out = {"checkout": str(root), "seed": args.seed, "blocks": args.blocks,
           "calls": args.calls, "workloads": {}}
    for name, generate in GENERATORS.items():
        res = probe(sim_mod, scenario_from_dict, generate(args.seed), args.blocks, args.calls)
        out["workloads"][name] = res
        print(f"{name}: n {res['n']}, {res['source']} (block m {res['block_size']}, "
              f"kappa_1(P) {res['kappa_1']:.3g}) built in {res['build_ms']:.2f} ms, "
              f"source step {res['driver_step_us']:.1f} us "
              f"(amortized over {res['steps_per_read_out']}-step read-outs), "
              f"derivative call {res['derivative_us']:.1f} us, member RK4 step "
              f"{res['member_step_us']:.1f} us, source share {res['driver_share']:.2f}",
              flush=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
