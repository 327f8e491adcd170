"""Run one oocsim benchmark workload, check its outputs and print its metrics.

    python3 benchmark/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports oocsim from `src` (the package
need not be installed) and writes its outputs to a temporary directory inside
the checkout.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a separate traced run.  The last line of standard output
is one JSON object; the exit code is 1 when the correctness gate fails.
"""

import os

# One BLAS thread, fixed before numpy loads, so that the n = 200 xi product
# uses the same number of cores on every machine and under any other load.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "oocsim" / "__init__.py").is_file():
    sys.exit(f"benchmark: no oocsim sources under {SRC}; run it from a checkout")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (assemble imports it lazily; load it before timing)

from oocsim import cli as cli_mod
from oocsim import coordinator as coordinator_mod
from oocsim import costs as costs_mod
from oocsim import sim as sim_mod
from oocsim.errors import Diverged, XiUnderflow
from oocsim.scenario import scenario_from_dict

from tracing import Tracer
from workloads import GENERATORS

perf = time.perf_counter

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "final_output_error": "1",
}
PER_LAYER_UNITS = {
    "sim.rhs_us_per_call": "us",
    "sim.rhs_calls": "count",
    "integrate.steps": "count",
    "integrate.step_self_us": "us",
    "costs.grad_us_per_call": "us",
    "tracker.im_us_per_call": "us",
    "coordinator.only_step_us": "us",
    "sim.assemble_calls": "count",
    "sim.assemble_s": "s",
    "costs.bounds_s": "s",
    "digraph.spectral_s": "s",
    "scenario.parse_s": "s",
    "sim.verify_s": "s",
    "costs.optimum_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

# verify()'s invariant checks, gated at the program's own tolerances.
GATED_CHECKS = ("z_conservation_drift", "xi_rowsum_drift", "exo_energy_drift",
                "k_monotone", "sylvester_residual")
# Convergence checks: reported as values, never gated.  At the shortened
# horizons they cannot pass, and example1's psi_error is acceptance
# criterion 4, which fails at the full horizon too.
REPORTED_CHECKS = ("final_output_error", "xi_error", "psi_error")

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
# Final states may differ from the reference by this share of each block's
# largest entry.  Summing in another order moves them by about 1e-15; a step
# of 2e-3 instead of 1e-3 moves example1's by about 1e-4.
REFERENCE_RTOL = 1e-10
MIN_REPS = 3
# The host's speed swings by up to 2x, for seconds to minutes at a time, and
# moves Python-bound and BLAS-bound code alike (NOTES.md).  So each timed
# interval of a --trace 0 run is divided by the time of a fixed calibration
# kernel run just before and just after it, and reported in reference seconds:
# seconds on a host where the kernel takes CALIBRATION_REF_S, its fastest time
# on the 2-vCPU host that NOTES.md describes.
CALIBRATION_REF_S = 0.020
_CAL_RNG = np.random.default_rng(0)
_CAL_SMALL = (_CAL_RNG.standard_normal((5, 5)), _CAL_RNG.standard_normal(72))
_CAL_LARGE = _CAL_RNG.standard_normal((2, 200, 200))
FAILURES = (Diverged, XiUnderflow)


@dataclass
class Outcome:
    """One trajectory: its failure, if any, and verify()'s check values."""

    label: str
    error: str = ""
    values: dict = field(default_factory=dict)

    @property
    def failed(self):
        return bool(self.error)


@dataclass
class OpResult:
    wall_s: float
    phases: dict        # parse, integrate, write and, if timed inside the op, setup: seconds
    steps: int          # RK4 steps over all trajectories that finished
    outcomes: list
    output_bytes: int
    host_s: float = 0.0  # calibration time around the op; see CALIBRATION_REF_S


def check_outcome(label, sc, report):
    checks = report.checks(sc)
    out = Outcome(label, values={k: checks[k]["value"] for k in checks})
    bad = [k for k in GATED_CHECKS if k in checks and not checks[k]["pass"]]
    if bad:
        out.error = "gate: " + ", ".join(f"{k}={checks[k]['value']}" for k in bad)
    return out


def n_steps(sc):
    return int(round(sc.horizon / sc.step))


def member_scenario(sc, seed):
    return replace(sc, seed=seed, name=f"{sc.name}[seed={seed}]")


def write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def closed_loop_op(wl, out_dir):
    """`oocsim verify` plus `oocsim sim`: parse, assemble, run, verify, write."""
    t0 = perf()
    sc = scenario_from_dict(wl.doc)
    t_parse = perf()
    system = sim_mod.assemble(sc)
    t_run = perf()
    try:
        traj = sim_mod.run(sc, system)
    except FAILURES as exc:
        t_end = perf()
        return OpResult(t_end - t0, {"parse": t_parse - t0, "setup": t_run - t0,
                                     "integrate": t_end - t_run, "write": 0.0},
                        0, [Outcome(sc.name, repr(exc))], 0)
    t_ran = perf()
    report = sim_mod.verify(sc, traj)
    summary = sim_mod.metrics(traj, report.s_star)
    summary["s_star"] = report.s_star
    t_write = perf()
    files = [out_dir / "trajectory.csv", out_dir / "metrics.json", out_dir / "report.json"]
    cli_mod.write_trajectory(traj, files[0], sc.tracker.gamma)
    write_json(summary, files[1])
    write_json(report.to_dict(sc), files[2])
    t_end = perf()
    return OpResult(t_end - t0,
                    {"parse": t_parse - t0, "setup": t_run - t0,
                     "integrate": t_ran - t_run, "write": t_end - t_write},
                    n_steps(sc), [check_outcome(sc.name, sc, report)],
                    sum(f.stat().st_size for f in files))


def member_outcomes(sc, seeds):
    """Run the members one by one, so each failure is named and counted."""
    outcomes = []
    for seed in seeds:
        sub = member_scenario(sc, seed)
        try:
            outcomes.append(check_outcome(sub.name, sub, sim_mod.verify(sub, sim_mod.run(sub))))
        except FAILURES as exc:
            outcomes.append(Outcome(sub.name, repr(exc)))
    return outcomes


def sweep_op(wl, out_dir):
    """`oocsim sweep --attr seed`: parse, sweep (assemble, run, verify each), write."""
    t0 = perf()
    sc = scenario_from_dict(wl.doc)
    t_parse = perf()
    try:
        results = sim_mod.sweep(sc, "seed", list(wl.member_seeds))
    except FAILURES:
        results = None
    t_swept = perf()
    if results is None:
        outcomes = member_outcomes(sc, wl.member_seeds)
        return OpResult(t_swept - t0, {"parse": t_parse - t0, "integrate": t_swept - t_parse,
                                       "write": 0.0}, 0, outcomes, 0)
    path = out_dir / "sweep.json"
    write_json([{"value": val, "report": rep.to_dict()} for val, rep in results], path)
    t_end = perf()
    outcomes = [check_outcome(f"{sc.name}[seed={val}]", sc, rep) for val, rep in results]
    return OpResult(t_end - t0,
                    {"parse": t_parse - t0, "integrate": t_swept - t_parse,
                     "write": t_end - t_swept},
                    len(results) * n_steps(sc), outcomes, path.stat().st_size)


def run_op(wl, out_dir):
    return (sweep_op if wl.member_seeds else closed_loop_op)(wl, out_dir)


def final_blocks(traj):
    """The final state by block, with xi reduced to its diagonal."""
    return {"y": traj.y[-1], "x2": traj.x2[-1], "yr": traj.yr[-1], "z": traj.z[-1],
            "xi_diag": traj.xi_diag[-1], "eta": traj.eta[-1], "k": traj.k[-1],
            "psi": traj.psi[-1], "v": traj.v[-1]}


def reference_finals(name, seed=REFERENCE_SEED):
    """Final states of every trajectory of a workload, as plain lists."""
    wl = GENERATORS[name](seed)
    sc = scenario_from_dict(wl.doc)
    subs = [member_scenario(sc, s) for s in wl.member_seeds] or [sc]
    return [{k: v.tolist() for k, v in final_blocks(sim_mod.run(sub)).items()}
            for sub in subs]


def reference_errors(name):
    """Relative distance of each block from the committed reference, worst first."""
    expected = json.loads(REFERENCE_FILE.read_text())[name]
    got = reference_finals(name, expected["seed"])
    if len(got) != len(expected["finals"]):
        return [(float("inf"), "trajectory count")]
    errors = []
    for i, (g, e) in enumerate(zip(got, expected["finals"])):
        for key, ref in e.items():
            ref = np.asarray(ref)
            scale = max(float(np.abs(ref).max()), 1e-300)
            errors.append((float(np.abs(np.asarray(g[key]) - ref).max()) / scale,
                           f"trajectory {i} block {key}"))
    return sorted(errors, reverse=True)


def timed_ops(wl, out_dir, seconds, traced=False):
    """Repeat the workload until `seconds` have passed, at least MIN_REPS times.

    Each repeat is an untraced op followed, with `traced`, by a traced one.
    Untraced, every op is bracketed by calibration runs and gives one set-up
    sample, so that the set-up samples span the whole run as the op samples
    do.  Returns the untraced ops (with `host_s` set when untraced), the traced
    ops, their tracers and the set-ups as (seconds, calibration seconds) pairs.
    """
    plain, traced_ops, tracers, setups = [], [], [], []
    cal = None if traced else calibration_s()
    start = perf()
    while len(plain) < MIN_REPS or perf() - start < seconds:
        op = run_op(wl, out_dir)
        plain.append(op)
        if traced:
            tracer = Tracer()
            with tracer.install():
                traced_ops.append(run_op(wl, out_dir))
            tracers.append(tracer)
        else:
            after = calibration_s()
            op.host_s = (cal + after) / 2
            cal = after
            if "setup" in op.phases:
                setups.append((op.phases["setup"], op.host_s))
            else:
                # sweep() assembles inside itself, so time a set-up on its own
                setup = setup_time(wl)
                cal = calibration_s()
                setups.append((setup, (after + cal) / 2))
    return plain, traced_ops, tracers, setups


def reference_s(seconds, host_s):
    """A time measured next to calibration time `host_s`, in reference seconds."""
    return seconds / host_s * CALIBRATION_REF_S


def calibration_s():
    """Time of a fixed kernel: small numpy calls from Python, then 200x200 products."""
    a, v = _CAL_SMALL
    t0 = perf()
    for _ in range(3000):
        (a @ v[:5])[0] + (np.tanh(v) * 0.5 + v)[3]
    for _ in range(30):
        _CAL_LARGE[0] @ _CAL_LARGE[1]
    return perf() - t0


def setup_time(wl):
    """Parse plus assemble, the work done before the first RK4 step."""
    t0 = perf()
    sim_mod.assemble(scenario_from_dict(wl.doc))
    return perf() - t0


def per_call_us(fn, args, calls, budget_s=0.5):
    """Median over blocks of `calls` calls, for about `budget_s` seconds."""
    samples = []
    start = perf()
    while len(samples) < MIN_REPS or perf() - start < budget_s:
        t0 = perf()
        for _ in range(calls):
            fn(*args)
        samples.append((perf() - t0) / calls * 1e6)
    return statistics.median(samples)


def layer_probes(wl):
    """Per-call costs timed directly: gradient, internal model, coordinator-only."""
    sc = scenario_from_dict(wl.doc)
    if wl.member_seeds:
        sc = member_scenario(sc, wl.member_seeds[0])
    full = sim_mod.assemble(sc)
    ablated = sim_mod.assemble(replace(sc, ablate_internal_model=True))
    y0 = sim_mod.initial_state(sc, full.layout)
    yr0 = y0[full.layout.slices["yr"]]
    calls = max(1, int(2000 / full.layout.n))
    grad = costs_mod.build_gradient(sc.costs)
    rhs_full = per_call_us(full.derivative, (0.0, y0), calls)
    rhs_ablated = per_call_us(ablated.derivative, (0.0, y0), calls)
    coord_steps = calls
    coord = per_call_us(
        coordinator_mod.coordinator_only_run,
        (sc.graph, sc.costs, full.gains, yr0, coord_steps * sc.step, sc.step,
         sc.record_every), 1) / coord_steps
    return {"costs.grad_us_per_call": per_call_us(grad, (yr0,), 10 * calls),
            "tracker.im_us_per_call": rhs_full - rhs_ablated,
            "coordinator.only_step_us": coord}


def trace_metrics(plain, traced_ops, tracers, wl):
    """Per-layer metrics (medians over the traced repeats) and exact-count checks."""
    def med(fn):
        return statistics.median(fn(op, tr) for op, tr in zip(traced_ops, tracers))

    counts = {(tr.calls("sim.rhs"), tr.calls("integrate.rk4_step"), tr.calls("sim.assemble"))
              for tr in tracers}
    rhs_calls, steps, assemble_calls = next(iter(counts))
    problems = []
    if len(counts) != 1:
        problems.append(f"traced counts differ between repeats: {sorted(counts)}")
    if rhs_calls != 4 * steps:
        problems.append(f"sim.rhs_calls {rhs_calls} != 4 x integrate.steps {steps}")
    if steps != traced_ops[0].steps:
        problems.append(f"integrate.steps {steps} != expected {traced_ops[0].steps}")
    if assemble_calls != wl.trajectories:
        problems.append(f"sim.assemble_calls {assemble_calls} != {wl.trajectories}")
    metrics = {
        "sim.rhs_us_per_call": med(lambda op, tr: tr.seconds("sim.rhs") / rhs_calls * 1e6),
        "sim.rhs_calls": rhs_calls,
        "integrate.steps": steps,
        "integrate.step_self_us": med(
            lambda op, tr: (tr.seconds("integrate.rk4_step") - tr.seconds("sim.rhs"))
            / steps * 1e6),
        "sim.assemble_calls": assemble_calls,
        "sim.assemble_s": med(lambda op, tr: tr.seconds("sim.assemble")),
        "costs.bounds_s": med(lambda op, tr: tr.seconds("costs.convexity_bounds")),
        "digraph.spectral_s": med(lambda op, tr: tr.seconds("digraph.spectral_data")),
        "scenario.parse_s": med(lambda op, tr: op.phases["parse"]),
        "sim.verify_s": med(lambda op, tr: tr.seconds("sim.verify")),
        "costs.optimum_s": med(lambda op, tr: tr.seconds("costs.global_optimum")),
        "cli.write_s": med(lambda op, tr: op.phases["write"]),
        "cli.output_bytes": traced_ops[0].output_bytes,
        "trace.overhead_s": (statistics.median(op.wall_s for op in traced_ops)
                             - statistics.median(op.wall_s for op in plain)),
    }
    return metrics, problems


def gate(ops):
    """Problems that make the run incorrect; empty when every check holds."""
    problems = [f"{o.label}: {o.error}" for o in ops[-1].outcomes if o.failed]
    first = [(o.label, o.error, o.values) for o in ops[0].outcomes]
    if any([(o.label, o.error, o.values) for o in op.outcomes] != first for op in ops[1:]):
        problems.append("repeats of the same inputs gave different outputs")
    return problems


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "oocsim": f"imported from {SRC.name}/, not installed"}


def result_line(correct, outcomes, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def run_all(args):
    """Each workload in a child process, one after another; 1 if any run fails."""
    codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode
             for name in GENERATORS]
    return 1 if any(codes) else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS) + ["all"],
                        help="one workload, or 'all' to run each in its own process")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    wl = GENERATORS[args.workload](args.seed)
    print(f"workload {wl.name} (seed {args.seed}): {wl.why}")
    print("environment: " + json.dumps(environment(), sort_keys=True))

    # The reference check runs first and so also warms caches before timing.
    worst, where = reference_errors(wl.name)[0]
    problems = []
    if not worst <= REFERENCE_RTOL:
        problems.append(f"final state differs from the reference by {worst:.3e} "
                        f"(> {REFERENCE_RTOL:g}) at {where}")
    print(f"reference check: worst relative difference {worst:.3e} at {where} "
          f"(tolerance {REFERENCE_RTOL:g})")

    with tempfile.TemporaryDirectory(prefix=".bench-out-", dir=ROOT) as tmp:
        out_dir = Path(tmp)
        if args.trace:
            plain, traced_ops, tracers, _ = timed_ops(wl, out_dir, args.seconds,
                                                      traced=True)
            metrics, count_problems = trace_metrics(plain, traced_ops, tracers, wl)
            metrics.update(layer_probes(wl))
            problems += count_problems + gate(plain + traced_ops)
            ops, units = traced_ops, PER_LAYER_UNITS
            basis = {k: ("exact, per repeat" if units[k] in ("count", "bytes")
                         else f"per repeat, median of {len(ops)} traced repeats")
                     for k in units}
            basis.update({k: "timed directly" for k in ("costs.grad_us_per_call",
                                                        "tracker.im_us_per_call",
                                                        "coordinator.only_step_us")})
            basis["trace.overhead_s"] = (f"median of {len(ops)} traced minus median of "
                                         f"{len(plain)} untraced repeats")
        else:
            ops, _, _, setup = timed_ops(wl, out_dir, args.seconds)
            problems += gate(ops)
            done = [op for op in ops if op.steps]
            walls = [reference_s(op.wall_s, op.host_s) for op in ops]
            setups = [reference_s(t, host) for t, host in setup]
            rates = [op.steps / reference_s(op.phases["integrate"], op.host_s) for op in done]
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "steps_per_s": statistics.median(rates) if rates else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "final_output_error": max(
                    (o.values.get("final_output_error", float("inf"))
                     for o in ops[-1].outcomes), default=float("inf")),
            }
            units = END_TO_END_UNITS
            raw = {"wall_s": [op.wall_s for op in ops], "setup_s": [t for t, _ in setup],
                   "steps_per_s": [op.steps / op.phases["integrate"] for op in done]}
            basis = {k: f"median of {len(v)} in reference seconds; raw median "
                        f"{statistics.median(v):.6g}" if v else "no samples"
                     for k, v in raw.items()}
            basis["peak_rss_mb"] = "process peak"
            basis["final_output_error"] = f"max over {len(ops[-1].outcomes)} trajectories"
            print(f"host: calibration kernel median "
                  f"{statistics.median(op.host_s for op in ops):.4g} s, "
                  f"{CALIBRATION_REF_S:g} s at the reference speed")

    outcomes = ops[-1].outcomes
    failed = sum(o.failed for o in outcomes)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit} ({basis[name]})")
    print(f"failed_share = {failed / len(outcomes):.6g} ({failed} of {len(outcomes)} "
          f"trajectories)")
    for key in REPORTED_CHECKS:
        vals = [o.values[key] for o in outcomes if key in o.values]
        if vals:
            print(f"reported, not gated: max {key} = {max(vals):.6g}")
    for p in problems:
        print(f"CORRECTNESS: {p}")
    print(result_line(not problems, outcomes, metrics, units))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
