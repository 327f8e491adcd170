"""Command-line interface: scenario-driven runs with CSV/JSON outputs.

Subcommands:

  sim          full closed-loop run; trajectory CSV plus metrics JSON
  coordinator  upper (reference-generation) layer only
  graph        print the connectivity oracle values for the scenario graph
  verify       full run plus a verification report; exit 1 if any check fails
  ablate       paired run with and without the internal model
  sweep        vary one scalar scenario field over a grid

Exit codes: 0 success, 1 check failure or runtime error, 2 usage/schema error.
"""

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import costs as costs_mod
from .coordinator import coordinator_only_run
from .digraph import is_strongly_connected, spectral_data
from .errors import OocError, SchemaError
from .scenario import parse_scenario
from .sim import (Trajectory, ablate_compare, assemble, initial_state, metrics, run, sweep,
                  verify)

_FMT = "%.17g"  # round-trip exact for 64-bit floats


def _fmt(x):
    return _FMT % x


def _write_csv(path, columns):
    """Write (name, 1-D array) columns as a CSV with a header row."""
    names = [name for name, _ in columns]
    data = np.column_stack([col for _, col in columns])
    np.savetxt(path, data, fmt=_FMT, delimiter=",", header=",".join(names), comments="")


def _per_agent(name, block):
    """Columns name_1 .. name_n of an (m, n) block."""
    return [(f"{name}_{i}", block[:, i - 1]) for i in range(1, block.shape[1] + 1)]


def write_trajectory(traj: Trajectory, path, gamma):
    """Write the trajectory CSV: t, per-agent blocks, then shared columns."""
    if traj.times.size == 0:
        raise ValueError("refusing to write an empty trajectory")
    blocks = [("y", traj.y), ("x2", traj.x2), ("yr", traj.yr), ("z", traj.z),
              ("xii", traj.xi_diag), ("theta", traj.theta(gamma)), ("k", traj.k)]
    columns = [("t", traj.times)]
    for i in range(traj.layout.n):
        columns += [(f"{name}_{i + 1}", block[:, i]) for name, block in blocks]
        columns += _per_agent(f"psi_{i + 1}", traj.psi_rows(i))
    columns += _per_agent("v", traj.v)
    columns += [("rho_z", traj.rho_z), ("exo_norm", traj.exo_norm)]
    _write_csv(path, columns)


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_sim(args):
    sc = parse_scenario(args.scenario)
    out = _out_dir(args)
    traj = run(sc)
    write_trajectory(traj, out / "trajectory.csv", sc.tracker.gamma)
    s_star = costs_mod.global_optimum(sc.costs)
    summary = metrics(traj, s_star)
    summary["s_star"] = s_star
    _write_json(summary, out / "metrics.json")
    print(f"{sc.name}: {len(traj.times)} samples -> {out / 'trajectory.csv'}")
    return 0


def _cmd_coordinator(args):
    sc = parse_scenario(args.scenario)
    out = _out_dir(args)
    system = assemble(sc)
    y0 = initial_state(sc, system.layout)[system.layout.slices["yr"]]
    gains = system.gains
    traj = coordinator_only_run(sc.graph, sc.costs, gains, y0,
                                sc.horizon, sc.step, sc.record_every)
    s_star = costs_mod.global_optimum(sc.costs)
    n = sc.graph.n
    rho = system.spectral.rho
    xii = traj.xi[:, np.arange(n), np.arange(n)]
    _write_csv(out / "coordinator.csv",
               [("t", traj.times)] + _per_agent("yr", traj.y_r) + _per_agent("z", traj.z)
               + _per_agent("xii", xii) + [("rho_z", traj.z @ rho)])
    summary = {
        "s_star": s_star,
        "final_reference_error": float(np.abs(traj.y_r[-1] - s_star).max()),
        "xi_error": float(np.abs(xii[-1] - rho).max()),
        "gains": {"beta1": gains.beta1, "beta2": gains.beta2, "delta": gains.delta},
    }
    _write_json(summary, out / "coordinator_metrics.json")
    print(f"{sc.name}: final reference error "
          f"{summary['final_reference_error']:.3e} (s* = {s_star:.9g})")
    return 0


def _cmd_graph(args):
    sc = parse_scenario(args.scenario)
    connected = is_strongly_connected(sc.graph)
    print(f"nodes: {sc.graph.n}")
    print(f"strongly_connected: {connected}")
    if connected:
        spectral = spectral_data(sc.graph)
        print("rho: " + " ".join(_fmt(x) for x in spectral.rho))
        print(f"rho_sum: {_fmt(spectral.rho.sum())}")
        print(f"lambda2: {_fmt(spectral.lambda2)}")
    return 0 if connected else 1


def _cmd_verify(args):
    sc = parse_scenario(args.scenario)
    out = _out_dir(args)
    traj = run(sc)
    report = verify(sc, traj)
    payload = report.to_dict(sc)
    _write_json(payload, out / "report.json")
    for name, chk in payload["checks"].items():
        status = "pass" if chk["pass"] else "FAIL"
        print(f"{status}  {name}: {chk['value']} (tolerance {chk['tolerance']})")
    return 0 if payload["passed"] else 1


def _cmd_ablate(args):
    sc = parse_scenario(args.scenario)
    out = _out_dir(args)
    comparison, traj_with, traj_without = ablate_compare(sc)
    write_trajectory(traj_with, out / "with_internal_model.csv", sc.tracker.gamma)
    write_trajectory(traj_without, out / "without_internal_model.csv", sc.tracker.gamma)
    _write_json(comparison, out / "ablation.json")
    print(f"final error with internal model:    "
          f"{comparison['final_error_with_internal_model']:.6e}")
    print(f"final error without internal model: "
          f"{comparison['final_error_without_internal_model']:.6e}")
    print(f"ratio: {comparison['ratio']:.2f}x")
    return 0


def _cmd_sweep(args):
    sc = parse_scenario(args.scenario)
    out = _out_dir(args)
    try:
        values = [float(v) for v in args.values.split(",")]
        if not all(math.isfinite(v) for v in values):
            raise ValueError
    except ValueError:
        raise SchemaError(f"--values: expected comma-separated finite numbers, "
                          f"got {args.values!r}") from None
    attr = args.attr
    if attr not in {"horizon", "step", "seed"}:
        raise SchemaError(f"--attr: unsupported sweep field {attr!r}")
    if attr == "seed":
        if not all(v.is_integer() and v >= 0 for v in values):
            raise SchemaError(f"--values: seeds must be nonnegative integers, "
                              f"got {args.values!r}")
        values = [int(v) for v in values]
    for val in values:
        try:
            replace(sc, **{attr: val})
        except ValueError as exc:
            raise SchemaError(f"--values: {attr}={val}: {exc}") from None
    results = sweep(sc, attr, values)
    payload = [{"value": val, "report": rep.to_dict()} for val, rep in results]
    _write_json(payload, out / "sweep.json")
    for val, rep in results:
        print(f"{attr}={val}: final_output_error={rep.final_output_error:.6e}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oocsim",
        description="Distributed optimal output consensus simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, out=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True,
                       help="scenario JSON path or preset name (example1, example2)")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(fn=fn)
        return p

    add("sim", _cmd_sim, "run the closed loop and write trajectory CSV + metrics")
    add("coordinator", _cmd_coordinator, "run the reference-generation layer only")
    add("graph", _cmd_graph, "print graph connectivity and spectral oracles", out=False)
    add("verify", _cmd_verify, "run and check against the verification oracles")
    add("ablate", _cmd_ablate, "paired run with and without the internal model")
    p_sweep = add("sweep", _cmd_sweep, "vary one scalar field over a grid")
    p_sweep.add_argument("--attr", required=True, help="field to vary (horizon, step, seed)")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    return parser


def cmd_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cmd_dispatch())


if __name__ == "__main__":
    main()
