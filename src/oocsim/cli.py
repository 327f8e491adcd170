"""Command-line interface: scenario-driven runs with CSV/JSON outputs.

Subcommands:

  sim          full closed-loop run; trajectory CSV plus metrics JSON
  coordinator  upper (reference-generation) layer only
  graph        print the connectivity oracle values for the scenario graph and
               the xi source's mode split (block size m and kappa_1(P))
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
from .sim import (SourceParts, StateLayout, Structure, Trajectory, ablate_compare,
                  initial_state, metrics, named_failures, run, sweep, verify)

_FMT = "%.17g"  # round-trip exact for 64-bit floats


def _fmt(x):
    return _FMT % x


def _write_csv(path, names, table):
    """Write a 2-D table as a CSV with a header row of names."""
    np.savetxt(path, table, fmt=_FMT, delimiter=",", header=",".join(names), comments="")


def _names(name, count):
    """name_1 .. name_count."""
    return [f"{name}_{i}" for i in range(1, count + 1)]


_AGENT_BLOCKS = ("y", "x2", "yr", "z", "xii", "theta", "k")


def write_trajectory(traj: Trajectory, path, gamma):
    """Write the trajectory CSV: t, each agent's entries and psi rows, then shared columns.

    The table is built from whole blocks and put in column order by one index.
    """
    if traj.times.size == 0:
        raise ValueError("refusing to write an empty trajectory")
    n, s_dims = traj.layout.n, traj.layout.s_dims
    table = np.column_stack([traj.times, traj.y, traj.x2, traj.yr, traj.z, traj.xi_diag,
                             traj.theta(gamma), traj.k, traj.psi, traj.v, traj.rho_z,
                             traj.exo_norm])
    # agent i's entry of block b sits at column 1 + b n + i, its psi rows from psi[i] on
    psi = 1 + len(_AGENT_BLOCKS) * n + np.cumsum((0,) + s_dims)
    order, names = [0], ["t"]
    for i in range(n):
        order += range(1 + i, psi[0], n)
        order += range(psi[i], psi[i + 1])
        names += [f"{name}_{i + 1}" for name in _AGENT_BLOCKS] + _names(f"psi_{i + 1}", s_dims[i])
    order += range(psi[-1], table.shape[1])
    names += _names("v", traj.v.shape[1]) + ["rho_z", "exo_norm"]
    _write_csv(path, names, table[:, order])


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
    structure, layout = Structure(sc), StateLayout.of(sc)
    gains, rho = structure.gains, structure.spectral.rho
    y0 = initial_state(sc, layout)[layout.slices["yr"]]
    with named_failures(sc.name, layout):
        traj = coordinator_only_run(sc.graph, sc.costs, gains, y0,
                                    sc.horizon, sc.step, sc.record_every)
    s_star = structure.optimum()
    xii = traj.xi_diag
    n = sc.graph.n
    _write_csv(out / "coordinator.csv",
               ["t"] + _names("yr", n) + _names("z", n) + _names("xii", n) + ["rho_z"],
               np.column_stack([traj.times, traj.y_r, traj.z, xii, traj.z @ rho]))
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
        _, (t, _, _), kappa = SourceParts(spectral.laplacian).split()
        print(f"xi_block_size: {len(t)}")
        print(f"xi_split_kappa: {_fmt(kappa)}")
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
        # as integers, not through float, which rounds above 2**53
        seeds = [v.strip() for v in args.values.split(",")]
        if not all(v.isdecimal() and int(v) < 2 ** 64 for v in seeds):
            raise SchemaError(f"--values: seeds must be nonnegative integers below 2**64, "
                              f"got {args.values!r}")
        values = [int(v) for v in seeds]
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
    add("graph", _cmd_graph, "print graph connectivity, spectral oracles and the xi split",
        out=False)
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
