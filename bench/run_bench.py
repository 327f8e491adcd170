"""Repeat the end-to-end benchmark on one or more checkouts and summarise it.

    python3 bench/run_bench.py --checkout parent=../old --checkout change=. \
        --workload ring200_closed_loop --repeats 5 --seconds 30 --out BENCH.json

Each repeat runs `benchmark/run.py --trace 0` once per workload on every
checkout, so the checkouts alternate and share the host's slow and fast
stretches; odd repeats run them in the order given, even ones in reverse.
Repeat r uses seed `--seed + r` on every checkout.
After the repeats, each checkout runs `benchmark/run.py --trace 1` once per
workload at seed `--seed`, and the output keeps that run's correctness
(with the exact-count gate on the traced calls) and its per-layer metrics
under "trace".
The output JSON holds, per checkout and workload, each metric's min, median,
quartiles and per-repeat values, plus each run's correctness and failed trajectories.
With two checkouts it also counts, per metric, the repeats in which the
second did better than the first, and gives each metric a verdict, which it
prints too: "gain" when the second won at least nine tenths of the repeats
(ties count for neither) and its median is better than the first's by more
than the distance between the first's quartiles, else "unresolved".
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("example1_verify", "example2_seed_sweep", "ring200_closed_loop")


def run_once(checkout, workload, seed, seconds, trace=0):
    """One `benchmark/run.py` run; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{checkout}: {workload} seed {seed} printed no result "
                           f"(exit {proc.returncode}): {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def summarise(results, better):
    """Min, median, quartiles and values per metric, plus correctness, over result lines."""
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        metrics[name] = {"unit": results[0]["metrics"][name]["unit"],
                         "better": better.get(name),
                         "min": min(values), "median": statistics.median(values),
                         "quartiles": [quartiles[0], quartiles[2]], "values": values}
    return {"metrics": metrics,
            "correct": [r["correct"] for r in results],
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results]}


def paired_wins(base, other):
    """Per metric with a known direction: repeats in which `other` beat `base`."""
    wins = {}
    for name, b in base["metrics"].items():
        o = other["metrics"][name]
        if b["better"] is None:
            continue
        sign = 1 if b["better"] == "higher" else -1
        wins[name] = sum(sign * (y - x) > 0 for x, y in zip(b["values"], o["values"]))
    return wins


def verdicts(base, other, wins, repeats):
    """Per metric in wins: "gain" or "unresolved", with the numbers the rule reads."""
    out = {}
    for name, won in wins.items():
        b, o = base["metrics"][name], other["metrics"][name]
        sign = 1 if b["better"] == "higher" else -1
        spread = b["quartiles"][1] - b["quartiles"][0]
        gain = 10 * won >= 9 * repeats and sign * (o["median"] - b["median"]) > spread
        out[name] = {"verdict": "gain" if gain else "unresolved", "wins": won,
                     "base_median": b["median"], "other_median": o["median"],
                     "base_quartile_spread": spread}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                        help="a checkout to run, by label; repeat for each")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run; repeat for each (default: all)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    checkouts = dict(item.split("=", 1) for item in args.checkout)
    workloads = args.workload or list(WORKLOADS)
    spec = json.loads((Path(next(iter(checkouts.values()))) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    raw = {label: {w: [] for w in workloads} for label in checkouts}
    for r in range(args.repeats):
        for w in workloads:
            order = list(checkouts.items())
            for label, path in order if r % 2 == 0 else order[::-1]:
                result = run_once(path, w, args.seed + r, args.seconds)
                raw[label][w].append(result)
                m = result["metrics"]
                print(f"repeat {r + 1}/{args.repeats} {w} {label}: "
                      f"steps_per_s {m['steps_per_s']['value']:.6g}, "
                      f"wall_s {m['wall_s']['value']:.6g}, correct {result['correct']}",
                      flush=True)

    traced = {label: {} for label in checkouts}
    for w in workloads:
        for label, path in checkouts.items():
            result = run_once(path, w, args.seed, args.seconds, trace=1)
            traced[label][w] = {"correct": result["correct"], "failed": result["failed"],
                                "metrics": {k: m["value"] for k, m in result["metrics"].items()}}
            print(f"trace {w} {label}: correct {result['correct']}", flush=True)

    out = {
        "command": f"benchmark/run.py --trace 0 --seconds {args.seconds:g}",
        "seeds": [args.seed + r for r in range(args.repeats)],
        "order": ("per repeat and workload, checkouts in the order "
                  + ", ".join(checkouts) + ", reversed on every second repeat"),
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "checkouts": {label: {w: summarise(raw[label][w], better) for w in workloads}
                      for label in checkouts},
        "trace": {"command": f"benchmark/run.py --trace 1 --seconds {args.seconds:g}",
                  "seed": args.seed, "runs": traced},
    }
    labels = list(checkouts)
    if len(labels) == 2:
        base, other = labels
        out["pairs"] = {}
        for w in workloads:
            b, o = out["checkouts"][base][w], out["checkouts"][other][w]
            wins = paired_wins(b, o)
            out["pairs"][w] = {"base": base, "other": other, "repeats": args.repeats,
                               "other_better": wins,
                               "verdicts": verdicts(b, o, wins, args.repeats)}
            for name, v in out["pairs"][w]["verdicts"].items():
                print(f"{w} {name}: {v['verdict']} ({other} better in {v['wins']}/"
                      f"{args.repeats} repeats, median {v['base_median']:.6g} -> "
                      f"{v['other_median']:.6g}, {base} quartile spread "
                      f"{v['base_quartile_spread']:.3g})", flush=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
