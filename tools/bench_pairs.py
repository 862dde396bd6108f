#!/usr/bin/env python3
"""Interleaved parent/change pairs of perfbench runs, summarised to JSON.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload free_flow \\
        --pairs 10 --seconds 25 --seed 101 --out BENCH_n.json

PARENT_ROOT and CHANGE_ROOT are the roots of two checkouts.  Pair i runs
``perfbench/run.py --trace 0`` once in each root, both with seed
``--seed + i``; the parent runs first in even pairs and second in odd ones,
so that a drift of the host's speed does not favour one side.  The last line
of each run's standard output is its JSON record.  The summary gives, per
end-to-end metric, each side's values, median and quartiles, the ratio of
the medians, the number of pairs the change wins (ties count for neither
side), ``gain_shown``: whether the change wins at least 9 in 10 of the
pairs and its median lies beyond the parent's quartile spread in the
metric's better direction, ``worse_beyond_bound``: whether the change
median is worse than the parent median by more than the metric's relative
bound, and ``unresolved``:
whether the parent's quartile spread, relative to its median, is wider than
that bound while not every change run reads better than every parent run;
per item kind, each side's median of the runs' nominal kind medians (read
from ``.perfbench_out/result-<workload>-seed<N>-trace0.json`` in each root)
and their ratio, which shows the kinds a change acted on; plus every run's
``correct``, ``attempted`` and ``failed``.  The directions
and the bounds of the metrics come from CHANGE_ROOT/BENCHMARK.json.
Standard library only; runs one benchmark process at a time.

When --out names ``BENCH_<n>.json``, each workload's summary also gains
``previous``: the name of the highest-numbered ``BENCH_<k>.json`` with k < n
beside the output file, and per metric and per item kind that file's change
median and the ratio of this file's change median to it.  That comparison spans two
separate runs of this script and is unpaired: the host's speed may have
moved between the two files, so only the pairs within one file measure a
change.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="timed seconds per run (perfbench's --seconds)")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("need --pairs >= 1 and --seconds > 0")
    return args


def run_once(root, workload, seed, seconds):
    """One untraced benchmark run in ``root``; returns its JSON record, with
    ``kinds``: the nominal median in ms of each item kind, from the result
    file the run wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {done.returncode}:\n{done.stderr}")
    record = json.loads(lines[-1])
    result = root / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0.json"
    with open(result, encoding="utf-8") as fh:
        record["kinds"] = {kind: entry["median_ms"]
                           for kind, entry in json.load(fh)["kinds"].items()}
    return record


def quartiles(values):
    """(first quartile, median, third quartile) of one side's values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, better, bounds=None):
    """Summary of paired runs.

    ``pairs`` is a list of dicts with keys ``seed``, ``first`` ("parent" or
    "change"), ``parent`` and ``change``, the last two being run records as
    perfbench prints them.  ``better`` maps each metric name to "higher" or
    "lower"; metrics without a direction are left out.  ``bounds`` maps a
    metric name to the largest relative worsening of its median allowed, as
    a fraction of the parent median; ``worse_beyond_bound`` and
    ``unresolved`` are None for a metric without one.
    """
    bounds = bounds or {}
    metrics = {}
    for name, direction in better.items():
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs
                        if name in p[side]["metrics"]] for side in ("parent", "change")}
        if not sides["parent"] or len(sides["parent"]) != len(sides["change"]):
            continue
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        entry = dict(unit=pairs[0]["parent"]["metrics"][name]["unit"], better=direction,
                     pairs=len(sides["parent"]), change_wins=wins)
        for side, values in sides.items():
            q1, median, q3 = quartiles(values)
            entry[side] = dict(median=median, q1=q1, q3=q3, values=values)
        parent, change = entry["parent"], entry["change"]
        entry["ratio"] = change["median"] / parent["median"] if parent["median"] else None
        # the gap between the medians, against the parent's own spread
        spread = parent["q3"] - parent["q1"]
        entry["beyond_parent_iqr"] = abs(change["median"] - parent["median"]) > spread
        entry["gain_shown"] = bool(10 * wins >= 9 * entry["pairs"]
                                   and sign * (change["median"] - parent["median"]) > spread)
        bound = bounds.get(name)
        entry["worse_beyond_bound"] = None if bound is None else bool(
            sign * (change["median"] - parent["median"]) < -bound * abs(parent["median"]))
        # a spread wider than the bound cannot tell "unchanged" from "worse",
        # unless the two sides do not overlap at all
        all_better = (min(sign * c for c in change["values"])
                      > max(sign * p for p in parent["values"]))
        entry["unresolved"] = None if bound is None else bool(
            parent["q3"] - parent["q1"] > bound * abs(parent["median"]) and not all_better)
        metrics[name] = entry
    runs = [dict(seed=p["seed"], first=p["first"],
                 **{side: {k: p[side][k] for k in ("correct", "attempted", "failed")}
                    for side in ("parent", "change")}) for p in pairs]
    return dict(metrics=metrics, kinds=summarize_kinds(pairs), runs=runs)


def summarize_kinds(pairs):
    """Per item kind that every run of both sides timed: each side's nominal
    kind medians (ms), one per run, their median, and the ratio of the
    change median to the parent median.  Runs without ``kinds`` give none."""
    common = None
    for record in (p[side] for p in pairs for side in ("parent", "change")):
        timed = set(record.get("kinds", ()))
        common = timed if common is None else common & timed
    kinds = {}
    for kind in sorted(common or ()):
        entry = {side: dict(values=[p[side]["kinds"][kind] for p in pairs])
                 for side in ("parent", "change")}
        for side in entry.values():
            side["median"] = statistics.median(side["values"])
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        entry["ratio"] = change / parent if parent else None
        kinds[kind] = entry
    return kinds


def _bench_number(path):
    """n of a file named BENCH_<n>.json, else None."""
    match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(match.group(1)) if match else None


def previous_file(out):
    """The highest-numbered BENCH_<k>.json beside ``out`` with k below the
    number of ``out``, or None (also when ``out`` is not named BENCH_<n>.json)."""
    n = _bench_number(out)
    if n is None:
        return None
    earlier = [(k, path) for path in out.parent.glob("BENCH_*.json")
               if (k := _bench_number(path)) is not None and k < n]
    return max(earlier)[1] if earlier else None


def compare_previous(summary, previous, name):
    """The ``previous`` entry of a workload's summary against that
    workload's summary in the earlier file ``name``: per metric, and per item
    kind, present in both, the earlier change median and the ratio of the
    medians.  An earlier file without kinds gives none."""
    entry = dict(file=name)
    for group in ("metrics", "kinds"):
        entry[group] = {}
        for key, current in summary.get(group, {}).items():
            if key not in previous.get(group, {}):
                continue
            median = previous[group][key]["change"]["median"]
            entry[group][key] = dict(
                median=median, ratio=current["change"]["median"] / median if median else None)
    return entry


def main(argv=None):
    args = parse_args(argv)
    with open(args.change / "BENCHMARK.json", encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end if "bound" in m}
    roots = dict(parent=args.parent, change=args.change)
    earlier = previous_file(args.out)
    if earlier is not None:
        with open(earlier, encoding="utf-8") as fh:
            earlier_workloads = json.load(fh)["workloads"]
    doc = dict(seconds=args.seconds, first_seed=args.seed,
               host=dict(machine=platform.machine(), cpus=os.cpu_count(),
                         python=platform.python_version()),
               workloads={})
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = dict(seed=seed, first=order[0])
            for side in order:
                pair[side] = run_once(roots[side], workload, seed, args.seconds)
                value = pair[side]["metrics"].get("items_per_s", {}).get("value")
                print(f"{workload} seed {seed} {side}: items_per_s {value}", file=sys.stderr)
            pairs.append(pair)
        summary = doc["workloads"][workload] = summarize(pairs, better, bounds)
        if earlier is not None and workload in earlier_workloads:
            summary["previous"] = compare_previous(summary, earlier_workloads[workload],
                                                   earlier.name)
        with open(args.out, "w", encoding="utf-8") as fh:  # rewritten after each workload
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
