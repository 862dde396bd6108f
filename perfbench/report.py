#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and print every metric.

    python3 perfbench/report.py                       # every workload, seed 1
    python3 perfbench/report.py --seeds 1-10 --workloads optimize

Each run is its own process (``run.py``), started one after another, and
measures for the ``run_seconds`` of ``BENCHMARK.json``.  With
more than one seed the report adds, per workload and metric, the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, and the share of failed items.  The
summary is also written to ``.perfbench_out/report.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import OUT, ROOT, WORKLOAD_NAMES  # noqa: E402

RUN_TIMEOUT_S = 900


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return dict(median=med, q1=q1, q3=q3, iqr_share=(q3 - q1) / med if med else float("inf"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,7")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    summary = {}
    for workload in args.workloads.split(","):
        values, failed_shares, correct = {}, set(), True
        for seed in seeds:
            result = run_once(workload, seed, seconds)
            correct &= result["correct"]
            failed_shares.add(result["failed"] / result["attempted"])
            line = " ".join(f'{k}={m["value"]:.6g}{m["unit"]}'
                            for k, m in result["metrics"].items())
            print(f'{workload} seed {seed}: correct={result["correct"]} '
                  f'attempted={result["attempted"]} failed={result["failed"]} {line}', flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = dict(correct=correct, failed_shares=sorted(failed_shares),
                                 metrics={k: spread(v) for k, v in values.items()})
        if len(seeds) > 1:
            print(f"{workload}: correct={correct} failed shares={sorted(failed_shares)}")
            for name, s in summary[workload]["metrics"].items():
                print(f'  {name}: median {s["median"]:.6g} q1 {s["q1"]:.6g} q3 {s["q3"]:.6g} '
                      f'spread {s["iqr_share"]:.3f}')
    OUT.mkdir(exist_ok=True)
    with open(OUT / "report.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
