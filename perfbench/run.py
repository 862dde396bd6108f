#!/usr/bin/env python3
"""End-to-end benchmark of the nhoc pipeline, one workload per run.

    python3 perfbench/run.py --workload free_flow --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` and
results go to ``.perfbench_out/``.  Everything runs in this one process,
one item after another, with BLAS pinned to one thread.  Timings are
reported at a nominal host speed (see ``nominal``); the raw wall-clock
figures are kept in the result file.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.  See
README.md in this directory for the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("free_flow", "optimize", "chart_dependent")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up (building models and systems, then warm-up items) is repeated and
# its median reported, so that one slow repetition does not decide setup_s
SETUP_REPEATS = 5
# Every timing is divided by the time of a fixed reference computation
# measured around it and reported at the nominal host speed, at which the
# reference takes exactly this long (a quiet benchmark host takes ~1.05 ms).
NOMINAL_REFERENCE_S = 1e-3
REFERENCE_ITERATIONS = 200


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase (sum of item times)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def build():
    """Byte-compile the package and the benchmark, so that every run, the
    first in a fresh checkout included, imports from bytecode."""
    import compileall
    ok = compileall.compile_dir(str(SRC / "nhoc"), quiet=1)
    return compileall.compile_dir(str(HERE), quiet=1, maxlevels=0) and ok


def nominal(seconds, reference):
    """A wall time rescaled to the nominal host speed: the host's speed moves
    in regimes of minutes, by up to 2-3x, and the reference work slows with
    it, so the ratio keeps what the program costs and drops the regime."""
    return seconds * NOMINAL_REFERENCE_S / reference


def reference_seconds():
    """Wall time of a fixed piece of interpreter and small-numpy work that
    does not touch nhoc: concatenation, einsum and matmul on 3-vectors, the
    mix nhoc's hot paths are made of.  Timed between items, it measures how
    fast the host runs at that moment."""
    import numpy as np
    a, v = np.eye(3), np.ones(3)
    start = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        w = np.concatenate([v[:2], v[2:]])
        acc += float(np.einsum("ab,b->a", a, w)[0]) + float((a @ w)[1]) + 0.5 * i
    return time.perf_counter() - start


def run_rounds(workload, rounds):
    """Time, then check, every item of the given rounds, with the reference
    work timed just before and just after each item; one record per item."""
    import workloads
    records = []
    for items in rounds:
        for item in items:
            before = reference_seconds()
            start = time.perf_counter()
            outcome = workloads.run_item(workload, item)
            elapsed = time.perf_counter() - start
            reference = 0.5 * (before + reference_seconds())
            if outcome.error:
                wrong = workloads.unexpected_error(workload, item, outcome.error)
            else:
                wrong = workload.check(item, outcome.value) or ""
            records.append(dict(kind=item.kind, seconds=elapsed, reference=reference,
                                error=outcome.error, wrong=wrong))
    return records


def timed_rounds(workload, seed, seconds):
    """Whole rounds until the item times add up to at least ``seconds``."""
    records = []
    timed = 0.0
    round_index = 0
    while timed < seconds:
        new = run_rounds(workload, [workload.round_items(seed, round_index)])
        timed += sum(r["seconds"] for r in new)
        records += new
        round_index += 1
    return records


def nominal_times(records):
    return [nominal(r["seconds"], r["reference"]) for r in records]


def items_per_s(records):
    return len(records) / sum(nominal_times(records))


def summarize(records):
    kinds = {}
    for rec, cost in zip(records, nominal_times(records)):
        k = kinds.setdefault(rec["kind"], dict(items=0, failed=0, wrong=0, seconds=[], refs=[]))
        k["items"] += 1
        k["failed"] += bool(rec["error"] or rec["wrong"])
        k["wrong"] += bool(rec["wrong"])
        k["seconds"].append(rec["seconds"])
        k["refs"].append(cost)
    for k in kinds.values():
        k["wall_median_ms"] = statistics.median(k.pop("seconds")) * 1e3
        k["median_ms"] = statistics.median(k.pop("refs")) * 1e3
    reasons = sorted({f'{r["kind"]}: {r["wrong"] or r["error"]}'
                      for r in records if r["error"] or r["wrong"]})
    return kinds, reasons


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nhoc" / "__init__.py").is_file():
        print(f"error: the nhoc sources are missing ({SRC / 'nhoc'} not found); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not build():
        print("error: byte-compiling the sources failed", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    t_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import resource
    import numpy  # noqa: F401  (imported here so that its import counts in setup_s)
    import nhoc  # noqa: F401
    import workloads
    imported = time.perf_counter() - t_start

    setups, references = [], []
    for _ in range(SETUP_REPEATS):
        references.append(reference_seconds())
        start = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](str(OUT))
        for item in workload.warm_items():
            outcome = workloads.run_item(workload, item)
            if outcome.error:
                print(f"error: warm-up item {item.kind} failed: {outcome.error}", file=sys.stderr)
                return 3
        setups.append(time.perf_counter() - start)
        references.append(reference_seconds())
    setup_wall = imported + statistics.median(setups)
    setup_s = nominal(setup_wall, statistics.median(references))

    detail = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, import_s=imported, setups_s=setups,
                  setup_references_s=references)
    if args.trace:
        import tracing
        rounds = [workload.round_items(args.seed, r) for r in range(workload.trace_rounds)]
        plain = workloads.WORKLOADS[args.workload](str(OUT))
        untraced = run_rounds(plain, rounds)
        tracer = tracing.Tracer()
        traced_workload = workloads.WORKLOADS[args.workload](str(OUT))
        tracer.install()
        try:
            records = run_rounds(traced_workload, rounds)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(items_per_s(untraced), items_per_s(records),
                                 sum(nominal_times(untraced)))
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        detail["spans"] = len(tracer.name_id)
    else:
        records = timed_rounds(workload, args.seed, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": items_per_s(records), "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(nominal_times(records)) * 1e3,
                            "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    times = [r["seconds"] for r in records]
    references = [r["reference"] for r in records]
    detail["wall"] = dict(setup_s=setup_wall, items_per_s=len(times) / sum(times),
                          item_p50_ms=statistics.median(times) * 1e3,
                          reference_p50_ms=statistics.median(references) * 1e3,
                          reference_min_ms=min(references) * 1e3)
    kinds, reasons = summarize(records)
    attempted = len(records)
    failed = sum(1 for r in records if r["error"] or r["wrong"])
    correct = not any(r["wrong"] for r in records)
    detail.update(timed_s=sum(times), rounds=attempted // len(workload.round_kinds),
                  items=[[r["kind"], r["seconds"], r["reference"]] for r in records],
                  kinds=kinds, failures=reasons,
                  metrics=metrics)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {attempted} items in {detail['rounds']} rounds, "
          f"{failed} failed, {sum(times):.2f} s timed, reference "
          f"{detail['wall']['reference_p50_ms']:.3f} ms")
    for reason in reasons:
        print(f"  failed: {reason}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
