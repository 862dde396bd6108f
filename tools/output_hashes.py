#!/usr/bin/env python3
"""Whether two checkouts give the benchmark items the same output bytes.

    python3 tools/output_hashes.py PARENT_ROOT CHANGE_ROOT

PARENT_ROOT and CHANGE_ROOT are the roots of two checkouts.  Each is hashed
in a subprocess of its own, since both import ``nhoc`` and perfbench's
``workloads``.  That subprocess builds every perfbench workload once and
runs the items of rounds 0 to ROUNDS - 1 for SEED, one after another and
untimed, through ``workloads.run_item``.  Each item's outcome is hashed:
arrays by dtype, shape and bytes, dataclasses field by field with the field
names, floats by their exact hex form, strings with the temporary output
directory masked, and a failed item's error text.  An ``optimize`` item also
hashes the CSV file it wrote.  The group ``extremal`` hashes the Lagrangian
path, which no workload runs: the ``integrate_extremal`` states (T = 0.1,
dt = 0.01) of the three builtin cases of acceptance criterion 4 and of three
cases on perfbench's curved model (full actuation with a quadratic and with
the quartic cost, one input with a quadratic cost), and the ``run_all``
invariant values of that curved model.  A last group, ``cli``, hashes the
exit code and standard output of each command line in CLI_RUNS (``nhoc
check``, ``nhoc derive``, ``nhoc optimize`` of the sleigh on 100 steps,
which shoot over 10 segments, with ``--guess 0,0`` and without, and with
the weights (2, 0.5) under ``symp_euler`` and ``stormer_verlet``, with a
budget of one Newton iteration, without a guess and with ``--guess 0,0``,
whose ``NewtonDivergence`` exits 4 with the best iterate's output, and
``nhoc optimize`` of the n = 2 double integrator), run
in-process through ``nhoc.cli.main``, and the CSV file an optimize run wrote.
The comparison prints, per group, how many items hash the same and how many
differ, and names each differing item; it exits 1 if any differ.  A
differing item also gets its largest absolute and largest relative gap
(|a - b| / max(|a|, |b|)) over its float leaves, each with the parent's
leaf where it falls: the leaves are the entries of float arrays, the
floats, and the numbers written in its strings and bytes (the CLI's output
and CSV files), in the order that the hash reads them.
perfbench/ is only read.
"""

import argparse
import base64
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

MASK = "<out>"
SEED = 7
ROUNDS = 3  # 75 items: 25 per round over the three workloads
BUILTINS = ("suslov", "chaplygin", "double_integrator")
# the sleigh of the optimize items; OUT stands for the CSV path in the output directory
OUT = "{out}"
SLEIGH_OPTIMIZE = ["optimize", "--builtin=chaplygin", "--params=m=1.0,J=1.0,a=1.0,b=0.0",
                   "--y0=0,0", "--yT=0.3,-0.2", "--T=1.0", "--dt=0.01", f"--out={OUT}"]
CLI_RUNS = ([[command, "--builtin", name] for command in ("check", "derive") for name in BUILTINS]
            + [["derive", "--builtin", "double_integrator", "--params", "n=2", "--q", "0.3,-0.2"],
               SLEIGH_OPTIMIZE + ["--guess=0,0"], SLEIGH_OPTIMIZE]
            # weighted costs, whose Legendre map is not the identity, through
            # each scheme's one-row flow, and the n = 2 double integrator
            + [SLEIGH_OPTIMIZE + [f"--integrator={scheme}", "--weights=2,0.5"]
               for scheme in ("symp_euler", "stormer_verlet")]
            + [["optimize", "--builtin=double_integrator", "--params=n=2", "--q0=0,0",
                "--qT=0.5,-0.3", "--y0=0,0", "--yT=0,0", "--T=2", "--dt=0.02", f"--out={OUT}"]]
            # a budget of one Newton iteration: exit 4 with the best iterate
            + [SLEIGH_OPTIMIZE + ["--max-iterations=1"],
               SLEIGH_OPTIMIZE + ["--guess=0,0", "--max-iterations=1"]])
EXTREMAL_T, EXTREMAL_DT = 0.1, 0.01


def extremal_runs(workloads):
    """[(label, outcome)] of the ``extremal`` group: ``integrate_extremal``
    states of the builtin and curved cases, then the curved invariant
    values; builds on the ``nhoc`` that ``workloads`` imported."""
    import nhoc
    from nhoc import checks, optimal_control as oc

    def run(system, state, inputs=None, cost=None):
        controls = (oc.ControlDistribution.full(system.rank_d) if inputs is None
                    else oc.ControlDistribution.on_indices(system.rank_d, inputs))
        cost = oc.quadratic_cost(np.eye(controls.k)) if cost is None else cost
        problem = oc.OCProblem(system=system, controls=controls, cost=cost, horizon=1.0)
        return oc.integrate_extremal(problem, oc.ExtremalState(**state),
                                     EXTREMAL_T, EXTREMAL_DT)

    builtins = {  # the cases of acceptance criterion 4
        "double_integrator": (nhoc.make_double_integrator(1),
                              dict(q=[0.2], y=[0.1], v=[0.3], lam=[0.4])),
        "suslov": (nhoc.make_suslov(I11=2.0, I22=3.0, I33=4.0, I13=0.1, I23=0.2),
                   dict(y=[0.4, 0.3], v=[0.1, -0.2])),
        "chaplygin": (nhoc.make_chaplygin(m=1.0, J=1.0, a=1.0, b=0.0),
                      dict(y=[0.3, 0.2], v=[0.05, -0.1])),
    }
    runs = [(name, run(nhoc.ConstrainedSystem(*pair), state))
            for name, (pair, state) in builtins.items()]
    model = workloads.make_curved_model()
    spec = nhoc.ConstraintSpec(span_basis=np.eye(2))
    curved = nhoc.ConstrainedSystem(model, spec)
    full = dict(q=[0.1], y=[0.3, -0.2], v=[0.1, 0.2], lam=[0.05])
    runs += [("curved/quadratic", run(curved, full)),
             ("curved/quartic", run(curved, full, cost=workloads.quartic_cost())),
             ("curved/one_input", run(curved, dict(full, v=[0.1], lam_bar=[0.02]), inputs=[0])),
             ("curved/run_all", checks.run_all(model, spec))]
    return runs


# a number written in text, as the CLI prints its floats and integers
NUMBER = re.compile(rb"[-+]?(?:nan|inf|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def feed(h, obj, out_dir, leaves=None):
    """Update the hash ``h`` with ``obj``, masking ``out_dir`` in strings,
    and append its float leaves to the list ``leaves`` if given: float array
    entries, floats, and the numbers in strings and bytes (read after the
    mask, so that the directory's digits are not).  Raises TypeError for a
    type it has no byte form for."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"{type(obj).__name__}{{".encode())
        for f in dataclasses.fields(obj):
            h.update(f"{f.name}=".encode())
            feed(h, getattr(obj, f.name), out_dir, leaves)
        h.update(b"}")
    elif isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            raise TypeError("cannot hash an array of Python objects")
        h.update(f"ndarray[{obj.dtype.str}{obj.shape}]".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
        if leaves is not None and obj.dtype.kind == "f":
            leaves.extend(obj.ravel().tolist())
    elif isinstance(obj, float):
        h.update(f"float:{float(obj).hex()};".encode())
        if leaves is not None:
            leaves.append(obj)
    elif obj is None or isinstance(obj, (bool, int)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, (str, bytes)):
        name = type(obj).__name__
        data = (obj.encode() if name == "str" else obj).replace(out_dir.encode(), MASK.encode())
        h.update(f"{name}[{len(data)}]:".encode() + data)
        if leaves is not None:
            leaves.extend(float(m) for m in NUMBER.findall(data))
    elif isinstance(obj, (tuple, list)):
        h.update(f"{type(obj).__name__}[{len(obj)}]".encode())
        for value in obj:
            feed(h, value, out_dir, leaves)
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def encode_leaves(values):
    return base64.b64encode(np.ascontiguousarray(values, dtype="<f8").tobytes()).decode()


def largest_gaps(a, b):
    """((largest absolute gap, index), (largest relative gap, index)) of two
    float-leaf arrays of one length.  Equal entries, NaNs included, have gap
    0; a NaN or infinite gap counts as infinite.  Both indices are None where
    nothing differs."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        gap = np.where(same, 0.0, np.abs(a - b))
        rel = np.where(same, 0.0, gap / np.maximum(np.abs(a), np.abs(b)))
    gap, rel = np.nan_to_num(gap, nan=np.inf), np.nan_to_num(rel, nan=np.inf)
    if same.all():
        return (0.0, None), (0.0, None)
    i, j = int(np.argmax(gap)), int(np.argmax(rel))
    return (float(gap[i]), i), (float(rel[j]), j)


def gap_text(a, b):
    """The gap report of one differing item from the encoded float leaves of
    its two sides, with the parent's leaf at each largest gap, so that a
    large relative gap on a rounding-level leaf reads as such."""
    a, b = (np.frombuffer(base64.b64decode(side), dtype="<f8") for side in (a, b))
    if len(a) != len(b):
        return f"float leaves {len(a)} against {len(b)}"
    (gap, i), (rel, j) = largest_gaps(a, b)
    if i is None:
        return f"{len(a)} float leaves equal"
    return (f"largest gap abs {gap:.3g} at {a[i]:.3g}, rel {rel:.3g} at {a[j]:.3g} "
            f"over {len(a)} float leaves")


def row(round_index, kind, parts, out_dir):
    """[round, kind, digest, leaves] of an item whose outcome is ``parts``,
    fed to one hash in turn."""
    h, leaves = hashlib.sha256(), []
    for part in parts:
        feed(h, part, out_dir, leaves)
    return [round_index, kind, h.hexdigest(), encode_leaves(leaves)]


def hash_checkout(root):
    """{group: [[round, kind, digest, leaves], ...]} of the checkout at
    ``root``, with each item's float leaves base64-encoded, one
    group per workload, one for the extremal runs and one for CLI_RUNS;
    imports its ``nhoc`` and
    ``workloads``, so run it once per process."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from nhoc import cli
    digests = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for name, make in workloads.WORKLOADS.items():
            workload = make(out_dir)
            csv_path = getattr(workload, "csv_path", None)
            rows = digests[name] = []
            for round_index in range(ROUNDS):
                for item in workload.round_items(SEED, round_index):
                    outcome = [workloads.run_item(workload, item)]
                    if csv_path is not None and os.path.exists(csv_path):
                        outcome.append(Path(csv_path).read_bytes())
                        os.remove(csv_path)  # a later item that fails writes none
                    rows.append(row(round_index, item.kind, outcome, out_dir))
        rows = digests["extremal"] = []
        for label, outcome in extremal_runs(workloads):
            rows.append(row(0, label, [outcome], out_dir))
        rows = digests["cli"] = []
        csv_path = os.path.join(out_dir, "cli.csv")
        for argv in CLI_RUNS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([arg.replace(OUT, csv_path) for arg in argv])
            outcome = [(code, out.getvalue())]
            if os.path.exists(csv_path):
                outcome.append(Path(csv_path).read_bytes())
                os.remove(csv_path)
            rows.append(row(0, " ".join(argv), outcome, out_dir))
    return digests


def run_checkout(root):
    """``hash_checkout`` of ``root`` in a subprocess of its own."""
    root, tool = Path(root).resolve(), Path(__file__).resolve()
    entry = (f"import json, runpy; hash_checkout = runpy.run_path({str(tool)!r})['hash_checkout']; "
             f"print(json.dumps(hash_checkout({str(root)!r})))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", entry], cwd=root, env=env,
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"hashing {root} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def compare(parent, change):
    """(report lines, number of differing items) of two ``hash_checkout``
    results; an item present on one side only differs.  Items compare by
    round, kind and digest; a differing item present on both sides with its
    float leaves also reports its largest gaps."""
    lines, equal_total, differ_total = [], 0, 0
    for name in list(parent) + [name for name in change if name not in parent]:
        a, b = parent.get(name, []), change.get(name, [])
        differ = [i for i in range(max(len(a), len(b)))
                  if i >= len(a) or i >= len(b) or a[i][:3] != b[i][:3]]
        equal = max(len(a), len(b)) - len(differ)
        lines.append(f"{name}: {equal} equal, {len(differ)} differ")
        for i in differ:
            round_index, kind = (a if i < len(a) else b)[i][:2]
            line = f"  differs: round {round_index} item {i} {kind}"
            if i < len(a) and i < len(b) and len(a[i]) > 3 and len(b[i]) > 3:
                line += f"; {gap_text(a[i][3], b[i][3])}"
            lines.append(line)
        equal_total += equal
        differ_total += len(differ)
    lines.append(f"{equal_total} of {equal_total + differ_total} equal")
    return lines, differ_total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_ROOT")
    parser.add_argument("change", type=Path, metavar="CHANGE_ROOT")
    args = parser.parse_args(argv)
    parent, change = (run_checkout(root) for root in (args.parent, args.change))
    lines, differ = compare(parent, change)
    print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
