#!/usr/bin/env python3
"""Self-test of the benchmark: every check passes a right result and reports
deliberately wrong ones (an endpoint shifted by 1e-6, a perturbed p0 or
control, a trajectory cut short, a broken energy diagnostic) as failed; the
tracer counts what it wraps and puts every wrapped name back.

    python3 perfbench/selftest.py
    python -m pytest -q perfbench/selftest.py

Run from the root of a checkout; it imports nhoc from ``src/``.
"""

import dataclasses
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from nhoc import dynamics  # noqa: E402

SHIFT = 1e-6


def shifted(array, index, by=SHIFT):
    out = np.array(array, dtype=float, copy=True)
    out[index] += by
    return out


def cut_short(traj):
    fields = ("times", "qs", "ys", "controls", "p_qs", "p_ys", "energies", "hamiltonians")
    return dataclasses.replace(traj, **{f: getattr(traj, f)[:-1] for f in fields
                                        if getattr(traj, f) is not None})


def assert_flags(check, wrong, what):
    reason = check(wrong)
    assert reason, f"check accepted {what}"
    return reason


def test_free_flow_checks():
    wl = workloads.FreeFlow(tempfile.gettempdir())
    for kind in sorted(set(workloads.FREE_ROUND)):
        item = workloads.Item(kind, dict(y0=(0.9, -0.4), n_steps=200))
        traj = wl.run(item)
        check = lambda t, item=item: wl.check(item, t)
        assert check(traj) is None, f"{kind}: {check(traj)}"
        assert_flags(check, dataclasses.replace(traj, ys=shifted(traj.ys, (-1, 1))),
                     f"{kind} with the endpoint shifted by {SHIFT}")
        assert_flags(check, dataclasses.replace(traj, ys=shifted(traj.ys, (100, 0))),
                     f"{kind} with a midpoint shifted by {SHIFT}")
        assert_flags(check, cut_short(traj), f"{kind} cut short")
        assert_flags(check, dataclasses.replace(traj, energies=shifted(traj.energies, 7)),
                     f"{kind} with a wrong energy diagnostic")


def edit_csv(path, rows, column, by):
    """Add ``by`` to a column of the CSV at the given rows; with no column,
    drop the last row."""
    header, data = verify.read_csv(path)
    if column is None:
        data = data[:-1]
    else:
        data[rows, header.index(column)] += by
    np.savetxt(path, data, delimiter=",", fmt="%.17g", header=",".join(header), comments="")


def test_optimize_checks():
    every_row = slice(None)
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.Optimize(tmp)
        for kind in sorted(set(workloads.OPT_ROUND)):
            item = workloads.Item(kind, dict(d=-1.3, T=2.0, yT=(0.3, -0.2), n_steps=100))
            output = wl.run(item)
            rc, stdout, stderr = output
            check = lambda o, item=item: wl.check(item, o)
            assert check(output) is None, f"{kind}: {check(output)}"
            assert_flags(check, (4, stdout, stderr), f"{kind} exit code 4")
            edits = [(-1, "y_0", SHIFT, "the endpoint shifted"), (0, None, 0.0, "cut short")]
            if kind.startswith("double_integrator"):
                edits += [(0, "pq_0", SHIFT, "p0 perturbed"), (0, "py_0", SHIFT, "p0 perturbed"),
                          (50, "u_0", SHIFT, "a control perturbed")]
                cost = float(verify.parse_stdout(stdout)["cost"])
                bad = stdout.replace(f"cost: {cost:.12g}", f"cost: {cost * 1.01:.12g}")
                assert_flags(check, (0, bad, stderr), f"{kind} with a wrong cost")
            elif kind.endswith("rk4"):
                edits.append((every_row, "u_0", 1e-5, "the controls perturbed"))
            with open(wl.csv_path, encoding="utf-8") as fh:
                original = fh.read()
            for rows, column, by, what in edits:
                edit_csv(wl.csv_path, rows, column, by)
                assert_flags(check, output, f"{kind} with {what}")
                with open(wl.csv_path, "w", encoding="utf-8") as fh:
                    fh.write(original)


def test_chart_dependent_checks():
    wl = workloads.ChartDependent(tempfile.gettempdir())
    sim = workloads.Item("curved/simulate", dict(q0=0.2, y0=(0.5, -0.3), n_steps=100))
    traj = wl.run(sim)
    check = lambda t: wl.check(sim, t)
    assert check(traj) is None, check(traj)
    assert_flags(check, dataclasses.replace(traj, ys=shifted(traj.ys, (50, 0), 1e-5)),
                 "a flow that does not conserve energy")
    assert_flags(check, dataclasses.replace(traj, qs=shifted(traj.qs, (0, 0))),
                 "a flow from another start")
    assert_flags(check, dataclasses.replace(traj, energies=shifted(traj.energies, 3)),
                 "a wrong energy diagnostic")
    assert_flags(check, cut_short(traj), "a flow cut short")

    for item in (workloads.Item("curved/solve_bvp", dict(qT=0.025, n_steps=10)),
                 workloads.Item("chaplygin_quartic/solve_bvp", dict(yT=(0.3, -0.15), n_steps=10))):
        result = wl.run(item)
        check = lambda r, item=item: wl.check(item, r)
        assert check(result) is None, f"{item.kind}: {check(result)}"
        traj = result.trajectory
        assert_flags(check, dataclasses.replace(
            result, trajectory=dataclasses.replace(traj, ys=shifted(traj.ys, (-1, 0)))),
            f"{item.kind} with the endpoint shifted by {SHIFT}")
        assert_flags(check, dataclasses.replace(
            result, trajectory=dataclasses.replace(traj, ys=shifted(traj.ys, (0, 1)))),
            f"{item.kind} from another start")
        assert_flags(check, dataclasses.replace(result, residual_norm=1e-6),
                     f"{item.kind} reporting a residual above tolerance")
        assert_flags(check, dataclasses.replace(result, trajectory=cut_short(traj)),
                     f"{item.kind} cut short")
        if item.kind.startswith("chaplygin_quartic"):
            assert_flags(check, dataclasses.replace(
                result, trajectory=dataclasses.replace(traj, p_ys=shifted(traj.p_ys, (4, 1)))),
                "momenta that break u + u^3 = p_y")


def test_only_the_named_failure_is_expected():
    chart = workloads.ChartDependent(tempfile.gettempdir())
    fixed = workloads.Item("curved/solve_bvp_fixed", dict(qT=-0.3, n_steps=10))
    seeded = workloads.Item("curved/solve_bvp", dict(qT=0.025, n_steps=10))
    stalled = "NewtonDivergence: shooting line search stalled"
    assert workloads.unexpected_error(chart, fixed, stalled) == ""
    assert workloads.unexpected_error(chart, fixed, "NonFiniteState: state is not finite")
    assert workloads.unexpected_error(
        chart, fixed, "NewtonDivergence: shooting Newton did not converge in 50 iterations")
    assert workloads.unexpected_error(chart, seeded, stalled)
    outcome = workloads.run_item(chart, fixed)
    assert workloads.unexpected_error(chart, fixed, outcome.error) == "", outcome.error
    optimize = workloads.Optimize(tempfile.gettempdir())
    item = optimize.round_items(1, 0)[0]
    assert workloads.unexpected_error(optimize, item, "exit 1: error: SingularJacobian")


def test_tracer_counts_and_restores():
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracing.SPANS}
    wl = workloads.FreeFlow(tempfile.gettempdir())
    item = workloads.Item("suslov/rk4", dict(y0=(0.9, -0.4), n_steps=50))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.run(item)
    finally:
        tracer.uninstall()
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn, f"{attr} was not restored"
    assert not isinstance(workloads.bvp.np, tracing._NumpyProxy)
    metrics = tracer.metrics(1.0, 1.0, 1.0)
    assert metrics["numerics.rk4_steps"]["value"] == 50
    assert metrics["dynamics.field_calls"]["value"] == 4 * 50
    assert metrics["algebroid.geometry_builds"]["value"] == 1  # one constant cache entry
    self_total = sum(m["value"] for k, m in metrics.items()
                     if k.endswith("_s") and k != "trace.untraced_s")
    spans = tracer.self_times()
    assert abs(self_total - spans.sum()) < 1e-9
    assert dynamics.simulate is originals[(dynamics, "simulate")]


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
