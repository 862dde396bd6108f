"""Traced runs: spans around the public functions of each nhoc module.

Each wrapped function is replaced at the name its caller looks up (for
example ``nhoc.dynamics.rk4_step``, which ``simulate`` calls, and
``nhoc.hamiltonian.rk4_step``, which ``integrate_step`` calls).  A span is
(name, start, end, parent); spans are kept in flat arrays in memory and
written out when the run ends.  A span's self time is its duration minus
the durations of its child spans, and each wrapped function's self time
belongs to exactly one per-layer ``*_s`` metric.
"""

import functools
import os
import time
from array import array
from collections import Counter

import numpy as np

from nhoc import algebroid, bvp, cli, dynamics, hamiltonian, numerics, optimal_control

import workloads

# (owner, attribute, span name, layer metric that receives its self time)
SPANS = [
    (dynamics, "simulate", "dynamics.simulate", "dynamics.simulate_s"),
    (dynamics, "nonholonomic_field", "dynamics.nonholonomic_field", "dynamics.field_s"),
    (dynamics, "drift_acceleration", "dynamics.drift_acceleration", "dynamics.drift_s"),
    (hamiltonian, "drift_acceleration", "dynamics.drift_acceleration", "dynamics.drift_s"),
    (optimal_control, "drift_acceleration", "dynamics.drift_acceleration", "dynamics.drift_s"),
    (dynamics, "rk4_step", "numerics.rk4_step", "numerics.rk4_s"),
    (hamiltonian, "rk4_step", "numerics.rk4_step", "numerics.rk4_s"),
    (optimal_control, "rk4_step", "numerics.rk4_step", "numerics.rk4_s"),
    (numerics, "fd_partials", "numerics.fd_partials", "numerics.fd_s"),
    (hamiltonian, "fd_jacobian", "numerics.fd_jacobian", "numerics.fd_s"),
    (optimal_control, "fd_jacobian", "numerics.fd_jacobian", "numerics.fd_s"),
    (algebroid.ConstrainedSystem, "geometry", "algebroid.geometry", "algebroid.geometry_s"),
    (algebroid, "restrict_metric", "algebroid.restrict_metric", "algebroid.geometry_s"),
    (algebroid.ConstrainedSystem, "gamma", "algebroid.gamma", "algebroid.gamma_s"),
    (hamiltonian, "drift_jacobians", "optimal_control.drift_jacobians",
     "optimal_control.drift_jacobian_s"),
    (optimal_control, "drift_jacobians", "optimal_control.drift_jacobians",
     "optimal_control.drift_jacobian_s"),
    (optimal_control.CostModel, "value", "optimal_control.cost_value", "optimal_control.cost_s"),
    (optimal_control.CostModel, "du", "optimal_control.cost_du", "optimal_control.cost_s"),
    (optimal_control.CostModel, "d2uu", "optimal_control.cost_d2uu", "optimal_control.cost_s"),
    (hamiltonian.HamiltonianSystem, "partials", "hamiltonian.partials", "hamiltonian.partials_s"),
    (hamiltonian, "inverse_legendre", "hamiltonian.inverse_legendre", "hamiltonian.legendre_s"),
    (bvp, "inverse_legendre", "hamiltonian.inverse_legendre", "hamiltonian.legendre_s"),
    (hamiltonian, "integrate_step", "hamiltonian.integrate_step", "hamiltonian.step_s"),
    (bvp, "integrate_hamiltonian", "hamiltonian.integrate_hamiltonian", "hamiltonian.flow_s"),
    (bvp, "solve_bvp", "bvp.solve_bvp", "bvp.newton_s"),
    (cli, "solve_bvp", "bvp.solve_bvp", "bvp.newton_s"),
    (bvp, "shooting_residual", "bvp.shooting_residual", "bvp.residual_s"),
    (bvp, "extremal_trajectory", "bvp.extremal_trajectory", "bvp.extremal_s"),
    (cli, "extremal_trajectory", "bvp.extremal_trajectory", "bvp.extremal_s"),
    (cli, "main", "cli.main", "cli.main_s"),
    (cli, "write_trajectory_csv", "cli.write_trajectory_csv", "cli.csv_s"),
]

# callables of the benchmark-defined model: counted, no span
MODEL_CALLABLES = ["curved_structure", "curved_anchor", "curved_metric", "curved_potential"]

# per-layer metrics: name -> unit, better direction
LAYER_METRICS = {
    "algebroid.geometry_lookups": ("count", "lower"),
    "algebroid.geometry_builds": ("count", "lower"),
    "algebroid.geometry_hit_ratio": ("ratio", "higher"),
    "algebroid.geometry_s": ("s", "lower"),
    "algebroid.gamma_s": ("s", "lower"),
    "algebroid.model_evals": ("count", "lower"),
    "dynamics.field_calls": ("count", "lower"),
    "dynamics.field_s": ("s", "lower"),
    "dynamics.drift_calls": ("count", "lower"),
    "dynamics.drift_s": ("s", "lower"),
    "dynamics.simulate_s": ("s", "lower"),
    "numerics.rk4_steps": ("count", "lower"),
    "numerics.rk4_s": ("s", "lower"),
    "numerics.fd_calls": ("count", "lower"),
    "numerics.fd_s": ("s", "lower"),
    "optimal_control.drift_jacobian_calls": ("count", "lower"),
    "optimal_control.drift_jacobian_s": ("s", "lower"),
    "optimal_control.cost_evals": ("count", "lower"),
    "optimal_control.cost_s": ("s", "lower"),
    "hamiltonian.partials_calls": ("count", "lower"),
    "hamiltonian.partials_s": ("s", "lower"),
    "hamiltonian.legendre_calls": ("count", "lower"),
    "hamiltonian.legendre_s": ("s", "lower"),
    "hamiltonian.step_calls": ("count", "lower"),
    "hamiltonian.step_s": ("s", "lower"),
    "hamiltonian.partials_per_step": ("ratio", "lower"),
    "hamiltonian.flow_s": ("s", "lower"),
    "bvp.residual_calls": ("count", "lower"),
    "bvp.residual_s": ("s", "lower"),
    "bvp.newton_iterations": ("count", "lower"),
    "bvp.residuals_per_iteration": ("ratio", "lower"),
    "bvp.newton_s": ("s", "lower"),
    "bvp.extremal_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.csv_s": ("s", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}

# span name -> count metric
CALL_COUNTS = {
    "algebroid.geometry": "algebroid.geometry_lookups",
    "algebroid.restrict_metric": "algebroid.geometry_builds",
    "dynamics.nonholonomic_field": "dynamics.field_calls",
    "dynamics.drift_acceleration": "dynamics.drift_calls",
    "numerics.rk4_step": "numerics.rk4_steps",
    "numerics.fd_partials": "numerics.fd_calls",
    "numerics.fd_jacobian": "numerics.fd_calls",
    "optimal_control.drift_jacobians": "optimal_control.drift_jacobian_calls",
    "optimal_control.cost_value": "optimal_control.cost_evals",
    "optimal_control.cost_du": "optimal_control.cost_evals",
    "optimal_control.cost_d2uu": "optimal_control.cost_evals",
    "hamiltonian.partials": "hamiltonian.partials_calls",
    "hamiltonian.inverse_legendre": "hamiltonian.legendre_calls",
    "hamiltonian.integrate_step": "hamiltonian.step_calls",
    "bvp.shooting_residual": "bvp.residual_calls",
}


class _LinalgProxy:
    """``np.linalg`` as seen from nhoc.bvp: ``solve`` is the Newton step of
    ``solve_bvp`` (its only linear solve), so each call is one iteration."""

    def __init__(self, on_solve):
        self._on_solve = on_solve

    def solve(self, a, b):
        self._on_solve()
        return np.linalg.solve(a, b)

    def __getattr__(self, name):
        return getattr(np.linalg, name)


class _NumpyProxy:
    def __init__(self, on_solve):
        self.linalg = _LinalgProxy(on_solve)

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    """Installs the wrappers, records spans and counts, derives metrics."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.csv_bytes = 0
        self._patches = []

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name):
        nid = self._nid(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for owner, attr, name, _ in SPANS:
            self._patch(owner, attr, self._span_wrapper(owner.__dict__[attr], name))
        for attr in MODEL_CALLABLES:
            self._patch(workloads, attr,
                        self._count_wrapper(workloads.__dict__[attr], "algebroid.model_evals"))

        def on_solve():
            self.counts["bvp.newton_iterations"] += 1

        self._patch(bvp, "np", _NumpyProxy(on_solve))
        csv_writer = cli.__dict__["write_trajectory_csv"]

        def count_bytes(path, traj):
            csv_writer(path, traj)
            self.csv_bytes += os.path.getsize(path)

        # the size lookup runs outside the csv span, in cli.main's self time
        self._patch(cli, "write_trajectory_csv", count_bytes)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self):
        """Self time of every span, as a numpy array aligned with the spans."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child_sum = np.zeros(len(dur) + 1)
        np.add.at(child_sum, parent, dur)  # index -1 collects root spans
        return dur - child_sum[:len(dur)]

    def metrics(self, untraced_ips, traced_ips, untraced_s):
        names = np.array(self.names)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        self_t = self.self_times()
        calls = np.bincount(ids, minlength=len(names))
        self_by_name = np.bincount(ids, weights=self_t, minlength=len(names))
        values = {name: 0.0 for name in LAYER_METRICS}
        layer_of = {span: layer for _, _, span, layer in SPANS}
        for i, name in enumerate(names):
            values[layer_of[name]] += float(self_by_name[i])
            if name in CALL_COUNTS:
                values[CALL_COUNTS[name]] += int(calls[i])
        for key in ("algebroid.model_evals", "bvp.newton_iterations"):
            values[key] = int(self.counts[key])
        values["cli.csv_bytes"] = int(self.csv_bytes)
        for key in CALL_COUNTS.values():
            values[key] = int(values[key])

        def ratio(num, den):
            return values[num] / values[den] if values[den] else 0.0

        values["algebroid.geometry_hit_ratio"] = (
            1.0 - ratio("algebroid.geometry_builds", "algebroid.geometry_lookups")
            if values["algebroid.geometry_lookups"] else 0.0)
        values["hamiltonian.partials_per_step"] = ratio("hamiltonian.partials_calls",
                                                        "hamiltonian.step_calls")
        values["bvp.residuals_per_iteration"] = ratio("bvp.residual_calls",
                                                      "bvp.newton_iterations")
        values["trace.untraced_s"] = untraced_s
        values["trace.overhead_ratio"] = traced_ips / untraced_ips
        return {k: {"value": values[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=float),
                            end=np.frombuffer(self.end, dtype=float))
