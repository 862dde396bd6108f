#!/usr/bin/env python3
"""The reachable-sleigh shooting sweep: each solve's outcome and the flows it took.

    python3 tools/shooting_sweep.py [ROOT]

ROOT is the root of a checkout (default: this one); its ``src`` is imported.
The sweep solves the sleigh (m = J = a = 1, b = 0) from y0 = (0.5, 0.2) over
T = 1 to 12 targets reachable by construction: the endpoints of
``simulate`` at dt = 0.01 under the control c0 + c1 sin 2 pi t + c2 cos 2 pi t
on input 0, with the c drawn by ``numpy.random.default_rng(3)``.  Each target
is solved with that one input and with full actuation, under unit weights,
with each scheme, at dt = 1e-2 and 1e-3, without a guess and from the zero
guess: 288 solves.  Every flow is counted where ``solve_bvp`` calls it,
through ``bvp.integrate_hamiltonian``.

It prints JSON: ``solves``; ``iterations``, the Newton iterations of the
solves that converged or raised NewtonDivergence; ``failures``, the number of
solves per error name; ``failures_by_scheme``, the same count per scheme, so
that a failure one scheme meets and the others do not shows in one record;
``flows``, ``failed_flows`` (those that raised) and
``row_steps`` (rows times steps, summed over the flows); and ``outcomes``, per
solve a SHA-256 prefix of its outcome: its iterations and p0 bytes, its
NewtonDivergence's iterations and best p0 bytes, or another error's name and
message.  Two checkouts agree on every solve when their ``outcomes`` match.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

SCHEMES = ("rk4", "symp_euler", "stormer_verlet")
STEPS = (1e-2, 1e-3)
Y0 = (0.5, 0.2)


def cases(target_indices=range(12), steps=STEPS):
    """(label, ShootingProblem, guess) of the sweep's solves on the targets
    of ``target_indices`` at the time steps ``steps``; the label reads
    target/inputs/scheme/dt/guess."""
    from nhoc import (ControlDistribution, HamiltonianSystem, OCProblem, ShootingProblem,
                      StateQY, build_constrained_system, make_chaplygin, quadratic_cost,
                      simulate)
    system = build_constrained_system(*make_chaplygin(m=1.0, J=1.0, a=1.0, b=0.0))
    one = ControlDistribution.on_indices(2, [0])
    draws = np.random.default_rng(3).normal(size=(12, 3))
    for i in target_indices:
        c = draws[i]
        y_target = simulate(system, StateQY(q=[], y=Y0), 1.0, 1e-2, controls=one,
                            u=lambda t: [c[0] + c[1] * np.sin(2 * np.pi * t)
                                         + c[2] * np.cos(2 * np.pi * t)]).ys[-1]
        for inputs, controls in (("one", one), ("full", ControlDistribution.full(2))):
            problem = OCProblem(system=system, controls=controls,
                                cost=quadratic_cost(np.eye(controls.k)), horizon=1.0, y0=Y0,
                                yT=y_target)
            for scheme in SCHEMES:
                for dt in steps:
                    sp = ShootingProblem(hs=HamiltonianSystem(problem), dt=dt, scheme=scheme)
                    for guess in ("none", "zero"):
                        yield (f"{i}/{inputs}/{scheme}/{dt:g}/{guess}", sp,
                               None if guess == "none" else np.zeros(2))


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else f"{part};".encode())
    return h.hexdigest()[:16]


def sweep(solves):
    """The JSON record (see the module docstring) of the ``solves``, triples
    as ``cases`` yields them."""
    from nhoc import bvp, solve_bvp
    from nhoc.errors import NewtonDivergence, NhocError
    record = dict(solves=0, iterations=0, failures={}, failures_by_scheme={}, flows=0,
                  failed_flows=0, row_steps=0, outcomes={})
    flow = bvp.integrate_hamiltonian

    def counting(hs, phase0, t_final, dt, scheme):
        rows = 1 if phase0.p_y.ndim == 1 else len(phase0.p_y)
        record["flows"] += 1
        record["row_steps"] += rows * round(t_final / dt)
        try:
            return flow(hs, phase0, t_final, dt, scheme)
        except NhocError:
            record["failed_flows"] += 1
            raise

    bvp.integrate_hamiltonian = counting
    try:
        for label, sp, guess in solves:
            record["solves"] += 1
            by_scheme = record["failures_by_scheme"].setdefault(sp.scheme, {})
            try:
                result = solve_bvp(sp, guess)
            except NhocError as exc:
                name = type(exc).__name__
                for tally in (record["failures"], by_scheme):
                    tally[name] = tally.get(name, 0) + 1
                if isinstance(exc, NewtonDivergence):
                    outcome = _digest(name, exc.iterations, exc.best.tobytes())
                    record["iterations"] += exc.iterations
                else:
                    outcome = _digest(name, str(exc))
            else:
                outcome = _digest("converged", result.iterations, result.p0.tobytes())
                record["iterations"] += result.iterations
            record["outcomes"][label] = outcome
    finally:
        bvp.integrate_hamiltonian = flow
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, nargs="?", default=Path(__file__).resolve().parents[1],
                        help="root of a checkout")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    print(json.dumps(sweep(cases()), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
