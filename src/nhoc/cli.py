"""Command-line front-end: simulate, optimize, check and derive.

Exit codes: 0 success, 1 invariant-check failure, 2 configuration or parse
error (an unwritable --out included), 3 numerical failure, 4 shooting
non-convergence (best iterate is still written).
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .algebroid import ConstrainedSystem
# extremal_trajectory is not called here; perfbench/tracing.py patches it under this name
from .bvp import ShootingProblem, extremal_trajectory, solve_bvp  # noqa: F401
from .checks import run_all
from .dynamics import INTEGRATORS, StateQY, simulate
from .errors import (DimensionMismatch, NewtonDivergence, NhocError, NotPositiveDefinite,
                     ParseError, RankDeficient, ValidationError)
from .hamiltonian import SCHEMES, HamiltonianSystem, regularity_matrix
from .models import BUILTIN_CONSTRUCTORS, load_model_config, make_builtin
from .optimal_control import (ControlDistribution, ExtremalState, OCProblem,
                              quadratic_cost)

CONFIG_ERRORS = (ParseError, ValidationError, DimensionMismatch,
                 NotPositiveDefinite, RankDeficient)


def vector_flag(args, name, length, fill=None):
    """The comma-separated vector of the flag ``--name``, which must hold
    ``length`` finite numbers; an empty flag is ``length`` copies of
    ``fill``, unless ``fill`` is None.  Raises ValidationError otherwise."""
    text = getattr(args, name)
    if not text and fill is not None:
        return np.full(length, fill)
    try:
        vec = np.array([float(part) for part in text.split(",")] if text else [], dtype=float)
    except ValueError:
        raise ValidationError(f"could not parse vector {text!r}") from None
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"vector {text!r} has non-finite entries")
    if vec.shape != (length,):
        raise ValidationError(f"--{name} must have length {length}")
    return vec


def parse_params(text):
    params = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise ValidationError(f"bad --params item {item!r}, expected key=value")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise ValidationError(f"bad numeric value in --params item {item!r}") from None
        if not np.isfinite(params[key.strip()]):
            raise ValidationError(f"non-finite value in --params item {item!r}")
    return params


def load_model(args):
    if args.config is not None:
        return load_model_config(args.config)
    return make_builtin(args.builtin, **parse_params(args.params))


def write_trajectory_csv(path, traj):
    """Delimited output: t, q_*, y_*, pq_*, py_*, u_*, energy, hamiltonian.

    Blocks that are absent from the trajectory are omitted entirely; values
    carry 17 significant digits so parsing recovers them exactly.  A path
    that cannot be written raises ValidationError.
    """
    named = [(name, arr) for name, arr in (
        ("t", traj.times), ("q", traj.qs), ("y", traj.ys), ("pq", traj.p_qs), ("py", traj.p_ys),
        ("u", traj.controls), ("energy", traj.energies), ("hamiltonian", traj.hamiltonians))
        if arr is not None]
    header = [name if arr.ndim == 1 else f"{name}_{i}"
              for name, arr in named for i in range(1 if arr.ndim == 1 else arr.shape[1])]
    data = np.column_stack([arr for _, arr in named])
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None
    # one "%.17g" format per row, over blocks of rows as Python floats
    row_format = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(data), 4096):
            fh.writelines(row_format % tuple(row) for row in data[start:start + 4096].tolist())


def check_out_path(path):
    """Raise the ValidationError of ``write_trajectory_csv`` before any flow
    or solve runs, when ``path`` cannot be a file: its directory is missing
    or not a directory, or the path is itself a directory.  Creates nothing."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        reason = "Not a directory" if os.path.exists(parent) else "No such file or directory"
    elif os.path.isdir(path):
        reason = "Is a directory"
    else:
        return
    raise ValidationError(f"cannot write {path}: {reason}")


def cmd_simulate(args):
    model, spec = load_model(args)
    system = ConstrainedSystem(model, spec)
    y0 = vector_flag(args, "y0", system.rank_d)
    q0 = vector_flag(args, "q0", model.dim_q, 0.0)
    check_out_path(args.out)
    traj = simulate(system, StateQY(q=q0, y=y0), args.T, args.dt, integrator=args.integrator)
    write_trajectory_csv(args.out, traj)
    drift = float(np.abs(traj.energies - traj.energies[0]).max())
    rel = drift / max(1.0, abs(float(traj.energies[0])))
    print(f"wrote {len(traj)} samples to {args.out}")
    print(f"energy drift: max abs {drift:.6e}, relative {rel:.6e}")
    return 0


def cmd_optimize(args):
    model, spec = load_model(args)
    system = ConstrainedSystem(model, spec)
    y0, yT = (vector_flag(args, name, system.rank_d) for name in ("y0", "yT"))
    q0, qT = (vector_flag(args, name, model.dim_q, 0.0) for name in ("q0", "qT"))
    weights = vector_flag(args, "weights", system.rank_d, 1.0)
    if (weights < 0).any():
        # an indefinite W makes the Legendre map's u a saddle of H, not its maximum
        raise ValidationError(f"--weights {args.weights!r} must be non-negative")

    controls = ControlDistribution.full(system.rank_d)
    problem = OCProblem(system=system, controls=controls, cost=quadratic_cost(np.diag(weights)),
                        horizon=args.T, q0=q0, y0=y0, qT=qT, yT=yT)
    # every configuration error (exit 2) comes before the regularity check (exit 3)
    sp = ShootingProblem(hs=HamiltonianSystem(problem), dt=args.dt, scheme=args.integrator,
                         tolerance=args.newton_tol, max_iterations=args.max_iterations)
    guess = vector_flag(args, "guess", sp.n_momenta) if args.guess else None
    regularity_matrix(problem, ExtremalState(q=q0, y=y0, v=np.zeros(system.rank_d)))

    check_out_path(args.out)
    divergence = None
    try:
        result = solve_bvp(sp, guess)
    except NewtonDivergence as exc:
        result, divergence = exc.result, exc
    traj = result.trajectory
    write_trajectory_csv(args.out, traj)
    max_dh = float(np.abs(traj.hamiltonians - traj.hamiltonians[0]).max())
    print(f"wrote {len(traj)} samples to {args.out}")
    print("p0: " + ",".join(["%.17g"] * len(result.p0)) % tuple(result.p0))
    print(f"cost: {result.cost:.12g}")
    print(f"iterations: {result.iterations}")
    print(f"residual: {result.residual_norm:.6e}")
    print(f"max |dH|: {max_dh:.6e}")
    if divergence is None:
        return 0
    print(f"error: NewtonDivergence: {divergence}", file=sys.stderr)
    return 4


def cmd_check(args):
    model, spec = load_model(args)
    results = run_all(model, spec)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {r.value:12.4e} < {r.threshold:8.1e}  {status}")
        failures += 0 if r.passed else 1
    if failures:
        print(f"{failures} check(s) FAILED")
        return 1
    print("all checks passed")
    return 0


def cmd_derive(args):
    model, spec = load_model(args)
    system = ConstrainedSystem(model, spec)
    q = vector_flag(args, "q", model.dim_q, 0.0)
    geo = system.geometry(q)
    doc = {
        "q": q.tolist(),
        "structure_constants": geo["structure_d"].tolist(),
        "restricted_metric": geo["metric_d"].tolist(),
        "restricted_metric_inverse": geo["metric_d_inv"].tolist(),
        "christoffel": geo["gamma"].tolist(),
    }
    print(json.dumps(doc, indent=2))
    return 0


def add_model_arguments(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=BUILTIN_CONSTRUCTORS, help="built-in model name")
    group.add_argument("--config", help="path to a model config JSON document")
    parser.add_argument("--params", default="",
                        help="builtin parameters as key=value pairs, comma separated")


@functools.cache
def build_parser():
    """The parser of ``main``, built once per process."""
    parser = argparse.ArgumentParser(
        prog="nhoc",
        description="nonholonomic mechanics and optimal control on constrained bundles")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate the free nonholonomic flow")
    add_model_arguments(p_sim)
    p_sim.add_argument("--q0", default="", help="initial chart point (comma separated)")
    p_sim.add_argument("--y0", required=True, help="initial fiber velocity (comma separated)")
    p_sim.add_argument("--T", type=float, required=True, help="final time")
    p_sim.add_argument("--dt", type=float, required=True, help="fixed step size")
    p_sim.add_argument("--integrator", choices=INTEGRATORS, default=INTEGRATORS[0])
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_opt = sub.add_parser("optimize", help="solve the optimal-control boundary problem")
    add_model_arguments(p_opt)
    p_opt.add_argument("--q0", default="", help="initial chart point")
    p_opt.add_argument("--qT", default="", help="terminal chart point")
    p_opt.add_argument("--y0", required=True, help="initial fiber velocity")
    p_opt.add_argument("--yT", required=True, help="terminal fiber velocity")
    p_opt.add_argument("--T", type=float, required=True, help="horizon")
    # the defaults are ShootingProblem's: a dataclass field's default is its class attribute
    p_opt.add_argument("--dt", type=float, default=ShootingProblem.dt, help="integration step")
    p_opt.add_argument("--integrator", choices=SCHEMES, default=ShootingProblem.scheme)
    p_opt.add_argument("--weights", default="",
                       help="diagonal cost weights: a negative one is rejected, "
                            "a zero one leaves the cost singular")
    p_opt.add_argument("--guess", default="",
                       help="initial momenta guess, whose full-horizon flow is judged first and "
                            "seeds the segments; without it they start from the boundary data")
    p_opt.add_argument("--newton-tol", type=float, default=ShootingProblem.tolerance,
                       dest="newton_tol")
    p_opt.add_argument("--max-iterations", type=int, default=ShootingProblem.max_iterations,
                       dest="max_iterations")
    p_opt.add_argument("--out", required=True, help="output CSV path")
    p_opt.set_defaults(func=cmd_optimize)

    p_chk = sub.add_parser("check", help="run the invariant suite on a model")
    add_model_arguments(p_chk)
    p_chk.set_defaults(func=cmd_check)

    p_der = sub.add_parser("derive", help="print derived geometric data as JSON")
    add_model_arguments(p_der)
    p_der.add_argument("--q", default="", help="chart point (comma separated)")
    p_der.set_defaults(func=cmd_derive)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NhocError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
