"""The benchmark's workloads: seeded items, how each runs, how each is checked.

A workload builds its context once (models, systems, cost models), then
runs rounds.  A round is a fixed list of item kinds whose inputs are drawn
from ``(seed, round index)``, so every run attempts whole rounds of the
same operations.  Items of one kind have one size (step count).

Calls into nhoc go through module attributes (``dynamics.simulate``,
``bvp.solve_bvp``, ``cli.main``) so that the traced run, which replaces
those attributes, sees them.
"""

import contextlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

from nhoc import algebroid, bvp, cli, dynamics, errors, hamiltonian, models, optimal_control

import verify


@dataclass(frozen=True)
class Item:
    """One unit of timed work: a kind and its seeded parameters."""

    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What a timed call returned, or the nhoc error it raised."""

    value: object = None
    error: str = ""


def rng_for(seed, round_index):
    return np.random.default_rng([int(seed), int(round_index)])


def signed_uniform(rng, low, high):
    """Uniform magnitude in [low, high] with a random sign."""
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(low, high))


# ------------------------------------------------------------------ free_flow

FREE_DT = 0.01
FREE_STEPS = 1000
FREE_ROUND = ("suslov/rk4",) * 3 + ("chaplygin/rk4",) * 3 + ("suslov/symp_euler",
                                                             "chaplygin/symp_euler")
SUSLOV_PARAMS = dict(I11=2.0, I22=3.0, I33=4.0, I13=0.1, I23=0.2)
SLEIGH_PARAMS = dict(m=1.0, J=1.0, a=1.0)


class FreeFlow:
    """Free nonholonomic trajectories on the Suslov body and the sleigh."""

    name = "free_flow"
    round_kinds = FREE_ROUND
    trace_rounds = 8

    def __init__(self, out_dir):
        self.systems = {
            "suslov": algebroid.build_constrained_system(*models.make_suslov(**SUSLOV_PARAMS)),
            "chaplygin": algebroid.build_constrained_system(
                *models.make_chaplygin(b=0.0, **SLEIGH_PARAMS)),
        }
        p = SUSLOV_PARAMS
        self.references = {
            "suslov": verify.SuslovKKT([[p["I11"], 0.0, p["I13"]], [0.0, p["I22"], p["I23"]],
                                        [p["I13"], p["I23"], p["I33"]]]),
            "chaplygin": verify.Sleigh(**SLEIGH_PARAMS),
        }

    def warm_items(self):
        return [Item(kind, dict(y0=(0.8, -0.6), n_steps=10)) for kind in sorted(set(FREE_ROUND))]

    def round_items(self, seed, round_index):
        rng = rng_for(seed, round_index)
        items = []
        for kind in FREE_ROUND:
            if kind.startswith("suslov"):
                y0 = (signed_uniform(rng, 0.5, 1.5), signed_uniform(rng, 0.5, 1.5))
            else:
                y0 = (signed_uniform(rng, 0.5, 1.5), float(rng.uniform(-1.0, 1.0)))
            items.append(Item(kind, dict(y0=y0, n_steps=FREE_STEPS)))
        return items

    def run(self, item):
        model, scheme = item.kind.split("/")
        n = item.params["n_steps"]
        s0 = dynamics.StateQY(q=[], y=item.params["y0"])
        return dynamics.simulate(self.systems[model], s0, n * FREE_DT, FREE_DT, integrator=scheme)

    def check(self, item, traj):
        model, scheme = item.kind.split("/")
        reference = "closed_form" if (model, scheme) == ("chaplygin", "rk4") else "same_scheme"
        return verify.check_free_flow(self.references[model], traj, item.params["y0"], FREE_DT,
                                      item.params["n_steps"], scheme, reference)


# ------------------------------------------------------------------- optimize

OPT_STEPS = 100
OPT_ROUND = (("double_integrator/rk4",) * 3 + ("chaplygin/rk4",) * 3
             + ("double_integrator/symp_euler", "double_integrator/stormer_verlet",
                "chaplygin/symp_euler", "chaplygin/stormer_verlet"))
SLEIGH_T = 1.0


class Optimize:
    """In-process ``nhoc optimize`` calls, each writing its CSV file."""

    name = "optimize"
    round_kinds = OPT_ROUND
    trace_rounds = 3

    def __init__(self, out_dir):
        self.csv_path = os.path.join(out_dir, "optimize.csv")
        self.sleigh = verify.Sleigh(**SLEIGH_PARAMS)
        self.sleigh_params = ",".join(f"{k}={v!r}" for k, v in dict(SLEIGH_PARAMS, b=0.0).items())

    def warm_items(self):
        return [Item(kind, dict(d=1.0, T=1.0, yT=(0.3, 0.2), n_steps=10))
                for kind in sorted(set(OPT_ROUND))]

    def round_items(self, seed, round_index):
        rng = rng_for(seed, round_index)
        items = []
        for kind in OPT_ROUND:
            if kind.startswith("double_integrator"):
                params = dict(d=signed_uniform(rng, 0.5, 2.0), T=float(rng.uniform(1.0, 3.0)))
            else:
                params = dict(T=SLEIGH_T, yT=(signed_uniform(rng, 0.2, 0.4),
                                              signed_uniform(rng, 0.1, 0.3)))
            params["n_steps"] = OPT_STEPS
            items.append(Item(kind, params))
        return items

    def argv(self, item):
        """Command line of the item; values go as --opt=value, since
        argparse would read a leading minus sign as an option."""
        model, scheme = item.kind.split("/")
        p = item.params
        if model == "double_integrator":
            opts = dict(params="n=1", q0="0", qT=repr(p["d"]), y0="0", yT="0")
        else:
            opts = dict(params=self.sleigh_params, y0="0,0",
                        yT=",".join(repr(v) for v in p["yT"]))
        opts.update(T=repr(p["T"]), dt=repr(p["T"] / p["n_steps"]), integrator=scheme,
                    out=self.csv_path)
        return ["optimize", f"--builtin={model}"] + [f"--{k}={v}" for k, v in opts.items()]

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(self.argv(item))
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    def check(self, item, output):
        rc, stdout, _ = output
        model, scheme = item.kind.split("/")
        p = item.params
        if model == "double_integrator":
            return verify.check_di_optimize(rc, stdout, self.csv_path, p["d"], p["T"],
                                            p["n_steps"], scheme)
        return verify.check_sleigh_optimize(rc, stdout, self.csv_path, self.sleigh, p["yT"],
                                            p["T"], p["n_steps"], scheme)

    @staticmethod
    def failed(output):
        """A CLI call fails when it exits non-zero (the CLI turns nhoc
        errors into exit codes)."""
        rc, _, stderr = output
        return f"exit {rc}: {stderr.strip()}" if rc != 0 else ""


# ------------------------------------------------------------ chart_dependent

# The curved dim_q = 1 model of the test suite, defined here without analytic
# partials so that every derivative takes nhoc's finite-difference path.  The
# callables are looked up by name at each call, so the traced run can count
# model evaluations.

def curved_structure(q):
    c = np.zeros((2, 2, 2))
    c[0, 0, 1], c[0, 1, 0] = np.sin(q[0]), -np.sin(q[0])
    return c


CURVED_ANCHOR = np.array([[1.0], [0.5]])


def curved_anchor(q):
    return CURVED_ANCHOR


def curved_metric(q):
    return np.array([[1.0 + q[0] ** 2, 0.2], [0.2, 2.0 + np.sin(q[0]) ** 2]])


def curved_potential(q):
    return 0.25 * q[0] ** 2


def make_curved_model():
    return algebroid.AlgebroidModel(
        dim_q=1, rank_e=2,
        structure=lambda q: curved_structure(q), anchor=lambda q: curved_anchor(q),
        metric=lambda q: curved_metric(q), potential=lambda q: curved_potential(q))


def quartic_cost():
    """C = |u|^2/2 + sum(u^4)/4 with analytic cu and cuu (not quadratic)."""
    return optimal_control.CostModel(
        evaluator=lambda q, y, u: 0.5 * float(u @ u) + 0.25 * float(np.sum(u ** 4)), k=2,
        cu=lambda q, y, u: u + u ** 3, cuu=lambda q, y, u: np.diag(1.0 + 3.0 * u ** 2))


CURVED_SIM_DT = 0.01
CURVED_SIM_STEPS = 100
BVP_T = 1.0
BVP_STEPS = 10
# Seeded curved targets stay where the finite-difference shooting converges
# on every draw (|qT| <= 0.03, three Newton steps).  From about |qT| = 0.04
# the residual is rough at the 1e-10 tolerance and some targets stall, so a
# seeded target there would fail on some seeds only.
CURVED_TARGET = (0.02, 0.03)
# Fixed, seed-independent target that stalls every time: the shooting
# residual built on finite-difference drift Jacobians cannot be driven below
# 1e-10 (with analytic partials the same solve converges in 4 steps).
CURVED_FAILING_TARGET = -0.3
CHART_ROUND = ("curved/simulate",) * 2 + ("curved/solve_bvp",) * 2 + (
    "chaplygin_quartic/solve_bvp",) * 2 + ("curved/solve_bvp_fixed",)


class ChartDependent:
    """Derivative paths: finite differences through chart-dependent geometry
    and through the Legendre inversion of a non-quadratic cost."""

    name = "chart_dependent"
    round_kinds = CHART_ROUND
    trace_rounds = 2
    # the one failure kept on purpose (see CURVED_FAILING_TARGET)
    expected_errors = {"curved/solve_bvp_fixed": "NewtonDivergence: shooting line search stalled"}

    def __init__(self, out_dir):
        self.curved = algebroid.build_constrained_system(
            make_curved_model(), algebroid.ConstraintSpec(span_basis=np.eye(2)))
        self.sleigh = algebroid.build_constrained_system(
            *models.make_chaplygin(b=0.0, **SLEIGH_PARAMS))
        self.quartic = quartic_cost()

    def warm_items(self):
        return [Item("curved/simulate", dict(q0=0.1, y0=(0.3, -0.2), n_steps=5)),
                Item("curved/solve_bvp", dict(qT=0.01, n_steps=2)),
                Item("chaplygin_quartic/solve_bvp", dict(yT=(0.1, 0.1), n_steps=2))]

    def round_items(self, seed, round_index):
        rng = rng_for(seed, round_index)
        items = []
        for kind in CHART_ROUND:
            if kind == "curved/simulate":
                params = dict(q0=float(rng.uniform(-0.5, 0.5)),
                              y0=tuple(float(v) for v in rng.uniform(-1.0, 1.0, 2)),
                              n_steps=CURVED_SIM_STEPS)
            elif kind == "curved/solve_bvp":
                params = dict(qT=signed_uniform(rng, *CURVED_TARGET), n_steps=BVP_STEPS)
            elif kind == "curved/solve_bvp_fixed":
                params = dict(qT=CURVED_FAILING_TARGET, n_steps=BVP_STEPS)
            else:
                params = dict(yT=(signed_uniform(rng, 0.25, 0.35), signed_uniform(rng, 0.1, 0.2)),
                              n_steps=BVP_STEPS)
            items.append(Item(kind, params))
        return items

    def shooting_problem(self, item):
        p = item.params
        if item.kind.startswith("curved"):
            problem = optimal_control.OCProblem(
                system=self.curved, controls=optimal_control.ControlDistribution.full(2),
                cost=optimal_control.quadratic_cost(np.eye(2)), horizon=BVP_T,
                q0=[0.0], y0=[0.0, 0.0], qT=[p["qT"]], yT=[0.0, 0.0])
        else:
            problem = optimal_control.OCProblem(
                system=self.sleigh, controls=optimal_control.ControlDistribution.full(2),
                cost=self.quartic, horizon=BVP_T, y0=[0.0, 0.0], yT=list(p["yT"]))
        return bvp.ShootingProblem(hs=hamiltonian.HamiltonianSystem(problem),
                                   dt=BVP_T / p["n_steps"])

    def run(self, item):
        p = item.params
        if item.kind == "curved/simulate":
            s0 = dynamics.StateQY(q=[p["q0"]], y=p["y0"])
            return dynamics.simulate(self.curved, s0, p["n_steps"] * CURVED_SIM_DT,
                                     CURVED_SIM_DT)
        return bvp.solve_bvp(self.shooting_problem(item))

    def check(self, item, output):
        p = item.params
        if item.kind == "curved/simulate":
            return verify.check_curved_flow(output, p["q0"], np.array(p["y0"]), CURVED_SIM_DT,
                                            p["n_steps"])
        if item.kind.startswith("curved"):
            return verify.check_solved(output, np.zeros(1), np.zeros(2), np.array([p["qT"]]),
                                       np.zeros(2), BVP_T, p["n_steps"])
        return verify.check_quartic_solved(output, np.array(p["yT"]), BVP_T, p["n_steps"])


WORKLOADS = {w.name: w for w in (FreeFlow, Optimize, ChartDependent)}


def unexpected_error(workload, item, error):
    """Why an item's failure is not the one the workload keeps on purpose
    (empty if it is): only a kind listed in ``expected_errors`` may fail, and
    only with the named error."""
    prefix = getattr(workload, "expected_errors", {}).get(item.kind)
    if prefix and error.startswith(prefix):
        return ""
    return f"unexpected failure: {error}"


def run_item(workload, item):
    """Run one item; an nhoc error is the item's failure, anything else is a
    fault of the benchmark and propagates."""
    try:
        value = workload.run(item)
    except errors.NhocError as exc:
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    failed = getattr(workload, "failed", None)
    reason = failed(value) if failed else ""
    return Outcome(value=value, error=reason)
