"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import numpy as np
import pytest

from nhoc import (ControlDistribution, ExtremalState, HamiltonianSystem, OCProblem,
                  PhasePoint, ShootingProblem, StateQY, build_constrained_system,
                  dalembert_oracle_field, integrate_extremal,
                  integrate_hamiltonian, legendre_map, make_chaplygin,
                  make_double_integrator, make_suslov, nonholonomic_field,
                  quadratic_cost, simulate, solve_bvp, symplecticity_defect)
from nhoc.cli import main
from nhoc.dynamics import drift_acceleration

SUSLOV = dict(I11=2.0, I22=3.0, I33=4.0, I13=0.1, I23=0.2)
CHAPLYGIN = dict(m=1.0, J=1.0, a=1.0, b=0.0)


def report(number, description, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[C{number:02d}] {status} {description} ({detail})")
    assert passed, f"criterion {number}: {description} ({detail})"


def oc_problem(system, horizon=1.0, **boundary):
    return OCProblem(system=system, controls=ControlDistribution.full(system.rank_d),
                     cost=quadratic_cost(np.eye(system.rank_d)), horizon=horizon,
                     **boundary)


def one_input_problem(system, horizon=1.0, **boundary):
    """Only the first fiber velocity is actuated."""
    return OCProblem(system=system, controls=ControlDistribution.on_indices(2, [0]),
                     cost=quadratic_cost(np.eye(1)), horizon=horizon, **boundary)


def resimulate(system, problem, traj, q0, y0):
    """Terminal gap of the free-plus-control flow driven by the trajectory's
    controls, linearly interpolated, against the trajectory's own end."""
    k = traj.controls.shape[1]

    def u_interp(t):
        return np.array([np.interp(t, traj.times, traj.controls[:, i]) for i in range(k)])

    out = simulate(system, StateQY(q=q0, y=y0), traj.times[-1], 1e-3,
                   controls=problem.controls, u=u_interp)
    return float(np.abs(out.ys[-1] - traj.ys[-1]).max())


@pytest.fixture(scope="module")
def systems():
    out = {}
    for name, (maker, params) in {
        "suslov": (make_suslov, SUSLOV),
        "chaplygin": (make_chaplygin, CHAPLYGIN),
    }.items():
        model, spec = maker(**params)
        out[name] = (model, spec, build_constrained_system(model, spec))
    model, spec = make_double_integrator(1)
    out["double_integrator"] = (model, spec, build_constrained_system(model, spec))
    return out


@pytest.fixture(scope="module")
def double_integrator_extremal(systems):
    _, _, system = systems["double_integrator"]
    problem = oc_problem(system, q0=[0.0], y0=[0.0], qT=[1.0], yT=[0.0])
    sp = ShootingProblem(hs=HamiltonianSystem(problem), dt=1e-4, scheme="rk4")
    return sp, solve_bvp(sp, np.zeros(2))


def test_criterion_01_structure_constants():
    rng = np.random.default_rng(101)
    worst = 0.0
    produced = 0
    while produced < 20:
        if produced % 2 == 0:
            vals = dict(I11=rng.uniform(0.5, 3), I22=rng.uniform(0.5, 3),
                        I33=rng.uniform(1.0, 4), I13=rng.uniform(-0.5, 0.5),
                        I23=rng.uniform(-0.5, 0.5))
            try:
                model, spec = make_suslov(**vals)
            except Exception:
                continue
            system = build_constrained_system(model, spec)
            cd = system.structure_d()
            worst = max(worst, abs(cd[0, 0, 1] - vals["I13"] / vals["I11"]),
                        abs(cd[1, 0, 1] - vals["I23"] / vals["I22"]))
        else:
            m, J = rng.uniform(0.5, 2), rng.uniform(0.5, 2)
            a, b = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            model, spec = make_chaplygin(m, J, a, b)
            system = build_constrained_system(model, spec)
            cd = system.structure_d()
            denom = J + m * a * a
            worst = max(worst, abs(cd[0, 0, 1] - m * a / denom),
                        abs(cd[1, 0, 1] - m * a * b / denom))
        produced += 1
    report(1, "structure-constant reproduction on 20 random parameter sets",
           worst < 1e-12, f"max error {worst:.2e}")


def test_criterion_02_oracle_equivalence(systems):
    rng = np.random.default_rng(202)
    worst = 0.0
    for name in ("suslov", "chaplygin"):
        model, spec, system = systems[name]
        d = spec.d_basis()
        for _ in range(100):
            y = rng.uniform(-1, 1, system.rank_d)
            _, ydot = nonholonomic_field(system, StateQY(q=[], y=y))
            oracle = dalembert_oracle_field(model, spec, d.T @ y)
            worst = max(worst, float(np.abs(ydot - oracle).max()))
    worst_classical = 0.0
    for _ in range(50):
        m, J, a = rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(0.2, 2)
        model, spec = make_chaplygin(m, J, a, 0.0)
        system = build_constrained_system(model, spec)
        y = rng.uniform(-2, 2, 2)
        _, ydot = nonholonomic_field(system, StateQY(q=[], y=y))
        worst_classical = max(worst_classical,
                              abs(ydot[0] + (m * a / (J + m * a * a)) * y[0] * y[1]),
                              abs(ydot[1] - a * y[0] ** 2))
    report(2, "Lagrange-d'Alembert oracle equivalence and classical sleigh limit",
           worst < 1e-10 and worst_classical < 1e-12,
           f"max oracle gap {worst:.2e}, classical gap {worst_classical:.2e}")


def test_criterion_03_energy_conservation(systems):
    worst = 0.0
    for name, y0 in (("suslov", [1.0, 1.0]), ("chaplygin", [1.0, 0.0])):
        _, _, system = systems[name]
        traj = simulate(system, StateQY(q=[], y=y0), 10.0, 1e-3, integrator="rk4")
        drift = float(np.abs(traj.energies - traj.energies[0]).max())
        worst = max(worst, drift / max(1.0, abs(float(traj.energies[0]))))
    report(3, "energy conservation of free flows (T=10, dt=1e-3, RK4)",
           worst < 1e-8, f"max relative drift {worst:.2e}")


def test_criterion_04_lagrangian_hamiltonian_equivalence(systems):
    cases = {
        "double_integrator": ExtremalState(q=[0.2], y=[0.1], v=[0.3], lam=[0.4]),
        "suslov": ExtremalState(y=[0.4, 0.3], v=[0.1, -0.2]),
        "chaplygin": ExtremalState(y=[0.3, 0.2], v=[0.05, -0.1]),
    }
    dt, horizon = 1e-4, 1.0
    worst = 0.0
    for name, state0 in cases.items():
        _, _, system = systems[name]
        problem = oc_problem(system)
        _, states = integrate_extremal(problem, state0, horizon, dt)
        hs = HamiltonianSystem(problem)
        _, phases = integrate_hamiltonian(hs, legendre_map(problem, state0),
                                          horizon, dt, "rk4")
        terminal = legendre_map(problem, states[-1]).flat()
        worst = max(worst, float(np.abs(terminal - phases[-1]).max()))
    report(4, "Lagrangian and Hamiltonian extremals agree through the Legendre map",
           worst < 1e-12, f"max terminal mismatch {worst:.2e}")


def test_criterion_05_symplecticity(systems):
    worst_defect = 0.0
    for name in ("suslov", "chaplygin", "double_integrator"):
        _, _, system = systems[name]
        hs = HamiltonianSystem(oc_problem(system))
        n, m = system.dim_q, system.rank_d
        phase = PhasePoint(q=np.zeros(n), y=np.full(m, 0.3),
                           p_q=np.full(n, 0.1), p_y=np.full(m, 0.2))
        for scheme in ("stormer_verlet", "symp_euler"):
            for dt in (0.1, 0.01):
                worst_defect = max(worst_defect,
                                   symplecticity_defect(hs, phase, dt, scheme))
    drift_phases = {
        "suslov": PhasePoint(q=[], y=[0.4, 0.3], p_q=[], p_y=[0.1, -0.05]),
        "chaplygin": PhasePoint(q=[], y=[0.1, 0.05], p_q=[], p_y=[0.01, -0.005]),
        "double_integrator": PhasePoint(q=[0.0], y=[0.1], p_q=[0.3], p_y=[0.2]),
    }
    worst_slope = 0.0
    for name, phase in drift_phases.items():
        _, _, system = systems[name]
        hs = HamiltonianSystem(oc_problem(system))
        times, phases = integrate_hamiltonian(hs, phase, 20.0, 1e-2, "stormer_verlet")
        values = np.array([hs.value(hs.unflatten(z)) for z in phases])
        slope = abs(np.polyfit(times, np.abs(values - values[0]), 1)[0])
        worst_slope = max(worst_slope, slope)
    report(5, "symplecticity defects < 1e-6 and no secular Verlet energy drift",
           worst_defect < 1e-6 and worst_slope < 1e-6,
           f"max defect {worst_defect:.2e}, max |dH| slope {worst_slope:.2e}/time")


def test_criterion_06_analytic_bvp_fixture(double_integrator_extremal):
    sp, result = double_integrator_extremal
    ts = result.trajectory.times
    q_err = np.abs(result.trajectory.qs[:, 0] - (3 * ts ** 2 - 2 * ts ** 3)).max()
    y_err = np.abs(result.trajectory.ys[:, 0] - (6 * ts - 6 * ts ** 2)).max()
    cost_err = abs(result.cost - 6.0)
    report(6, "double-integrator shooting reaches the cubic extremal from zero guess",
           max(q_err, y_err) < 1e-8 and cost_err < 1e-6,
           f"state error {max(q_err, y_err):.2e}, |cost-6| {cost_err:.2e}, "
           f"iterations {result.iterations}")


def test_criterion_07_control_recovery_roundtrip(systems, double_integrator_extremal):
    worst = 0.0
    # solved double-integrator extremal
    _, result = double_integrator_extremal
    _, _, dbl_system = systems["double_integrator"]
    dbl_problem = oc_problem(dbl_system, q0=[0.0], y0=[0.0], qT=[1.0], yT=[0.0])
    traj = result.trajectory
    worst = max(worst, resimulate(dbl_system, dbl_problem, traj, [0.0], [0.0]))
    # solved Chaplygin extremal with nonzero controls
    _, _, chap_system = systems["chaplygin"]
    chap_problem = oc_problem(chap_system, y0=[0.5, 0.2], yT=[0.4, 0.3])
    chap_result = solve_bvp(ShootingProblem(hs=HamiltonianSystem(chap_problem),
                                            dt=1e-3, scheme="rk4"), np.zeros(2))
    worst = max(worst, resimulate(chap_system, chap_problem, chap_result.trajectory,
                                  np.zeros(0), [0.5, 0.2]))
    report(7, "re-simulating with recovered controls reproduces y(T)",
           worst < 1e-5, f"max terminal gap {worst:.2e}")


def test_criterion_08_underactuated_consistency(systems):
    worst_flow, worst_phi = 0.0, 0.0
    dt = 1e-4
    ics = {"chaplygin": ExtremalState(y=[0.4, 0.1], v=[0.05], lam_bar=[0.02]),
           "suslov": ExtremalState(y=[0.5, 0.3], v=[0.1], lam_bar=[-0.05])}
    for name, state0 in ics.items():
        _, _, system = systems[name]
        problem = one_input_problem(system)
        _, states = integrate_extremal(problem, state0, 1.0, dt)
        _, phases = integrate_hamiltonian(HamiltonianSystem(problem),
                                          legendre_map(problem, state0), 1.0, dt, "rk4")
        ys = np.array([s.y for s in states])
        ydot_fd = (ys[2:] - ys[:-2]) / (2 * dt)
        for k in range(1, len(states) - 1, 200):
            drift = drift_acceleration(system, states[k].q, states[k].y)
            worst_phi = max(worst_phi, abs(ydot_fd[k - 1][1] + drift[1]))
        for k in list(range(0, len(states), 200)) + [len(states) - 1]:
            worst_flow = max(worst_flow, float(np.abs(
                legendre_map(problem, states[k]).flat() - phases[k]).max()))
    report(8, "one-input extremals: Hamiltonian flow equals the Lagrangian flow "
           "through the Legendre map, and the drift constraint holds",
           worst_flow < 1e-12 and worst_phi < 1e-8,
           f"max flow gap {worst_flow:.2e}, max |Phi| {worst_phi:.2e}")


def test_criterion_09_zero_extremal(systems):
    worst_cost, worst_u = 0.0, 0.0
    for name, y0 in (("suslov", [0.8, 0.5]), ("chaplygin", [1.0, 0.0])):
        _, _, system = systems[name]
        free = simulate(system, StateQY(q=[], y=y0), 0.5, 1e-3, integrator="rk4")
        problem = oc_problem(system, horizon=0.5, y0=y0, yT=free.ys[-1])
        result = solve_bvp(ShootingProblem(hs=HamiltonianSystem(problem),
                                           dt=1e-3, scheme="rk4"), np.zeros(2))
        worst_cost = max(worst_cost, result.cost)
        worst_u = max(worst_u, float(np.abs(result.trajectory.controls).max()))
    report(9, "boundary data on the free flow yields the zero extremal",
           worst_cost < 1e-10 and worst_u < 1e-5,
           f"max cost {worst_cost:.2e}, max |u| {worst_u:.2e}")


def test_criterion_10_cli_contract(tmp_path):
    check_args = {
        "suslov": "I11=2,I22=3,I33=4,I13=0.1,I23=0.2",
        "chaplygin": "m=1,J=1,a=1,b=0",
        "double_integrator": "n=1",
    }
    codes = {name: main(["check", "--builtin", name, "--params", params])
             for name, params in check_args.items()}
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    sim = ["simulate", "--builtin", "chaplygin", "--params", "m=1,J=1,a=1,b=0",
           "--y0", "1,0", "--T", "1", "--dt", "0.001"]
    code_a = main(sim + ["--out", str(out_a)])
    code_b = main(sim + ["--out", str(out_b)])
    deterministic = out_a.read_bytes() == out_b.read_bytes()
    ok = all(c == 0 for c in codes.values()) and code_a == 0 and code_b == 0 \
        and deterministic
    report(10, "CLI check passes on built-ins; simulate output byte-deterministic",
           ok, f"check exit codes {codes}, deterministic={deterministic}")


def test_criterion_11_underactuated_shooting(systems):
    _, _, system = systems["chaplygin"]
    y0, yT = [0.5, 0.2], [0.4, 0.3]
    problem = one_input_problem(system, y0=y0, yT=yT)
    result = solve_bvp(ShootingProblem(hs=HamiltonianSystem(problem), dt=1e-3, scheme="rk4"),
                       np.zeros(2))
    gap = resimulate(system, problem, result.trajectory, np.zeros(0), y0)
    target_gap = float(np.abs(result.trajectory.ys[-1] - yT).max())
    report(11, "one-input sleigh shooting converges and its controls reach yT",
           result.residual_norm < 1e-10 and gap + target_gap < 1e-6,
           f"iterations {result.iterations}, residual {result.residual_norm:.2e}, "
           f"re-simulated gap {gap + target_gap:.2e}")
