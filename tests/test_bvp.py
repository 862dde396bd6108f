import numpy as np
import pytest

from nhoc import (ConstraintSpec, ControlDistribution, OCProblem, NewtonOptions,
                  ShootingProblem, StateQY, build_constrained_system, build_hamiltonian,
                  quadratic_cost, shooting_residual, simulate, solve_bvp)
from nhoc.errors import DimensionMismatch, NewtonDivergence, NonFiniteState

from conftest import curved_model, full_actuation_problem, quartic_cost

SCHEMES = ("rk4", "symp_euler", "stormer_verlet")


def shooting_for(problem, dt=1e-3, scheme="rk4", **newton):
    hs = build_hamiltonian(problem)
    opts = NewtonOptions(**newton) if newton else NewtonOptions()
    return ShootingProblem(hs=hs, dt=dt, scheme=scheme, newton=opts)


class TestShootingResidual:
    def test_known_momenta_hit_the_boundary(self, double_integrator_problem):
        sp = shooting_for(double_integrator_problem)
        res = shooting_residual(sp, np.array([12.0, 6.0]))
        assert np.abs(res).max() < 1e-8

    def test_residual_vanishes_at_solution(self, double_integrator_problem):
        sp = shooting_for(double_integrator_problem)
        result = solve_bvp(sp, np.zeros(2))
        assert np.abs(shooting_residual(sp, result.p0)).max() < sp.newton.tolerance

    def test_drift_boundary_needs_no_momenta(self, suslov_system):
        y0 = np.array([0.8, 0.5])
        free = simulate(suslov_system, StateQY(q=[], y=y0), 0.5, 1e-3)
        problem = OCProblem(system=suslov_system, controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.eye(2)), horizon=0.5,
                            y0=y0, yT=free.ys[-1])
        sp = shooting_for(problem)
        assert np.abs(shooting_residual(sp, np.zeros(2))).max() < 1e-10

    def test_guess_length_checked(self, double_integrator_problem):
        sp = shooting_for(double_integrator_problem)
        with pytest.raises(DimensionMismatch):
            shooting_residual(sp, np.zeros(3))


class TestBatchedResidual:
    """A stack of momenta is one batched flow whose rows equal single calls
    bit for bit, also where the rows' implicit substeps converge after
    different numbers of fixed-point iterations."""

    def assert_rows_match_single_calls(self, sp, stack):
        rows_seen = []
        grads = sp.hs._grads
        sp.hs._grads = lambda x, p: rows_seen.append(len(x)) or grads(x, p)
        try:
            batched = shooting_residual(sp, stack)
        finally:
            del sp.hs._grads
        assert batched.shape == (len(stack), sp.n_momenta)
        for row, p0 in zip(batched, stack):
            assert row.tobytes() == shooting_residual(sp, p0).tobytes()
        if sp.scheme != "rk4":
            # some substeps went on with part of the stack only
            assert min(rows_seen) < len(stack)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sleigh_rows_equal_single_calls(self, chaplygin_system, scheme):
        # constant geometry and a quadratic cost: the hoisted kernel
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.eye(2)), horizon=1.0,
                            y0=[0.5, 0.2], yT=[0.4, 0.3])
        sp = shooting_for(problem, dt=0.1, scheme=scheme)
        stack = np.array([[0.0, 0.0], [0.4, -0.3], [2.0, 1.5]])
        self.assert_rows_match_single_calls(sp, stack)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_curved_quartic_rows_equal_single_calls(self, scheme):
        # chart-dependent model and a non-quadratic cost: the per-row kernel
        system = build_constrained_system(curved_model(), ConstraintSpec(span_basis=np.eye(2)))
        problem = OCProblem(system=system, controls=ControlDistribution.full(2),
                            cost=quartic_cost(), horizon=1.0,
                            q0=[0.0], y0=[0.1, 0.0], qT=[0.2], yT=[0.0, 0.1])
        sp = shooting_for(problem, dt=0.1, scheme=scheme)
        stack = np.array([[0.0, 0.0, 0.0], [0.3, 0.4, -0.3], [1.0, 1.5, 1.2]])
        self.assert_rows_match_single_calls(sp, stack)

    def test_one_row_blowing_up_raises(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.eye(2)), horizon=1.0,
                            y0=[0.5, 0.2], yT=[0.4, 0.3])
        sp = shooting_for(problem, dt=0.1)
        with pytest.raises(NonFiniteState):
            shooting_residual(sp, np.array([1e3, 1e3]))
        with pytest.raises(NonFiniteState):
            shooting_residual(sp, np.array([[0.1, 0.1], [1e3, 1e3], [0.2, -0.1]]))


class TestSolveBVP:
    def test_double_integrator_analytic_fixture(self, double_integrator_problem):
        sp = shooting_for(double_integrator_problem)
        result = solve_bvp(sp, np.zeros(2))
        assert np.abs(result.p0 - [12.0, 6.0]).max() < 1e-8
        assert result.iterations <= 3
        ts = result.trajectory.times
        assert np.abs(result.trajectory.qs[:, 0] - (3 * ts ** 2 - 2 * ts ** 3)).max() < 1e-8
        assert np.abs(result.trajectory.ys[:, 0] - (6 * ts - 6 * ts ** 2)).max() < 1e-8
        # trapezoid cost at dt = 1e-3 carries the h^2/12 quadrature bias
        assert abs(result.cost - 6.0) < 2e-5

    def test_zero_extremal_on_lie_algebra(self, chaplygin_system):
        y0 = np.array([1.0, 0.0])
        free = simulate(chaplygin_system, StateQY(q=[], y=y0), 0.5, 1e-3)
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.eye(2)), horizon=0.5,
                            y0=y0, yT=free.ys[-1])
        result = solve_bvp(shooting_for(problem), np.zeros(2))
        assert np.abs(result.p0).max() < 1e-10
        assert result.cost < 1e-12
        assert np.abs(result.trajectory.controls).max() < 1e-5

    def test_nontrivial_chaplygin_extremal(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.eye(2)), horizon=1.0,
                            y0=[0.5, 0.2], yT=[0.4, 0.3])
        sp = shooting_for(problem, dt=1e-3, scheme="stormer_verlet")
        result = solve_bvp(sp, np.zeros(2))
        assert result.residual_norm < 1e-10
        dh = np.abs(result.trajectory.hamiltonians - result.trajectory.hamiltonians[0])
        assert dh.max() < 1e-6
        # reported cost is the trapezoidal quadrature of C along the samples
        traj = result.trajectory
        values = 0.5 * np.sum(traj.controls ** 2, axis=1)
        assert abs(result.cost - np.trapezoid(values, traj.times)) < 1e-8 * abs(result.cost)

    def test_control_recovery_roundtrip(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.eye(2)), horizon=1.0,
                            y0=[0.5, 0.2], yT=[0.4, 0.3])
        result = solve_bvp(shooting_for(problem), np.zeros(2))
        traj = result.trajectory

        def u_interp(t):
            return np.array([np.interp(t, traj.times, traj.controls[:, i])
                             for i in range(2)])

        resim = simulate(chaplygin_system, StateQY(q=[], y=[0.5, 0.2]), 1.0, 1e-3,
                         controls=problem.controls, u=u_interp)
        assert np.abs(resim.ys[-1] - traj.ys[-1]).max() < 1e-5

    def test_divergence_reports_best_iterate(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.eye(2)), horizon=1.0,
                            y0=[0.5, 0.2], yT=[5.0, -4.0])
        sp = shooting_for(problem, dt=1e-2, max_iterations=1)
        with pytest.raises(NewtonDivergence) as info:
            solve_bvp(sp, np.zeros(2))
        assert info.value.best is not None
        assert np.isfinite(info.value.residual_norm)

    def test_blowup_during_line_search_degrades_to_divergence(self, chaplygin_system):
        # distant boundary: full Newton steps blow the flow up; trials must be
        # damped away rather than aborting the solve with NonFiniteState
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.eye(2)), horizon=1.0,
                            y0=[1.0, 0.0], yT=[40.0, 40.0])
        sp = shooting_for(problem, dt=1e-2, max_iterations=2)
        with pytest.raises(NewtonDivergence) as info:
            solve_bvp(sp, np.zeros(2))
        assert info.value.best is not None

    def test_dt_must_divide_horizon(self, double_integrator_problem):
        hs = build_hamiltonian(double_integrator_problem)
        with pytest.raises(DimensionMismatch):
            ShootingProblem(hs=hs, dt=0.3, scheme="rk4")

    def test_missing_boundary_detected(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)  # no boundary data
        hs = build_hamiltonian(problem)
        with pytest.raises(DimensionMismatch):
            ShootingProblem(hs=hs, dt=1e-3)
