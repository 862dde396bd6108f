import numpy as np
import pytest

from nhoc import (ConstraintSpec, ControlDistribution, CostModel, HamiltonianSystem,
                  NewtonOptions, OCProblem, ShootingProblem, StateQY,
                  build_constrained_system, extremal_trajectory, quadratic_cost,
                  shooting_residual, simulate, solve_bvp)
from nhoc import bvp
from nhoc.errors import (DimensionMismatch, LegendreDivergence, NewtonDivergence,
                         NonFiniteState)

from conftest import curved_model, full_actuation_problem, quartic_cost

SCHEMES = ("rk4", "symp_euler", "stormer_verlet")


def shooting_for(problem, dt=1e-3, scheme="rk4", **newton):
    hs = HamiltonianSystem(problem)
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
        with pytest.raises(DimensionMismatch):
            solve_bvp(sp, np.zeros(3))


TRAJECTORY_FIELDS = ("times", "qs", "ys", "controls", "p_qs", "p_ys", "energies",
                     "hamiltonians")


def sleigh_problem(system):
    return OCProblem(system=system, controls=ControlDistribution.full(2),
                     cost=quadratic_cost(np.eye(2)), horizon=1.0,
                     y0=[0.5, 0.2], yT=[0.4, 0.3])


def curved_quartic_problem():
    system = build_constrained_system(curved_model(), ConstraintSpec(span_basis=np.eye(2)))
    return OCProblem(system=system, controls=ControlDistribution.full(2),
                     cost=quartic_cost(), horizon=1.0,
                     q0=[0.0], y0=[0.1, 0.0], qT=[0.2], yT=[0.0, 0.1])


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
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=0.1, scheme=scheme)
        stack = np.array([[0.0, 0.0], [0.4, -0.3], [2.0, 1.5]])
        self.assert_rows_match_single_calls(sp, stack)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_curved_quartic_rows_equal_single_calls(self, scheme):
        # chart-dependent model and a non-quadratic cost: the per-row kernel
        sp = shooting_for(curved_quartic_problem(), dt=0.1, scheme=scheme)
        stack = np.array([[0.0, 0.0, 0.0], [0.3, 0.4, -0.3], [1.0, 1.5, 1.2]])
        self.assert_rows_match_single_calls(sp, stack)

    def test_one_row_blowing_up_raises(self, chaplygin_system):
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=0.1)
        with pytest.raises(NonFiniteState):
            shooting_residual(sp, np.array([1e3, 1e3]))
        with pytest.raises(NonFiniteState):
            shooting_residual(sp, np.array([[0.1, 0.1], [1e3, 1e3], [0.2, -0.1]]))


class TestOneFlowPerIteration:
    """On the hoisted kernel each Newton iteration integrates one flow, the
    full-step trial stacked with its Jacobian columns; the accepted flow is
    the extremal."""

    @pytest.fixture
    def flow_rows(self, monkeypatch):
        """Rows of every flow bvp integrates, in order; ``fail_rows`` makes
        every stack of that many rows raise NonFiniteState."""
        rows, fail_rows = [], []
        flow = bvp.integrate_hamiltonian

        def counting(hs, phase0, *args):
            count = 1 if phase0.p_y.ndim == 1 else len(phase0.p_y)
            rows.append(count)
            if count in fail_rows:
                raise NonFiniteState("stacked flow failure forced by the test")
            return flow(hs, phase0, *args)

        monkeypatch.setattr(bvp, "integrate_hamiltonian", counting)
        return rows, fail_rows

    def assert_trajectory_is_extremal_of_p0(self, sp, result):
        expected = extremal_trajectory(sp, result.p0)
        for name in TRAJECTORY_FIELDS:
            assert (getattr(result.trajectory, name).tobytes()
                    == getattr(expected, name).tobytes()), name

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("model", ["sleigh", "double_integrator"])
    def test_one_flow_per_iteration(self, model, scheme, flow_rows, chaplygin_system,
                                    double_integrator_problem):
        problem = (sleigh_problem(chaplygin_system) if model == "sleigh"
                   else double_integrator_problem)
        sp = shooting_for(problem, dt=1e-2, scheme=scheme)
        assert sp.hs._stacks_at_once
        rows, _ = flow_rows
        result = solve_bvp(sp, np.zeros(2))
        assert result.iterations >= 1
        # no step was halved: every flow carried the columns of its momenta
        assert rows == [sp.n_momenta + 1] * (1 + result.iterations)
        self.assert_trajectory_is_extremal_of_p0(sp, result)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_per_row_kernel_integrates_columns_for_accepted_iterates_only(self, scheme,
                                                                          flow_rows):
        sp = shooting_for(curved_quartic_problem(), dt=0.1, scheme=scheme)
        assert not sp.hs._stacks_at_once
        rows, _ = flow_rows
        result = solve_bvp(sp, np.zeros(3))
        assert result.iterations >= 1
        # the guess, then per iteration the columns at p0 and the full-step
        # trial, each trial accepted; the extremal is not integrated again
        assert rows == [1] + [sp.n_momenta, 1] * result.iterations
        self.assert_trajectory_is_extremal_of_p0(sp, result)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_failing_stack_falls_back_to_the_trial_alone(self, scheme, flow_rows,
                                                         chaplygin_system):
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=1e-2, scheme=scheme)
        rows, fail_rows = flow_rows
        reference = solve_bvp(sp, np.zeros(2))
        rows.clear()
        fail_rows.append(sp.n_momenta + 1)
        result = solve_bvp(sp, np.zeros(2))
        assert result.p0.tobytes() == reference.p0.tobytes()
        assert result.iterations == reference.iterations
        # each stack failed and was followed by its trial alone, then by the
        # columns of the accepted trial, as on the per-row kernel
        n = sp.n_momenta
        assert rows == [n + 1, 1] + [n, n + 1, 1] * result.iterations
        self.assert_trajectory_is_extremal_of_p0(sp, result)


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
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=1e-3, scheme="stormer_verlet")
        result = solve_bvp(sp, np.zeros(2))
        assert result.residual_norm < 1e-10
        dh = np.abs(result.trajectory.hamiltonians - result.trajectory.hamiltonians[0])
        assert dh.max() < 1e-6
        # reported cost is the trapezoidal quadrature of C along the samples
        traj = result.trajectory
        values = 0.5 * np.sum(traj.controls ** 2, axis=1)
        assert abs(result.cost - np.trapezoid(values, traj.times)) < 1e-8 * abs(result.cost)

    def test_control_recovery_roundtrip(self, chaplygin_system):
        problem = sleigh_problem(chaplygin_system)
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

    def test_legendre_failure_is_not_a_shooting_divergence(self, chaplygin_system):
        # C = sum sqrt(1 + u^2): C_u never reaches 1, so distant targets ask
        # the Legendre inversion for a control that does not exist
        def cu(q, y, u):
            return u / np.sqrt(1.0 + u * u)

        cost = CostModel(evaluator=lambda q, y, u: float(np.sum(np.sqrt(1.0 + u * u))),
                         k=2, cu=cu, cuu=lambda q, y, u: np.diag((1.0 + u * u) ** -1.5))
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=cost, horizon=1.0, y0=[0.5, 0.2], yT=[3.0, 2.0])
        sp = shooting_for(problem, dt=0.1)
        with pytest.raises(LegendreDivergence) as info:
            solve_bvp(sp)
        assert not isinstance(info.value, NewtonDivergence)
        assert str(info.value) == "Legendre inversion stalled"
        assert info.value.control.shape == (2,)

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
        hs = HamiltonianSystem(double_integrator_problem)
        with pytest.raises(DimensionMismatch):
            ShootingProblem(hs=hs, dt=0.3, scheme="rk4")

    def test_missing_boundary_detected(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)  # no boundary data
        hs = HamiltonianSystem(problem)
        with pytest.raises(DimensionMismatch):
            ShootingProblem(hs=hs, dt=1e-3)
