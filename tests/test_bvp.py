import numpy as np
import pytest

from dataclasses import fields, replace

from nhoc import (ConstraintSpec, ControlDistribution, CostModel, ExtremalState, ModelPartials,
                  HamiltonianSystem, OCProblem, PhasePoint, ShootingProblem, StateQY,
                  Trajectory, build_constrained_system,
                  extremal_trajectory, make_chaplygin, quadratic_cost,
                  shooting_residual, simulate, solve_bvp)
from nhoc import bvp, hamiltonian
from nhoc.dynamics import drift_acceleration
from nhoc.errors import (DimensionMismatch, FixedPointDivergence, LegendreDivergence,
                         NewtonDivergence, NonFiniteState, SingularHessian, SingularJacobian,
                         SingularMetric, ValidationError)

from conftest import curved_model, full_actuation_problem, quartic_cost

SCHEMES = ("rk4", "symp_euler", "stormer_verlet")


def shooting_for(problem, dt=1e-3, scheme="rk4", **newton):
    return ShootingProblem(hs=HamiltonianSystem(problem), dt=dt, scheme=scheme, **newton)


def trajectory_cost(sp, trajectory):
    """The reference quadrature: trapezoidal rule of the running cost, one
    sample at a time."""
    cost = sp.hs.problem.cost
    values = np.array([cost.value(trajectory.qs[k], trajectory.ys[k], trajectory.controls[k])
                       for k in range(len(trajectory))])
    return float(np.trapezoid(values, trajectory.times))


class TestShootingResidual:
    def test_known_momenta_hit_the_boundary(self, double_integrator_problem):
        sp = shooting_for(double_integrator_problem)
        res = shooting_residual(sp, np.array([12.0, 6.0]))
        assert np.abs(res).max() < 1e-8

    def test_residual_vanishes_at_solution(self, double_integrator_problem):
        sp = shooting_for(double_integrator_problem)
        result = solve_bvp(sp, np.zeros(2))
        assert np.abs(shooting_residual(sp, result.p0)).max() < sp.tolerance

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


def sleigh_problem(system, cost=quadratic_cost(np.eye(2))):
    return OCProblem(system=system, controls=ControlDistribution.full(2), cost=cost,
                     horizon=1.0, y0=[0.5, 0.2], yT=[0.4, 0.3])


def curved_quadratic_problem():
    system = build_constrained_system(curved_model(), ConstraintSpec(span_basis=np.eye(2)))
    return OCProblem(system=system, controls=ControlDistribution.full(2),
                     cost=quadratic_cost(np.eye(2)), horizon=1.0,
                     q0=[0.0], y0=[0.1, 0.0], qT=[0.2], yT=[0.0, 0.1])


def curved_quartic_problem():
    system = build_constrained_system(curved_model(), ConstraintSpec(span_basis=np.eye(2)))
    return OCProblem(system=system, controls=ControlDistribution.full(2),
                     cost=quartic_cost(), horizon=1.0,
                     q0=[0.0], y0=[0.1, 0.0], qT=[0.2], yT=[0.0, 0.1])


class TestBatchedResidual:
    """A stack of momenta is one batched flow whose rows equal single calls
    bit for bit, also where the rows' implicit substeps converge after
    different numbers of fixed-point iterations."""

    def assert_rows_match_single_calls(self, sp, stack, monkeypatch):
        rows_seen, map_rows = [], []
        kernel = sp.hs._compiled
        fixed_point = hamiltonian._fixed_point

        def counted(f):
            return lambda x, *args: rows_seen.append(len(x)) or f(x, *args)

        def counted_fixed_point(gfun, z0):
            return fixed_point(lambda rows, z: map_rows.append(len(z)) or gfun(rows, z), z0)

        sp.hs._kernel = kernel._replace(
            field=counted(kernel.field), grad_x=counted(kernel.grad_x),
            grad_p=counted(kernel.grad_p), drift=counted(kernel.drift),
            kick_matrix=kernel.kick_matrix and counted(kernel.kick_matrix))
        monkeypatch.setattr(hamiltonian, "_fixed_point", counted_fixed_point)
        try:
            batched = shooting_residual(sp, stack)
        finally:
            sp.hs._kernel = kernel
            monkeypatch.undo()
        assert batched.shape == (len(stack), sp.n_momenta)
        for row, p0 in zip(batched, stack):
            assert row.tobytes() == shooting_residual(sp, p0).tobytes()
        if sp.scheme == "stormer_verlet" or (sp.scheme == "symp_euler"
                                             and kernel.kick_matrix is None):
            # a fixed point remains: some of its map evaluations went on with
            # part of the stack only
            assert min(map_rows) < len(stack)
        else:
            assert map_rows == []
        if kernel.kick_matrix is not None or not map_rows:
            # explicit stages, linear kicks and the drift entry: every kernel
            # call takes the stack
            assert set(rows_seen) == {len(stack)}

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("model", ["sleigh", "curved"])
    def test_rows_equal_single_calls(self, model, scheme, chaplygin_system, monkeypatch):
        if model == "sleigh":
            # constant geometry and a quadratic cost: the hoisted kernel
            sp = shooting_for(sleigh_problem(chaplygin_system), dt=0.1, scheme=scheme)
            stack = np.array([[0.0, 0.0], [0.4, -0.3], [2.0, 1.5]])
        else:
            # chart-dependent model and a quadratic cost: one stacked geometry
            # build per evaluation covers every row and its drift stencil
            sp = shooting_for(curved_quadratic_problem(), dt=0.1, scheme=scheme)
            stack = np.array([[0.0, 0.0, 0.0], [0.3, 0.4, -0.3], [1.0, 1.5, 1.2]])
        assert sp.hs.problem.cost.quadratic
        self.assert_rows_match_single_calls(sp, stack, monkeypatch)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_curved_quartic_rows_equal_single_calls(self, scheme, monkeypatch):
        # chart-dependent model and a non-quadratic cost: the chart kernel
        # with the control terms of each row
        sp = shooting_for(curved_quartic_problem(), dt=0.1, scheme=scheme)
        stack = np.array([[0.0, 0.0, 0.0], [0.3, 0.4, -0.3], [1.0, 1.5, 1.2]])
        self.assert_rows_match_single_calls(sp, stack, monkeypatch)

    def test_one_row_blowing_up_raises(self, chaplygin_system):
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=0.1)
        with pytest.raises(NonFiniteState):
            shooting_residual(sp, np.array([1e3, 1e3]))
        with pytest.raises(NonFiniteState):
            shooting_residual(sp, np.array([[0.1, 0.1], [1e3, 1e3], [0.2, -0.1]]))


@pytest.fixture
def flows(monkeypatch):
    """(rows, steps) of every flow bvp integrates, in order, failed ones too;
    ``fail[rows] = error`` makes every flow of that many rows raise ``error``."""
    seen, fail = [], {}
    flow = bvp.integrate_hamiltonian

    def counting(hs, phase0, t_final, dt, scheme):
        rows = 1 if phase0.p_y.ndim == 1 else len(phase0.p_y)
        seen.append((rows, round(t_final / dt)))
        if rows in fail:
            raise fail[rows]("flow failure forced by the test")
        return flow(hs, phase0, t_final, dt, scheme)

    monkeypatch.setattr(bvp, "integrate_hamiltonian", counting)
    return seen, fail


def fail_after_the_start(monkeypatch, fail, rows, error=NonFiniteState):
    """Let the first flow of a solve, its start, pass, and make every later
    flow of ``rows`` rows raise ``error`` through the ``flows`` fixture."""
    flow = bvp.integrate_hamiltonian

    def arming(*args):
        try:
            return flow(*args)
        finally:
            fail[rows] = error

    monkeypatch.setattr(bvp, "integrate_hamiltonian", arming)


def full_horizon(rows, steps=10):
    """The flows of single shooting: each of ``rows`` rows spans all ``steps``."""
    return [(count, steps) for count in rows]


MODELS = ("sleigh", "double_integrator", "curved", "sleigh_quartic", "curved_quartic")


class TestOneFlowPerIteration:
    """Single shooting, on horizons of at most 19 steps, which keep one
    segment: for every cost and model each Newton iteration integrates one
    flow, the full-step trial stacked with its Jacobian columns unless it is
    predicted to be the last; the accepted flow is the extremal."""

    def assert_trajectory_is_extremal_of_p0(self, sp, result):
        expected = extremal_trajectory(sp, result.p0)[0]
        for name in TRAJECTORY_FIELDS:
            assert (getattr(result.trajectory, name).tobytes()
                    == getattr(expected, name).tobytes()), name

    @staticmethod
    def shooting_model(model, scheme, chaplygin_system, double_integrator_problem):
        # the curved models run the chart kernel, and a non-quadratic cost adds
        # its control terms to the same kernels
        problem = {"sleigh": lambda: sleigh_problem(chaplygin_system),
                   "double_integrator": lambda: double_integrator_problem,
                   "curved": curved_quadratic_problem,
                   "sleigh_quartic": lambda: sleigh_problem(chaplygin_system, quartic_cost()),
                   "curved_quartic": curved_quartic_problem}[model]()
        sp = shooting_for(problem, dt=0.1, scheme=scheme)
        assert sp.hs.problem.cost.quadratic == (not model.endswith("quartic"))
        return sp

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("model", MODELS)
    def test_one_flow_per_iteration(self, model, scheme, flows, chaplygin_system,
                                    double_integrator_problem):
        sp = self.shooting_model(model, scheme, chaplygin_system, double_integrator_problem)
        seen, _ = flows
        result = solve_bvp(sp, np.zeros(sp.n_momenta))
        assert result.iterations >= 1
        # no step was halved: every flow carried the columns of its momenta,
        # but the last trial, which the quadratic model saw converge
        assert seen == full_horizon([sp.n_momenta + 1] * result.iterations + [1])
        self.assert_trajectory_is_extremal_of_p0(sp, result)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("cost", ["quadratic", "quartic"])
    def test_failing_stack_is_its_trials_only_flow(self, cost, scheme, flows, chaplygin_system,
                                                   monkeypatch):
        if cost == "quadratic":
            sp = shooting_for(sleigh_problem(chaplygin_system), dt=0.1, scheme=scheme)
        else:
            sp = shooting_for(sleigh_problem(chaplygin_system, quartic_cost()), dt=0.1,
                              scheme=scheme)
        seen, fail = flows
        stack = sp.n_momenta + 1
        fail[stack] = NonFiniteState
        # the start fails outside the line search, and the solve with it
        with pytest.raises(NonFiniteState, match="forced"):
            solve_bvp(sp, np.zeros(2))
        assert seen == full_horizon([stack])
        seen.clear()
        del fail[stack]
        fail_after_the_start(monkeypatch, fail, stack)
        # the first full step's stack fails and its half comes alone; the
        # columns of that accepted trial fail as one stack with its row, and
        # nothing is integrated again
        with pytest.raises(NonFiniteState, match="forced"):
            solve_bvp(sp, np.zeros(2))
        assert seen == full_horizon([stack, stack, 1, stack])

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("model", MODELS)
    def test_predicted_last_trial_changes_no_byte(self, model, scheme, chaplygin_system,
                                                  double_integrator_problem, monkeypatch):
        sp = self.shooting_model(model, scheme, chaplygin_system, double_integrator_problem)
        result = solve_bvp(sp, np.zeros(sp.n_momenta))
        # columns ride on every full step, as if no trial were predicted last
        monkeypatch.setattr(bvp, "_predicts_convergence", lambda *args: False)
        riding = solve_bvp(sp, np.zeros(sp.n_momenta))
        assert result.p0.tobytes() == riding.p0.tobytes()
        assert result.iterations == riding.iterations
        assert result.residual_norm == riding.residual_norm
        assert np.float64(result.cost).tobytes() == np.float64(riding.cost).tobytes()
        for name in TRAJECTORY_FIELDS:
            assert (getattr(result.trajectory, name).tobytes()
                    == getattr(riding.trajectory, name).tobytes()), name

    def test_mispredicted_trial_takes_its_columns_in_a_stacked_flow(
            self, flows, chaplygin_system, monkeypatch):
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=0.1)
        seen, _ = flows
        reference = solve_bvp(sp, np.zeros(2))
        assert reference.iterations == 3
        seen.clear()
        # every full step is predicted to be the last: the second trial is
        # accepted above the tolerance and lacks its Jacobian, which its row
        # takes again with its columns, as one stack
        monkeypatch.setattr(bvp, "_predicts_convergence", lambda *args: True)
        result = solve_bvp(sp, np.zeros(2))
        assert seen == full_horizon([3, 3, 1, 3, 1])
        assert result.p0.tobytes() == reference.p0.tobytes()
        assert result.iterations == reference.iterations
        self.assert_trajectory_is_extremal_of_p0(sp, result)

    def test_model_can_mispredict_without_forcing(self, flows, chaplygin_system,
                                                   monkeypatch):
        problem = replace(sleigh_problem(chaplygin_system, quartic_cost()), yT=[-1.0, 2.0])
        sp = shooting_for(problem, dt=1e-2)
        seen, _ = flows
        result = solve_bvp(sp, np.zeros(2))
        # the sixth trial was predicted last but stopped above the tolerance
        assert seen == full_horizon([3] * 6 + [1, 3, 1], 100)
        monkeypatch.setattr(bvp, "_predicts_convergence", lambda *args: False)
        riding = solve_bvp(sp, np.zeros(2))
        assert result.p0.tobytes() == riding.p0.tobytes()
        assert result.iterations == riding.iterations == 7

    def test_trial_after_a_damped_step_rides_with_its_columns(self, flows,
                                                               chaplygin_system, monkeypatch):
        problem = replace(sleigh_problem(chaplygin_system), yT=[3.0, -2.0])
        sp = shooting_for(problem, dt=0.1)
        seen, _ = flows
        reference = solve_bvp(sp, np.zeros(2))
        # the first full step is refused and its half accepted
        assert seen == full_horizon([3, 3, 1, 3, 3, 3, 3, 1])
        seen.clear()
        monkeypatch.setattr(bvp, "_predicts_convergence", lambda *args: True)
        result = solve_bvp(sp, np.zeros(2))
        # the damped first step predicts nothing: the second trial rides, and
        # every later one comes alone and takes its columns in a stack with its row
        assert seen == full_horizon([3, 3, 1, 3, 3] + [1, 3] * 2 + [1])
        assert result.p0.tobytes() == reference.p0.tobytes()

    def test_budget_spent_on_a_predicted_trial_still_diverges(self, flows,
                                                              chaplygin_system, monkeypatch):
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=0.1, max_iterations=2)
        monkeypatch.setattr(bvp, "_predicts_convergence", lambda *args: False)
        with pytest.raises(NewtonDivergence) as riding:
            solve_bvp(sp, np.zeros(2))
        seen, _ = flows
        seen.clear()
        monkeypatch.setattr(bvp, "_predicts_convergence", lambda *args: True)
        with pytest.raises(NewtonDivergence) as predicted:
            solve_bvp(sp, np.zeros(2))
        # the second and last trial came alone, and no columns followed it
        assert seen == full_horizon([3, 3, 1])
        assert predicted.value.best.tobytes() == riding.value.best.tobytes()
        assert predicted.value.residual_norm == riding.value.residual_norm
        assert predicted.value.iterations == riding.value.iterations == 2
        assert predicted.value.residual_norm == np.abs(
            shooting_residual(sp, predicted.value.best)).max()

    @pytest.mark.parametrize("error", [SingularMetric, LegendreDivergence, SingularHessian])
    def test_failing_geometry_or_legendre_map_in_a_stack_ends_the_solve(
            self, error, flows, monkeypatch, chaplygin_system):
        # on a chart-dependent model a row can leave the region where the
        # metric is positive-definite, and with a non-quadratic cost its
        # Legendre inversion can diverge or meet a singular cost Hessian: the
        # line search halves no step for these, whichever row failed
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=0.1)
        seen, fail = flows
        fail_after_the_start(monkeypatch, fail, sp.n_momenta + 1, error)
        with pytest.raises(error, match="forced"):
            solve_bvp(sp, np.zeros(2))
        assert seen == full_horizon([3, 3])

    def test_singular_kick_in_a_stack_is_its_trials_only_flow(self, flows, chaplygin_system):
        # the sleigh's kick matrix at y = (0, c) is diag(-c / 2, 0), so with
        # dt = 0.5 the kick's I + M / 2 is singular at y = (0, 4).  From y = 0
        # the first step takes y to p0 / 2: the second kick is singular for
        # the column p0 + h e_1, whose p0 / 2 is exactly (0, 4), not the trial
        problem = replace(sleigh_problem(chaplygin_system), y0=[0.0, 0.0])
        sp = shooting_for(problem, dt=0.5, scheme="symp_euler")
        p0 = np.array([0.0, 8.0 - bvp.JACOBIAN_STEP])
        assert 0.5 * (p0[1] + bvp.JACOBIAN_STEP) == 4.0
        shooting_residual(sp, p0)
        with pytest.raises(FixedPointDivergence):
            shooting_residual(sp, p0 + bvp.JACOBIAN_STEP * np.eye(2)[1])
        seen, _ = flows
        seen.clear()
        with pytest.raises(FixedPointDivergence):
            solve_bvp(sp, p0)
        # the start's stack failed, and nothing was integrated again
        assert seen == full_horizon([3], 2)


class TestMultipleShooting:
    """A horizon of 100 steps with a quadratic cost splits into 10 segments of
    10 steps (20 steps into 2).  Without a guess the segments start from the
    boundary data, and the first flow is one stacked flow of 10 steps: the 10
    segment rows and the columns of the n + 9 * 2n unknowns, as is every
    later full step.  A given guess is first one full-horizon flow on one
    row, whose samples seed the segments.  The answer is one full-horizon
    flow on one row, and it is the extremal."""

    @staticmethod
    def single_shooting(sp, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(bvp, "MAX_SEGMENTS", 1)
            return solve_bvp(sp)

    def assert_answer(self, sp, result, reference):
        """result is converged, its trajectory is the extremal of its p0, and
        it agrees with the single-shooting reference."""
        assert result.residual_norm == np.abs(shooting_residual(sp, result.p0)).max()
        assert result.residual_norm <= sp.tolerance
        assert np.abs(result.p0 - reference.p0).max() <= 1e-9 * np.abs(reference.p0).max()
        assert abs(result.cost - reference.cost) <= 1e-9 * abs(reference.cost)
        expected = extremal_trajectory(sp, result.p0)[0]
        for name in TRAJECTORY_FIELDS:
            assert (getattr(result.trajectory, name).tobytes()
                    == getattr(expected, name).tobytes()), name

    @pytest.mark.parametrize("steps, count", [(1, 1), (10, 1), (19, 1), (20, 2), (64, 4),
                                              (97, 1), (100, 10), (320, 32), (1000, 25),
                                              (10000, 25)])
    def test_segment_rule(self, steps, count, chaplygin_system):
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=1.0 / steps)
        assert bvp._segment_count(sp, steps) == count
        # a non-quadratic cost keeps one segment
        quartic = shooting_for(sleigh_problem(chaplygin_system, quartic_cost()), dt=1.0 / steps)
        assert bvp._segment_count(quartic, steps) == 1

    @pytest.mark.parametrize("model, scheme", [(model, scheme) for scheme in SCHEMES
                                               for model in ("sleigh", "double_integrator")]
                             + [("curved", "rk4")])
    def test_one_stacked_flow_of_segments_per_iteration(self, model, scheme, flows,
                                                        chaplygin_system,
                                                        double_integrator_problem,
                                                        monkeypatch):
        # the chart kernel on 20 steps: two segments of 10
        problem, steps, count = {
            "sleigh": (sleigh_problem(chaplygin_system), 100, 10),
            "double_integrator": (double_integrator_problem, 100, 10),
            "curved": (curved_quadratic_problem(), 20, 2)}[model]
        sp = shooting_for(problem, dt=1.0 / steps, scheme=scheme)
        reference = self.single_shooting(sp, monkeypatch)
        seen, _ = flows
        seen.clear()
        result = solve_bvp(sp)
        n = sp.n_momenta
        assert result.iterations == reference.iterations >= 2
        # no step was halved, and the predicted last trial met the tolerance
        stack = (count + n + (count - 1) * 2 * n, steps // count)
        assert seen == [stack] * result.iterations + [(1, steps)]
        self.assert_answer(sp, result, reference)

    def test_mispredicted_trial_takes_its_segment_columns_in_a_stacked_flow(
            self, flows, chaplygin_system, monkeypatch):
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=1e-2)
        reference = self.single_shooting(sp, monkeypatch)
        seen, _ = flows
        seen.clear()
        # every full step is predicted to be the last: the second trial's full
        # flow misses the tolerance, and its segments ride with their columns
        monkeypatch.setattr(bvp, "_predicts_convergence", lambda *args: True)
        result = solve_bvp(sp)
        assert seen == [(48, 10), (48, 10), (1, 100), (48, 10), (1, 100)]
        assert result.iterations == 3
        self.assert_answer(sp, result, reference)

    def test_segments_within_the_tolerance_are_judged_by_the_full_flow_of_their_p0(
            self, flows, chaplygin_system, monkeypatch):
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=1e-2)
        reference = self.single_shooting(sp, monkeypatch)
        seen, _ = flows
        seen.clear()
        # nothing is predicted: only the residual of the segments, once at or
        # below the tolerance, sends their own p0 to the full flow
        monkeypatch.setattr(bvp, "_predicts_convergence", lambda *args: False)
        result = solve_bvp(sp)
        assert seen == [(48, 10)] * 4 + [(1, 100)]
        assert result.iterations == 3
        self.assert_answer(sp, result, reference)

    def test_segments_within_the_tolerance_are_kept_where_their_full_flow_misses(
            self, flows, chaplygin_system, monkeypatch):
        # at this tolerance the second iterate's segments meet it (8.7e-9)
        # while the full flow of its p0 misses it (4.6e-8): the trial keeps
        # its segments, and the next one is predicted to be the last
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=1e-2, tolerance=2e-8)
        reference = self.single_shooting(sp, monkeypatch)
        seen, _ = flows
        seen.clear()
        result = solve_bvp(sp)
        assert seen == [(48, 10)] * 3 + [(1, 100), (1, 100)]
        assert result.iterations == 3
        assert result.residual_norm == np.abs(shooting_residual(sp, result.p0)).max()
        assert result.residual_norm <= sp.tolerance
        assert np.abs(result.p0 - reference.p0).max() <= 1e-6
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(bvp, "_predicts_convergence", lambda *args: False)
            unpredicted = solve_bvp(sp)
        assert seen == [(48, 10)] * 3 + [(1, 100), (1, 100)]
        assert unpredicted.iterations == 3
        assert unpredicted.p0.tobytes() == result.p0.tobytes()
        # a predicted trial whose full flow missed is not judged by it twice
        seen.clear()
        monkeypatch.setattr(bvp, "_predicts_convergence", lambda *args: True)
        assert solve_bvp(sp).iterations == 3
        assert seen == [(48, 10)] * 2 + [(1, 100), (48, 10), (1, 100)]

    def test_failed_full_flow_fails_its_trial(self, flows, chaplygin_system, monkeypatch):
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=1e-2)
        seen, fail = flows
        fail[1] = NonFiniteState  # every full flow on one row fails
        monkeypatch.setattr(bvp, "_predicts_convergence", lambda *args: False)
        with pytest.raises(NonFiniteState, match="forced"):
            solve_bvp(sp)
        # the third trial's segments met the tolerance and the full flow of
        # their p0 failed: the line search halved the step, as for any trial
        # whose flow fails, and the halved trial came without columns; the
        # zero guess's full flow, which the divergence would report, then
        # failed too
        assert seen[:6] == [(48, 10)] * 4 + [(1, 100), (10, 10)]
        assert seen[-1] == (1, 100)
        seen.clear()
        # a given guess is first its own full flow, which fails
        with pytest.raises(NonFiniteState, match="forced"):
            solve_bvp(sp, np.zeros(2))
        assert seen == [(1, 100)]

    def test_linear_problem_takes_two_segment_steps_where_single_shooting_takes_one(
            self, flows, double_integrator_problem, monkeypatch):
        # the double integrator of a perfbench `optimize` item (seed 7, round
        # 7, item 2): single shooting's first step lands within the tolerance,
        # while the forward-difference columns of the segment starts leave
        # the first segment step above it
        horizon = 2.0865066252965105
        problem = replace(double_integrator_problem, horizon=horizon, qT=[-1.031022693202687])
        sp = shooting_for(problem, dt=horizon / 100)
        reference = self.single_shooting(sp, monkeypatch)
        assert reference.iterations == 1
        seen, _ = flows
        seen.clear()
        # the zero guess's full flow misses and seeds the segments; the
        # predicted second step is one full flow
        result = solve_bvp(sp, np.zeros(2))
        assert seen == [(1, 100), (48, 10), (48, 10), (1, 100)]
        assert result.iterations == 2
        self.assert_answer(sp, result, reference)
        # from the boundary data the first step lands at 1.9e-9: as many
        # steps, and no full flow first
        seen.clear()
        result = solve_bvp(sp)
        assert seen == [(48, 10), (48, 10), (1, 100)]
        assert result.iterations == 2
        self.assert_answer(sp, result, reference)

    def test_failing_stack_of_segments_is_its_trials_only_flow(self, flows, chaplygin_system,
                                                                monkeypatch):
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=1e-2)
        seen, fail = flows
        fail[48] = NonFiniteState
        with pytest.raises(NonFiniteState, match="forced"):
            solve_bvp(sp)
        assert seen == [(48, 10)]
        seen.clear()
        del fail[48]
        fail_after_the_start(monkeypatch, fail, 48)
        # the first full step's stack fails and its half comes as the 10
        # segments alone; the columns of that accepted trial fail as one
        # stack with its segments
        with pytest.raises(NonFiniteState, match="forced"):
            solve_bvp(sp)
        assert seen == [(48, 10), (48, 10), (10, 10), (48, 10)]

    @pytest.mark.parametrize("model", ["sleigh", "curved_quartic"])
    def test_one_segment_without_a_guess_is_the_zero_guess(self, model, flows,
                                                            chaplygin_system):
        # 10 steps, or a non-quadratic cost, keep one segment
        problem = (sleigh_problem(chaplygin_system) if model == "sleigh"
                   else curved_quartic_problem())
        sp = shooting_for(problem, dt=0.1 if model == "sleigh" else 0.05)
        seen, _ = flows
        result = solve_bvp(sp)
        assert bvp._segment_count(sp, len(result.trajectory) - 1) == 1
        unguessed = list(seen)
        seen.clear()
        zero = solve_bvp(sp, np.zeros(sp.n_momenta))
        assert unguessed == seen
        assert result.p0.tobytes() == zero.p0.tobytes()
        assert result.iterations == zero.iterations
        assert result.residual_norm == zero.residual_norm
        assert np.float64(result.cost).tobytes() == np.float64(zero.cost).tobytes()
        for name in TRAJECTORY_FIELDS:
            assert (getattr(result.trajectory, name).tobytes()
                    == getattr(zero.trajectory, name).tobytes()), name

    def test_rest_to_rest_without_a_guess_is_its_seeds(self, flows, chaplygin_system):
        # seeds at rest meet the tolerance, and the full flow of p0 = 0 judges them
        problem = replace(sleigh_problem(chaplygin_system), y0=[0.0, 0.0], yT=[0.0, 0.0])
        sp = shooting_for(problem, dt=1e-2)
        seen, _ = flows
        result = solve_bvp(sp)
        assert seen == [(48, 10), (1, 100)]
        assert result.iterations == 0
        assert result.p0.tobytes() == np.zeros(2).tobytes()
        assert result.residual_norm == 0.0

    def test_guess_that_meets_the_tolerance_is_the_answer(self, flows, chaplygin_system):
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=1e-2)
        solved = solve_bvp(sp)
        seen, _ = flows
        seen.clear()
        result = solve_bvp(sp, solved.p0)
        assert seen == [(1, 100)]
        assert result.iterations == 0
        assert result.p0.tobytes() == solved.p0.tobytes()
        assert result.residual_norm == solved.residual_norm
        for name in TRAJECTORY_FIELDS:
            assert (getattr(result.trajectory, name).tobytes()
                    == getattr(solved.trajectory, name).tobytes()), name

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_guess_seeds_the_segments_from_its_own_flow(self, scheme, flows,
                                                        chaplygin_system, monkeypatch):
        problem = replace(sleigh_problem(chaplygin_system, quadratic_cost(np.diag([2.0, 0.5]))),
                          yT=[1.0, -0.5])
        sp = shooting_for(problem, dt=1e-2, scheme=scheme)
        guess = np.array([0.3, -0.2])
        evaluate, starts = bvp._evaluate, []

        def recording(sp, segments, u, with_columns):
            ev = evaluate(sp, segments, u, with_columns)
            if segments.count > 1 and not starts:
                starts.append(ev)
            return ev

        monkeypatch.setattr(bvp, "_evaluate", recording)
        seen, _ = flows
        solve_bvp(sp, guess)
        # one full flow on one row, then the segments with their columns
        assert seen[:2] == [(1, 100), (48, 10)]
        start, = starts
        assert start.u[:2].tobytes() == guess.tobytes()
        # the segments continue the guess's flow: every defect is exactly 0,
        # and the terminal mismatch is the guess's shooting residual
        assert np.all(start.mismatch[:-1] == 0.0)
        assert start.mismatch[-1, :2].tobytes() == shooting_residual(sp, guess).tobytes()

    @pytest.mark.parametrize("y_target, budget, guess, moved", [
        ([5.0, -4.0], 1, None, False), ([5.0, -4.0], 3, None, True),
        ([40.0, 40.0], 2, None, True), ([5.0, -4.0], 1, "zero", True),
        ([5.0, -4.0], 3, "zero", True), ([40.0, 40.0], 2, "zero", False)])
    def test_divergence_reports_the_full_flow_residual_of_its_best(self, y_target, budget,
                                                                   guess, moved,
                                                                   chaplygin_system):
        problem = replace(sleigh_problem(chaplygin_system), y0=[1.0, 0.0], yT=y_target)
        sp = shooting_for(problem, dt=1e-2, max_iterations=budget)
        with pytest.raises(NewtonDivergence) as info:
            solve_bvp(sp, None if guess is None else np.zeros(2))
        best = info.value.best
        assert info.value.iterations == budget
        assert info.value.residual_norm == np.abs(shooting_residual(sp, best)).max()
        # the best iterate of the segments, unless its full flow ends farther
        # off than the guess's
        assert np.any(best != 0.0) == moved
        assert info.value.residual_norm <= np.abs(shooting_residual(sp, np.zeros(2))).max()

    @staticmethod
    def failing_moved_full_flows(monkeypatch, error):
        """Make every one-row flow of a nonzero p0 raise ``error``: the full
        flow of the start's p0 = 0 passes, and that of a moved iterate fails."""
        flow = bvp.integrate_hamiltonian

        def failing(hs, phase0, *args):
            p_y = np.atleast_2d(phase0.p_y)
            if len(p_y) == 1 and np.any(p_y != 0.0):
                raise error("flow failure forced by the test")
            return flow(hs, phase0, *args)

        monkeypatch.setattr(bvp, "integrate_hamiltonian", failing)

    @pytest.mark.parametrize("error", [NonFiniteState, ValidationError, FixedPointDivergence])
    def test_divergence_reports_the_start_where_its_best_full_flow_overshoots(
            self, error, chaplygin_system, monkeypatch):
        problem = replace(sleigh_problem(chaplygin_system), y0=[1.0, 0.0], yT=[40.0, 40.0])
        sp = shooting_for(problem, dt=1e-2, max_iterations=2)
        with pytest.raises(NewtonDivergence) as moved:
            solve_bvp(sp)
        # unforced, the best segments moved and their full flow is reported
        assert np.any(moved.value.best != 0.0)
        self.failing_moved_full_flows(monkeypatch, error)
        with pytest.raises(NewtonDivergence) as info:
            solve_bvp(sp)
        assert info.value.iterations == 2
        assert info.value.best.tobytes() == np.zeros(2).tobytes()
        assert info.value.residual_norm == np.abs(shooting_residual(sp, np.zeros(2))).max()

    def test_divergence_lets_other_errors_of_its_best_full_flow_propagate(
            self, chaplygin_system, monkeypatch):
        # a metric that fails at the best iterate's positions is no overshoot
        problem = replace(sleigh_problem(chaplygin_system), y0=[1.0, 0.0], yT=[40.0, 40.0])
        sp = shooting_for(problem, dt=1e-2, max_iterations=2)
        self.failing_moved_full_flows(monkeypatch, SingularMetric)
        with pytest.raises(SingularMetric, match="forced"):
            solve_bvp(sp)


class TestObservedOrder:
    """Shooting p0 of the sleigh (1, 0) -> (0.5, 0.5), T = 1, unit quadratic
    cost, at dt = 0.05 / 2**j, j = 0 ... 4: with errors C dt**r, successive
    differences of p0 shrink by 2**r, so log2 of their ratios reads each
    scheme's order r."""

    @pytest.mark.parametrize("scheme, order", [("symp_euler", 1), ("stormer_verlet", 2),
                                               ("rk4", 4)])
    def test_each_scheme_shows_its_order(self, scheme, order, chaplygin_system):
        problem = replace(sleigh_problem(chaplygin_system), y0=[1.0, 0.0], yT=[0.5, 0.5])
        # the last rk4 difference is 3e-12, so Newton must end well below it
        p0 = np.array([solve_bvp(shooting_for(problem, dt=dt, scheme=scheme,
                                              tolerance=1e-13)).p0
                       for dt in 0.05 / 2.0 ** np.arange(5)])
        differences = np.abs(np.diff(p0, axis=0)).max(axis=1)
        observed = np.log2(differences[:-1] / differences[1:])
        assert np.abs(observed - order).max() <= 0.15, observed


class TestReachableSleighTargets:
    """The sleigh from y0 = (0.5, 0.2) to 12 targets reachable by
    construction: the endpoints at T = 1 of ``simulate`` under smooth
    controls c0 + c1 sin 2 pi t + c2 cos 2 pi t on input 0 (rng seed 3).
    Each is solved with that one input and with full actuation, without a
    guess, from its answer and from 0.9 times it; from the zero guess one
    one-input target stalls at 0.358."""

    Y0 = [0.5, 0.2]

    def targets(self, system):
        one = ControlDistribution.on_indices(2, [0])
        ends = []
        for c in np.random.default_rng(3).normal(size=(12, 3)):
            u = lambda t, c=c: [c[0] + c[1] * np.sin(2 * np.pi * t) + c[2] * np.cos(2 * np.pi * t)]
            ends.append(simulate(system, StateQY(q=[], y=self.Y0), 1.0, 1e-2, controls=one,
                                 u=u).ys[-1])
        return ends

    def test_every_target_converges_without_a_guess(self, chaplygin_system):
        for y_target in self.targets(chaplygin_system):
            for controls in (ControlDistribution.on_indices(2, [0]),
                             ControlDistribution.full(2)):
                problem = OCProblem(system=chaplygin_system, controls=controls,
                                    cost=quadratic_cost(np.eye(controls.k)), horizon=1.0,
                                    y0=self.Y0, yT=y_target)
                sp = shooting_for(problem, dt=1e-2)
                result = solve_bvp(sp)
                assert result.residual_norm <= sp.tolerance
                assert result.residual_norm == np.abs(shooting_residual(sp, result.p0)).max()
                # the answer as guess is its own full flow, and a near guess
                # seeds segments that converge
                exact = solve_bvp(sp, result.p0)
                assert exact.iterations == 0
                assert exact.p0.tobytes() == result.p0.tobytes()
                near = solve_bvp(sp, 0.9 * result.p0)
                assert near.residual_norm <= sp.tolerance


class TestChartDerivatives:
    """Shooting on the curved model without analytic partials: the model
    callables are differentiated by the complex step, so the drift Jacobians
    carry no nested finite-difference error."""

    def shooting(self, q_target, partials):
        model = curved_model()
        if not partials:
            model = replace(model, partials=ModelPartials())
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(2)))
        problem = OCProblem(system=system, controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.eye(2)), horizon=1.0,
                            q0=[0.0], y0=[0.0, 0.0], qT=[q_target], yT=[0.0, 0.0])
        return shooting_for(problem, dt=0.1)

    def test_near_target_takes_the_analytic_iterations(self):
        default = solve_bvp(self.shooting(0.025, partials=False))
        analytic = solve_bvp(self.shooting(0.025, partials=True))
        assert default.iterations == analytic.iterations == 2
        assert np.abs(default.p0 - analytic.p0).max() < 1e-9

    @pytest.mark.parametrize("q_target", [0.08, 0.2, -0.15])
    def test_targets_that_stalled_converge(self, q_target):
        # each stalled with finite-difference model partials
        result = solve_bvp(self.shooting(q_target, partials=False))
        assert result.residual_norm < 1e-10

    def test_far_target_converges(self):
        # stalled at a residual of 8e-3 with finite-difference model partials
        result = solve_bvp(self.shooting(-0.3, partials=False))
        assert result.iterations == 4
        assert result.residual_norm < 1e-10
        assert np.abs(result.p0 - [-2.5227, -1.4226, -0.6748]).max() < 1e-4


class TestExtremalDiagnostics:
    @pytest.mark.parametrize("cost", [quadratic_cost(np.diag([1.0, 2.0])), quartic_cost()])
    def test_stacked_samples_equal_the_per_point_formulas(self, cost):
        # one stacked geometry build gives H and the energies of all samples
        model = replace(curved_model(), partials=ModelPartials())
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(2)))
        problem = OCProblem(system=system, controls=ControlDistribution([[1.0, 0.5], [0.0, 1.0]]),
                            cost=cost, horizon=0.2, q0=[0.1], y0=[0.3, -0.2], qT=[0.2],
                            yT=[0.0, 0.0])
        sp = shooting_for(problem, dt=0.05)
        traj = extremal_trajectory(sp, [0.5, -0.4, 0.3])[0]
        for k in range(len(traj)):
            q, y, p_q, p_y = traj.qs[k], traj.ys[k], traj.p_qs[k], traj.p_ys[k]
            phase = PhasePoint(q=q, y=y, p_q=p_q, p_y=p_y)
            assert np.float64(sp.hs.value(phase)).tobytes() == traj.hamiltonians[k].tobytes()
            assert np.float64(system.energy(q, y)).tobytes() == traj.energies[k].tobytes()
            u = traj.controls[k]
            assert np.abs(cost.du(q, y, u) - problem.controls.input_matrix.T @ p_y).max() < 1e-12
            h = (p_y @ (problem.controls.input_matrix @ u - drift_acceleration(system, q, y))
                 + p_q @ (system.anchor_d(q).T @ y) - cost.value(q, y, u))
            assert abs(traj.hamiltonians[k] - h) <= 1e-14 * max(1.0, abs(h))

    @pytest.mark.parametrize("problem", ["sleigh", "curved_quartic"])
    def test_cost_is_the_quadrature_of_the_running_cost(self, problem, chaplygin_system):
        # solve_bvp takes the running cost of the extremal's own samples
        problem = (sleigh_problem(chaplygin_system) if problem == "sleigh"
                   else curved_quartic_problem())
        sp = shooting_for(problem, dt=0.1, scheme="stormer_verlet")
        result = solve_bvp(sp)
        assert result.cost > 0
        assert np.float64(result.cost).tobytes() == np.float64(
            trajectory_cost(sp, result.trajectory)).tobytes()
        # the exit-4 path of `nhoc optimize` takes its cost the same way
        trajectory, cost = extremal_trajectory(sp, result.p0)
        assert np.float64(cost).tobytes() == np.float64(
            trajectory_cost(sp, trajectory)).tobytes()


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

    def test_blowup_during_line_search_degrades_to_divergence(self, chaplygin_system,
                                                              monkeypatch):
        # single shooting (10 steps; segments of 10 steps would stay finite)
        # to a distant target: the first full step's stack leaves the finite
        # range, and the line search halves the step instead of aborting the
        # solve with NonFiniteState
        problem = replace(sleigh_problem(chaplygin_system), y0=[1.0, 0.0], yT=[40.0, 40.0])
        sp = shooting_for(problem, dt=0.1, max_iterations=1)
        failed = []
        flow = bvp.integrate_hamiltonian

        def recording(hs, phase0, *args):
            try:
                return flow(hs, phase0, *args)
            except NonFiniteState:
                failed.append(phase0.p_y.shape)
                raise

        monkeypatch.setattr(bvp, "integrate_hamiltonian", recording)
        with pytest.raises(NewtonDivergence) as info:
            solve_bvp(sp)
        assert failed == [(3, 2)]
        assert info.value.iterations == 1
        # the accepted damped trial is the best iterate
        assert np.any(info.value.best != 0.0)
        assert info.value.residual_norm < np.abs(shooting_residual(sp, np.zeros(2))).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_guess_rejected_before_any_flow(self, bad, flows, chaplygin_system):
        sp = shooting_for(sleigh_problem(chaplygin_system), dt=0.1)
        seen, _ = flows
        with pytest.raises(ValidationError,
                           match="^initial momenta guess has non-finite entries$"):
            solve_bvp(sp, [bad, 0.0])
        assert seen == []

    def test_one_input_from_rest_has_a_singular_jacobian(self, chaplygin_system):
        # from rest, the unactuated momentum moves nothing to first order:
        # its Jacobian column is zero
        problem = OCProblem(system=chaplygin_system,
                            controls=ControlDistribution.on_indices(2, [0]),
                            cost=quadratic_cost(np.eye(1)), horizon=1.0,
                            y0=[0.0, 0.0], yT=[0.3, 0.2])
        with pytest.raises(SingularJacobian, match="shooting Jacobian is singular"):
            solve_bvp(shooting_for(problem, dt=0.1))

    def test_dt_must_divide_horizon(self, double_integrator_problem):
        hs = HamiltonianSystem(double_integrator_problem)
        with pytest.raises(DimensionMismatch):
            ShootingProblem(hs=hs, dt=0.3, scheme="rk4")

    def test_missing_boundary_detected(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)  # no boundary data
        hs = HamiltonianSystem(problem)
        with pytest.raises(DimensionMismatch):
            ShootingProblem(hs=hs, dt=1e-3)

    @pytest.mark.parametrize("tolerance", [np.nan, 0.0, -1.0, np.inf])
    def test_tolerance_must_be_positive_and_finite(self, double_integrator_problem, tolerance):
        with pytest.raises(DimensionMismatch, match="positive and finite"):
            shooting_for(double_integrator_problem, tolerance=tolerance)

    def test_iteration_budget_must_not_be_negative(self, double_integrator_problem):
        with pytest.raises(DimensionMismatch):
            shooting_for(double_integrator_problem, max_iterations=-1)
        assert shooting_for(double_integrator_problem, max_iterations=0).max_iterations == 0

    @pytest.mark.parametrize("settings", [dict(scheme="bogus"), dict(max_iterations=2.5),
                                          dict(max_iterations=3.0)],
                             ids=["unknown_scheme", "fractional_budget", "float_budget"])
    def test_bad_settings_rejected_before_any_flow(self, double_integrator_problem, settings,
                                                   monkeypatch):
        monkeypatch.setattr(bvp, "integrate_hamiltonian", None)
        with pytest.raises(DimensionMismatch):
            shooting_for(double_integrator_problem, **settings)

    def test_boundary_data_are_read_from_the_problem(self, chaplygin_system):
        # a model over a point has its chart boundary on the empty chart point
        problem = sleigh_problem(chaplygin_system)
        assert problem.q0.shape == problem.qT.shape == (0,)
        sp = ShootingProblem(hs=HamiltonianSystem(problem), dt=0.1)
        assert len(fields(sp)) == 5
        p0 = np.array([0.3, -0.2])
        _, phases = hamiltonian.integrate_hamiltonian(
            sp.hs, PhasePoint(q=problem.q0, y=problem.y0, p_q=[], p_y=p0), 1.0, 0.1, "rk4")
        assert shooting_residual(sp, p0).tobytes() == (phases[-1, :2] - problem.yT).tobytes()


def _sleigh_problem():
    system = build_constrained_system(*make_chaplygin(m=1.0, J=1.0, a=1.0, b=0.0))
    return OCProblem(system=system, controls=ControlDistribution.full(2),
                     cost=quadratic_cost(np.eye(2)), horizon=1.0,
                     y0=[0.5, 0.2], yT=[0.4, 0.3])


def _trajectory():
    return Trajectory(times=np.arange(2.0), qs=np.zeros((2, 0)), ys=np.ones((2, 2)))


ARRAY_HOLDERS = {
    "ConstraintSpec": lambda: ConstraintSpec(annihilator=[[0.0, 0.0, 1.0]]),
    "StateQY": lambda: StateQY(q=[], y=[1.0, 0.0]),
    "Trajectory": _trajectory,
    "CostModel": lambda: quadratic_cost(np.eye(2)),
    "ControlDistribution": lambda: ControlDistribution.full(2),
    "OCProblem": _sleigh_problem,
    "ExtremalState": lambda: ExtremalState(y=[1.0, 0.0], v=[0.0, 0.0]),
    "PhasePoint": lambda: PhasePoint(q=[], y=[1.0, 0.0], p_q=[], p_y=[0.0, 1.0]),
    "ShootingProblem": lambda: shooting_for(_sleigh_problem(), dt=0.1),
    "ShootingResult": lambda: bvp.ShootingResult(p0=np.zeros(2), trajectory=_trajectory(),
                                                 cost=0.0, iterations=0, residual_norm=0.0),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2
