from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from nhoc import (ConstrainedSystem, ConstraintSpec, ControlDistribution, CostModel, ExtremalState,
                  ModelPartials, OCProblem, PhasePoint, StateQY, drift_acceleration,
                  integrate_extremal, inverse_legendre, legendre_map, make_double_integrator,
                  necessary_conditions_field, nonholonomic_field, quadratic_cost, recover_controls)
from nhoc.errors import DimensionMismatch, NonFiniteState, SingularHessian, ValidationError
from nhoc.numerics import fd_jacobian
from nhoc.optimal_control import drift_jacobians

from conftest import curved_model, field_systems, full_actuation_problem, quartic_cost


def maxabs(a):
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


class TestLiftCost:
    """The cost Lagrangian on the second-order constraint space: C at the
    control recovered from (q, y, ydot)."""

    def test_flat_drift_free(self, double_integrator_problem):
        problem = double_integrator_problem
        q, y, ydot = [0.0], [0.0], [0.0]
        assert problem.cost.value(q, y, recover_controls(problem, q, y, ydot)) == 0.0

    def test_chaplygin_drift_cancellation_cost(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)
        q, y, ydot = [], [1.0, 2.0], [0.0, 0.0]
        assert abs(problem.cost.value(q, y, recover_controls(problem, q, y, ydot)) - 1.0) < 1e-14

    def test_uncontrolled_motion_is_free(self, suslov_system):
        problem = full_actuation_problem(suslov_system)
        # ydot equal to the drift needs no control
        q, y, ydot = [], [1.0, 1.0], [-0.15, 0.1]
        assert abs(problem.cost.value(q, y, recover_controls(problem, q, y, ydot))) < 1e-25


class TestRecoverControls:
    def test_drift_following_needs_no_control(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)
        u = recover_controls(problem, [], [1.0, 2.0], [-1.0, 1.0])
        assert np.abs(u).max() < 1e-14

    def test_chaplygin_drift_cancellation(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)
        u = recover_controls(problem, [], [1.0, 2.0], [0.0, 0.0])
        assert np.abs(u - [1.0, -1.0]).max() < 1e-14

    def test_flat_passthrough(self, double_integrator_problem):
        u = recover_controls(double_integrator_problem, [0.2], [0.5], [3.0])
        assert np.abs(u - [3.0]).max() < 1e-15

    @staticmethod
    def controlled_ydot(system, controls, y, u):
        """The controlled field's ydot: the free field's plus B u."""
        return nonholonomic_field(system, StateQY(q=[], y=y))[1] + controls.input_matrix @ u

    def test_roundtrip_with_the_free_field_plus_input(self, suslov_system):
        problem = full_actuation_problem(suslov_system)
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = rng.uniform(-1, 1, 2)
            ydot = rng.uniform(-1, 1, 2)
            u = recover_controls(problem, [], y, ydot)
            realized = self.controlled_ydot(suslov_system, problem.controls, y, u)
            assert np.abs(realized - ydot).max() < 1e-12

    def test_roundtrip_with_mixing_inputs(self, chaplygin_system):
        controls = ControlDistribution(input_matrix=[[1.0, 1.0], [0.0, 1.0]])
        problem = OCProblem(system=chaplygin_system, controls=controls,
                            cost=quadratic_cost(np.eye(2)), horizon=1.0)
        y, ydot = np.array([0.4, -0.2]), np.array([0.3, 0.1])
        u = recover_controls(problem, [], y, ydot)
        realized = self.controlled_ydot(chaplygin_system, controls, y, u)
        assert np.abs(realized - ydot).max() < 1e-13

    @pytest.mark.parametrize("input_matrix, ydot, message", [
        ([[0.6], [0.8]], [0.1], "input matrix is neither basis-aligned nor square"),
        ([[1.0, 1.0], [0.0, 1.0]], [0.1], r"ydot has shape \(1,\), expected \(2,\)"),
        ([[1.0], [0.0]], [0.1, 0.2], r"ydot has shape \(2,\), expected \(1,\)")],
        ids=["neither", "square", "aligned"])
    def test_each_input_matrix_names_its_shape(self, chaplygin_system, input_matrix, ydot,
                                               message):
        problem = OCProblem(system=chaplygin_system,
                            controls=ControlDistribution(input_matrix=input_matrix),
                            cost=quadratic_cost(np.eye(len(input_matrix[0]))), horizon=1.0)
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            recover_controls(problem, [], [0.4, -0.2], ydot)

    def test_cost_must_take_one_control_per_input(self, chaplygin_system):
        with pytest.raises(DimensionMismatch,
                           match="^cost control dimension does not match input count$"):
            OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                      cost=quadratic_cost(np.eye(1)), horizon=1.0)


class TestNecessaryConditions:
    def test_double_integrator_reduction(self, double_integrator_problem):
        state = ExtremalState(q=[0.3], y=[0.7], v=[-0.2], lam=[1.5])
        ds = necessary_conditions_field(double_integrator_problem, state)
        assert abs(ds.q[0] - 0.7) < 1e-12
        assert abs(ds.y[0] + 0.2) < 1e-12
        assert abs(ds.v[0] + 1.5) < 1e-12
        assert abs(ds.lam[0]) < 1e-12

    def test_lie_algebra_state_has_no_chart_block(self, suslov_system):
        problem = full_actuation_problem(suslov_system)
        state = ExtremalState(y=[1.0, 0.5], v=[0.1, -0.2])
        ds = necessary_conditions_field(problem, state)
        assert ds.q.size == 0 and ds.lam.size == 0
        assert ds.y.shape == (2,) and ds.v.shape == (2,)

    def test_euler_lagrange_residual_along_trajectory(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)
        dt = 1e-4
        state0 = ExtremalState(y=[1.0, 0.0], v=[0.0, 0.0])
        times, states = integrate_extremal(problem, state0, 0.3, dt)

        def momentum(s):
            u = recover_controls(problem, s.q, s.y, s.v)
            return problem.cost.du(s.q, s.y, u)

        def dl_dy(s):
            u = recover_controls(problem, s.q, s.y, s.v)
            h = 1e-6
            out = np.empty(2)
            for i in range(2):
                dy = np.zeros(2)
                dy[i] = h
                up = recover_controls(problem, s.q, s.y + dy, s.v)
                dn = recover_controls(problem, s.q, s.y - dy, s.v)
                out[i] = (problem.cost.value(s.q, s.y + dy, up)
                          - problem.cost.value(s.q, s.y - dy, dn)) / (2 * h)
            return out

        worst = 0.0
        for k in range(1, len(states) - 1, 250):
            pdot = (momentum(states[k + 1]) - momentum(states[k - 1])) / (2 * dt)
            worst = max(worst, np.abs(pdot - dl_dy(states[k])).max())
        assert worst < 1e-6

    def test_cubic_extremals(self, double_integrator_problem):
        dt = 1e-2
        state0 = ExtremalState(q=[0.0], y=[0.0], v=[6.0], lam=[12.0])
        _, states = integrate_extremal(double_integrator_problem, state0, 1.0, dt)
        qs = np.array([s.q[0] for s in states])
        third = np.diff(qs, n=3) / dt ** 3
        assert np.ptp(third) < 1e-6

    def test_blow_up_raises(self, chaplygin_system):
        # numpy only warns on the overflow; the integrator must raise
        problem = full_actuation_problem(chaplygin_system)
        with pytest.raises(NonFiniteState):
            integrate_extremal(problem, ExtremalState(y=[50.0, 50.0], v=[0.0, 0.0]), 5.0, 0.05)

    @pytest.mark.parametrize("matrix", [[[1.0], [1.0]], [[1.0, 1.0], [0.0, 1.0]]])
    def test_mixing_inputs_raise(self, chaplygin_system, matrix):
        # inputs that are not basis-aligned have no Lagrangian field
        controls = ControlDistribution(input_matrix=matrix)
        problem = OCProblem(system=chaplygin_system, controls=controls,
                            cost=quadratic_cost(np.eye(controls.k)), horizon=1.0)
        state = ExtremalState(y=[1.0, 0.0], v=np.zeros(controls.k))
        with pytest.raises(DimensionMismatch):
            necessary_conditions_field(problem, state)
        with pytest.raises(DimensionMismatch):
            integrate_extremal(problem, state, 0.1, 0.01)

    def test_singular_weight_raises(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system,
                            controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.diag([1.0, 0.0])), horizon=1.0)
        with pytest.raises(SingularHessian):
            necessary_conditions_field(problem, ExtremalState(y=[1.0, 0.0], v=[0.1, 0.2]))


class TestUnderactuated:
    def test_chaplygin_unactuated_acceleration_from_drift(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system,
                            controls=ControlDistribution.on_indices(2, [0]),
                            cost=quadratic_cost(np.eye(1)), horizon=1.0)
        state = ExtremalState(y=[1.0, 0.0], v=[0.0], lam_bar=[0.0])
        ds = necessary_conditions_field(problem, state)
        assert abs(ds.y[1] - 1.0) < 1e-14  # Phi^2 = 0 forces ydot_2 = y1^2

    def test_suslov_unactuated_acceleration(self, suslov_system):
        problem = OCProblem(system=suslov_system,
                            controls=ControlDistribution.on_indices(2, [0]),
                            cost=quadratic_cost(np.eye(1)), horizon=1.0)
        state = ExtremalState(y=[1.0, 1.0], v=[0.0], lam_bar=[0.0])
        ds = necessary_conditions_field(problem, state)
        # ydot_2 = (I13/I22 y1 + I23/I22 y2) y1 = 0.1 for the standard inertia
        assert abs(ds.y[1] - 0.1) < 1e-14

    def test_drift_constraint_preserved_along_flow(self, chaplygin_system):
        from nhoc.dynamics import drift_acceleration
        problem = OCProblem(system=chaplygin_system,
                            controls=ControlDistribution.on_indices(2, [0]),
                            cost=quadratic_cost(np.eye(1)), horizon=1.0)
        dt = 1e-4
        state0 = ExtremalState(y=[0.4, 0.1], v=[0.05], lam_bar=[0.02])
        times, states = integrate_extremal(problem, state0, 0.5, dt)
        ys = np.array([s.y for s in states])
        ydot_fd = (ys[2:] - ys[:-2]) / (2 * dt)
        worst = 0.0
        for k in range(1, len(states) - 1, 100):
            drift = drift_acceleration(chaplygin_system, states[k].q, states[k].y)
            worst = max(worst, abs(ydot_fd[k - 1][1] + drift[1]))
        assert worst < 1e-8

    def test_dimension_checks(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system,
                            controls=ControlDistribution.on_indices(2, [0]),
                            cost=quadratic_cost(np.eye(1)), horizon=1.0)
        with pytest.raises(DimensionMismatch):
            necessary_conditions_field(problem, ExtremalState(y=[1.0, 0.0], v=[0.0, 0.0]))


class TestControlDistribution:
    def test_identity_matrix_is_basis_aligned(self):
        controls = ControlDistribution(input_matrix=np.eye(2))
        assert controls.actuated_indices == (0, 1)
        assert ControlDistribution.full(3).actuated_indices == (0, 1, 2)

    def test_non_finite_input_matrix_rejected(self):
        with pytest.raises(ValidationError):
            ControlDistribution(input_matrix=[[np.nan, 0.0], [0.0, 1.0]])

    def test_indices_follow_the_columns(self):
        controls = ControlDistribution.on_indices(3, [2, 0])
        assert controls.actuated_indices == (2, 0)
        assert np.array_equal(controls.input_matrix, [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize("matrix", [[[1.0], [1.0]], [[2.0], [0.0]], [[1.0, 1.0], [0.0, 1.0]]])
    def test_mixing_inputs_have_no_indices(self, matrix):
        controls = ControlDistribution(input_matrix=matrix)
        assert controls.actuated_indices is None

    @pytest.mark.parametrize("indices", [[-1], [5], [0, 2], [0, 0]])
    def test_bad_indices_raise(self, indices):
        with pytest.raises(DimensionMismatch):
            ControlDistribution.on_indices(2, indices)


def coupled_quartic(partials):
    """C = |u|^2/2 + |u|^4/4 + 0.3 sin(q0) y.u, with the analytic ``cu`` only
    when ``partials`` is "cu", and else with its evaluator alone."""
    def cu(q, y, u):
        return u * (1.0 + u @ u) + 0.3 * np.sin(q[0]) * y

    return CostModel(evaluator=lambda q, y, u: (0.5 * u @ u + 0.25 * (u @ u) ** 2
                                                + 0.3 * np.sin(q[0]) * (y @ u)),
                     k=2, cu=cu if partials == "cu" else None)


class TestCostModel:
    @pytest.mark.parametrize("partials, tol", [("cu", 1e-9), ("evaluator", 1e-6)])
    def test_second_derivatives_match_the_analytic_quartic(self, partials, tol):
        cost = coupled_quartic(partials)
        q, y, u = np.array([0.4]), np.array([0.7, -0.2]), np.array([0.5, -0.8])
        cuu = (1.0 + u @ u) * np.eye(2) + 2.0 * np.outer(u, u)
        assert np.abs(cost.d2uu(q, y, u) - cuu).max() < tol
        c_uq, c_uy = cost.d2ux(q, y, u)
        assert c_uq.shape == (2, 1) and c_uy.shape == (2, 2)
        assert c_uq.flags.c_contiguous and c_uy.flags.c_contiguous
        assert np.abs(c_uq[:, 0] - 0.3 * np.cos(q[0]) * y).max() < tol
        assert np.abs(c_uy - 0.3 * np.sin(q[0]) * np.eye(2)).max() < tol

    @pytest.mark.parametrize("partials", ["cu", "evaluator"])
    def test_mixed_partials_without_a_chart(self, partials):
        # a cost of (y, u) only, on an empty chart point: C_uq is (k, 0)
        base = coupled_quartic(partials)
        cost = replace(base, evaluator=lambda q, y, u: base.evaluator([0.5], y, u),
                       cu=None if base.cu is None else lambda q, y, u: base.cu([0.5], y, u))
        c_uq, c_uy = cost.d2ux(np.zeros(0), np.array([0.7, -0.2]), np.array([0.5, -0.8]))
        assert c_uq.shape == (2, 0)
        assert np.abs(c_uy - 0.3 * np.sin(0.5) * np.eye(2)).max() < 1e-6

    def test_fd_partials_match_quadratic(self):
        w = np.array([[2.0, 0.3], [0.3, 1.0]])
        exact = quadratic_cost(w)
        fd = CostModel(evaluator=exact.evaluator, k=2)
        q, y, u = np.zeros(0), np.zeros(2), np.array([0.7, -0.4])
        assert np.abs(exact.du(q, y, u) - fd.du(q, y, u)).max() < 1e-9
        assert np.abs(exact.d2uu(q, y, u) - fd.d2uu(q, y, u)).max() < 1e-6

    def test_weight_symmetry_required(self):
        with pytest.raises(DimensionMismatch):
            quadratic_cost([[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("make, error", [
        (lambda: CostModel(evaluator=lambda q, y, u: 0.5 * float(u @ u), k=2,
                           weight=np.eye(3)), DimensionMismatch),
        (lambda: CostModel(evaluator=lambda q, y, u: 0.5 * float(u @ u), k=2,
                           weight=[[1.0, 0.5], [0.0, 1.0]]), DimensionMismatch),
        (lambda: quadratic_cost([[np.nan, 0.0], [0.0, 1.0]]), ValidationError),
    ], ids=["shape", "asymmetric", "non_finite"])
    def test_every_weighted_cost_checks_its_weight(self, make, error):
        # the one home of the check is CostModel, which every weighted cost passes
        with pytest.raises(error):
            make()

    @pytest.mark.parametrize("horizon,boundary,error", [
        (np.nan, {}, DimensionMismatch), (np.inf, {}, DimensionMismatch),
        (1.0, dict(yT=[np.nan, 0.0]), ValidationError),
        (1.0, dict(y0=[0.0, np.inf]), ValidationError),
    ])
    def test_non_finite_problem_rejected(self, chaplygin_system, horizon, boundary, error):
        with pytest.raises(error):
            OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                      cost=quadratic_cost(np.eye(2)), horizon=horizon, **boundary)

    def test_non_finite_chart_boundary_rejected(self, double_integrator_problem):
        p = double_integrator_problem
        with pytest.raises(ValidationError, match="^chart point has non-finite entries$"):
            OCProblem(system=p.system, controls=p.controls, cost=p.cost, horizon=1.0,
                      q0=[np.nan], y0=[0.0], qT=[1.0], yT=[0.0])

    def test_problem_validation(self, chaplygin_system):
        with pytest.raises(DimensionMismatch):
            OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                      cost=quadratic_cost(np.eye(2)), horizon=-1.0)
        with pytest.raises(DimensionMismatch):
            OCProblem(system=chaplygin_system, controls=ControlDistribution.full(3),
                      cost=quadratic_cost(np.eye(3)), horizon=1.0)
        with pytest.raises(DimensionMismatch):
            OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                      cost=quadratic_cost(np.eye(2)), horizon=1.0, y0=[1.0])


class TestDriftJacobians:
    @pytest.mark.parametrize("name", ["analytic", "default", "constant_with_potential",
                                      "suslov_unflagged"])
    def test_stacked_rows_have_the_floats_of_the_point_formulas(self, name):
        # the curved model with its analytic partials or without them, and
        # two more systems of the free field's chart branch
        if name in ("analytic", "default"):
            model = curved_model()
            if name == "default":
                model = replace(model, partials=ModelPartials())
            system = ConstrainedSystem(model, ConstraintSpec(span_basis=np.eye(2)))
        else:
            system = field_systems()[name]
        q = np.array([[0.4, 0.2], [-0.3, 0.5], [1.1, -0.6]])[:, :system.dim_q]
        y = np.array([[0.3, -0.2], [0.0, 0.5], [-1.0, 0.7]])
        drift, ddq, ddy, geo = system.drift_rows(q, y)
        for k in range(len(q)):
            assert drift[k].tobytes() == drift_acceleration(system, q[k], y[k]).tobytes()
            # the central difference of fd_jacobian, through the geometry; on
            # a chart-independent model Gamma is constant, and of grad V alone
            if system.parent.q_independent:
                rest = np.zeros(system.rank_d)  # the drift at rest is grad V
                central = fd_jacobian(lambda qq: drift_acceleration(system, qq, rest), q[k])
            else:
                central = fd_jacobian(lambda qq: drift_acceleration(system, qq, y[k]), q[k])
            assert ddq[k].shape == central.shape and ddq[k].tobytes() == central.tobytes()
            point_drift, point_ddq, point_ddy, point_geo = drift_jacobians(system, q[k], y[k])
            assert point_drift.tobytes() == drift[k].tobytes()
            assert point_ddq.tobytes() == central.tobytes()
            assert point_geo["anchor_d"].tobytes() == geo["anchor_d"][k].tobytes()
            assert ddy[k].tobytes() == point_ddy.tobytes()
            assert geo["gamma"][k].tobytes() == system.gamma(q[k]).tobytes()


class TestMultiplierLength:
    """A multiplier lambda of the wrong length is a DimensionMismatch, not a
    matmul error or a phase point of the wrong shape."""

    def test_suslov_field_and_flow(self, suslov_system):
        problem = full_actuation_problem(suslov_system)
        state = ExtremalState(y=[0.4, 0.3], v=[0.1, -0.2], lam=[1.0])
        with pytest.raises(DimensionMismatch, match=r"^lam has shape \(1,\), expected \(0,\)$"):
            necessary_conditions_field(problem, state)
        with pytest.raises(DimensionMismatch, match=r"^lam has shape \(1,\), expected \(0,\)$"):
            integrate_extremal(problem, state, 0.1, 0.01)

    @pytest.mark.parametrize("lam", [[1.0], None])
    def test_double_integrator_legendre_map(self, lam):
        system = ConstrainedSystem(*make_double_integrator(2))
        problem = full_actuation_problem(system)
        state = ExtremalState(q=[0.1, 0.2], y=[0.3, -0.1], v=[0.2, 0.1],
                              **({} if lam is None else {"lam": lam}))
        message = r"^lam has shape \([01],\), expected \(2,\)$"
        for call in (legendre_map, necessary_conditions_field):
            with pytest.raises(DimensionMismatch, match=message):
                call(problem, state)
        with pytest.raises(DimensionMismatch, match=message):
            integrate_extremal(problem, state, 0.1, 0.01)
        assert legendre_map(problem, replace(state, lam=np.array([0.5, -0.5]))).p_q.shape == (2,)

    @pytest.mark.parametrize("lam_bar", [[], [0.1, 0.2]])
    def test_underactuated_multiplier_bar_length(self, chaplygin_system, lam_bar):
        problem = OCProblem(system=chaplygin_system,
                            controls=ControlDistribution.on_indices(2, [0]),
                            cost=quadratic_cost(np.eye(1)), horizon=1.0)
        state = ExtremalState(y=[0.4, 0.3], v=[0.1], lam_bar=lam_bar)
        with pytest.raises(DimensionMismatch,
                           match=r"^lam_bar has shape \([02],\), expected \(1,\)$"):
            necessary_conditions_field(problem, state)


class TestFieldCalls:
    def test_field_reads_the_anchor_partials_of_its_build(self):
        # one build at the row and its stencil (1 + 2 dim_q points), and one
        # complex step of the real anchor at the row, whose fallback reads
        # the stencil: no second anchor pass; the metric at every point, once
        # per chart direction for its complex step and twice for its check
        counts = Counter()
        base = replace(curved_model(), partials=ModelPartials())
        model = replace(base, **{name: lambda q, f=getattr(base, name), name=name:
                                 counts.update([name]) or f(q) for name in ("anchor", "metric")})
        problem = full_actuation_problem(
            ConstrainedSystem(model, ConstraintSpec(span_basis=np.eye(2))))
        for cost in (quadratic_cost(np.eye(2)), quartic_cost()):
            counts.clear()
            necessary_conditions_field(replace(problem, cost=cost), ExtremalState(
                q=[0.2], y=[0.3, -0.4], v=[0.1, -0.2], lam=[0.5]))
            assert counts == {"anchor": 4, "metric": 3 * (1 + 1 + 2)}


class TestFiberLength:
    """A fiber velocity of the wrong length is a DimensionMismatch at every
    one-row read of the drift, not an einsum error."""

    @pytest.mark.parametrize("call", [
        lambda p, y: drift_acceleration(p.system, [], y),
        lambda p, y: drift_jacobians(p.system, [], y),
        lambda p, y: recover_controls(p, [], y, [0.0, 0.0]),
        lambda p, y: legendre_map(p, ExtremalState(q=[], y=y, v=[0.0, 0.0])),
        lambda p, y: inverse_legendre(p, PhasePoint(q=[], y=y, p_q=[], p_y=[0.1, 0.2])),
        lambda p, y: necessary_conditions_field(p, ExtremalState(q=[], y=y, v=[0.0, 0.0])),
    ], ids=["drift_acceleration", "drift_jacobians", "recover_controls", "legendre_map",
            "inverse_legendre", "necessary_conditions_field"])
    @pytest.mark.parametrize("y", [[0.0, 0.0, 0.0], [0.5]])
    def test_wrong_length_is_named(self, chaplygin_system, call, y):
        with pytest.raises(DimensionMismatch, match="fiber velocity"):
            call(full_actuation_problem(chaplygin_system), y)
