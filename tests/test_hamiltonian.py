import re
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
import warnings

import numpy as np
import pytest

from nhoc import (ConstrainedSystem, ControlDistribution, CostModel, ExtremalState,
                  HamiltonianSystem, OCProblem, PhasePoint, ShootingProblem, constant_model,
                  extremal_trajectory, integrate_extremal, integrate_hamiltonian, integrate_step,
                  inverse_legendre, legendre_map, make_double_integrator,
                  necessary_conditions_field, quadratic_cost, recover_controls, regularity_matrix,
                  symplecticity_defect)
from nhoc import ModelPartials, algebroid, hamiltonian, numerics
from nhoc.algebroid import ConstraintSpec
from nhoc.dynamics import drift_acceleration
from nhoc.errors import (DimensionMismatch, FixedPointDivergence, LegendreDivergence,
                         NhocError, NonFiniteState, SingularHessian, ValidationError)
from nhoc.numerics import fd_partials, matvec_rows

from conftest import curved_model, full_actuation_problem, point_partials, quartic_cost


def state_dependent_cost():
    # C = |u|^2/2 + |u|^4/4 + 0.3 sin(q) y.u + q^2 |y|^2/2: analytic cu and
    # cuu for the Legendre inversion, finite-difference cq and cy
    def cu(q, y, u):
        return u * (1.0 + u @ u) + 0.3 * np.sin(q[0]) * y

    def cuu(q, y, u):
        return (1.0 + u @ u) * np.eye(u.size) + 2.0 * np.outer(u, u)

    return CostModel(evaluator=lambda q, y, u: (0.5 * u @ u + 0.25 * (u @ u) ** 2
                                                + 0.3 * np.sin(q[0]) * (y @ u)
                                                + 0.5 * q[0] ** 2 * (y @ y)),
                     k=2, cu=cu, cuu=cuu)


def curved_problem(cost):
    system = ConstrainedSystem(curved_model(), ConstraintSpec(span_basis=np.eye(2)))
    return OCProblem(system=system, controls=ControlDistribution.full(2), cost=cost,
                     horizon=1.0)


# the inputs and costs of the kernel tests: one per branch of the Legendre
# map of a quadratic cost, and a cost that is not quadratic
KERNEL_COSTS = {
    "full": (ControlDistribution.full(2), quadratic_cost(np.eye(2))),
    "weighted": (ControlDistribution.full(2), quadratic_cost([[2.0, 0.1], [0.1, 1.5]])),
    "one": (ControlDistribution.on_indices(2, [1]), quadratic_cost([[0.5]])),
    "mixing": (ControlDistribution(np.array([[1.0, 0.5], [0.2, 1.0]])), quadratic_cost(np.eye(2))),
    "quartic": (ControlDistribution.full(2), quartic_cost()),
}


def flat_lie_algebra_problem():
    model = constant_model(np.zeros((2, 2, 2)), np.eye(2))
    system = ConstrainedSystem(model, ConstraintSpec(span_basis=np.eye(2)))
    return full_actuation_problem(system)


class TestLegendre:
    def test_drift_following_state_has_zero_momentum(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)
        drift = -drift_acceleration(chaplygin_system, np.zeros(0), np.array([1.0, 2.0]))
        phase = legendre_map(problem, ExtremalState(y=[1.0, 2.0], v=drift))
        assert np.abs(phase.p_y).max() < 1e-14

    def test_chaplygin_momenta_equal_controls(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)
        phase = legendre_map(problem, ExtremalState(y=[1.0, 2.0], v=[0.0, 0.0]))
        assert np.abs(phase.p_y - [1.0, -1.0]).max() < 1e-14

    def test_double_integrator_passthrough(self, double_integrator_problem):
        phase = legendre_map(double_integrator_problem,
                             ExtremalState(q=[0.0], y=[0.0], v=[3.0], lam=[2.0]))
        assert abs(phase.p_q[0] - 2.0) < 1e-15
        assert abs(phase.p_y[0] - 3.0) < 1e-15

    def test_inverse_closed_form(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)
        rng = np.random.default_rng(2)
        for _ in range(20):
            y, p = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            state = inverse_legendre(problem, PhasePoint(q=[], y=y, p_q=[], p_y=p))
            gamma_quad = drift_acceleration(chaplygin_system, np.zeros(0), y)
            assert np.abs(state.v - (p - gamma_quad)).max() < 1e-14

    def test_zero_momentum_recovers_drift(self, suslov_system):
        problem = full_actuation_problem(suslov_system)
        y = np.array([1.0, 1.0])
        state = inverse_legendre(problem, PhasePoint(q=[], y=y, p_q=[], p_y=[0.0, 0.0]))
        assert np.abs(state.v - [-0.15, 0.1]).max() < 1e-14

    def test_roundtrip_random_phases(self, suslov_system, chaplygin_system,
                                     double_integrator_problem):
        rng = np.random.default_rng(31)
        problems = [full_actuation_problem(suslov_system),
                    full_actuation_problem(chaplygin_system),
                    double_integrator_problem]
        for problem in problems:
            n, m = problem.dim_q, problem.rank_d
            for _ in range(100):
                phase = PhasePoint(q=rng.uniform(-1, 1, n), y=rng.uniform(-1, 1, m),
                                   p_q=rng.uniform(-1, 1, n), p_y=rng.uniform(-1, 1, m))
                back = legendre_map(problem, inverse_legendre(problem, phase))
                assert np.abs(back.flat() - phase.flat()).max() < 1e-10

    def test_roundtrip_with_pure_fd_cost(self, chaplygin_system):
        # no analytic partials at all: Newton bottoms out at the FD noise
        # floor but must still satisfy the 1e-10 roundtrip contract
        fd_cost = CostModel(evaluator=lambda q, y, u: 0.5 * u @ u, k=2)
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=fd_cost, horizon=1.0)
        phase = PhasePoint(q=[], y=[0.4, -0.3], p_q=[], p_y=[0.8, 0.2])
        back = legendre_map(problem, inverse_legendre(problem, phase))
        assert np.abs(back.flat() - phase.flat()).max() < 1e-10

    def test_roundtrip_nonquadratic_newton(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=quartic_cost(), horizon=1.0)
        rng = np.random.default_rng(8)
        for _ in range(20):
            phase = PhasePoint(q=[], y=rng.uniform(-1, 1, 2), p_q=[],
                               p_y=rng.uniform(-2, 2, 2))
            back = legendre_map(problem, inverse_legendre(problem, phase))
            assert np.abs(back.flat() - phase.flat()).max() < 1e-10

    def test_roundtrip_one_input(self, suslov_system, chaplygin_system):
        model, spec = make_double_integrator(2)
        double_integrator = ConstrainedSystem(model, spec)
        rng = np.random.default_rng(41)
        for system in (chaplygin_system, suslov_system, double_integrator):
            problem = OCProblem(system=system, controls=ControlDistribution.on_indices(2, [0]),
                                cost=quadratic_cost(np.eye(1)), horizon=1.0)
            n = system.dim_q
            for _ in range(100):
                phase = PhasePoint(q=rng.uniform(-1, 1, n), y=rng.uniform(-1, 1, 2),
                                   p_q=rng.uniform(-1, 1, n), p_y=rng.uniform(-1, 1, 2))
                state = inverse_legendre(problem, phase)
                assert state.v.shape == (1,) and state.lam_bar.shape == (1,)
                back = legendre_map(problem, state)
                assert np.abs(back.flat() - phase.flat()).max() < 1e-10

    def test_one_input_correspondence(self, chaplygin_system):
        # p_y = (C_u, lambda_bar) with u = v + delta on the actuated row
        problem = OCProblem(system=chaplygin_system,
                            controls=ControlDistribution.on_indices(2, [1]),
                            cost=quadratic_cost(np.eye(1)), horizon=1.0)
        y = np.array([1.0, 2.0])
        delta = drift_acceleration(chaplygin_system, np.zeros(0), y)
        phase = legendre_map(problem, ExtremalState(y=y, v=[0.3], lam_bar=[-0.7]))
        assert np.abs(phase.p_y - [-0.7, 0.3 + delta[1]]).max() < 1e-15
        with pytest.raises(DimensionMismatch):
            legendre_map(problem, ExtremalState(y=y, v=[0.3]))


class TestMixingInputs:
    """A square input matrix that is not basis-aligned: v is the whole
    acceleration B u - delta, and p_y = B^{-T} C_u."""

    B = np.array([[1.0, 0.5], [0.2, 1.0]])
    W = np.array([[2.0, 0.3], [0.3, 0.5]])

    def problem(self, system):
        return OCProblem(system=system, controls=ControlDistribution(input_matrix=self.B),
                         cost=quadratic_cost(self.W), horizon=1.0)

    def test_roundtrip(self, chaplygin_system):
        problem = self.problem(chaplygin_system)
        assert problem.controls.actuated_indices is None
        rng = np.random.default_rng(17)
        for _ in range(20):
            phase = PhasePoint(q=[], y=rng.uniform(-1, 1, 2), p_q=[], p_y=rng.uniform(-1, 1, 2))
            state = inverse_legendre(problem, phase)
            # the control C_u = B^T p_y of the quadratic cost, along the free field
            u = np.linalg.solve(self.W, self.B.T @ phase.p_y)
            free = -drift_acceleration(chaplygin_system, [], phase.y)
            assert np.abs(state.v - (free + self.B @ u)).max() < 1e-14
            assert state.lam_bar.shape == (0,)
            back = legendre_map(problem, state)
            assert np.abs(back.flat() - phase.flat()).max() < 1e-14

    def test_regularity_block_is_the_weight_through_the_inverse(self, chaplygin_system):
        matrix = regularity_matrix(self.problem(chaplygin_system),
                                   ExtremalState(y=[0.5, 0.1], v=[0.2, -0.3]))
        b_inv = np.linalg.inv(self.B)
        assert np.abs(matrix - b_inv.T @ self.W @ b_inv).max() < 1e-14

    def test_inverse_needs_a_square_or_aligned_matrix(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system,
                            controls=ControlDistribution(input_matrix=[[0.6], [0.8]]),
                            cost=quadratic_cost(np.eye(1)), horizon=1.0)
        with pytest.raises(DimensionMismatch, match="neither basis-aligned nor square"):
            inverse_legendre(problem, PhasePoint(q=[], y=[0.1, 0.2], p_q=[], p_y=[0.3, 0.4]))


def legendre_problems(system):
    """Problems on a rank-2 system, one per branch of the Legendre inversion."""
    full = ControlDistribution.full(2)
    mixing = ControlDistribution(input_matrix=[[1.0, 0.5], [0.0, 1.0]])
    weight = np.array([[2.0, 0.3], [0.3, 0.5]])
    cases = {"full": (full, quadratic_cost(np.eye(2))),
             "weighted": (full, quadratic_cost(weight)),
             "one_input": (ControlDistribution.on_indices(2, [1]), quadratic_cost([[3.0]])),
             "mixing": (mixing, quadratic_cost(weight)),
             "quartic": (full, quartic_cost())}
    return {name: OCProblem(system=system, controls=ctrl, cost=cost, horizon=1.0)
            for name, (ctrl, cost) in cases.items()}


class TestOneLegendreInversion:
    @pytest.mark.parametrize("name", ["full", "weighted", "one_input", "mixing", "quartic"])
    def test_stack_rows_have_the_floats_of_one_row_calls(self, chaplygin_system, name):
        problem = legendre_problems(chaplygin_system)[name]
        rng = np.random.default_rng(21)
        q, y, p_y = np.zeros((5, 0)), rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (5, 2))
        u = hamiltonian._optimal_control(problem, q, y, p_y)
        bu = hamiltonian._actuation(problem, u)
        assert u.shape == (5, problem.controls.k) and bu.shape == (5, 2)
        for k in range(5):
            row = hamiltonian._optimal_control(problem, q[k], y[k], p_y[k])
            assert u[k].tobytes() == row.tobytes()
            assert bu[k].tobytes() == hamiltonian._actuation(problem, row).tobytes()

    def test_controls_are_an_array_of_their_own(self, chaplygin_system):
        # with B = W = I the Legendre map is the identity on p_y
        hs = HamiltonianSystem(legendre_problems(chaplygin_system)["full"])
        z = np.random.default_rng(5).uniform(-1, 1, (4, 4))
        u = hs._controls_and_values(z, chaplygin_system.geometry_rows(z[:, :0]))[0]
        assert u.tobytes() == z[:, 2:].tobytes() and not np.shares_memory(u, z)


class TestRegularity:
    def test_lie_algebra_identity_weight(self, suslov_system):
        problem = full_actuation_problem(suslov_system)
        matrix = regularity_matrix(problem, ExtremalState(y=[1.0, 1.0], v=[0.0, 0.0]))
        assert np.allclose(matrix, np.eye(2))
        assert abs(np.linalg.det(matrix) - 1.0) < 1e-12

    def test_double_integrator_hyperbolic_block(self, double_integrator_problem):
        matrix = regularity_matrix(double_integrator_problem,
                                   ExtremalState(q=[0.0], y=[0.0], v=[0.0], lam=[0.0]))
        assert matrix.shape == (3, 3)
        assert abs(np.linalg.det(matrix) + 1.0) < 1e-12

    def test_chaplygin_is_regular(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)
        matrix = regularity_matrix(problem, ExtremalState(y=[0.5, 0.1], v=[0.0, 0.0]))
        assert matrix.shape == (2, 2)

    def test_singular_weight_flagged(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.diag([1.0, 0.0])), horizon=1.0)
        with pytest.raises(SingularHessian, match=r"regularity matrix is singular \(det = "):
            regularity_matrix(problem, ExtremalState(y=[0.5, 0.1], v=[0.0, 0.0]))

    def test_underactuated_problem_is_named(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system,
                            controls=ControlDistribution.on_indices(2, [0]),
                            cost=quadratic_cost(np.eye(1)), horizon=1.0)
        with pytest.raises(DimensionMismatch,
                           match="^the regularity matrix requires full actuation$"):
            regularity_matrix(problem, ExtremalState(y=[0.5, 0.1], v=[0.0]))


class TestHamiltonianValue:
    def test_zero_momentum_zero_value(self, suslov_system):
        hs = HamiltonianSystem(full_actuation_problem(suslov_system))
        phase = PhasePoint(q=[], y=[0.7, -0.4], p_q=[], p_y=[0.0, 0.0])
        assert abs(hs.value(phase)) < 1e-14

    def test_chaplygin_closed_form(self, chaplygin_system):
        hs = HamiltonianSystem(full_actuation_problem(chaplygin_system))
        rng = np.random.default_rng(4)
        for _ in range(20):
            y, p = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            phase = PhasePoint(q=[], y=y, p_q=[], p_y=p)
            expected = (0.5 * (p[0] ** 2 + p[1] ** 2)
                        - 0.5 * p[0] * y[0] * y[1] + p[1] * y[0] ** 2)
            assert abs(hs.value(phase) - expected) < 1e-13

    def test_double_integrator_closed_form(self, double_integrator_problem):
        hs = HamiltonianSystem(double_integrator_problem)
        phase = PhasePoint(q=[0.3], y=[0.5], p_q=[2.0], p_y=[3.0])
        assert abs(hs.value(phase) - (0.5 * 9.0 + 2.0 * 0.5)) < 1e-13

    def test_value_equals_p_v_minus_lagrangian(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)
        hs = HamiltonianSystem(problem)
        rng = np.random.default_rng(12)
        for _ in range(100):
            phase = PhasePoint(q=[], y=rng.uniform(-1, 1, 2), p_q=[],
                               p_y=rng.uniform(-1, 1, 2))
            state = inverse_legendre(problem, phase)
            u = recover_controls(problem, phase.q, phase.y, state.v)
            direct = phase.p_y @ state.v - problem.cost.value(phase.q, phase.y, u)
            assert abs(hs.value(phase) - direct) < 1e-13


class TestHamiltonianField:
    def test_double_integrator_field(self, double_integrator_problem):
        hs = HamiltonianSystem(double_integrator_problem)
        f = hs.field(PhasePoint(q=[0.1], y=[0.4], p_q=[2.0], p_y=[3.0]))
        assert abs(f.q[0] - 0.4) < 1e-12
        assert abs(f.y[0] - 3.0) < 1e-12
        assert abs(f.p_q[0]) < 1e-12
        assert abs(f.p_y[0] + 2.0) < 1e-12

    def test_chaplygin_worked_point(self, chaplygin_system):
        hs = HamiltonianSystem(full_actuation_problem(chaplygin_system))
        f = hs.field(PhasePoint(q=[], y=[1.0, 0.0], p_q=[], p_y=[1.0, 0.0]))
        assert np.abs(f.y - [1.0, 1.0]).max() < 1e-13
        assert np.abs(f.p_y - [0.0, 0.5]).max() < 1e-13

    def test_zero_momentum_follows_drift(self, suslov_system):
        hs = HamiltonianSystem(full_actuation_problem(suslov_system))
        y = np.array([1.0, 1.0])
        f = hs.field(PhasePoint(q=[], y=y, p_q=[], p_y=[0.0, 0.0]))
        assert np.abs(f.y - [-0.15, 0.1]).max() < 1e-13
        assert np.abs(f.p_y).max() < 1e-14

    def test_closed_form_vs_fd_partials(self, chaplygin_system):
        # same cost, not flagged quadratic: the Legendre inversion is a Newton
        # solve and the partials carry the (here zero) -C_q and -C_y terms
        problem = full_actuation_problem(chaplygin_system)
        hs_closed = HamiltonianSystem(problem)
        base = problem.cost
        fd_cost = CostModel(evaluator=base.evaluator, k=2, cu=base.cu, cuu=base.cuu)
        hs_fd = HamiltonianSystem(OCProblem(system=chaplygin_system,
                                            controls=problem.controls,
                                            cost=fd_cost, horizon=1.0))
        rng = np.random.default_rng(9)
        for _ in range(5):
            phase = PhasePoint(q=[], y=rng.uniform(-1, 1, 2), p_q=[],
                               p_y=rng.uniform(-1, 1, 2))
            a = np.concatenate(hs_closed.partials(phase))
            b = np.concatenate(hs_fd.partials(phase))
            assert np.abs(a - b).max() < 1e-6

    def test_state_dependent_cost_partials_match_fd_of_value(self):
        hs = HamiltonianSystem(curved_problem(state_dependent_cost()))
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(5):
            z = np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-1, 1, 3)])
            fd = np.empty(z.size)
            for i in range(z.size):
                dz = np.zeros(z.size)
                dz[i] = h
                fd[i] = (hs.value(hs.unflatten(z + dz))
                         - hs.value(hs.unflatten(z - dz))) / (2.0 * h)
            exact = np.concatenate(hs.partials(hs.unflatten(z)))
            assert np.abs(exact - fd).max() < 1e-7

    def test_empty_chart_takes_no_cost_q_partial(self, chaplygin_system):
        # C_y by central differences costs two evaluations per fiber
        # direction; on an empty chart there is no C_q to evaluate at all
        calls = []

        def evaluator(q, y, u):
            calls.append(1)
            return 0.5 * u @ u + 0.25 * (u @ u) ** 2

        base = quartic_cost()
        hs = HamiltonianSystem(OCProblem(system=chaplygin_system,
                                         controls=ControlDistribution.full(2),
                                         cost=CostModel(evaluator=evaluator, k=2, cu=base.cu,
                                                        cuu=base.cuu), horizon=1.0))
        assert not hs.problem.cost.quadratic
        phase = PhasePoint(q=np.zeros((3, 0)), y=[[0.4, -0.3], [0.1, 0.2], [1.0, 0.5]],
                           p_q=np.zeros((3, 0)), p_y=[[0.8, 0.2], [-0.5, 0.1], [0.3, 0.3]])
        d_q, d_y, _, _ = hs.partials(phase)
        assert d_q.shape == (3, 0) and d_y.shape == (3, 2)
        assert len(calls) == 3 * 2 * 2

    @pytest.mark.parametrize("inputs", ["full", "weighted", "one", "mixing", "quartic"])
    @pytest.mark.parametrize("model", ["curved", "constant_with_potential"])
    def test_stacked_chart_kernel_rows_equal_point_formulas(self, model, inputs):
        # a model without constant drift takes the stacked chart kernel, and a
        # non-quadratic cost adds its control terms row by row; each row has
        # the per-point floats and the floats of a one-row call
        if model == "curved":
            system = ConstrainedSystem(
                curved_model(), ConstraintSpec(span_basis=[[1.0, 0.3], [0.2, 1.0]]))
        else:
            system = ConstrainedSystem(
                constant_model(np.zeros((2, 2, 2)), [[2.0, 0.3], [0.3, 1.0]],
                               anchor=[[1.0], [0.4]], dim_q=1,
                               potential=lambda q: 0.5 * q[0] ** 2 + 0.1 * q[0] ** 3),
                ConstraintSpec(span_basis=np.eye(2)))
        controls, cost = KERNEL_COSTS[inputs]
        problem = OCProblem(system=system, controls=controls, cost=cost, horizon=1.0)
        hs = HamiltonianSystem(problem)
        assert hs.problem.cost.quadratic == (inputs != "quartic")
        assert not system.constant_drift
        rng = np.random.default_rng(7)
        x, p = rng.uniform(-0.6, 0.6, (5, 3)), rng.uniform(-1.0, 1.0, (5, 3))
        kernel = hs._compiled
        z = np.concatenate([x, p], axis=1)
        zdot = kernel.field(z)
        gx, gp = kernel.grad_x(x, p), kernel.grad_p(x, p)
        for i in range(len(x)):
            ex, ep = point_partials(hs, x[i, :1], x[i, 1:], p[i, :1], p[i, 1:])
            assert gx[i].tobytes() == ex.tobytes()
            assert gp[i].tobytes() == ep.tobytes()
            assert zdot[i].tobytes() == np.concatenate([ep, -ex]).tobytes()
            row, one = slice(i, i + 1), HamiltonianSystem(problem)._compiled
            assert one.field(z[row]).tobytes() == zdot[row].tobytes()
            assert one.grad_x(x[row], p[row]).tobytes() == gx[row].tobytes()
            assert one.grad_p(x[row], p[row]).tobytes() == gp[row].tobytes()

    def test_lagrangian_trajectory_satisfies_hamilton_equations(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)
        hs = HamiltonianSystem(problem)
        dt = 1e-4
        state0 = ExtremalState(y=[0.5, 0.2], v=[0.1, -0.1])
        _, states = integrate_extremal(problem, state0, 0.1, dt)
        phases = np.array([legendre_map(problem, s).flat() for s in states])
        worst = 0.0
        for k in range(1, len(states) - 1, 100):
            rate_fd = (phases[k + 1] - phases[k - 1]) / (2 * dt)
            rate = hs.field(hs.unflatten(phases[k])).flat()
            worst = max(worst, np.abs(rate_fd - rate).max())
        assert worst < 1e-6


class TestIntegrateStep:
    def test_verlet_matches_exact_linear_flow(self, double_integrator_problem):
        hs = HamiltonianSystem(double_integrator_problem)
        dt = 0.1
        z0 = PhasePoint(q=[0.0], y=[0.0], p_q=[0.0], p_y=[6.0])
        stepped = integrate_step(hs, z0, dt, "stormer_verlet")
        exact = PhasePoint(q=[0.5 * 6.0 * dt ** 2], y=[6.0 * dt], p_q=[0.0], p_y=[6.0])
        assert np.abs(stepped.flat() - exact.flat()).max() < dt ** 3

    def test_small_step_consistency(self):
        problem = flat_lie_algebra_problem()
        hs = HamiltonianSystem(problem)
        phase = PhasePoint(q=[], y=[0.3, -0.2], p_q=[], p_y=[0.7, 0.4])
        dt = 1e-6
        field = hs.field(phase).flat()
        for scheme in ("rk4", "symp_euler", "stormer_verlet"):
            stepped = integrate_step(hs, phase, dt, scheme)
            rate = (stepped.flat() - phase.flat()) / dt
            assert np.abs(rate - field).max() < 1e-8

    def test_verlet_exact_for_free_drift(self):
        problem = flat_lie_algebra_problem()
        hs = HamiltonianSystem(problem)
        dt = 0.25
        phase = PhasePoint(q=[], y=[0.3, -0.2], p_q=[], p_y=[0.7, 0.4])
        stepped = integrate_step(hs, phase, dt, "stormer_verlet")
        assert np.abs(stepped.y - (phase.y + dt * phase.p_y)).max() < 1e-14
        assert np.abs(stepped.p_y - phase.p_y).max() < 1e-14

    def test_fixed_point_divergence(self, chaplygin_system):
        hs = HamiltonianSystem(full_actuation_problem(chaplygin_system))
        phase = PhasePoint(q=[], y=[5.0, 5.0], p_q=[], p_y=[5.0, 5.0])
        with pytest.raises(FixedPointDivergence):
            integrate_step(hs, phase, 10.0, "stormer_verlet")

    def test_fixed_point_divergence_warns_nothing(self, chaplygin_system):
        # the overflow of a diverging map is reported as the named error only
        hs = HamiltonianSystem(full_actuation_problem(chaplygin_system))
        phase = PhasePoint(q=[], y=[5.0, 5.0], p_q=[], p_y=[5.0, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FixedPointDivergence):
                integrate_step(hs, phase, 10.0, "stormer_verlet")

    def test_drift_predictor_overflow_warns_nothing(self, double_integrator_problem):
        # dH/dp = (y, p_y) is finite, but the predictor y + tau (p_y + p_y) and
        # the velocities' constant overflow: every drift names it as the error,
        # the row form's on one flat row too
        kernel = HamiltonianSystem(double_integrator_problem)._compiled
        x, p = np.zeros((1, 2)), np.array([[0.0, 1.5e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for drift in (kernel.drift, hamiltonian._drift(kernel.grad_p)):
                with pytest.raises(FixedPointDivergence):
                    drift(x, p, 0.5)
            with pytest.raises(FixedPointDivergence):
                kernel.row.drift(x[0], p[0], 0.5)


class TestKick:
    """With a quadratic cost dH/dx = M(x) p, and the implicit kick
    p' = p - tau dH/dx(x, p') of the symplectic schemes is one linear solve."""

    @pytest.fixture(params=["sleigh", "double_integrator", "curved", "curved_anchor"])
    def kernel_rows(self, request, chaplygin_system, double_integrator_problem):
        """The kernel of a hoisted (sleigh, double integrator) or chart
        (curved) quadratic problem, and four rows of positions and momenta.
        ``curved_anchor`` gives the curved model a q-dependent anchor, which
        fills the kick matrix's (q, p_q) block."""
        if request.param == "sleigh":
            problem = full_actuation_problem(chaplygin_system)
        elif request.param == "double_integrator":
            problem = double_integrator_problem
        else:
            model = curved_model()
            if request.param == "curved_anchor":
                model = replace(model,
                                anchor=lambda q: np.array([[1.0 + 0.3 * np.sin(q[0])], [0.5]]),
                                partials=replace(model.partials, anchor_dq=lambda q: np.array(
                                    [[[0.3 * np.cos(q[0])], [0.0]]])))
            system = ConstrainedSystem(model, ConstraintSpec(span_basis=np.eye(2)))
            problem = OCProblem(system=system, controls=ControlDistribution.full(2),
                                cost=quadratic_cost(np.eye(2)), horizon=1.0)
        hs = HamiltonianSystem(problem)
        assert hs._compiled.kick_matrix is not None
        rng = np.random.default_rng(11)
        d = hs.dim_q + hs.rank_d
        return hs._compiled, rng.uniform(-0.6, 0.6, (4, d)), rng.uniform(-1.0, 1.0, (4, d))

    def test_kick_matrix_maps_momenta_to_dh_dx(self, kernel_rows):
        kernel, x, p = kernel_rows
        assert np.abs(matvec_rows(kernel.kick_matrix(x), p) - kernel.grad_x(x, p)).max() < 1e-15

    @pytest.mark.parametrize("tau", [0.05, 0.1])
    def test_solve_equals_fixed_point(self, kernel_rows, tau):
        kernel, x, p = kernel_rows
        fixed_point = kernel._replace(kick_matrix=None)
        identity = np.eye(x.shape[1])
        stacked = hamiltonian._kick(kernel, x, p, tau, identity)
        assert np.abs(stacked - hamiltonian._kick(fixed_point, x, p, tau, identity)).max() < 1e-13
        for i in range(len(x)):
            one = hamiltonian._kick(kernel, x[i:i + 1], p[i:i + 1], tau, identity)
            assert one.tobytes() == stacked[i:i + 1].tobytes()
            alone = hamiltonian._kick(fixed_point, x[i:i + 1], p[i:i + 1], tau, identity)
            assert np.abs(one - alone).max() < 1e-13

    @pytest.mark.parametrize("scheme, dt", [("symp_euler", 0.5), ("stormer_verlet", 1.0)])
    def test_singular_kick_raises(self, chaplygin_system, scheme, dt):
        # the sleigh's kick matrix at y = (0, 4) is diag(-2, 0): the kick's
        # I + M / 2 has a zero row, at one row and in a stack
        hs = HamiltonianSystem(full_actuation_problem(chaplygin_system))
        assert np.array_equal(hs._compiled.kick_matrix(np.array([[0.0, 4.0]])),
                              [[[-2.0, 0.0], [0.0, 0.0]]])
        with pytest.raises(FixedPointDivergence):
            integrate_step(hs, PhasePoint(q=[], y=[0.0, 4.0], p_q=[], p_y=[0.3, 0.2]),
                           dt, scheme)
        stack = PhasePoint(q=np.zeros((3, 0)), y=[[0.1, 0.2], [0.0, 4.0], [0.3, -0.1]],
                           p_q=np.zeros((3, 0)), p_y=[[0.3, 0.2], [0.3, 0.2], [0.1, 0.0]])
        with pytest.raises(FixedPointDivergence):
            integrate_hamiltonian(hs, stack, dt, dt, scheme)


@pytest.mark.parametrize("model", ["sleigh", "double_integrator"])
class TestHoistedKernel:
    """The kernel of a chart-independent model without potential: each entry
    of its drift form is one constant matrix times the monomials of (y, p) of
    its rows, and a non-quadratic cost adds its control terms row by row."""

    @staticmethod
    def rows(system, inputs):
        controls, cost = KERNEL_COSTS[inputs]
        hs = HamiltonianSystem(OCProblem(system=system, controls=controls, cost=cost,
                                         horizon=1.0))
        assert system.constant_drift and hs.problem.cost.quadratic == (inputs != "quartic")
        rng = np.random.default_rng(5)
        d = hs.dim_q + hs.rank_d
        return hs, rng.uniform(-1.5, 1.5, (5, d)), rng.uniform(-2.0, 2.0, (5, d))

    @staticmethod
    def system(model, chaplygin_system):
        if model == "sleigh":
            return chaplygin_system
        return ConstrainedSystem(*make_double_integrator(2))

    @pytest.fixture(params=list(KERNEL_COSTS))
    def hoisted(self, request, chaplygin_system, model):
        """A system and five rows of positions and momenta, for every cost."""
        return self.rows(self.system(model, chaplygin_system), request.param)

    @pytest.fixture(params=[name for name in KERNEL_COSTS if name != "quartic"])
    def quadratic(self, request, chaplygin_system, model):
        """The same for the quadratic costs, whose kernel has a kick matrix
        and iterates only the velocities in its drift."""
        return self.rows(self.system(model, chaplygin_system), request.param)

    @staticmethod
    def assert_close(actual, expected):
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.abs(actual - expected).max() <= 1e-15 * scale

    def test_entries_match_point_formulas(self, hoisted):
        hs, x, p = hoisted
        kernel, n, d = hs._compiled, hs.dim_q, hs.dim_q + hs.rank_d
        zdot = kernel.field(np.concatenate([x, p], axis=1))
        gx, gp = kernel.grad_x(x, p), kernel.grad_p(x, p)
        # only a quadratic cost gives dH/dx linear in p, and a kick matrix
        assert (kernel.kick_matrix is None) == (not hs.problem.cost.quadratic)
        kick = kernel.kick_matrix and kernel.kick_matrix(x)
        for i in range(len(x)):
            q, y = x[i, :n], x[i, n:]
            ex, ep = point_partials(hs, q, y, p[i, :n], p[i, n:])
            self.assert_close(gx[i], ex)
            self.assert_close(gp[i], ep)
            self.assert_close(zdot[i], np.concatenate([ep, -ex]))
            if kick is not None:
                # column j of the kick matrix is dH/dx at p = e_j
                columns = [point_partials(hs, q, y, e[:n], e[n:])[0] for e in np.eye(d)]
                self.assert_close(kick[i], np.stack(columns, axis=1))

    def test_stack_rows_equal_one_row_calls(self, hoisted):
        hs, x, p = hoisted
        kernel = hs._compiled
        z = np.concatenate([x, p], axis=1)
        zdot, gx, gp = kernel.field(z), kernel.grad_x(x, p), kernel.grad_p(x, p)
        kick = kernel.kick_matrix and kernel.kick_matrix(x)
        for i in range(len(x)):
            row = slice(i, i + 1)
            assert kernel.field(z[row]).tobytes() == zdot[row].tobytes()
            assert kernel.grad_x(x[row], p[row]).tobytes() == gx[row].tobytes()
            assert kernel.grad_p(x[row], p[row]).tobytes() == gp[row].tobytes()
            if kick is not None:
                assert kernel.kick_matrix(x[row]).tobytes() == kick[row].tobytes()

    def test_kick_matrix_maps_momenta_to_dh_dx(self, quadratic):
        hs, x, p = quadratic
        kernel = hs._compiled
        self.assert_close(matvec_rows(kernel.kick_matrix(x), p), kernel.grad_x(x, p))

    def test_drift_solves_its_equation(self, hoisted):
        hs, x, p = hoisted
        assert_drift_solves_its_equation(hs._compiled, x, 0.1 * p, 0.05)

    def test_drift_rows_equal_one_row_calls(self, hoisted):
        hs, x, p = hoisted
        kernel = hs._compiled
        stacked = kernel.drift(x, 0.1 * p, 0.05)
        for i in range(len(x)):
            row = slice(i, i + 1)
            assert kernel.drift(x[row], 0.1 * p[row], 0.05).tobytes() == stacked[row].tobytes()

    def test_velocity_drift_agrees_with_the_generic_map(self, quadratic):
        # the generic map iterates all positions through dH/dp
        hs, x, p = quadratic
        kernel = hs._compiled
        generic = hamiltonian._drift(kernel.grad_p)(x, 0.1 * p, 0.05)
        assert np.abs(kernel.drift(x, 0.1 * p, 0.05) - generic).max() <= 1e-13

    def test_drift_iterates_from_the_predictor(self, quadratic, model, monkeypatch):
        # with Gamma = 0 dH/dp does not read the positions, and the predictor
        # is the solution: the double integrator's drift takes one map
        # evaluation; the velocities never take more than the generic map
        hs, x, p = quadratic
        kernel, evaluations = hs._compiled, []
        fixed_point = hamiltonian._fixed_point
        monkeypatch.setattr(hamiltonian, "_fixed_point", lambda gfun, z0: fixed_point(
            lambda rows, z: evaluations.append(len(z)) or gfun(rows, z), z0))
        kernel.drift(x, 0.1 * p, 0.05)
        velocity_only = len(evaluations)
        hamiltonian._drift(kernel.grad_p)(x, 0.1 * p, 0.05)
        assert velocity_only <= len(evaluations) - velocity_only
        if model == "double_integrator":
            assert evaluations[:velocity_only] == [len(x)]


def assert_drift_solves_its_equation(kernel, x, p, tau):
    """The drift X meets X = x + tau (dH/dp(x, p) + dH/dp(X, p)) within 1e-12 of scale."""
    drifted = kernel.drift(x, p, tau)
    residual = drifted - x - tau * (kernel.grad_p(x, p) + kernel.grad_p(drifted, p))
    assert np.abs(residual).max() <= 1e-12 * max(1.0, float(np.abs(drifted).max()))


def per_row_kernel(hs):
    """A kernel of ``hs`` that takes the per-point formulas row by row, with
    no kick matrix, so that its kicks iterate."""
    n, d = hs.dim_q, hs.dim_q + hs.rank_d

    def grads(x, p):
        gx, gp = np.empty_like(x), np.empty_like(p)
        for i in range(len(x)):
            gx[i], gp[i] = point_partials(hs, x[i, :n], x[i, n:], p[i, :n], p[i, n:])
        return gx, gp

    def field(z):
        gx, gp = grads(z[:, :d], z[:, d:])
        return np.concatenate([gp, -gx], axis=1)

    def grad_p(x, p):
        return grads(x, p)[1]

    return hamiltonian._Kernel(field=field, grad_x=lambda x, p: grads(x, p)[0], grad_p=grad_p,
                               kick_matrix=None, drift=hamiltonian._drift(grad_p))


class TestChartKernel:
    """The stacked kernel of a chart-dependent model with a quadratic cost."""

    @pytest.mark.parametrize("scheme, builds", [("rk4", 40), ("symp_euler", 10),
                                                ("stormer_verlet", 108)])
    def test_fixed_positions_reuse_their_geometry(self, scheme, builds, monkeypatch):
        problem = curved_problem(quadratic_cost(np.eye(2)))
        phase = PhasePoint(q=[[0.0], [0.1], [0.2], [-0.1]],
                           y=[[0.1, 0.0], [0.2, 0.1], [0.0, 0.3], [-0.1, 0.2]],
                           p_q=[[0.3], [0.0], [-0.2], [0.1]],
                           p_y=[[0.4, -0.3], [0.1, 0.2], [1.0, 1.5], [0.0, 0.0]])
        per_row = HamiltonianSystem(problem)
        per_row._kernel = per_row_kernel(per_row)
        _, expected = integrate_hamiltonian(per_row, phase, 1.0, 0.1, scheme)
        singles = [integrate_hamiltonian(HamiltonianSystem(problem), row, 1.0, 0.1, scheme)[1]
                   for row in map(per_row.unflatten, phase.flat())]
        # the per-row formulas with the stacked kernel's linear kick
        linear_kick = HamiltonianSystem(problem)
        linear_kick._kernel = per_row._kernel._replace(
            kick_matrix=HamiltonianSystem(problem)._compiled.kick_matrix)
        _, expected_linear = integrate_hamiltonian(linear_kick, phase, 1.0, 0.1, scheme)
        calls = []
        drift_rows = problem.system.drift_rows
        monkeypatch.setattr(problem.system, "drift_rows",
                            lambda *args: calls.append(1) or drift_rows(*args))
        hs = HamiltonianSystem(problem)
        assert hs.problem.cost.quadratic
        _, phases = integrate_hamiltonian(hs, phase, 1.0, 0.1, scheme)
        # 10 steps: rk4 builds once per stage; the kick matrix and the
        # momentum half of the symplectic schemes share the positions' build
        assert len(calls) == builds
        for i, single in enumerate(singles):
            assert phases[:, i].tobytes() == single.tobytes()
        if scheme == "rk4":
            assert phases.tobytes() == expected.tobytes()
            return
        # the kick is the one substep that differs from the per-row
        # fixed-point flow; with the same kick the per-row formulas give the
        # same bytes, and at every state the solve meets the kick's equation
        # p' = p - tau dH/dx(x, p') of the per-row formulas to rounding
        assert phases.tobytes() == expected_linear.tobytes()
        tau = 0.1 if scheme == "symp_euler" else 0.05
        for z in phases:
            x, p = z[:, :3], z[:, 3:]
            kicked = hamiltonian._kick(hs._compiled, x, p, tau, np.eye(3))
            assert np.abs(kicked - p + tau * per_row._kernel.grad_x(x, kicked)).max() < 1e-14
        # the fixed point stops within 1e-12 of its update, and the positions
        # of the first step keep to the per-row flow within 1e-13; later steps
        # drift apart by about 5e-11, as the drift q-Jacobian, a central
        # difference of step 1e-6, magnifies rounding-level position gaps
        assert np.abs(phases[1, :, :3] - expected[1, :, :3]).max() < 1e-13

    @pytest.mark.parametrize("cost", [quadratic_cost(np.eye(2)), quartic_cost()],
                             ids=["quadratic", "quartic"])
    def test_point_evaluations_build_one_stack(self, cost, monkeypatch):
        # the drift, its Jacobians and the anchor at a point come from the one
        # build over the point and its central-difference stencil
        problem = curved_problem(cost)
        sizes = []
        build = algebroid._chart_geometry
        monkeypatch.setattr(algebroid, "_chart_geometry",
                            lambda system, qs, *args:
                            sizes.append(len(qs)) or build(system, qs, *args))
        q, y = np.array([0.2]), np.array([0.3, -0.4])
        point_partials(HamiltonianSystem(problem), q, y, np.array([0.5]), np.array([0.1, 0.2]))
        assert sizes == [1 + 2 * problem.dim_q]
        sizes.clear()
        necessary_conditions_field(problem, ExtremalState(q=q, y=y, v=[0.1, -0.2], lam=[0.5]))
        assert sizes == [1 + 2 * problem.dim_q]

    def test_one_complex_step_pass_per_evaluation(self, monkeypatch):
        # without analytic partials: the metric, the potential and the anchor
        # are differentiated in one pass; the constant real anchor is called
        # at the rows and their stencil by the build, and dim_q more times at
        # each row for its complex step, whose fallback reads the stencil
        counts = Counter()
        base = replace(curved_model(), partials=ModelPartials())
        names = ("structure", "anchor", "metric", "potential")
        model = replace(base, **{name: lambda q, f=getattr(base, name), name=name:
                                 counts.update([name]) or f(q) for name in names})
        system = ConstrainedSystem(model, ConstraintSpec(span_basis=np.eye(2)))
        hs = HamiltonianSystem(OCProblem(system=system, controls=ControlDistribution.full(2),
                                         cost=quadratic_cost(np.eye(2)), horizon=1.0))
        entered = []
        catch_warnings = warnings.catch_warnings
        monkeypatch.setattr(numerics, "warnings", SimpleNamespace(
            catch_warnings=lambda: entered.append(1) or catch_warnings(),
            simplefilter=warnings.simplefilter))
        rows, n = 4, system.dim_q
        z = np.random.default_rng(5).uniform(-0.5, 0.5, (rows, 2 * (n + system.rank_d)))
        counts.clear()
        hs._compiled.field(z)
        assert len(entered) == 1
        points = rows * (1 + 2 * n)
        assert counts == {"anchor": rows * (1 + 3 * n), "structure": points,
                          "metric": points * (1 + n + 2), "potential": points * (n + 2)}

    @pytest.mark.parametrize("problem", ["curved_quartic", "curved_state_dependent",
                                         "sleigh_quartic"])
    def test_stacked_cost_partials_equal_per_row_calls(self, problem, chaplygin_system):
        if problem == "sleigh_quartic":
            prob = full_actuation_problem(chaplygin_system)
            prob = replace(prob, cost=quartic_cost())
        else:
            prob = curved_problem(quartic_cost() if problem == "curved_quartic"
                                  else state_dependent_cost())
        n, m = prob.dim_q, prob.rank_d
        rng = np.random.default_rng(8)
        q, y, p_y = (rng.uniform(-0.6, 0.6, (5, n)), rng.uniform(-1.0, 1.0, (5, m)),
                     rng.uniform(-1.0, 1.0, (5, m)))
        u = hamiltonian._optimal_control(prob, q, y, p_y)
        c_q, c_y = prob.cost.dx_rows(q, y, u)
        assert c_q.shape == (5, n) and c_y.shape == (5, m)
        f = prob.cost.evaluator
        for k in range(5):
            assert c_y[k].tobytes() == fd_partials(lambda yy: f(q[k], yy, u[k]), y[k]).tobytes()
            assert c_q[k].tobytes() == fd_partials(lambda qq: f(qq, y[k], u[k]), q[k]).tobytes()
        if problem == "curved_state_dependent":
            assert np.abs(c_q).min() > 0.0 and np.abs(c_y).min() > 0.0

    def test_drift_solves_its_equation(self):
        hs = HamiltonianSystem(curved_problem(quadratic_cost(np.eye(2))))
        rng = np.random.default_rng(3)
        x, p = rng.uniform(-0.5, 0.5, (4, 3)), rng.uniform(-1.0, 1.0, (4, 3))
        assert_drift_solves_its_equation(hs._compiled, x, p, 0.05)


class TestOneRowFlow:
    """A flow of one row on the hoisted kernel with a quadratic cost steps a
    flat row: its samples are those of row 0 of a stack, bit for bit, and it
    fails as that stack does."""

    SYSTEMS = ["sleigh", "suslov", "double_integrator_1", "double_integrator_2"]

    @staticmethod
    def build(request, system, inputs):
        if system == "sleigh":
            system = request.getfixturevalue("chaplygin_system")
        elif system == "suslov":
            system = request.getfixturevalue("suslov_system")
        else:
            system = ConstrainedSystem(*make_double_integrator(int(system[-1])))
        k = 1 if inputs == "one_input" else system.rank_d
        controls = (ControlDistribution.on_indices(2, [1]) if inputs == "one_input"
                    else ControlDistribution.full(k))
        # W = diag(2, 0.5, ...): the Legendre map is not the identity
        weight = np.eye(k) if inputs == "unit" else np.diag(np.resize([2.0, 0.5], k))
        hs = HamiltonianSystem(OCProblem(system=system, controls=controls,
                                         cost=quadratic_cost(weight), horizon=1.0))
        assert system.constant_drift and hs._compiled.row is not None
        return hs

    @pytest.fixture(params=[(name, "unit") for name in SYSTEMS]
                    + [(name, "weighted") for name in SYSTEMS] + [("sleigh", "one_input")],
                    ids=lambda case: "-".join(case))
    def hs(self, request):
        return self.build(request, *request.param)

    @staticmethod
    def flows(hs, row, second, t_final, dt, scheme, monkeypatch):
        """The flow of the one row and of the stack (row, second), with the
        shape of the rows that the fixed-step driver was given for each."""
        shapes, driver = [], hamiltonian.integrate_fixed_steps
        monkeypatch.setattr(hamiltonian, "integrate_fixed_steps", lambda step, z0, *args: (
            shapes.append(z0.shape) or driver(step, z0, *args)))
        outcomes = []
        for phase in (hs.unflatten(row), hs.unflatten(np.stack([row, second]))):
            try:
                outcomes.append(integrate_hamiltonian(hs, phase, t_final, dt, scheme))
            except NhocError as exc:
                outcomes.append((type(exc), str(exc)))
        return outcomes, shapes

    @pytest.mark.parametrize("scheme", hamiltonian.SCHEMES)
    def test_samples_equal_row_0_of_a_stack(self, hs, scheme, monkeypatch):
        rng = np.random.default_rng(29)
        row, second = rng.uniform(-0.5, 0.5, (2, 2 * (hs.dim_q + hs.rank_d)))
        (single, stacked), shapes = self.flows(hs, row, second, 1.0, 0.01, scheme, monkeypatch)
        assert shapes == [row.shape, (2,) + row.shape]
        assert single[0].tobytes() == stacked[0].tobytes()
        assert single[1].tobytes() == stacked[1][:, 0].tobytes()
        # a stack of one row takes the flat row too, and keeps its batch axis
        times, phases = integrate_hamiltonian(hs, hs.unflatten(row[None]), 1.0, 0.01, scheme)
        assert shapes[-1] == row.shape and phases.shape == (101, 1) + row.shape
        assert phases[:, 0].tobytes() == single[1].tobytes()

    @pytest.mark.parametrize("scheme, y, p_y, dt, error, message", [
        # test_fixed_point_divergence's case: the implicit drift diverges
        ("stormer_verlet", [5.0, 5.0], [5.0, 5.0], 10.0, FixedPointDivergence,
         "implicit substep produced non-finite values"),
        ("rk4", [10.0, -10.0], [10.0, 10.0], 0.1, NonFiniteState,
         "state left the finite range during integration"),
    ], ids=["stormer_verlet-diverging_drift", "rk4-blow_up"])
    def test_one_row_fails_as_its_stack(self, request, scheme, y, p_y, dt, error, message,
                                        monkeypatch):
        hs = self.build(request, "sleigh", "unit")
        row, second = np.array(y + p_y), np.array([0.1, 0.2, 0.3, -0.1])
        outcomes, shapes = self.flows(hs, row, second, 100 * dt, dt, scheme, monkeypatch)
        assert shapes == [(4,), (2, 4)]
        assert outcomes == [(error, message)] * 2


class TestSymplecticity:
    def test_symplectic_schemes_defect(self, suslov_system, chaplygin_system,
                                       double_integrator_problem):
        problems = [full_actuation_problem(suslov_system),
                    full_actuation_problem(chaplygin_system),
                    double_integrator_problem]
        for problem in problems:
            hs = HamiltonianSystem(problem)
            n, m = problem.dim_q, problem.rank_d
            phase = PhasePoint(q=np.zeros(n), y=np.full(m, 0.3),
                               p_q=np.full(n, 0.1), p_y=np.full(m, 0.2))
            for scheme in ("stormer_verlet", "symp_euler"):
                for dt in (0.1, 0.01):
                    assert symplecticity_defect(hs, phase, dt, scheme) < 1e-6

    def test_curved_model_quartic_cost(self):
        # the implicit substeps reach their 1e-12 fixed point only when the
        # partials are free of finite-difference noise in the Legendre solve
        hs = HamiltonianSystem(curved_problem(quartic_cost()))
        phase = PhasePoint(q=[0.2], y=[0.4, -0.3], p_q=[0.1], p_y=[0.5, -0.3])
        for scheme in ("stormer_verlet", "symp_euler"):
            for dt in (0.1, 0.01):
                assert symplecticity_defect(hs, phase, dt, scheme) < 1e-6

    def test_curved_model_defect_below_fixed_point_floor(self):
        # a 1e-4 stencil reads the 1e-12 fixed-point tolerance as a defect
        # of about 1e-8 at most, so the schemes' own defect shows below it
        hs = HamiltonianSystem(curved_problem(quartic_cost()))
        phase = PhasePoint(q=[0.2], y=[0.4, -0.3], p_q=[0.1], p_y=[0.5, -0.3])
        for scheme in ("stormer_verlet", "symp_euler"):
            for dt in (0.1, 0.01):
                assert symplecticity_defect(hs, phase, dt, scheme) < 1e-8

    def test_rk4_defect_is_measurably_nonzero(self, chaplygin_system):
        hs = HamiltonianSystem(full_actuation_problem(chaplygin_system))
        phase = PhasePoint(q=[], y=[1.0, 0.5], p_q=[], p_y=[0.3, -0.2])
        assert symplecticity_defect(hs, phase, 0.1, "rk4") > 1e-9


class TestErrors:
    # the public calls on phase points, each of which flattens its input once
    PHASE_CALLS = {
        "value": lambda hs, phase: hs.value(phase),
        "field": lambda hs, phase: hs.field(phase),
        "partials": lambda hs, phase: hs.partials(phase),
        "integrate_step": lambda hs, phase: integrate_step(hs, phase, 0.1, "rk4"),
        "integrate_hamiltonian": lambda hs, phase: integrate_hamiltonian(hs, phase, 0.2, 0.1,
                                                                         "symp_euler"),
        "symplecticity_defect": lambda hs, phase: symplecticity_defect(hs, phase, 0.1,
                                                                       "stormer_verlet"),
    }

    # the entries that take one point: a stack is named, not broadcast
    ONE_POINT_CALLS = {
        "HamiltonianSystem.value": lambda sp, stack: sp.hs.value(stack),
        "symplecticity_defect": lambda sp, stack: symplecticity_defect(sp.hs, stack, 0.1,
                                                                       "rk4"),
        "extremal_trajectory": lambda sp, stack: extremal_trajectory(sp, stack.p_y),
    }

    @pytest.mark.parametrize("entry", list(ONE_POINT_CALLS))
    def test_one_point_entries_reject_stacks_by_name(self, chaplygin_system, entry):
        problem = replace(full_actuation_problem(chaplygin_system), y0=[0.5, 0.2],
                          yT=[0.4, 0.3])
        sp = ShootingProblem(hs=HamiltonianSystem(problem), dt=0.1)
        stack = PhasePoint(q=np.zeros((2, 0)), y=[[0.1, 0.2], [0.3, 0.4]],
                           p_q=np.zeros((2, 0)), p_y=[[0.1, 0.2], [0.0, 0.3]])
        with pytest.raises(DimensionMismatch,
                           match=rf"^{re.escape(entry)} takes one point, not a stack of "
                                 r"shape \(2,\)$"):
            self.ONE_POINT_CALLS[entry](sp, stack)

    @pytest.mark.parametrize("p_q, p_y, message", [
        ([], [0.3], r"^p_y has shape \(1,\), expected \(2,\)$"),
        ([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], r"^p_q has shape \(3,\), expected \(0,\)$")],
        ids=["short_p_y", "long_momenta"])
    def test_inverse_legendre_names_mis_shaped_momenta(self, chaplygin_system, p_q, p_y,
                                                        message):
        # a short p_y once broadcast to a velocity, and long momenta met
        # numpy's broadcast error
        with pytest.raises(DimensionMismatch, match=message):
            inverse_legendre(full_actuation_problem(chaplygin_system),
                             PhasePoint(q=[], y=[0.1, 0.2], p_q=p_q, p_y=p_y))

    @staticmethod
    def newton_cost(cuu):
        """C = |u|^2, declared without a weight, so that its Legendre
        inversion is the damped Newton from u = p_y with the Hessian ``cuu``."""
        return CostModel(evaluator=lambda q, y, u: u @ u, k=2, cu=lambda q, y, u: 2.0 * u,
                         cuu=lambda q, y, u: cuu)

    def test_singular_hessian_in_the_legendre_newton(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=self.newton_cost(np.zeros((2, 2))), horizon=1.0)
        with pytest.raises(SingularHessian, match="^cost Hessian is singular$"):
            inverse_legendre(problem, PhasePoint(q=[], y=[0.1, 0.1], p_q=[], p_y=[1.0, 1.0]))

    @pytest.mark.parametrize("site", ["weight", "legendre_newton", "necessary_conditions"])
    def test_every_singular_hessian_solve_has_one_message(self, site, chaplygin_system):
        # the quadratic inversion, the Newton step of the Legendre inversion
        # and the accelerations of the necessary conditions all solve with
        # the cost Hessian through CostModel.solve_hessian
        cost = (self.newton_cost(np.zeros((2, 2))) if site == "legendre_newton"
                else quadratic_cost(np.diag([1.0, 0.0])))
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=cost, horizon=1.0)
        with pytest.raises(SingularHessian, match="^cost Hessian is singular$"):
            if site == "necessary_conditions":
                necessary_conditions_field(problem, ExtremalState(y=[1.0, 0.0], v=[0.1, 0.2]))
            else:
                inverse_legendre(problem,
                                 PhasePoint(q=[], y=[0.1, 0.1], p_q=[], p_y=[1.0, 1.0]))

    def test_legendre_newton_that_runs_out_of_iterations(self, chaplygin_system):
        # a Hessian 100 times too large shortens every Newton step 100-fold:
        # each lowers the residual, by 1% only, so 50 steps leave 0.99**50 of it
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=self.newton_cost(200.0 * np.eye(2)), horizon=1.0)
        with pytest.raises(LegendreDivergence,
                           match="^Legendre inversion did not converge$") as info:
            inverse_legendre(problem, PhasePoint(q=[], y=[0.1, 0.1], p_q=[], p_y=[1.0, 1.0]))
        assert info.value.control.shape == (2,)
        assert info.value.residual_norm == pytest.approx(0.99 ** 50 * np.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("fixed_point", ["_fixed_point", "_row_fixed_point"])
    def test_fixed_point_iteration_cap(self, fixed_point):
        # z -> -z keeps every iterate finite and never settles
        flip = getattr(hamiltonian, fixed_point)
        z0 = np.ones((2, 3)) if fixed_point == "_fixed_point" else np.ones(3)
        with pytest.raises(FixedPointDivergence,
                           match="^implicit substep did not converge within 100 iterations$"):
            flip(lambda rows, z: -z, z0)

    def test_singular_weight_in_inverse(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.diag([1.0, 0.0])), horizon=1.0)
        with pytest.raises(SingularHessian):
            inverse_legendre(problem, PhasePoint(q=[], y=[0.1, 0.1], p_q=[], p_y=[1.0, 1.0]))

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_step_rejected(self, chaplygin_system, dt):
        hs = HamiltonianSystem(full_actuation_problem(chaplygin_system))
        phase = PhasePoint(q=[], y=[0.1, 0.2], p_q=[], p_y=[0.1, 0.1])
        with pytest.raises(DimensionMismatch):
            integrate_step(hs, phase, dt, "rk4")

    @pytest.mark.parametrize("phase", [
        # re-split as y = (1, 2), p_y = (3, 1) if the fields were only joined
        PhasePoint(q=[], y=[1.0, 2.0, 3.0], p_q=[], p_y=[1.0]),
        # unequal leading batch shapes
        PhasePoint(q=np.zeros((2, 0)), y=np.zeros((3, 2)), p_q=np.zeros((2, 0)),
                   p_y=np.zeros((2, 2))),
    ], ids=["wrong_lengths", "unequal_batches"])
    @pytest.mark.parametrize("call", list(PHASE_CALLS))
    def test_mis_shaped_phase_points_are_named(self, chaplygin_system, phase, call):
        hs = HamiltonianSystem(full_actuation_problem(chaplygin_system))
        with pytest.raises(DimensionMismatch, match="phase fields"):
            self.PHASE_CALLS[call](hs, phase)

    @pytest.mark.parametrize("phase", [
        PhasePoint(q=[], y=[np.nan, 0.0], p_q=[], p_y=[0.1, 0.2]),
        # one non-finite row of a stack
        PhasePoint(q=np.zeros((2, 0)), y=[[0.1, 0.2], [0.3, 0.4]], p_q=np.zeros((2, 0)),
                   p_y=[[0.1, 0.2], [np.inf, 0.0]]),
    ], ids=["nan_velocity", "infinite_momentum_row"])
    @pytest.mark.parametrize("call", list(PHASE_CALLS))
    def test_non_finite_phase_points_are_rejected(self, chaplygin_system, phase, call):
        hs = HamiltonianSystem(full_actuation_problem(chaplygin_system))
        with pytest.raises(ValidationError, match="phase point has non-finite entries"):
            self.PHASE_CALLS[call](hs, phase)
        assert hs._kernel is None  # rejected before the kernel is compiled
