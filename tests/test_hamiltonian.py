import numpy as np
import pytest

from nhoc import (ControlDistribution, CostModel, ExtremalState, HamiltonianSystem,
                  OCProblem, PhasePoint, build_constrained_system, constant_model,
                  integrate_extremal, integrate_hamiltonian, integrate_step,
                  inverse_legendre, legendre_map,
                  make_double_integrator, quadratic_cost, recover_controls,
                  regularity_matrix, symplecticity_defect)
from nhoc import hamiltonian
from nhoc.algebroid import ConstraintSpec
from nhoc.dynamics import drift_acceleration
from nhoc.errors import DimensionMismatch, FixedPointDivergence, SingularHessian

from conftest import curved_model, full_actuation_problem, quartic_cost


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
    system = build_constrained_system(curved_model(), ConstraintSpec(span_basis=np.eye(2)))
    return OCProblem(system=system, controls=ControlDistribution.full(2), cost=cost,
                     horizon=1.0)


def flat_lie_algebra_problem():
    model = constant_model(np.zeros((2, 2, 2)), np.eye(2))
    system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(2)))
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
        double_integrator = build_constrained_system(model, spec)
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


class TestRegularity:
    def test_lie_algebra_identity_weight(self, suslov_system):
        problem = full_actuation_problem(suslov_system)
        report = regularity_matrix(problem, ExtremalState(y=[1.0, 1.0], v=[0.0, 0.0]))
        assert np.allclose(report.matrix_m, np.eye(2))
        assert abs(report.determinant - 1.0) < 1e-12
        assert report.is_regular

    def test_double_integrator_hyperbolic_block(self, double_integrator_problem):
        report = regularity_matrix(double_integrator_problem,
                                   ExtremalState(q=[0.0], y=[0.0], v=[0.0], lam=[0.0]))
        assert report.matrix_m.shape == (3, 3)
        assert abs(report.determinant + 1.0) < 1e-12
        assert report.is_regular

    def test_chaplygin_is_regular(self, chaplygin_system):
        problem = full_actuation_problem(chaplygin_system)
        report = regularity_matrix(problem, ExtremalState(y=[0.5, 0.1], v=[0.0, 0.0]))
        assert report.is_regular

    def test_singular_weight_flagged(self, chaplygin_system):
        problem = OCProblem(system=chaplygin_system, controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.diag([1.0, 0.0])), horizon=1.0)
        report = regularity_matrix(problem, ExtremalState(y=[0.5, 0.1], v=[0.0, 0.0]))
        assert not report.is_regular


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
        fd_cost = CostModel(evaluator=base.evaluator, k=2, cu=base.cu, cuu=base.cuu,
                            cq=base.cq, cy=base.cy, cuq=base.cuq, cuy=base.cuy)
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

    @pytest.mark.parametrize("inputs", ["full", "weighted", "one", "mixing"])
    @pytest.mark.parametrize("model", ["curved", "constant_with_potential"])
    def test_stacked_chart_kernel_rows_equal_point_formulas(self, model, inputs):
        # a quadratic cost on a model without constant drift takes the
        # stacked kernel; each of its rows has the per-point floats
        if model == "curved":
            system = build_constrained_system(
                curved_model(), ConstraintSpec(span_basis=[[1.0, 0.3], [0.2, 1.0]]))
        else:
            system = build_constrained_system(
                constant_model(np.zeros((2, 2, 2)), [[2.0, 0.3], [0.3, 1.0]],
                               anchor=[[1.0], [0.4]], dim_q=1,
                               potential=lambda q: 0.5 * q[0] ** 2 + 0.1 * q[0] ** 3),
                ConstraintSpec(span_basis=np.eye(2)))
        controls, weight = {
            "full": (ControlDistribution.full(2), np.eye(2)),
            "weighted": (ControlDistribution.full(2), [[2.0, 0.1], [0.1, 1.5]]),
            "one": (ControlDistribution.on_indices(2, [1]), [[0.5]]),
            "mixing": (ControlDistribution(np.array([[1.0, 0.5], [0.2, 1.0]])), np.eye(2)),
        }[inputs]
        hs = HamiltonianSystem(OCProblem(system=system, controls=controls,
                                         cost=quadratic_cost(weight), horizon=1.0))
        assert hs._stacks_at_once and not system.constant_drift
        rng = np.random.default_rng(7)
        x, p = rng.uniform(-0.6, 0.6, (5, 3)), rng.uniform(-1.0, 1.0, (5, 3))
        gx, gp = hs._grads(x, p)
        for i in range(len(x)):
            ex, ep = hs._point_partials(x[i, :1], x[i, 1:], p[i, :1], p[i, 1:])
            assert gx[i].tobytes() == ex.tobytes()
            assert gp[i].tobytes() == ep.tobytes()

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
        per_row._kernel = per_row._rowwise_partials
        _, expected = integrate_hamiltonian(per_row, phase, 1.0, 0.1, scheme)
        calls = []
        drift_rows = hamiltonian.drift_rows
        monkeypatch.setattr(hamiltonian, "drift_rows",
                            lambda *args: calls.append(1) or drift_rows(*args))
        hs = HamiltonianSystem(problem)
        assert hs._stacks_at_once
        _, phases = integrate_hamiltonian(hs, phase, 1.0, 0.1, scheme)
        assert phases.tobytes() == expected.tobytes()
        # 10 steps: rk4 builds once per stage; the momentum iterations of the
        # symplectic schemes hold the positions, whose build is kept
        assert len(calls) == builds


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
