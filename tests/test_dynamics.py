import numpy as np
import pytest

from nhoc import (ConstraintSpec, ControlDistribution, StateQY, build_constrained_system,
                  constant_model, controlled_field, dalembert_oracle_field,
                  make_chaplygin, make_double_integrator, make_suslov,
                  nonholonomic_field, simulate)
from nhoc.errors import ConstraintViolated, DimensionMismatch, NonFiniteState

from conftest import SUSLOV_PARAMS, curved_model


class TestNonholonomicField:
    def test_chaplygin_point(self, chaplygin_system):
        _, ydot = nonholonomic_field(chaplygin_system, StateQY(q=[], y=[1.0, 2.0]))
        assert np.abs(ydot - [-1.0, 1.0]).max() < 1e-14

    def test_suslov_point(self, suslov_system):
        _, ydot = nonholonomic_field(suslov_system, StateQY(q=[], y=[1.0, 1.0]))
        assert np.abs(ydot - [-0.15, 0.1]).max() < 1e-14

    def test_stacked_states_equal_single_calls(self, chaplygin_system):
        # hoisted constant geometry, and the per-point path of a curved model
        curved = build_constrained_system(curved_model(), ConstraintSpec(span_basis=np.eye(2)))
        rng = np.random.default_rng(7)
        for system in (chaplygin_system, curved):
            qs = rng.uniform(-0.5, 0.5, (4, system.dim_q))
            ys = rng.uniform(-1.0, 1.0, (4, system.rank_d))
            qdot, ydot = nonholonomic_field(system, StateQY(q=qs, y=ys))
            for k in range(4):
                single = nonholonomic_field(system, StateQY(q=qs[k], y=ys[k]))
                assert qdot[k].tobytes() == single[0].tobytes()
                assert ydot[k].tobytes() == single[1].tobytes()

    def test_flat_geodesics(self):
        model = constant_model(np.zeros((3, 3, 3)), np.diag([1.0, 2.0, 3.0]))
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(3)[:2]))
        _, ydot = nonholonomic_field(system, StateQY(q=[], y=[0.4, -0.7]))
        assert np.abs(ydot).max() == 0.0


class TestControlledField:
    def test_zero_control_is_free_flow(self, suslov_system):
        controls = ControlDistribution.full(2)
        s = StateQY(q=[], y=[0.7, -0.3])
        free = nonholonomic_field(suslov_system, s)[1]
        forced = controlled_field(suslov_system, controls, s, np.zeros(2))[1]
        assert np.abs(free - forced).max() == 0.0

    def test_chaplygin_drift_cancellation(self, chaplygin_system):
        controls = ControlDistribution.full(2)
        _, ydot = controlled_field(chaplygin_system, controls,
                                   StateQY(q=[], y=[1.0, 2.0]), [1.0, -1.0])
        assert np.abs(ydot).max() < 1e-14

    def test_suslov_drift_cancellation(self, suslov_system):
        controls = ControlDistribution.full(2)
        _, ydot = controlled_field(suslov_system, controls,
                                   StateQY(q=[], y=[1.0, 1.0]), [0.15, -0.1])
        assert np.abs(ydot).max() < 1e-14

    def test_control_length_checked(self, suslov_system):
        with pytest.raises(DimensionMismatch):
            controlled_field(suslov_system, ControlDistribution.full(2),
                             StateQY(q=[], y=[1.0, 1.0]), [1.0])


class TestSimulate:
    def test_flat_linear_drift(self):
        model, spec = make_double_integrator(2)
        system = build_constrained_system(model, spec)
        s0 = StateQY(q=[1.0, -1.0], y=[0.5, 0.25])
        for integrator in ("rk4", "symp_euler"):
            traj = simulate(system, s0, 1.0, 1e-2, integrator=integrator)
            assert np.abs(traj.ys[-1] - s0.y).max() < 1e-13
            assert np.abs(traj.qs[-1] - (s0.q + s0.y)).max() < 1e-12

    def test_suslov_energy_conservation(self, suslov_system):
        traj = simulate(suslov_system, StateQY(q=[], y=[1.0, 1.0]), 10.0, 1e-3)
        drift = np.abs(traj.energies - traj.energies[0]).max()
        assert drift / max(1.0, abs(traj.energies[0])) < 1e-8

    def test_chaplygin_short_time_expansion(self, chaplygin_system):
        # omega_dot = -omega v / 2, v_dot = omega^2 from (1, 0):
        # omega(t) = 1 - t^2/4 + O(t^4), v(t) = t - t^3/6 + O(t^5)
        t_final = 0.01
        traj = simulate(chaplygin_system, StateQY(q=[], y=[1.0, 0.0]), t_final, 1e-4)
        assert abs(traj.ys[-1, 0] - (1.0 - t_final ** 2 / 4.0)) < 1e-8
        assert abs(traj.ys[-1, 1] - (t_final - t_final ** 3 / 6.0)) < 1e-8

    def test_chaplygin_against_fine_reference(self, chaplygin_system):
        s0 = StateQY(q=[], y=[1.0, 0.0])
        coarse = simulate(chaplygin_system, s0, 0.5, 1e-2)
        fine = simulate(chaplygin_system, s0, 0.5, 1e-4)
        assert np.abs(coarse.ys[-1] - fine.ys[-1]).max() < 1e-9

    def test_rk4_convergence_order(self, chaplygin_system):
        s0 = StateQY(q=[], y=[1.0, 0.5])
        ref = simulate(chaplygin_system, s0, 1.0, 1e-4).ys[-1]
        err = {dt: np.abs(simulate(chaplygin_system, s0, 1.0, dt).ys[-1] - ref).max()
               for dt in (0.02, 0.01)}
        ratio = err[0.02] / err[0.01]
        assert 14.0 < ratio < 18.0

    def test_admissibility(self):
        model = curved_model()
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(2)))
        dt = 1e-3
        traj = simulate(system, StateQY(q=[0.1], y=[0.4, -0.2]), 0.5, dt)
        qdot_fd = (traj.qs[2:] - traj.qs[:-2]) / (2 * dt)
        worst = 0.0
        for k in range(1, len(traj) - 1):
            rho_y = system.anchor_d(traj.qs[k]).T @ traj.ys[k]
            worst = max(worst, np.abs(qdot_fd[k - 1] - rho_y).max())
        assert worst < 10.0 * dt ** 2

    def test_energy_conserved_with_potential(self):
        model = curved_model()
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(2)))
        traj = simulate(system, StateQY(q=[0.1], y=[0.4, -0.2]), 2.0, 1e-3)
        drift = np.abs(traj.energies - traj.energies[0]).max()
        assert drift < 1e-9

    def test_controlled_simulation(self, chaplygin_system):
        controls = ControlDistribution.full(2)
        u = lambda t: np.array([np.sin(t), 0.1])
        traj = simulate(chaplygin_system, StateQY(q=[], y=[0.2, 0.1]), 0.5, 1e-3,
                        controls=controls, u=u)
        assert traj.controls is not None and traj.controls.shape == (501, 2)

    def test_blow_up_guard(self):
        # quadratic drift with a huge state blows past the 1e12 guard
        model, spec = make_chaplygin(1.0, 1.0, 1.0, 0.0)
        system = build_constrained_system(model, spec)
        with pytest.raises(NonFiniteState):
            simulate(system, StateQY(q=[], y=[1e7, -1e7]), 10.0, 0.1)

    def test_parameter_validation(self, suslov_system):
        s0 = StateQY(q=[], y=[1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            simulate(suslov_system, s0, 1.0, -1e-3)
        with pytest.raises(DimensionMismatch):
            simulate(suslov_system, s0, 1.0, 1e-3, integrator="leapfrog")

    def test_dt_must_divide_horizon(self, chaplygin_system):
        # 0.4 steps would end at t = 0.8, short of the requested horizon
        with pytest.raises(DimensionMismatch):
            simulate(chaplygin_system, StateQY(q=[], y=[0.5, 0.1]), 1.0, 0.4)


class TestDalembertOracle:
    def test_principal_axis_constraint_is_steady(self):
        model, spec = make_suslov(1.0, 2.0, 3.0, 0.0, 0.0)
        xidot = dalembert_oracle_field(model, spec, np.array([0.3, -0.8, 0.0]))
        assert np.abs(xidot).max() < 1e-14

    def test_suslov_hand_value(self):
        model, spec = make_suslov(**SUSLOV_PARAMS)
        xidot = dalembert_oracle_field(model, spec, np.array([1.0, 1.0, 0.0]))
        assert np.abs(xidot - [-0.15, 0.1]).max() < 1e-14

    def test_chaplygin_hand_value(self):
        model, spec = make_chaplygin(1.0, 1.0, 1.0, 0.0)
        # y = (1, 2) in the adapted frame is xi = 2 E1 + 1 E3
        xidot = dalembert_oracle_field(model, spec, np.array([2.0, 0.0, 1.0]))
        assert np.abs(xidot - [-1.0, 1.0]).max() < 1e-14

    def test_oracle_equivalence_random_states(self):
        rng = np.random.default_rng(123)
        cases = [make_suslov(**SUSLOV_PARAMS), make_chaplygin(1.3, 0.8, 0.9, 0.4)]
        for model, spec in cases:
            system = build_constrained_system(model, spec)
            d = spec.d_basis()
            for _ in range(100):
                y = rng.uniform(-1, 1, 2)
                _, ydot = nonholonomic_field(system, StateQY(q=[], y=y))
                oracle = dalembert_oracle_field(model, spec, d.T @ y)
                assert np.abs(ydot - oracle).max() < 1e-10

    def test_constraint_violation_rejected(self):
        model, spec = make_suslov(**SUSLOV_PARAMS)
        with pytest.raises(ConstraintViolated):
            dalembert_oracle_field(model, spec, np.array([1.0, 0.0, 0.5]))

    def test_requires_lie_algebra(self):
        model, spec = make_double_integrator(1)
        with pytest.raises(DimensionMismatch):
            dalembert_oracle_field(model, spec, np.array([1.0]))
