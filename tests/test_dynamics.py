import warnings
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from nhoc import (ConstrainedSystem, ConstraintSpec, ControlDistribution, ModelPartials, StateQY,
                  Trajectory, constant_model, dalembert_oracle_field, drift_acceleration,
                  make_chaplygin, make_double_integrator, make_suslov, nonholonomic_field,
                  simulate)
from nhoc import numerics
from nhoc.dynamics import _free_field
from nhoc.errors import ConstraintViolated, DimensionMismatch, NonFiniteState, ValidationError
from nhoc.numerics import integrate_fixed_steps, rk4_step

from conftest import SUSLOV_PARAMS, curved_model, field_systems


FIELD_SYSTEMS = sorted(field_systems())


def random_rows(system, rng, count):
    return rng.uniform(-1.0, 1.0, (count, system.dim_q + system.rank_d))


class TestFreeField:
    """The compiled field against the per-point formulas rho_D(q)^T y and
    -drift_acceleration, on every branch."""

    @pytest.mark.parametrize("name", FIELD_SYSTEMS)
    def test_rows_match_point_formulas(self, name):
        system = field_systems()[name]
        n = system.dim_q
        rows = random_rows(system, np.random.default_rng(11), 5)
        stacked = _free_field(system)(rows)
        assert stacked.shape == rows.shape
        for z, got in zip(rows, stacked):
            q, y = z[:n], z[n:]
            expected = np.concatenate([system.geometry(q)["anchor_d"].T @ y,
                                       -drift_acceleration(system, q, y)])
            if system.constant_drift:  # ((-Gamma) y) y rounds in another order
                assert np.abs(got - expected).max() <= 1e-15 * max(1.0, np.abs(expected).max())
            else:  # the chart branch reads the drift's one home
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", FIELD_SYSTEMS)
    def test_stack_rows_equal_one_row_calls(self, name):
        system = field_systems()[name]
        field = _free_field(system)
        rows = random_rows(system, np.random.default_rng(12), 4)
        stacked = field(rows)
        for z, got in zip(rows, stacked):
            assert got.tobytes() == field(z).tobytes()
        # leading batch axes beyond one
        assert field(rows.reshape(2, 2, -1)).tobytes() == stacked.tobytes()

    def test_chart_field_reuses_geometry_at_repeated_points(self, monkeypatch):
        # the curved model without analytic partials, each model callable counted
        counts = Counter()
        base = replace(curved_model(), partials=ModelPartials())
        names = ("structure", "anchor", "metric", "potential")
        model = replace(base, **{name: lambda q, f=getattr(base, name), name=name:
                                 counts.update([name]) or f(q) for name in names})
        spec = ConstraintSpec(span_basis=np.eye(2))
        system = ConstrainedSystem(model, spec)
        reference = _free_field(ConstrainedSystem(base, spec))
        builds = []
        rows = system.geometry_rows
        monkeypatch.setattr(system, "geometry_rows",
                            lambda qs, **kw: builds.append(len(qs)) or rows(qs, **kw))
        field = _free_field(system)
        z = np.array([0.2, 0.3, -0.1])
        counts.clear()
        assert field(z).tobytes() == reference(z).tobytes()
        # one build and grad V at one point (see the model's docstring)
        once = {"metric": 1 + 1 + 2, "potential": 1 + 2, "structure": 1, "anchor": 1}
        assert counts == once
        # the same chart point with a new velocity, as semi-implicit Euler's
        # position update takes it: no second build, no model call, the same floats
        moved = z + [0.0, 0.5, 0.25]
        assert field(moved).tobytes() == reference(moved).tobytes()
        assert builds == [1]
        assert counts == once


    def test_chart_field_takes_one_complex_step_pass(self, monkeypatch):
        # the metric and potential partials of a stacked evaluation, the
        # latter for grad V, come from one pass; the energy, which does not
        # read grad V, calls the potential once per row only
        calls = []
        base = replace(curved_model(), partials=ModelPartials())
        model = replace(base, potential=lambda q: calls.append(1) or base.potential(q))
        system = ConstrainedSystem(model, ConstraintSpec(span_basis=np.eye(2)))
        entered = []
        catch_warnings = warnings.catch_warnings
        monkeypatch.setattr(numerics, "warnings", SimpleNamespace(
            catch_warnings=lambda: entered.append(1) or catch_warnings(),
            simplefilter=warnings.simplefilter))
        rows = np.array([[0.2, 0.3, -0.1], [-0.4, 0.1, 0.5]])
        _free_field(system)(rows)
        assert len(entered) == 1
        calls.clear()
        system.energy(rows[:, :1], rows[:, 1:])
        assert len(calls) == len(rows)


def random_constant_system(seed, rank_d, dim_q):
    """A constant model with a random antisymmetric bracket, metric
    A A^T + I/2 and anchor, and D spanned by rank_d random rows of a rank
    rank_d + 1 bundle, so that D != E."""
    rng = np.random.default_rng(seed)
    rank_e = rank_d + 1
    c = rng.uniform(-1.0, 1.0, (rank_e,) * 3)
    a = rng.uniform(-1.0, 1.0, (rank_e, rank_e))
    model = constant_model(c - c.swapaxes(1, 2), a @ a.T + 0.5 * np.eye(rank_e),
                           anchor=rng.uniform(-1.0, 1.0, (rank_e, dim_q)), dim_q=dim_q)
    span = rng.uniform(-1.0, 1.0, (rank_d, rank_e))
    return ConstrainedSystem(model, ConstraintSpec(span_basis=span))


def einsum_field(system, gamma=None):
    """The constant-drift free field as rho_D^T y and -Gamma^c_ab y^a y^b by
    ``einsum``, one row at a time; |Gamma| for ``gamma`` gives the sizes of
    the summed terms."""
    n, anchor_t = system.dim_q, system.geometry()["anchor_d"].T
    gamma = system.gamma() if gamma is None else gamma
    return lambda t, z: np.concatenate([anchor_t @ z[n:],
                                        -np.einsum("cab,a,b->c", gamma, z[n:], z[n:])])


class TestConstantDriftProducts:
    """The constant-drift field, ((-Gamma) y) y, on random models with D != E."""

    @pytest.mark.parametrize("rank_d", [3, 4, 5])
    @pytest.mark.parametrize("dim_q", [0, 2])
    def test_rows_stacks_and_einsum_reference(self, rank_d, dim_q):
        system = random_constant_system(100 + rank_d + dim_q, rank_d, dim_q)
        assert system.constant_drift and system.rank_d < system.parent.rank_e
        field, reference = _free_field(system), einsum_field(system)
        terms = einsum_field(system, np.abs(system.gamma()))
        rows = random_rows(system, np.random.default_rng(rank_d), 4)
        stacked = field(rows)
        assert field(rows.reshape(2, 2, -1)).tobytes() == stacked.tobytes()
        for z, got in zip(rows, stacked):
            assert got.tobytes() == field(z).tobytes()
            # both forms round the same m^2 terms in another order: the bound
            # is relative to the sum of their sizes, sum |Gamma^c_ab y^a y^b|
            scale = np.maximum(1.0, np.abs(terms(0.0, np.abs(z))))
            assert np.all(np.abs(got - reference(0.0, z)) <= 1e-15 * scale)

    @pytest.mark.parametrize("name", ["suslov", "sleigh"])
    def test_rk4_flow_matches_einsum_field(self, name):
        system = field_systems()[name]
        y0 = np.array([1.0, 0.5])
        traj = simulate(system, StateQY(q=[], y=y0), 1.0, 1e-3)
        f = einsum_field(system)
        _, zs = integrate_fixed_steps(lambda t, z: rk4_step(f, t, z, 1e-3), y0, 1000, 1e-3)
        assert len(traj) == 1001
        scale = np.maximum(1.0, np.abs(zs).max(axis=1))
        assert np.all(np.abs(traj.ys - zs).max(axis=1) <= 1e-14 * scale)


class TestNonholonomicField:
    def test_chaplygin_point(self, chaplygin_system):
        _, ydot = nonholonomic_field(chaplygin_system, StateQY(q=[], y=[1.0, 2.0]))
        assert np.abs(ydot - [-1.0, 1.0]).max() < 1e-14

    def test_suslov_point(self, suslov_system):
        _, ydot = nonholonomic_field(suslov_system, StateQY(q=[], y=[1.0, 1.0]))
        assert np.abs(ydot - [-0.15, 0.1]).max() < 1e-14

    def test_stacked_states_equal_single_calls(self, chaplygin_system, suslov_system):
        # hoisted constant geometry, with and without an anchor, and the
        # stacked chart build of a curved model
        curved = ConstrainedSystem(curved_model(), ConstraintSpec(span_basis=np.eye(2)))
        double_integrator = ConstrainedSystem(*make_double_integrator(2))
        rng = np.random.default_rng(7)
        for system in (chaplygin_system, suslov_system, double_integrator, curved):
            qs = rng.uniform(-0.5, 0.5, (4, system.dim_q))
            ys = rng.uniform(-1.0, 1.0, (4, system.rank_d))
            qdot, ydot = nonholonomic_field(system, StateQY(q=qs, y=ys))
            for k in range(4):
                single = nonholonomic_field(system, StateQY(q=qs[k], y=ys[k]))
                assert qdot[k].tobytes() == single[0].tobytes()
                assert ydot[k].tobytes() == single[1].tobytes()

    @pytest.mark.parametrize("builtin, q, y", [
        ("sleigh", [], [1.0, 2.0, 3.0]),
        ("double_integrator", [0.0, 1.0], [1.0, 2.0]),
        ("double_integrator", [0.0], [1.0, 2.0]),
        ("sleigh", np.zeros((3, 0)), np.zeros((3, 3))),
        ("double_integrator", np.zeros((3, 2)), np.zeros((3, 1))),
        ("sleigh", [], np.zeros((3, 2))),
        ("double_integrator", np.zeros((3, 1)), np.zeros((2, 1))),
    ], ids=["sleigh_row_y", "integrator_row_q", "integrator_row_y", "sleigh_stack_y",
            "integrator_stack_q", "sleigh_row_q_stack_y", "integrator_unequal_stacks"])
    def test_wrong_state_shapes_are_named(self, builtin, q, y, chaplygin_system):
        system = (chaplygin_system if builtin == "sleigh"
                  else ConstrainedSystem(*make_double_integrator(1)))
        with pytest.raises(DimensionMismatch, match="state rows q"):
            nonholonomic_field(system, StateQY(q=q, y=y))

    def test_flat_geodesics(self):
        model = constant_model(np.zeros((3, 3, 3)), np.diag([1.0, 2.0, 3.0]))
        system = ConstrainedSystem(model, ConstraintSpec(span_basis=np.eye(3)[:2]))
        _, ydot = nonholonomic_field(system, StateQY(q=[], y=[0.4, -0.7]))
        assert np.abs(ydot).max() == 0.0


class TestControlledField:
    """The controlled flow of ``simulate``: the free field plus (0; B) u(t)."""

    @pytest.mark.parametrize("integrator", ["rk4", "symp_euler"])
    def test_zero_control_is_free_flow(self, suslov_system, integrator):
        s0 = StateQY(q=[], y=[0.7, -0.3])
        free = simulate(suslov_system, s0, 0.1, 0.01, integrator=integrator)
        forced = simulate(suslov_system, s0, 0.1, 0.01, integrator=integrator,
                          controls=ControlDistribution.full(2), u=lambda t: np.zeros(2))
        assert np.abs(free.ys - forced.ys).max() == 0.0

    @pytest.mark.parametrize("system, y, u", [("chaplygin_system", [1.0, 2.0], [1.0, -1.0]),
                                              ("suslov_system", [1.0, 1.0], [0.15, -0.1])],
                             ids=["chaplygin", "suslov"])
    def test_drift_cancellation(self, system, y, u, request):
        system = request.getfixturevalue(system)
        controls = ControlDistribution.full(2)
        s = StateQY(q=[], y=y)
        assert np.abs(nonholonomic_field(system, s)[1]
                      + controls.input_matrix @ np.array(u)).max() < 1e-14
        # the cancelling control holds the velocity still along the flow
        traj = simulate(system, s, 0.1, 0.01, controls=controls, u=lambda t: np.array(u))
        assert np.abs(traj.ys - s.y).max() < 1e-14

    @pytest.mark.parametrize("integrator, calls", [("rk4", 41), ("symp_euler", 11)])
    def test_controls_reuse_the_first_stage_of_each_step(self, chaplygin_system, integrator,
                                                         calls):
        controls, dt = ControlDistribution.full(2), 0.01
        called = []

        def u(t):
            called.append(t)
            return np.array([np.sin(3.0 * t), 0.1 + t])

        traj = simulate(chaplygin_system, StateQY(q=[], y=[0.2, 0.1]), 10 * dt, dt,
                        integrator=integrator, controls=controls, u=u)
        # one call per stage, and one more at T
        assert len(called) == calls
        called.clear()
        assert traj.controls.tobytes() == np.array([u(t) for t in traj.times]).tobytes()
        field = _free_field(chaplygin_system)
        forced = lambda t, z: field(z) + controls.input_matrix @ u(t)
        step = ((lambda t, z: rk4_step(forced, t, z, dt)) if integrator == "rk4"
                else (lambda t, z: z + dt * forced(t, z)))
        times, ys = integrate_fixed_steps(step, np.array([0.2, 0.1]), 10, dt)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.ys.tobytes() == ys.tobytes()

    def test_control_length_checked(self, suslov_system):
        with pytest.raises(DimensionMismatch, match="control has shape"):
            simulate(suslov_system, StateQY(q=[], y=[1.0, 1.0]), 0.1, 0.01,
                     controls=ControlDistribution.full(2), u=lambda t: np.array([1.0]))

    def test_non_finite_control_rejected(self, suslov_system):
        with pytest.raises(NonFiniteState, match="control .* at t = 0 is not finite"):
            simulate(suslov_system, StateQY(q=[], y=[1.0, 1.0]), 0.1, 0.01,
                     controls=ControlDistribution.full(2), u=lambda t: np.array([np.nan, 0.0]))


class TestSimulate:
    def test_flat_linear_drift(self):
        model, spec = make_double_integrator(2)
        system = ConstrainedSystem(model, spec)
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
        system = ConstrainedSystem(model, ConstraintSpec(span_basis=np.eye(2)))
        dt = 1e-3
        traj = simulate(system, StateQY(q=[0.1], y=[0.4, -0.2]), 0.5, dt)
        qdot_fd = (traj.qs[2:] - traj.qs[:-2]) / (2 * dt)
        worst = 0.0
        for k in range(1, len(traj) - 1):
            rho_y = system.geometry(traj.qs[k])["anchor_d"].T @ traj.ys[k]
            worst = max(worst, np.abs(qdot_fd[k - 1] - rho_y).max())
        assert worst < 10.0 * dt ** 2

    def test_energy_conserved_with_potential(self):
        model = curved_model()
        system = ConstrainedSystem(model, ConstraintSpec(span_basis=np.eye(2)))
        traj = simulate(system, StateQY(q=[0.1], y=[0.4, -0.2]), 2.0, 1e-3)
        drift = np.abs(traj.energies - traj.energies[0]).max()
        assert drift < 1e-9

    def test_controlled_simulation(self, chaplygin_system):
        controls = ControlDistribution.full(2)
        u = lambda t: np.array([np.sin(t), 0.1])
        traj = simulate(chaplygin_system, StateQY(q=[], y=[0.2, 0.1]), 0.5, 1e-3,
                        controls=controls, u=u)
        assert traj.controls is not None and traj.controls.shape == (501, 2)

    @pytest.mark.parametrize("name", ["double_integrator", "curved"])
    @pytest.mark.parametrize("integrator", ["rk4", "symp_euler"])
    def test_controlled_step_is_free_field_plus_input(self, name, integrator):
        system = field_systems()[name]
        n = system.dim_q
        controls = ControlDistribution(input_matrix=[[1.0], [0.5]])
        u = lambda t: np.array([np.sin(3.0 * t) + 0.4])
        z0 = np.array([0.2] * n + [0.3, -0.1])
        dt = 0.05

        def free(z):
            return np.concatenate(nonholonomic_field(system, StateQY(q=z[:n], y=z[n:])))

        def forced(t, z):
            return free(z) + np.concatenate([np.zeros(n), controls.input_matrix @ u(t)])

        traj = simulate(system, StateQY(q=z0[:n], y=z0[n:]), 2 * dt, dt, integrator=integrator,
                        controls=controls, u=u)
        # the second step, which starts at t = dt
        z1 = np.concatenate([traj.qs[1], traj.ys[1]])
        if integrator == "rk4":
            expected = rk4_step(forced, dt, z1, dt)
        else:
            y2 = z1[n:] + dt * forced(dt, z1)[n:]
            expected = np.concatenate([z1[:n] + dt * free(np.concatenate([z1[:n], y2]))[:n], y2])
        got = np.concatenate([traj.qs[2], traj.ys[2]])
        assert np.abs(got - expected).max() <= 1e-15 * max(1.0, np.abs(expected).max())
        assert traj.controls[2].tobytes() == u(2 * dt).tobytes()

    def test_controls_must_span_the_rank_of_d(self, suslov_system):
        # Suslov's D has rank 2; three input sections are rejected before
        # the first step instead of failing inside it
        with pytest.raises(DimensionMismatch, match="rank 2"):
            simulate(suslov_system, StateQY(q=[], y=[1.0, 0.5]), 0.1, 0.01,
                     controls=ControlDistribution.full(3), u=lambda t: np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_control_named_without_warnings(self, suslov_system, bad):
        u = lambda t: np.array([bad if t > 0.03 else 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState, match=r"control .* at t = 0\.035"):
                simulate(suslov_system, StateQY(q=[], y=[1.0, 0.5]), 0.1, 0.01,
                         controls=ControlDistribution.full(2), u=u)

    def test_blow_up_guard(self):
        # quadratic drift with a huge state blows past the 1e12 guard
        model, spec = make_chaplygin(1.0, 1.0, 1.0, 0.0)
        system = ConstrainedSystem(model, spec)
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

    def test_controls_and_u_come_together(self, chaplygin_system):
        s0, controls = StateQY(q=[], y=[0.5, 0.1]), ControlDistribution.full(2)
        for pairing in (dict(controls=controls), dict(u=lambda t: [0.0, 0.0])):
            with pytest.raises(DimensionMismatch, match="^controls and u must be supplied "
                                                        "together$"):
                simulate(chaplygin_system, s0, 0.1, 0.01, **pairing)

    @pytest.mark.parametrize("q, y", [([], [0.5]), ([0.0], [0.5, 0.1])],
                             ids=["short_velocity", "chart_point_on_a_point"])
    def test_mis_shaped_initial_state_is_named(self, chaplygin_system, q, y):
        with pytest.raises(DimensionMismatch, match="^initial state does not match the system$"):
            simulate(chaplygin_system, StateQY(q=q, y=y), 0.1, 0.01)


class TestStateRecords:
    @pytest.mark.parametrize("q, y", [([], [np.nan, 0.0]), ([np.inf], [0.0])])
    def test_non_finite_state_is_rejected(self, q, y):
        # a state that a caller passes in is an input, not a flow's result
        with pytest.raises(ValidationError, match="^state [qy] has non-finite entries$"):
            StateQY(q=q, y=y)

    def test_trajectory_fields_follow_the_times(self):
        times = np.array([0.0, 0.1, 0.2])
        with pytest.raises(DimensionMismatch,
                           match=r"^trajectory field energies has length 2 != 3$"):
            Trajectory(times=times, qs=np.zeros((3, 0)), ys=np.ones((3, 2)),
                       energies=np.ones(2))
        with pytest.raises(DimensionMismatch, match="^trajectory times must be strictly "
                                                    "increasing$"):
            Trajectory(times=times[[0, 2, 1]], qs=np.zeros((3, 0)), ys=np.ones((3, 2)))


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
            system = ConstrainedSystem(model, spec)
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
