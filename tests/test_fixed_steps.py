"""The fixed-step driver and its steppers against the per-step forms they
replace: a finiteness check after every step, the textbook rk4 sum, and a
Hamiltonian step that dispatches on its scheme at every step."""

from dataclasses import replace
import warnings

import numpy as np
import pytest

from nhoc import (ConstraintSpec, HamiltonianSystem, PhasePoint, StateQY,
                  build_constrained_system, integrate_hamiltonian, make_chaplygin,
                  make_double_integrator, make_suslov, quadratic_cost, simulate)
from nhoc import dynamics, hamiltonian, numerics
from nhoc.errors import FixedPointDivergence, NonFiniteState, SingularMetric
from nhoc.numerics import CHECK_EVERY, check_finite, integrate_fixed_steps, rk4_step

from conftest import SUSLOV_PARAMS, curved_model, full_actuation_problem
from test_hamiltonian import curved_problem

STEP_COUNTS = (1, CHECK_EVERY - 1, CHECK_EVERY, CHECK_EVERY + 1, 1000)


def textbook_rk4(f, t, x, dt):
    k1 = f(t, x)
    k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = f(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def per_step_driver(step, z0, n_steps, dt):
    """The driver with a finiteness check after every step and t read from
    the times."""
    times = np.arange(n_steps + 1) * dt
    samples = np.empty((n_steps + 1,) + np.shape(z0))
    samples[0] = z0
    for k in range(n_steps):
        samples[k + 1] = step(times[k], samples[k])
        check_finite(samples[k + 1])
    return times, samples


def dispatching_step(hs, dt, scheme):
    """One Hamiltonian step that looks up the kernel and dispatches on the
    scheme at every step, with the textbook rk4 sum."""

    def step(t, z):
        d = hs.dim_q + hs.rank_d
        kernel = hs._compiled
        if scheme == "rk4":
            return textbook_rk4(lambda tt, zz: kernel.field(zz), 0.0, z, dt)
        x, p = z[:, :d], z[:, d:]
        if scheme == "symp_euler":
            p_new = hamiltonian._kick(kernel, x, p, dt, np.eye(d))
            return np.concatenate([x + dt * kernel.grad_p(x, p_new), p_new], axis=1)
        p_half = hamiltonian._kick(kernel, x, p, 0.5 * dt, np.eye(d))
        x_new = kernel.drift(x, p_half, 0.5 * dt)
        p_new = p_half - 0.5 * dt * kernel.grad_x(x_new, p_half)
        return np.concatenate([x_new, p_new], axis=1)

    return step


def first_blow_up(step, z0, n_steps, dt):
    """The step whose sample the per-step check rejects, and the class of the
    first error that the unchecked steps after it raise, or None."""
    z = np.array(z0, dtype=float)
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            z = step(k * dt, z)
            if not np.abs(z).max() <= numerics.BLOWUP_LIMIT:
                break
        else:
            raise AssertionError("the flow stays finite")
        for j in range(k + 1, n_steps):
            try:
                z = step(j * dt, z)
            except Exception as exc:  # the class is the result
                return k, type(exc)
    return k, None


def free_step(monkeypatch, system, s0, dt, integrator):
    """The step function that ``simulate`` hands to the driver."""
    steps = []
    with monkeypatch.context() as m:
        m.setattr(dynamics, "integrate_fixed_steps",
                  lambda step, z0, n, h: steps.append(step) or per_step_driver(step, z0, 1, h))
        simulate(system, s0, dt, dt, integrator=integrator)
    return steps[0]


def repulsive_curved_system():
    """The conftest curved model with the potential -q^4, whose flow leaves
    every bound in finite time; at a non-finite chart point its metric is
    not positive-definite."""
    base = curved_model()
    model = replace(base, potential=lambda q: -q[0] ** 4,
                    partials=replace(base.partials,
                                     potential_dq=lambda q: np.array([-4.0 * q[0] ** 3])))
    return build_constrained_system(model, ConstraintSpec(span_basis=np.eye(2)))


def sleigh_hamiltonian():
    return HamiltonianSystem(full_actuation_problem(
        build_constrained_system(*make_chaplygin(1.0, 1.0, 1.0, 0.0))))


def curved_hamiltonian():
    return HamiltonianSystem(curved_problem(quadratic_cost(np.eye(2))))


class TestRk4Step:
    def test_equals_the_textbook_formula(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        f = lambda t, x: np.tanh(x) @ a.T + np.cos(t)
        for x in (rng.standard_normal(4), rng.standard_normal((3, 4)) @ a):
            for dt in (1e-3, 0.1, 0.37):
                assert rk4_step(f, 0.2, x, dt).tobytes() == textbook_rk4(f, 0.2, x, dt).tobytes()

    def test_arrays_returned_by_f_are_left_unmodified(self):
        # a field that hands out one constant array at every stage, and one
        # that returns a new array at each stage
        x = np.array([0.3, 0.1, -0.7])
        constant = np.array([1.0, -2.0, 0.5])
        out = rk4_step(lambda t, x: constant, 0.0, x, 0.1)
        assert np.array_equal(constant, [1.0, -2.0, 0.5])
        assert out.tobytes() == textbook_rk4(lambda t, x: constant, 0.0, x, 0.1).tobytes()
        returned = []

        def recording(t, x):
            value = np.sin(x) + t
            returned.append((value, value.copy()))
            return value

        out = rk4_step(recording, 0.0, x, 0.1)
        assert len(returned) == 4
        assert all(value.tobytes() == copy.tobytes() for value, copy in returned)
        assert out.tobytes() == textbook_rk4(recording, 0.0, x, 0.1).tobytes()
        assert np.array_equal(x, [0.3, 0.1, -0.7])


class TestDriver:
    """The block check on synthetic steps."""

    @pytest.mark.parametrize("n_steps", STEP_COUNTS)
    def test_samples_and_times_equal_the_per_step_loop(self, n_steps):
        step = lambda t, z: 0.999 * z + t
        z0 = np.array([[0.5, -1.0], [2.0, 0.25]])
        times, samples = integrate_fixed_steps(step, z0, n_steps, 0.01)
        ref_times, ref_samples = per_step_driver(step, z0, n_steps, 0.01)
        assert times.tobytes() == ref_times.tobytes()
        assert samples.tobytes() == ref_samples.tobytes()

    def test_steps_read_the_float_of_their_time(self):
        seen = []
        integrate_fixed_steps(lambda t, z: seen.append(t) or z, np.zeros(1), 1000, 0.01)
        assert np.array(seen).tobytes() == (np.arange(1001) * 0.01)[:-1].tobytes()

    @pytest.mark.parametrize("blow_up", [5, CHECK_EVERY + 7, 2 * CHECK_EVERY - 2])
    @pytest.mark.parametrize("then", [None, SingularMetric, FixedPointDivergence])
    def test_blow_up_inside_a_block_raises_non_finite_state(self, blow_up, then):
        # step `blow_up` overflows; the steps after it run on, which makes
        # NaN, or raise the error a blown-up state runs into; numpy warns on
        # both outside the driver
        def step(t, z):
            k = round(t / 0.5)
            if k == blow_up:
                return z * 1e300 * 1e300
            if k < blow_up:
                return z + 1.0
            if then is not None:
                raise then("raised on a blown-up state")
            return z - z

        with np.errstate(all="ignore"), pytest.raises(NonFiniteState, match="finite range"):
            per_step_driver(step, np.ones(2), 3 * CHECK_EVERY, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState, match="finite range"):
                integrate_fixed_steps(step, np.ones(2), 3 * CHECK_EVERY, 0.5)

    @pytest.mark.parametrize("at", [0, 5, CHECK_EVERY, CHECK_EVERY + 7])
    def test_a_step_error_on_finite_samples_propagates_unchanged(self, at):
        error = FixedPointDivergence("the step's own error")

        def step(t, z):
            if round(t / 0.5) == at:
                raise error
            return z + 1.0

        with pytest.raises(FixedPointDivergence) as caught:
            integrate_fixed_steps(step, np.ones(2), 3 * CHECK_EVERY, 0.5)
        assert caught.value is error

    def test_samples_above_the_limit_win_over_a_later_error(self):
        # finite but above BLOWUP_LIMIT: the per-step check's verdict
        def step(t, z):
            if round(t) == 3:
                raise ValueError("not reached by the per-step check")
            return z * 1e7

        with pytest.raises(NonFiniteState):
            integrate_fixed_steps(step, np.ones(1), 10, 1.0)


class TestFlowsEqualThePerStepLoop:
    """Every flow of the package gives the samples of the per-step loop,
    byte for byte, at step counts around a block and over many blocks."""

    @pytest.mark.parametrize("integrator", ["rk4", "symp_euler"])
    @pytest.mark.parametrize("name", ["suslov", "curved"])
    def test_free_flows(self, name, integrator, monkeypatch):
        if name == "suslov":
            system = build_constrained_system(*make_suslov(**SUSLOV_PARAMS))
            s0 = StateQY(q=[], y=[0.9, -0.4])
        else:
            system = build_constrained_system(curved_model(), ConstraintSpec(span_basis=np.eye(2)))
            s0 = StateQY(q=[0.2], y=[0.5, -0.3])
        dt, longest = 0.01, max(STEP_COUNTS)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "integrate_fixed_steps", per_step_driver)
            m.setattr(dynamics, "rk4_step", textbook_rk4)
            ref = simulate(system, s0, longest * dt, dt, integrator=integrator)
        for n in STEP_COUNTS:
            traj = simulate(system, s0, n * dt, dt, integrator=integrator)
            for field in ("times", "qs", "ys", "energies"):
                assert getattr(traj, field).tobytes() == getattr(ref, field)[:n + 1].tobytes()

    @pytest.mark.parametrize("scheme", hamiltonian.SCHEMES)
    @pytest.mark.parametrize("kernel", ["hoisted", "chart"])
    def test_hamiltonian_flows(self, kernel, scheme):
        if kernel == "hoisted":
            hs = sleigh_hamiltonian()
            phase = PhasePoint(q=np.zeros((2, 0)), y=[[0.3, -0.2], [0.1, 0.4]],
                               p_q=np.zeros((2, 0)), p_y=[[0.2, 0.1], [-0.3, 0.5]])
        else:
            hs = curved_hamiltonian()
            phase = PhasePoint(q=[[0.1], [-0.2]], y=[[0.1, 0.2], [0.3, -0.1]],
                               p_q=[[0.2], [0.0]], p_y=[[0.4, -0.3], [0.1, 0.2]])
        dt, longest = 0.001, max(STEP_COUNTS)
        z0 = hs.flatten(phase)
        ref_times, ref = per_step_driver(dispatching_step(hs, dt, scheme), z0, longest, dt)
        for n in STEP_COUNTS:
            times, phases = integrate_hamiltonian(hs, phase, n * dt, dt, scheme)
            assert times.tobytes() == ref_times[:n + 1].tobytes()
            assert phases.tobytes() == ref[:n + 1].tobytes()


class TestBlowUps:
    """A flow that leaves the finite range inside a block raises
    NonFiniteState, as the per-step check did, and prints no warning, also
    where the steps after the blow-up raise an error of their own."""

    @staticmethod
    def assert_mid_block(k):
        assert 0 < k % CHECK_EVERY < CHECK_EVERY - 1

    @pytest.mark.parametrize("system, s0, dt, integrator, then", [
        ("sleigh", [21.5, -21.5], 0.1, "rk4", None),
        ("sleigh", [10.0, -10.0], 0.1, "symp_euler", None),
        ("repulsive", [1.0, 0.0], 0.2, "rk4", SingularMetric),
        ("repulsive", [1.0, 0.0], 0.1, "symp_euler", SingularMetric),
    ], ids=["sleigh-rk4", "sleigh-symp_euler", "curved-rk4", "curved-symp_euler"])
    def test_free_flows(self, system, s0, dt, integrator, then, monkeypatch):
        if system == "sleigh":
            system = build_constrained_system(*make_chaplygin(1.0, 1.0, 1.0, 0.0))
            s0 = StateQY(q=[], y=s0)
        else:
            system = repulsive_curved_system()
            s0 = StateQY(q=[1.0], y=s0)
        step = free_step(monkeypatch, system, s0, dt, integrator)
        k, after = first_blow_up(step, np.concatenate([s0.q, s0.y]), 100, dt)
        self.assert_mid_block(k)
        assert after is then
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState, match="finite range"):
                simulate(system, s0, 100 * dt, dt, integrator=integrator)

    @pytest.mark.parametrize("scheme, then", [("rk4", None),
                                              ("symp_euler", FixedPointDivergence)])
    def test_sleigh_hamiltonian_flows(self, scheme, then):
        hs = sleigh_hamiltonian()
        phase = PhasePoint(q=[], y=[10.0, -10.0], p_q=[], p_y=[10.0, 10.0])
        k, after = first_blow_up(hamiltonian._stepper(hs, 0.1, scheme), hs.flatten(phase)[None],
                                 100, 0.1)
        self.assert_mid_block(k)
        assert after is then
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState, match="finite range"):
                integrate_hamiltonian(hs, phase, 10.0, 0.1, scheme)

    def test_stormer_verlet_flow(self):
        # its implicit drift fails long before a quadratic drift overflows, so
        # the blow-up here is the linear growth of the double integrator
        model, spec = make_double_integrator(1)
        hs = HamiltonianSystem(full_actuation_problem(build_constrained_system(model, spec)))
        phase = PhasePoint(q=[0.0], y=[0.0], p_q=[-1e10], p_y=[0.0])
        k, after = first_blow_up(hamiltonian._stepper(hs, 1.0, "stormer_verlet"),
                                 hs.flatten(phase)[None], 100, 1.0)
        self.assert_mid_block(k)
        assert after is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState, match="finite range"):
                integrate_hamiltonian(hs, phase, 100.0, 1.0, "stormer_verlet")

    def test_a_failing_drift_on_finite_samples_keeps_its_error(self):
        hs = sleigh_hamiltonian()
        phase = PhasePoint(q=[], y=[10.0, -10.0], p_q=[], p_y=[10.0, 10.0])
        stepper = hamiltonian._stepper(hs, 0.1, "stormer_verlet")
        taken = []
        step = lambda t, z: taken.append(t) or stepper(t, z)
        with pytest.raises(FixedPointDivergence):
            per_step_driver(step, hs.flatten(phase)[None], 100, 0.1)
        self.assert_mid_block(len(taken) - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FixedPointDivergence):
                integrate_hamiltonian(hs, phase, 10.0, 0.1, "stormer_verlet")
