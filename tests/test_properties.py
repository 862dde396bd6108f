"""Property tests on random constant-coefficient Lie-algebra models.

Each example draws a model through ``load_model_config``: rank 2 to 4, a
random antisymmetric bracket, a metric A A^T + I/2 and one annihilator row,
together with a random non-empty set of actuated fiber directions.

Two kinds of draw are rejected, both for an ill-scaled adapted basis of D.
The basis comes from the reduced row echelon form of the annihilator, which
divides by the first nonzero entry: an annihilator such as (0, 1e-5, 0, 1)
gives basis entries of 1e5, and the restricted metric then fails its inverse
check.  Draws with basis entries above 10 are rejected for that reason, and
draws whose Christoffel symbols exceed 10 because their flows blow up within
a few steps; neither says anything about the equations tested here.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from nhoc import (ConstrainedSystem, ControlDistribution, ExtremalState, HamiltonianSystem,
                  OCProblem, PhasePoint, ShootingProblem, StateQY, drift_acceleration,
                  extremal_trajectory, integrate_extremal, integrate_hamiltonian, inverse_legendre,
                  legendre_map, load_model_config, make_chaplygin, nonholonomic_field,
                  quadratic_cost, shooting_residual, solve_bvp)
from nhoc import cli
from nhoc.checks import run_all
from nhoc.errors import NhocError
from nhoc.hamiltonian import SCHEMES

EXAMPLES = settings(derandomize=True, deadline=None, max_examples=25)
UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def vectors(size):
    return st.lists(UNIT, min_size=size, max_size=size).map(np.array)


@st.composite
def actuated_models(draw):
    rank_e = draw(st.integers(2, 4))
    entries = [[c, a, b, draw(UNIT)] for c in range(rank_e)
               for a in range(rank_e) for b in range(a + 1, rank_e)]
    a = draw(vectors(rank_e * rank_e)).reshape(rank_e, rank_e)
    annihilator = draw(vectors(rank_e))
    assume(np.linalg.norm(annihilator) > 0.1)
    model, spec = load_model_config({
        "name": "random", "kind": "lie_algebra_constant", "rank_e": rank_e,
        "structure_constants": entries,
        "metric": (a @ a.T + 0.5 * np.eye(rank_e)).tolist(),
        "constraint": {"annihilator": [annihilator.tolist()]}})
    assume(np.abs(spec.d_basis()).max() <= 10.0)
    system = ConstrainedSystem(model, spec)
    assume(np.abs(system.gamma()).max() <= 10.0)
    rank_d = system.rank_d
    actuated = draw(st.lists(st.integers(0, rank_d - 1), min_size=1, max_size=rank_d,
                             unique=True))
    problem = OCProblem(system=system, controls=ControlDistribution.on_indices(rank_d, actuated),
                        cost=quadratic_cost(np.eye(len(actuated))), horizon=1.0)
    return model, spec, problem


@EXAMPLES
@given(actuated_models())
def test_invariant_suite_passes(drawn):
    model, spec, _ = drawn
    failed = [(r.name, r.value) for r in run_all(model, spec) if not r.passed]
    assert not failed


@EXAMPLES
@given(actuated_models(), st.integers(0, 2 ** 32 - 1))
def test_legendre_roundtrip(drawn, seed):
    _, _, problem = drawn
    rng = np.random.default_rng(seed)
    m = problem.rank_d
    for _ in range(10):
        phase = PhasePoint(q=[], y=rng.uniform(-1, 1, m), p_q=[], p_y=rng.uniform(-1, 1, m))
        back = legendre_map(problem, inverse_legendre(problem, phase))
        assert np.abs(back.flat() - phase.flat()).max() < 1e-10


@EXAMPLES
@given(actuated_models(), st.integers(0, 2 ** 32 - 1))
def test_lagrangian_and_hamiltonian_flows_agree(drawn, seed):
    # the gap is rk4 truncation in two coordinate systems: it falls 16-fold
    # per halving of dt.  Some drawn models grow fast (|p_y| about 150 by
    # t = 0.1), where dt = 1e-3 leaves a gap of about 1e-5; dt = 2.5e-4 cuts
    # the truncation 256-fold, below the absolute bound
    _, _, problem = drawn
    rng = np.random.default_rng(seed)
    ctrl = problem.controls
    state0 = ExtremalState(y=rng.uniform(-1, 1, problem.rank_d), v=rng.uniform(-1, 1, ctrl.k),
                           lam_bar=rng.uniform(-1, 1, ctrl.rank_d - ctrl.k))
    _, states = integrate_extremal(problem, state0, 0.1, 2.5e-4)
    _, phases = integrate_hamiltonian(HamiltonianSystem(problem), legendre_map(problem, state0),
                                      0.1, 2.5e-4, "rk4")
    assert np.abs(legendre_map(problem, states[-1]).flat() - phases[-1]).max() < 1e-7


@EXAMPLES
@given(actuated_models(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["symp_euler", "stormer_verlet"]))
def test_symplectic_stack_rows_equal_single_calls(drawn, seed, scheme):
    # the kicks are batched linear solves; each row has the floats it takes alone
    _, _, problem = drawn
    rng = np.random.default_rng(seed)
    m = problem.rank_d
    stack = PhasePoint(q=np.zeros((3, 0)), y=rng.uniform(-1, 1, (3, m)),
                       p_q=np.zeros((3, 0)), p_y=rng.uniform(-1, 1, (3, m)))
    hs = HamiltonianSystem(problem)
    _, phases = integrate_hamiltonian(hs, stack, 0.1, 1e-2, scheme)
    for i, row in enumerate(stack.flat()):
        _, single = integrate_hamiltonian(hs, hs.unflatten(row), 0.1, 1e-2, scheme)
        assert phases[:, i].tobytes() == single.tobytes()


@EXAMPLES
@given(actuated_models(), st.integers(0, 2 ** 32 - 1))
def test_free_field_and_energy_stacks_equal_single_calls(drawn, seed):
    # the compiled free field and the energy are one formula over rows
    system = drawn[2].system
    rng = np.random.default_rng(seed)
    qs, ys = np.zeros((4, 0)), rng.uniform(-1, 1, (4, system.rank_d))
    _, ydot = nonholonomic_field(system, StateQY(q=qs, y=ys))
    energies = system.energy(qs, ys)
    for q, y, row, energy in zip(qs, ys, ydot, energies):
        assert row.tobytes() == nonholonomic_field(system, StateQY(q=q, y=y))[1].tobytes()
        expected = -drift_acceleration(system, q, y)
        assert np.abs(row - expected).max() <= 1e-14 * max(1.0, np.abs(expected).max())
        assert energy.tobytes() == np.float64(system.energy(q, y)).tobytes()


SLEIGH = ConstrainedSystem(*make_chaplygin(m=1.0, J=1.0, a=1.0, b=0.0))


@EXAMPLES
@given(vectors(2))
def test_sleigh_solve_from_rest_converges_or_names_its_failure(y_target):
    # without a guess the shooting segments start from the boundary data
    problem = OCProblem(system=SLEIGH, controls=ControlDistribution.full(2),
                        cost=quadratic_cost(np.eye(2)), horizon=1.0, y0=[0.0, 0.0],
                        yT=y_target)
    sp = ShootingProblem(hs=HamiltonianSystem(problem), dt=1e-2)
    try:
        result = solve_bvp(sp)
    except NhocError as exc:
        assert np.isfinite(exc.result.residual_norm)
        return
    assert result.residual_norm <= sp.tolerance
    assert result.residual_norm == np.abs(shooting_residual(sp, result.p0)).max()
    expected = extremal_trajectory(sp, result.p0)[0]
    for name in ("times", "qs", "ys", "controls", "p_qs", "p_ys", "energies", "hamiltonians"):
        assert getattr(result.trajectory, name).tobytes() == getattr(expected, name).tobytes()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(vectors(2), st.booleans(),
       st.one_of(st.none(), st.tuples(vectors(2), st.sampled_from([1.0, 1e3, 1e300]))),
       st.sampled_from(SCHEMES), st.sampled_from([0.1, 0.01]))
def test_every_shooting_failure_is_a_named_error(y_target, one_input, guess, scheme, dt):
    # guesses of 1e3 and 1e300 blow up the first flow or overflow its inputs
    controls = (ControlDistribution.on_indices(2, [0]) if one_input
                else ControlDistribution.full(2))
    problem = OCProblem(system=SLEIGH, controls=controls, cost=quadratic_cost(np.eye(controls.k)),
                        horizon=1.0, y0=[0.5, 0.2], yT=3.0 * y_target)
    sp = ShootingProblem(hs=HamiltonianSystem(problem), dt=dt, scheme=scheme, max_iterations=10)
    try:
        result = solve_bvp(sp, None if guess is None else guess[0] * guess[1])
    except NhocError:
        return
    assert np.isfinite(result.p0).all()
    assert result.residual_norm <= sp.tolerance


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.sampled_from([0.0, 1e-9, 0.5, 1.0, 4.0, -1.0]), min_size=2, max_size=2),
       st.one_of(st.none(), st.tuples(vectors(2), st.sampled_from([1.0, 1e3, 1e300]))),
       st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.1, 0.05, 0.3, 0.03]),
       vectors(2), st.sampled_from(SCHEMES))
def test_optimize_exits_with_a_code_and_writes_only_a_result(weights, guess, horizon, dt,
                                                             y_target, scheme):
    # a step of 0.3 or 0.03 divides none of the horizons, a zero weight
    # leaves the cost singular and a negative one is rejected
    def flag(values):
        return ",".join(repr(float(v)) for v in values)

    with tempfile.TemporaryDirectory() as out_dir:
        out = os.path.join(out_dir, "x.csv")
        argv = ["optimize", "--builtin", "chaplygin", "--y0", "0.5,0.2",
                f"--yT={flag(3.0 * y_target)}", "--T", repr(horizon), "--dt", repr(dt),
                "--integrator", scheme, f"--weights={flag(weights)}", "--max-iterations", "10",
                "--out", out]
        if guess is not None:
            argv.append(f"--guess={flag(guess[0] * guess[1])}")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4)
        assert os.path.exists(out) == (code in (0, 4))


def flow_outcome(hs, phase, dt, scheme):
    """(times, samples) of ten steps, or the NhocError subclass and message."""
    try:
        return integrate_hamiltonian(hs, phase, 10 * dt, dt, scheme)
    except NhocError as exc:
        return type(exc), str(exc)


@EXAMPLES
@given(actuated_models(), st.integers(0, 2 ** 32 - 1), st.sampled_from(SCHEMES),
       st.sampled_from([0.01, 0.1, 0.5]), st.sampled_from([1.0, 3.0, 10.0]))
def test_one_row_flow_is_row_0_of_its_stack_or_fails_as_it(drawn, seed, scheme, dt, scale):
    # one row steps as a flat row, a stack of two as rows; a failing stack
    # names the error of one of its rows alone
    _, _, problem = drawn
    rng = np.random.default_rng(seed)
    m = problem.rank_d
    hs = HamiltonianSystem(problem)
    rows = rng.uniform(-scale, scale, (2, 2 * m))
    single, second = (flow_outcome(hs, hs.unflatten(row), dt, scheme) for row in rows)
    stacked = flow_outcome(hs, hs.unflatten(rows), dt, scheme)
    if isinstance(stacked[0], type):
        assert stacked in [outcome for outcome in (single, second) if isinstance(outcome[0], type)]
    else:
        assert single[0].tobytes() == stacked[0].tobytes()
        assert single[1].tobytes() == stacked[1][:, 0].tobytes()
