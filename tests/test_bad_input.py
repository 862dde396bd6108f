"""Every array that a caller passes to a public entry is read once, through
``numerics.checked_array``: a wrong length raises DimensionMismatch, and a
NaN, an infinity, text or a ragged list raises ValidationError.  No case may
raise numpy's own error or return a non-finite value.

The state records ``ExtremalState`` and ``PhasePoint`` coerce their fields
when they are built, and text or a ragged list raises ValidationError naming
the field there; they leave finiteness to the entries, since they also hold
the states of a flow.  So to reach an entry's own check, text or a ragged
list is set on a record after it is built; the entries that take a record
check each part themselves.
``HamiltonianSystem.flatten`` reads the shapes of a record's fields and
then checks their finiteness, so it takes the numeric cases only.
"""

from dataclasses import fields

import numpy as np
import pytest

from nhoc import (ConstrainedSystem, ControlDistribution, CostModel, ExtremalState,
                  HamiltonianSystem, OCProblem, PhasePoint, ShootingProblem, StateQY,
                  constant_model, dalembert_oracle_field, drift_acceleration, extremal_trajectory,
                  integrate_extremal, inverse_legendre, legendre_map, make_double_integrator,
                  make_suslov, necessary_conditions_field, quadratic_cost, recover_controls,
                  regularity_matrix, shooting_residual, solve_bvp)
from nhoc.errors import DimensionMismatch, ValidationError
from nhoc.numerics import check_full_rank

KINDS = ("nan", "inf", "text", "ragged", "length")
NUMERIC_KINDS = ("nan", "inf", "length")


def record(cls, parts):
    """A state record of ``parts``: the arrays go through its constructor,
    and any other part is set on the built record."""
    rec = cls(**{k: v if isinstance(v, np.ndarray) else np.zeros(0) for k, v in parts.items()})
    for k, v in parts.items():
        if not isinstance(v, np.ndarray):
            object.__setattr__(rec, k, v)
    return rec


def a(*values):
    return np.array(values, dtype=float)


def entries():
    """(entry, call, good arguments, wrong-length arguments, kinds) per
    entry: ``call`` takes the arguments by name, and an argument without a
    wrong length has no length fixed by the entry."""
    # the n = 2 double integrator: dim_q = rank_d = 2; with one input on
    # row 0, v and ydot have length 1, and so has lambda_bar
    system = ConstrainedSystem(*make_double_integrator(2))
    model = system.parent
    one_input = OCProblem(system=system, controls=ControlDistribution.on_indices(2, [0]),
                          cost=quadratic_cost(np.eye(1)), horizon=1.0)
    full = OCProblem(system=system, controls=ControlDistribution.full(2),
                     cost=quadratic_cost(np.eye(2)), horizon=1.0,
                     q0=a(0.0, 0.0), y0=a(0.0, 0.0), qT=a(0.1, 0.0), yT=a(0.0, 0.0))
    hs = HamiltonianSystem(full)
    sp = ShootingProblem(hs=hs, dt=0.1)
    suslov, suslov_spec = make_suslov()
    state = dict(q=a(0.1, 0.2), y=a(0.3, -0.1), v=a(0.2), lam=a(0.5, -0.5), lam_bar=a(0.1))
    state_wrong = dict(q=a(0.1), y=a(0.3), v=a(0.2, 0.1), lam=a(0.5), lam_bar=a(0.1, 0.2))
    phase = dict(q=a(0.1, 0.2), y=a(0.3, -0.1), p_q=a(0.5, -0.5), p_y=a(0.2, 0.1))
    phase_wrong = dict(q=a(0.1), y=a(0.3), p_q=a(0.5), p_y=a(0.2))
    yield ("chart_point", lambda q: model.chart_point(q), dict(q=a(0.1, 0.2)),
           dict(q=a(0.1)), KINDS)
    yield ("fiber_row", lambda q, y: system.fiber_row(q, y), dict(q=a(0.1, 0.2), y=a(0.3, 0.4)),
           dict(q=a(0.1), y=a(0.3)), KINDS)
    yield ("energy", lambda q, y: system.energy(q, y), dict(q=a(0.1, 0.2), y=a(0.3, 0.4)),
           dict(q=a(0.1), y=a(0.3)), KINDS)
    yield ("drift_acceleration", lambda q, y: drift_acceleration(system, q, y),
           dict(q=a(0.1, 0.2), y=a(0.3, 0.4)), dict(q=a(0.1), y=a(0.3)), KINDS)
    yield ("check_full_rank", lambda rows: check_full_rank(rows), dict(rows=np.eye(2)), {},
           KINDS)
    yield ("constant_model",
           lambda structure, metric, anchor: constant_model(structure, metric, anchor, dim_q=2),
           dict(structure=np.zeros((2, 2, 2)), metric=np.eye(2), anchor=np.eye(2)),
           dict(structure=np.zeros((3, 3, 3)), metric=np.eye(3), anchor=np.eye(3)), KINDS)
    yield ("CostModel", lambda weight: CostModel(evaluator=lambda q, y, u: 0.0, k=2,
                                                 weight=weight),
           dict(weight=np.eye(2)), dict(weight=np.eye(3)), KINDS)
    yield ("quadratic_cost", lambda weight: quadratic_cost(weight), dict(weight=np.eye(2)), {},
           KINDS)
    yield ("ControlDistribution", lambda matrix: ControlDistribution(input_matrix=matrix),
           dict(matrix=np.eye(2)), {}, KINDS)
    yield ("OCProblem", lambda **kw: OCProblem(system=system, controls=full.controls,
                                               cost=full.cost, horizon=1.0, **kw),
           dict(q0=a(0.0, 0.0), y0=a(0.0, 0.0), qT=a(0.1, 0.0), yT=a(0.0, 0.0)),
           dict(q0=a(0.0), y0=a(0.0), qT=a(0.1), yT=a(0.0)), KINDS)
    yield ("recover_controls", lambda q, y, ydot: recover_controls(one_input, q, y, ydot),
           dict(q=a(0.1, 0.2), y=a(0.3, 0.4), ydot=a(0.5)),
           dict(q=a(0.1), y=a(0.3), ydot=a(0.5, 0.6)), KINDS)
    yield ("legendre_map", lambda **kw: legendre_map(one_input, record(ExtremalState, kw)),
           state, state_wrong, KINDS)
    yield ("necessary_conditions_field",
           lambda **kw: necessary_conditions_field(one_input, record(ExtremalState, kw)),
           state, state_wrong, KINDS)
    yield ("integrate_extremal",
           lambda **kw: integrate_extremal(one_input, record(ExtremalState, kw), 0.02, 0.01),
           state, state_wrong, KINDS)
    yield ("regularity_matrix",
           lambda **kw: regularity_matrix(full, record(ExtremalState, kw)),
           dict(q=state["q"], y=state["y"], v=a(0.2, 0.1)),
           dict(q=state_wrong["q"], y=state_wrong["y"], v=a(0.2)), KINDS)
    yield ("inverse_legendre",
           lambda **kw: inverse_legendre(one_input, record(PhasePoint, kw)), phase,
           phase_wrong, KINDS)
    yield ("HamiltonianSystem.flatten", lambda **kw: hs.flatten(record(PhasePoint, kw)), phase,
           phase_wrong, NUMERIC_KINDS)
    yield ("solve_bvp", lambda guess: solve_bvp(sp, guess), dict(guess=np.zeros(4)),
           dict(guess=np.zeros(3)), KINDS)
    yield ("shooting_residual", lambda p0: shooting_residual(sp, p0), dict(p0=np.zeros(4)),
           dict(p0=np.zeros(3)), KINDS)
    yield ("extremal_trajectory", lambda p0: extremal_trajectory(sp, p0),
           dict(p0=np.zeros(4)), dict(p0=np.zeros(3)), KINDS)
    yield ("StateQY", lambda q, y: StateQY(q=q, y=y), dict(q=a(0.1), y=a(0.3, 0.4)), {}, KINDS)
    yield ("dalembert_oracle_field", lambda xi: dalembert_oracle_field(suslov, suslov_spec, xi),
           dict(xi=a(0.3, 0.4, 0.0)), dict(xi=a(0.3, 0.4)), KINDS)


def spoiled(good, kind, wrong):
    """The value of kind ``kind`` in place of the argument ``good``."""
    if kind in ("nan", "inf"):
        bad = np.array(good, dtype=float)
        bad.flat[0] = np.nan if kind == "nan" else np.inf
        return bad
    return {"text": "a", "ragged": [[1.0], [2.0, 3.0]], "length": wrong}[kind]


def cases():
    for entry, call, good, wrong, kinds in entries():
        for name in good:
            for kind in kinds:
                if kind == "length" and name not in wrong:
                    continue
                yield pytest.param(call, good, name, kind, wrong.get(name),
                                   id=f"{entry}-{name}-{kind}")


@pytest.mark.parametrize("call, good, name, kind, wrong", cases())
def test_each_bad_array_raises_its_named_error(call, good, name, kind, wrong):
    args = dict(good, **{name: spoiled(good[name], kind, wrong)})
    error = DimensionMismatch if kind == "length" else ValidationError
    # any result, finite or not, and any other error fail the case
    with np.errstate(all="ignore"), pytest.raises(error):
        call(**args)


@pytest.mark.parametrize("cls, name", [(cls, f.name) for cls in (PhasePoint, ExtremalState)
                                       for f in fields(cls)])
@pytest.mark.parametrize("value", ["a", [[1.0], [2.0, 3.0]]], ids=["text", "ragged"])
def test_a_record_names_its_bad_field(cls, name, value):
    parts = dict({f.name: [0.0] for f in fields(cls)}, **{name: value})
    with pytest.raises(ValidationError, match=rf"^{cls.__name__}\.{name} must be a rectangular"):
        cls(**parts)


def test_a_record_keeps_a_non_finite_state():
    # a flow's state may leave the finite range; the entries judge it
    point = PhasePoint(q=[np.nan], y=[np.inf], p_q=[], p_y=[0.0])
    assert np.isnan(point.q[0]) and np.isinf(point.y[0])
    assert ExtremalState(v=np.nan).v.shape == (1,)


@pytest.mark.parametrize("entry, call, good", [(e, c, g) for e, c, g, _, _ in entries()],
                         ids=[e for e, *_ in entries()])
def test_the_good_arguments_are_accepted(entry, call, good):
    # the table's good arguments pass, so that each bad case tests its one part
    call(**good)
