from dataclasses import replace

import numpy as np
import pytest

from nhoc import (AlgebroidModel, ConstrainedSystem, ConstraintSpec, ControlDistribution,
                  CostModel, ModelPartials, OCProblem, constant_model, make_chaplygin,
                  make_double_integrator, make_suslov, quadratic_cost)
from nhoc.hamiltonian import _actuation, _optimal_control
from nhoc.numerics import fd_partials
from nhoc.optimal_control import drift_jacobians

SUSLOV_PARAMS = dict(I11=2.0, I22=3.0, I33=4.0, I13=0.1, I23=0.2)


@pytest.fixture
def suslov_system():
    model, spec = make_suslov(**SUSLOV_PARAMS)
    return ConstrainedSystem(model, spec)


@pytest.fixture
def chaplygin_system():
    model, spec = make_chaplygin(m=1.0, J=1.0, a=1.0, b=0.0)
    return ConstrainedSystem(model, spec)


@pytest.fixture
def double_integrator_problem():
    model, spec = make_double_integrator(1)
    system = ConstrainedSystem(model, spec)
    return OCProblem(system=system, controls=ControlDistribution.full(1),
                     cost=quadratic_cost(np.eye(1)), horizon=1.0,
                     q0=[0.0], y0=[0.0], qT=[1.0], yT=[0.0])


def full_actuation_problem(system, horizon=1.0):
    return OCProblem(system=system, controls=ControlDistribution.full(system.rank_d),
                     cost=quadratic_cost(np.eye(system.rank_d)), horizon=horizon)


def curved_model():
    """dim_q = 1 model with q-dependent metric and structure functions.

    Exercises the anchor-derivative terms of the Koszul formula and the
    finite-difference defaults; has analytic partials registered for the
    comparison tests.
    """

    def structure(q):
        c = np.zeros((2, 2, 2))
        c[0, 0, 1], c[0, 1, 0] = np.sin(q[0]), -np.sin(q[0])
        return c

    def metric(q):
        return np.array([[1.0 + q[0] ** 2, 0.2], [0.2, 2.0 + np.sin(q[0]) ** 2]])

    def metric_dq(q):
        return np.array([[[2.0 * q[0], 0.0],
                          [0.0, 2.0 * np.sin(q[0]) * np.cos(q[0])]]])

    anchor = np.array([[1.0], [0.5]])
    return AlgebroidModel(
        dim_q=1, rank_e=2,
        structure=structure, anchor=lambda q: anchor, metric=metric,
        potential=lambda q: 0.25 * q[0] ** 2,
        partials=ModelPartials(metric_dq=metric_dq,
                               anchor_dq=lambda q: np.zeros((1, 2, 1)),
                               potential_dq=lambda q: np.array([0.5 * q[0]])))


def field_systems():
    """One system per branch and shape of the compiled free field: constant
    drift with dim_q = 0 (Suslov, the sleigh) and with an anchor (the double
    integrator), and the chart branch with a model without the constant
    flags, a constant model with potential and the curved model."""
    structure = np.array([[[0.0, 0.4], [-0.4, 0.0]], [[0.0, -0.3], [0.3, 0.0]]])
    with_potential = constant_model(structure, [[2.0, 0.3], [0.3, 1.0]],
                                    anchor=[[1.0, 0.2], [0.0, 1.0]],
                                    dim_q=2, potential=lambda q: q[0] ** 2 + 0.5 * q[0] * q[1])
    suslov, suslov_spec = make_suslov(**SUSLOV_PARAMS)
    return {
        "suslov": ConstrainedSystem(suslov, suslov_spec),
        # dim_q = 0 through the chart branch: every stack has the same chart bytes
        "suslov_unflagged": ConstrainedSystem(
            replace(suslov, q_independent=False), suslov_spec),
        "sleigh": ConstrainedSystem(*make_chaplygin(m=1.0, J=1.0, a=1.0, b=0.0)),
        "double_integrator": ConstrainedSystem(*make_double_integrator(2)),
        "constant_with_potential": ConstrainedSystem(
            with_potential, ConstraintSpec(span_basis=np.eye(2))),
        "curved": ConstrainedSystem(curved_model(), ConstraintSpec(span_basis=np.eye(2))),
    }


def quartic_cost():
    """C = |u|^2/2 + |u|^4/4 on two inputs: strictly convex with an invertible
    Legendre map, but not quadratic, so it takes the Newton inversion."""
    def cu(q, y, u):
        return u * (1.0 + u @ u)

    def cuu(q, y, u):
        return (1.0 + u @ u) * np.eye(u.size) + 2.0 * np.outer(u, u)

    return CostModel(evaluator=lambda q, y, u: 0.5 * u @ u + 0.25 * (u @ u) ** 2,
                     k=2, cu=cu, cuu=cuu)


def point_partials(hs, q, y, p_q, p_y):
    """(dH/dx, dH/dp) of the HamiltonianSystem ``hs`` at one phase point, by
    the per-point formulas: the oracle of the stacked kernels."""
    cost = hs.problem.cost
    u = _optimal_control(hs.problem, q, y, p_y)
    delta, ddq, ddy, geo = drift_jacobians(hs.system, q, y)
    anchor = geo["anchor_d"]
    d_pq = anchor.T @ y
    d_py = _actuation(hs.problem, u) - delta
    d_y = -ddy.T @ p_y + anchor @ p_q
    if hs.dim_q > 0:
        anchor_dq = np.einsum("iAj,aA->iaj", hs.system.parent.partials_at(anchor=q)["anchor"],
                              hs.system.d_basis)
        d_q = -ddq.T @ p_y + np.einsum("iAj,j,A->i", anchor_dq, p_q, y)
        if not cost.quadratic:
            d_q = d_q - fd_partials(lambda qq: cost.evaluator(qq, y, u), q)
    else:
        d_q = np.zeros(0)
    if not cost.quadratic:
        d_y = d_y - fd_partials(lambda yy: cost.evaluator(q, yy, u), y)
    return np.concatenate([d_q, d_y]), np.concatenate([d_pq, d_py])
