"""Necessary conditions for optimal control of constrained systems.

The control problem is lifted to a second-order variational problem on D by
substituting the controlled equations of motion into the cost; the resulting
Lagrangian L(q, y, ydot) = C(q, y, u(q, y, ydot)) is handled with chart
multipliers lambda_i for the admissibility constraint qdot = rho_D y and,
in the underactuated case, multipliers lambda_bar_alpha for the drift
constraints Phi^alpha = 0 on the unactuated accelerations.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dynamics import drift_acceleration
from .errors import DimensionMismatch, SingularHessian, ValidationError
from .numerics import (FD2_STEP, RANK_TOL, central_stencil, checked_array, coerce_fields,
                       fd_jacobian, fd_partials, integrate_fixed_steps, rk4_step,
                       stencil_partials, step_count)


@dataclass(frozen=True, eq=False)
class CostModel:
    """Running cost C(q, y, u) with optional analytic u-partials.

    Partials without an analytic callable are evaluated by central finite
    differences (``numerics.fd_partials``): first derivatives with step 1e-6
    (C_q and C_y always, at a stack of rows in one pass: ``dx_rows``),
    second derivatives of a plain evaluator by nested differences with step
    1e-4, and second derivatives from an analytic ``cu`` by one difference of
    it (step 1e-6); the mixed ones C_uq and C_uy come from one difference
    over the joined (q, y) (``d2ux``).  A ``weight`` W marks
    C = (1/2) u^T W u (``quadratic``), whose partials are exact and whose
    Legendre transform is closed-form; it must be a finite symmetric (k, k)
    matrix.
    """

    evaluator: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    k: int
    cu: Optional[Callable] = None
    cuu: Optional[Callable] = None
    weight: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "weight_identity", False)
        if self.weight is None:
            return
        w = checked_array(self.weight, "cost weight", (self.k, self.k))
        if np.abs(w - w.T).max(initial=0.0) > 1e-12 * max(1.0, np.abs(w).max(initial=0.0)):
            raise DimensionMismatch("quadratic cost weight must be symmetric")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "weight_identity", np.array_equal(w, np.eye(self.k)))

    @property
    def quadratic(self):
        return self.weight is not None

    def value(self, q, y, u):
        return float(self.evaluator(q, y, u))

    def du(self, q, y, u):
        if self.cu is not None:
            return np.asarray(self.cu(q, y, u), dtype=float)
        return fd_partials(lambda uu: self.evaluator(q, y, uu), u)

    def dx_rows(self, q, y, u):
        """(C_q, C_y) at every row of the stacks q (B, dim_q), y (B, rank_d)
        and u (B, k): the evaluator is called at the ``central_stencil`` of
        the joined rows (q, y), each point with its row's u, so each row has
        the floats of ``fd_partials`` of the evaluator in q and in y (for an
        evaluator that does not tell -0.0 from 0.0)."""
        n, x = q.shape[1], np.concatenate([q, y], axis=1)
        us = np.tile(np.repeat(u, x.shape[1], axis=0), (2, 1))
        values = np.array([self.evaluator(s[:n], s[n:], w)
                           for s, w in zip(central_stencil(x), us)], dtype=float)
        c_x = stencil_partials(values, len(x))
        return c_x[:, :n], c_x[:, n:]

    def d2uu(self, q, y, u):
        if self.cuu is not None:
            return np.asarray(self.cuu(q, y, u), dtype=float)
        if self.cu is not None:
            return fd_jacobian(lambda uu: self.cu(q, y, uu), u)
        return fd_partials(lambda uu: fd_partials(
            lambda u2: self.evaluator(q, y, u2), uu, FD2_STEP), u, FD2_STEP)

    def solve_hessian(self, q, y, u, rhs):
        """x solving d2C/du2(q, y, u) x = rhs at one row; a quadratic cost
        solves with its weight, which reads no (q, y, u), at every row of a
        stack rhs (B, k) too.  Raises SingularHessian for a singular Hessian:
        this is the one solve with it."""
        if self.weight_identity:
            return rhs
        try:
            if self.quadratic:
                return np.linalg.solve(self.weight, rhs[..., None])[..., 0]
            return np.linalg.solve(self.d2uu(q, y, u), rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularHessian("cost Hessian is singular") from exc

    def d2ux(self, q, y, u):
        """(C_uq, C_uy) at one row, from one difference over the joined
        (q, y), as ``dx_rows`` takes the first partials.  Each block is
        C-contiguous, as ``fd_jacobian`` returns it: a product's floats
        depend on layout."""
        n, x = len(q), np.concatenate([q, y])
        if self.cu is not None:
            c_ux = fd_jacobian(lambda xx: self.cu(xx[:n], xx[n:], u), x)
        else:
            c_ux = fd_partials(lambda uu: fd_partials(
                lambda xx: self.evaluator(xx[:n], xx[n:], uu), x, FD2_STEP), u, FD2_STEP)
        return np.ascontiguousarray(c_ux[:, :n]), np.ascontiguousarray(c_ux[:, n:])


def quadratic_cost(weight):
    """Control-effort cost (1/2) u^T W u with exact partials."""
    w = np.atleast_2d(checked_array(weight, "cost weight"))
    return CostModel(evaluator=lambda q, y, u: 0.5 * float(u @ w @ u), k=w.shape[0],
                     cu=lambda q, y, u: w @ u, cuu=lambda q, y, u: w, weight=w)


@dataclass(frozen=True, eq=False)
class ControlDistribution:
    """Input sections over the adapted D-basis.

    ``input_matrix`` B has one column per input.  When every column is a unit
    vector the inputs are basis-aligned and ``actuated_indices`` holds the row
    of each column; otherwise it is None.  The necessary conditions need
    basis-aligned inputs; the Hamiltonian side takes any B of full column rank.
    """

    input_matrix: np.ndarray
    actuated_indices: Optional[tuple] = field(init=False, default=None)

    def __post_init__(self):
        m = np.atleast_2d(checked_array(self.input_matrix, "input matrix"))
        if np.linalg.matrix_rank(m, tol=RANK_TOL) < m.shape[1]:
            raise DimensionMismatch("input matrix must have full column rank")
        object.__setattr__(self, "input_matrix", m)
        if (((m == 0.0) | (m == 1.0)).all(axis=0) & (m.sum(axis=0) == 1.0)).all():
            act = m.argmax(axis=0)
            object.__setattr__(self, "actuated_indices", tuple(int(i) for i in act))
            # row indices of the actuated and unactuated directions: slices,
            # which index without copying, when every row is actuated in order
            in_order = np.array_equal(act, np.arange(m.shape[0]))
            object.__setattr__(self, "_act", slice(None) if in_order else act)
            object.__setattr__(self, "_una", slice(0, 0) if in_order
                               else np.setdiff1d(np.arange(m.shape[0]), act))
        square = m.shape[0] == m.shape[1]
        object.__setattr__(self, "_identity", square and np.array_equal(m, np.eye(m.shape[0])))
        object.__setattr__(self, "_inverse", None if not square else np.linalg.inv(m))

    @classmethod
    def full(cls, rank_d):
        return cls(input_matrix=np.eye(rank_d))

    @classmethod
    def on_indices(cls, rank_d, indices):
        """One input on each row ``indices`` of the D-basis.  Raises
        ValidationError unless the indices are a sequence of integers, and
        DimensionMismatch for one outside [0, rank_d) or repeated."""
        read = checked_array(indices, "actuated indices")
        if np.ndim(indices) != 1 or (read != np.trunc(read)).any():
            raise ValidationError(f"actuated indices {indices!r} must be a sequence of integers")
        indices = tuple(int(i) for i in read)
        if any(not 0 <= i < rank_d for i in indices):
            raise DimensionMismatch(f"actuated indices {indices} must lie in [0, {rank_d})")
        m = np.zeros((rank_d, len(indices)))
        m[indices, range(len(indices))] = 1.0
        return cls(input_matrix=m)

    @property
    def rank_d(self):
        return self.input_matrix.shape[0]

    @property
    def k(self):
        return self.input_matrix.shape[1]

    @property
    def fully_actuated(self):
        return self.k == self.rank_d


@dataclass(frozen=True, eq=False)
class OCProblem:
    """Constrained system + inputs + cost + horizon + boundary data on D.

    The boundary data are optional here and required by ``ShootingProblem``;
    a model with ``dim_q == 0`` has q0 and qT on its empty chart point.  q0
    and qT are read as chart points, y0 and yT at length rank_d."""

    system: object
    controls: ControlDistribution
    cost: CostModel
    horizon: float
    q0: Optional[np.ndarray] = None
    y0: Optional[np.ndarray] = None
    qT: Optional[np.ndarray] = None
    yT: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise DimensionMismatch("horizon must be positive and finite")
        if self.controls.rank_d != self.system.rank_d:
            raise DimensionMismatch("input sections do not match rank of D")
        if self.cost.k != self.controls.k:
            raise DimensionMismatch("cost control dimension does not match input count")
        for name in ("q0", "y0", "qT", "yT"):
            val = getattr(self, name)
            if val is None and name[0] == "q" and self.dim_q == 0:
                val = ()  # the one chart point of a model over a point
            if val is None:
                continue
            arr = (self.system.parent.chart_point(val) if name[0] == "q"
                   else checked_array(val, name, (self.system.rank_d,)))
            object.__setattr__(self, name, arr)

    @property
    def dim_q(self):
        return self.system.dim_q

    @property
    def rank_d(self):
        return self.system.rank_d


@dataclass(frozen=True, eq=False)
class ExtremalState:
    """Multiplier-side state (q, y, v = actuated ydot, lambda, lambda_bar)."""

    q: np.ndarray = field(default_factory=lambda: np.zeros(0))
    y: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lam: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lam_bar: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        coerce_fields(self, ("q", "y", "v", "lam", "lam_bar"))


def drift_jacobians(system, q, y):
    """The drift Gamma(y,y) + grad V and its partials with respect to q and y.

    Returns (drift, d_drift/dq of shape (rank_d, dim_q), d_drift/dy of shape
    (rank_d, rank_d), the geometry record at q with the restricted anchor's
    chart derivatives "anchor_d_dq"), all from one build: the one-row read
    of ``ConstrainedSystem.drift_rows``.  The q-derivative is a central
    difference through the geometry (step 1e-6); it vanishes, and so do the
    anchor derivatives, without a chart or when the system's drift is
    constant (``ConstrainedSystem.constant_drift``), and the record is then
    ``geometry(q)`` with them.
    """
    return _drift_jacobians(system, *system.fiber_row(q, y))


def _drift_jacobians(system, q, y):
    """``drift_jacobians`` at a row that ``fiber_row`` has already checked."""
    if system.dim_q == 0 or system.constant_drift:
        geo, n, r = system._geometry_at(q), system.dim_q, system.rank_d
        return (system.drift(y, geo), np.zeros((r, n)), system.drift_dy(y, geo),
                dict(geo, anchor_d_dq=np.zeros((n, r, n))))
    drift, ddq, ddy, geo = system.drift_rows(q[None], y[None])
    return drift[0], ddq[0], ddy[0], {k: v[0] for k, v in geo.items()}


def _multiplier_parts(problem, **parts):
    """The named multiplier-side parts of a state of ``problem``, each read
    once through ``checked_array`` at its length: v and ydot hold k
    accelerations, lam and p_q dim_q and p_y rank_d momenta, and lam_bar one
    multiplier per unactuated row.  Raises DimensionMismatch unless the
    input matrix is basis-aligned or square, whose k is rank_d."""
    ctrl = problem.controls
    if ctrl.actuated_indices is None and ctrl._inverse is None:
        raise DimensionMismatch("input matrix is neither basis-aligned nor square")
    lengths = {"v": ctrl.k, "ydot": ctrl.k, "lam": problem.dim_q, "p_q": problem.dim_q,
               "lam_bar": ctrl.rank_d - ctrl.k, "p_y": ctrl.rank_d}
    return [checked_array(value, name, (lengths[name],)) for name, value in parts.items()]


def recover_controls(problem, q, y, ydot):
    """Controls realizing the acceleration ydot at (q, y).

    With basis-aligned inputs ydot holds the accelerations of the actuated
    rows, in input order, and u = ydot + drift on those rows.  Otherwise the
    input matrix must be square and u = B^{-1}(ydot + drift); either way
    ydot has length k.
    """
    ydot, = _multiplier_parts(problem, ydot=ydot)
    delta = drift_acceleration(problem.system, q, y)
    ctrl = problem.controls
    if ctrl.actuated_indices is None:
        return ctrl._inverse @ (ydot + delta)
    return ydot + delta[ctrl._act]


def _extremal_parts(problem, state):
    """The parts (q, y, v, lambda, lambda_bar) of an extremal state, each
    read once; raises DimensionMismatch unless the inputs are basis-aligned
    and every part has its length."""
    if problem.controls.actuated_indices is None:
        raise DimensionMismatch("the necessary conditions need basis-aligned inputs")
    return (*problem.system.fiber_row(state.q, state.y),
            *_multiplier_parts(problem, v=state.v, lam=state.lam, lam_bar=state.lam_bar))


def necessary_conditions_field(problem, state):
    """Explicit ODE of the necessary conditions for basis-aligned inputs.

    The actuated rows a carry the controls u = v + delta^a; the unactuated
    accelerations are eliminated through the drift constraints
    Phi^alpha = ydot^alpha + delta^alpha = 0 (index reduction), with
    multipliers lambda_bar_alpha:

    qdot = rho y,
    d/dt(dL/dv^a) = dL/dy^a + lambda_bar_alpha dPhi^alpha/dy^a - rho^i_a lambda_i,
    lambda_bar_dot_alpha = dL/dy^alpha + lambda_bar_beta dPhi^beta/dy^alpha
    - rho^i_alpha lambda_i,
    lambda_dot_i = dL/dq^i + lambda_bar_alpha dPhi^alpha/dq^i
    - lambda_j d(rho^j_A)/dq^i y^A;

    the acceleration vdot is resolved through the cost Hessian.  With every
    row actuated lambda_bar is empty and these are the fully actuated
    conditions.  Raises DimensionMismatch unless the inputs are basis-aligned
    and the state's parts have their lengths, and ValidationError for a
    non-finite or non-numeric part.
    """
    return ExtremalState(*_conditions(problem, *_extremal_parts(problem, state)))


def _conditions(problem, q, y, v, lam, lam_bar):
    """The derivatives (qdot, ydot, vdot, lambda_dot, lambda_bar_dot) of
    ``necessary_conditions_field`` at parts that ``_extremal_parts`` has
    already checked."""
    ctrl = problem.controls
    act, una = ctrl._act, ctrl._una
    system, cost = problem.system, problem.cost

    delta, ddq, ddy, geo = _drift_jacobians(system, q, y)
    anchor = geo["anchor_d"]
    u = v + delta[act]

    ydot = np.empty(system.rank_d)
    ydot[act] = v
    ydot[una] = -delta[una]
    qdot = anchor.T @ y

    cu = cost.du(q, y, u)
    l_y = ddy[act].T @ cu
    if not cost.quadratic:
        c_q, c_y = cost.dx_rows(q[None], y[None], u[None])
        l_y = c_y[0] + l_y
    rho_lam = anchor @ lam
    ddy_una = ddy[una]

    rhs_a = l_y[act] - rho_lam[act] + ddy_una[:, act].T @ lam_bar
    delta_dot = ddq @ qdot + ddy @ ydot
    if not cost.quadratic:
        c_uq, c_uy = cost.d2ux(q, y, u)
        rhs_a = rhs_a - c_uq @ qdot - c_uy @ ydot
    vdot = cost.solve_hessian(q, y, u, rhs_a) - delta_dot[act]

    lam_bar_dot = l_y[una] - rho_lam[una] + ddy_una[:, una].T @ lam_bar

    lamdot = np.zeros(0)
    if problem.dim_q:  # without a chart lambda-dot is empty: no products on empty arrays
        l_q = ddq[act].T @ cu if cost.quadratic else c_q[0] + ddq[act].T @ cu
        lamdot = l_q + ddq[una].T @ lam_bar - np.einsum("iAj,j,A->i", geo["anchor_d_dq"], lam, y)
    return qdot, ydot, vdot, lamdot, lam_bar_dot


def integrate_extremal(problem, state0, t_final, dt):
    """Fixed-step RK4 integration of the necessary conditions; returns
    (times, states).

    The start is checked once, as ``necessary_conditions_field`` checks a
    state, and the steps run through the package's one fixed-step driver on
    flat rows (q, y, v, lambda, lambda_bar), whose parts every stage hands
    to the field unchecked.  Raises DimensionMismatch unless dt divides
    t_final, the inputs are basis-aligned and the parts have their lengths,
    and NonFiniteState when the state leaves the finite range.
    """
    start = _extremal_parts(problem, state0)
    nq, m, k = problem.dim_q, problem.rank_d, problem.controls.k

    def parts(z):
        return (z[:nq], z[nq:nq + m], z[nq + m:nq + m + k], z[nq + m + k:2 * nq + m + k],
                z[2 * nq + m + k:])

    def rhs(t, z):
        return np.concatenate(_conditions(problem, *parts(z)))

    times, zs = integrate_fixed_steps(lambda t, z: rk4_step(rhs, t, z, dt),
                                      np.concatenate(start), step_count(t_final, dt), dt)
    return times, [ExtremalState(*parts(z)) for z in zs]
