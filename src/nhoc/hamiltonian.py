"""Hamiltonian form of the necessary conditions on T*D and one-step integrators.

Phase coordinates are ordered (q, y, p_q, p_y); (q, y) are positions and
(p_q, p_y) momenta for the canonical symplectic structure.  One Legendre
inversion per phase point gives the optimal control u, closed-form for
quadratic costs and a damped Newton solve otherwise; the Hamiltonian value
and its partials both follow from that u in closed form.

The flows run on flat phase arrays with a leading batch axis: each
``HamiltonianSystem`` compiles its partials once into a kernel on row
stacks, each flow builds one stepper from it (the scheme's branch, its half
step and the kick's identity, chosen once), and that stepper steps a whole
stack through the fixed-step driver ``numerics.integrate_fixed_steps``;
``integrate_step`` is its one-step case.  The kernel's ``field`` gives the
canonical field of flat phase rows, which rk4 steps as it is, and its
``grad_x`` and ``grad_p`` give dH/dx and dH/dp apart, so each substep of
the symplectic schemes evaluates only the half it uses.  There is one
kernel per form of the drift: on a chart-independent model without
potential each of these is one fixed matrix times the monomials of the rows
(y, p and their products with y), and otherwise one stacked geometry build
per evaluation gives them, with every model partial it reads from one
complex-step pass.  A non-quadratic cost adds its control terms to the same
kernel: one Legendre inversion per row gives u, B u joins dH/dp_y, and the
cost partials (C_q, C_y) of all rows, from one central-difference pass over
the stack, leave dH/dx.

With a quadratic cost dH/dx = M(x) p is linear in the momenta, and the
kernel also gives the kick matrix M(x): the implicit momentum kick
p' = p - tau M(x) p' is then one batched linear solve.  The implicit drift
of Stormer-Verlet, the kernel's ``drift`` entry, is a fixed-point iteration
from the explicit predictor; on the hoisted kernel only the velocities
iterate.  Newton measured slower, and it would converge where the fixed point
diverges (the sleigh at dt = 10), so a step too large for the scheme would no
longer raise FixedPointDivergence.  Kicks of non-quadratic costs iterate too.

A flow of one row steps a flat row (2(dim_q + rank_d),) instead of a stack
of one when its kernel is the hoisted one of a quadratic cost, whose entries
also come as row forms from the same blocks: every ``nhoc optimize`` solve
ends with such a flow, and on a stack of one each product, solve and
fixed-point iteration paid numpy's batching overhead, a quarter to a third
of that flow's time on the sleigh.  The floats are the stack's: each row
of a stack already takes the floats of its own product and solve, and the
row fixed point takes the iterates, tolerance and verdicts of
``_fixed_point``.  Segment stacks, the chart kernel and non-quadratic costs
keep the stack path.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dynamics import drift_acceleration
from .errors import DimensionMismatch, FixedPointDivergence, LegendreDivergence, SingularHessian
from .numerics import (checked_array, fd_jacobian, integrate_fixed_steps, matvec_rows, rk4_step,
                       step_count)
from .optimal_control import _multiplier_parts
# drift_jacobians is not called here; perfbench/tracing.py patches it under this name
from .optimal_control import ExtremalState, drift_jacobians, recover_controls  # noqa: F401

SCHEMES = ("rk4", "symp_euler", "stormer_verlet")


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """Point of T*D in induced coordinates (q, y, p_q, p_y).

    The fields may share leading batch axes; ``flat`` joins them along the
    last axis, and ``HamiltonianSystem.flatten`` also checks their shapes.
    """

    q: np.ndarray
    y: np.ndarray
    p_q: np.ndarray
    p_y: np.ndarray

    def __post_init__(self):
        for name in ("q", "y", "p_q", "p_y"):
            value = getattr(self, name)
            if type(value) is not np.ndarray or value.ndim != 1:
                object.__setattr__(self, name,
                                   np.atleast_1d(np.asarray(value, dtype=float)))

    def flat(self):
        return np.concatenate([self.q, self.y, self.p_q, self.p_y], axis=-1)


def _one_point(z, entry):
    """z, the flat row of one point; a stack raises DimensionMismatch naming ``entry``."""
    if z.ndim != 1:
        raise DimensionMismatch(f"{entry} takes one point, not a stack of shape {z.shape[:-1]}")
    return z


def regularity_matrix(problem, state):
    """Bordered matrix of the vakonomic Legendre transform at a state.

    Blocks over the velocities (qdot, ydot): the extended-Lagrangian Hessian
    (zero except the cost block d2L/dydot2) bordered by the constraint
    velocity-gradient df^j/dqdot^i = delta^j_i.  Regular iff the determinant
    is away from zero, which reduces to invertibility of the cost Hessian:
    singular means |det| <= 1e-10 times the product of the row norms (the
    Hadamard bound on |det|), a test that does not depend on the units of the
    cost.  Returns the matrix of a regular state, and raises SingularHessian,
    with the determinant in the message, at a singular one.
    """
    n, m = problem.dim_q, problem.rank_d
    ctrl = problem.controls
    if not ctrl.fully_actuated:
        raise DimensionMismatch("the regularity matrix requires full actuation")
    q, y = state.q, state.y
    u = recover_controls(problem, q, y, state.v)
    cuu = problem.cost.d2uu(q, y, u)
    if ctrl._identity:
        hess = cuu
    else:
        binv = ctrl._inverse
        hess = binv.T @ cuu @ binv
    size = n + m + n
    mat = np.zeros((size, size))
    mat[n:n + m, n:n + m] = hess
    mat[:n, n + m:] = np.eye(n)
    mat[n + m:, :n] = np.eye(n)
    det = float(np.linalg.det(mat))
    if not abs(det) > 1e-10 * float(np.prod(np.linalg.norm(mat, axis=1))):
        raise SingularHessian(f"regularity matrix is singular (det = {det:.3e})")
    return mat


def legendre_map(problem, state):
    """Momenta of the extended Lagrangian: p_q = lambda, p_y = dL/dydot.

    With basis-aligned inputs p_y = C_u(q, y, u) on the actuated rows, with
    u = v + delta there, and p_y = lambda_bar on the unactuated rows.  A
    square input matrix gives p_y = B^{-T} C_u.  Raises DimensionMismatch
    unless v, lambda and lambda_bar have their lengths, and ValidationError
    for a non-finite or non-numeric part.
    """
    ctrl = problem.controls
    q, y = state.q, state.y
    u = recover_controls(problem, q, y, state.v)
    lam, lam_bar = _multiplier_parts(problem, lam=state.lam, lam_bar=state.lam_bar)
    cu = problem.cost.du(q, y, u)
    if ctrl.actuated_indices is None:
        return PhasePoint(q=q, y=y, p_q=lam, p_y=ctrl._inverse.T @ cu)
    p_y = np.empty(ctrl.rank_d)
    p_y[ctrl._act] = cu
    p_y[ctrl._una] = lam_bar
    return PhasePoint(q=q, y=y, p_q=lam, p_y=p_y)


def _optimal_control(problem, q, y, p_y):
    """Control u solving C_u(q, y, u) = B^T p_y at one row, or at every row
    of stacks with a leading axis, each row with the floats of its own call.

    Quadratic costs invert exactly, u = W^{-1} B^T p_y, in one solve over the
    stack; they read neither q nor y.  Otherwise damped Newton from
    u = B^T p_y (tol 1e-12, max 50 iterations), row by row, raising
    LegendreDivergence on failure.
    """
    cost, ctrl = problem.cost, problem.controls
    if not cost.quadratic and p_y.ndim == 2:
        return np.array([_optimal_control(problem, *row) for row in zip(q, y, p_y)])
    target = p_y if ctrl._identity else matvec_rows(ctrl.input_matrix.T, p_y)
    if cost.quadratic:
        if cost.weight_identity:
            return target
        try:
            return np.linalg.solve(cost.weight, target[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularHessian("quadratic cost weight is singular") from exc
    u = target.copy()
    res = cost.du(q, y, u) - target
    for _ in range(50):
        if np.abs(res).max() <= 1e-12:
            return u
        try:
            step = -np.linalg.solve(cost.d2uu(q, y, u), res)
        except np.linalg.LinAlgError as exc:
            raise SingularHessian("cost Hessian is singular in Legendre inversion") from exc
        # the 2-norm as np.linalg.norm takes it for a 1-d array, once per iteration
        norm = math.sqrt(res.dot(res))
        scale = 1.0
        for _ in range(20):
            trial = u + scale * step
            trial_res = cost.du(q, y, trial) - target
            if math.sqrt(trial_res.dot(trial_res)) < norm:
                u, res = trial, trial_res
                break
            scale *= 0.5
        else:
            # finite-difference gradients bottom out around 1e-10; a
            # stalled iterate inside the roundtrip contract is accepted
            if np.abs(res).max() < 1e-10:
                return u
            raise LegendreDivergence("Legendre inversion stalled", control=u,
                                     residual_norm=float(np.linalg.norm(res)))
    raise LegendreDivergence("Legendre inversion did not converge", control=u,
                             residual_norm=float(np.linalg.norm(res)))


def _actuation(problem, u):
    """B u at one row or at every row of a stack."""
    ctrl = problem.controls
    return u if ctrl._identity else matvec_rows(ctrl.input_matrix, u)


def inverse_legendre(problem, phase):
    """Accelerations and multipliers from momenta, inverting ``legendre_map``.

    The control u solves C_u = B^T p_y and lambda = p_q.  With basis-aligned
    inputs v = u - delta on the actuated rows and lambda_bar = p_y on the
    unactuated rows; a square input matrix gives v = B u - delta.  Raises
    DimensionMismatch unless p_q and p_y have lengths dim_q and rank_d, and
    ValidationError for non-finite or non-numeric momenta.
    """
    ctrl = problem.controls
    q, y = phase.q, phase.y
    p_q, p_y = _multiplier_parts(problem, p_q=phase.p_q, p_y=phase.p_y)
    delta = drift_acceleration(problem.system, q, y)
    u = _optimal_control(problem, q, y, p_y)
    if ctrl.actuated_indices is None:
        return ExtremalState(q=q, y=y, v=_actuation(problem, u) - delta, lam=p_q)
    return ExtremalState(q=q, y=y, v=u - delta[ctrl._act], lam=p_q, lam_bar=p_y[ctrl._una])


def _outer_rows(u, v):
    """The products u_i v_j of the matching rows of two stacks (..., a) and
    (..., b), flattened to (..., a b) at index i b + j: the quadratic
    monomials that a constant (c, a b) matrix contracts with ``matvec_rows``."""
    return (u[..., :, None] * v[..., None, :]).reshape(u.shape[:-1] + (-1,))


def _outer_row(u, v):
    """``_outer_rows`` of one flat row each, with its floats."""
    return (u[:, None] * v).ravel()


class _Kernel(NamedTuple):
    """The partials of a ``HamiltonianSystem`` compiled on stacks of rows:
    positions x = (q, y) and momenta p = (p_q, p_y), each (B, dim_q + rank_d).

    ``field(z)`` gives the canonical field zdot = (dH/dp, -dH/dx) of flat
    phase rows z = (x, p); ``grad_x(x, p)`` and ``grad_p(x, p)`` give one
    partial each.  With a quadratic cost dH/dx = M(x) p is linear in the
    momenta, and ``kick_matrix(x)`` gives M at every row, (B, d, d); for other
    costs it is None.  ``drift(x, p, tau)`` solves X = x + tau (dH/dp(x, p) +
    dH/dp(X, p)) by fixed-point iteration from X = x + 2 tau dH/dp(x, p).
    ``row`` is the same kernel on one flat row, x and p of shape
    (dim_q + rank_d,), which gives the floats of that row in a stack, or None
    where only stacks are taken.
    """

    field: Callable
    grad_x: Callable
    grad_p: Callable
    kick_matrix: Optional[Callable]
    drift: Callable
    row: Optional["_Kernel"] = None


class HamiltonianSystem:
    """Hamiltonian H(q, y, p_q, p_y) of the optimal control problem.

    H = p_y (B u - delta) + p_q rho^T y - C(q, y, u), with delta the drift
    and u solving C_u = B^T p_y: the maximum-principle Hamiltonian for any
    input matrix B of full column rank, so underactuated problems take the
    same flow.  By the envelope theorem its partials follow from that one
    inversion, for every cost: the drift and anchor terms plus -C_q and -C_y
    at the optimal u, which vanish for quadratic costs.  The drift and its
    Jacobians are read from their one home, ``ConstrainedSystem``.

    The partials are compiled on first use into one kernel on stacks of
    phase rows, which evaluates every row at once.  On a chart-independent
    model without potential the drift and anchor terms are a cubic
    polynomial in (y, p), and with a quadratic cost so is H: Gamma, the
    anchor and the Legendre map A = B W^-1 B^T are constant, so the field is
    one fixed matrix times the monomials (y, p_q, p_y) and their products
    with y, built once per system, and each kernel entry is one product of a
    block of that matrix with the monomials of its rows.  Otherwise each
    evaluation takes one ``ConstrainedSystem.drift_rows`` over the rows and
    the stencil of their drift q-Jacobians; rows at the positions of the
    last build reuse it, as the kick matrix and the dH/dp half of the
    symplectic schemes do.  A non-quadratic cost adds B u and -(C_q, C_y)
    to either kernel, with u from one Legendre inversion per row.
    """

    def __init__(self, problem):
        self.problem = problem
        self.system = problem.system
        self.dim_q = problem.dim_q
        self.rank_d = problem.rank_d
        self._kernel = None

    def value(self, phase):
        """H at one phase point, by the stacked formula of extremal samples."""
        z = _one_point(self.flatten(phase), "HamiltonianSystem.value")[None]
        geo = self.system.geometry_rows(z[:, :self.dim_q])
        return float(self._controls_and_values(z, geo)[1][0])

    def _controls_and_values(self, z, geo):
        """Optimal controls (B, k), H (B,) and the running cost (B,) at the
        flat phase rows z, given the stacked geometry record ``geo`` at their
        chart points: one Legendre inversion of the stack and one cost value
        per row, every other term one product over the stack."""
        problem, system = self.problem, self.system
        n, m = self.dim_q, self.rank_d
        q, y, p_q, p_y = z[:, :n], z[:, n:n + m], z[:, n + m:2 * n + m], z[:, 2 * n + m:]
        # an array of its own: with B = W = I the controls are p_y itself
        u = np.array(_optimal_control(problem, q, y, p_y))
        ydot = _actuation(problem, u) - system.drift(y, geo)
        qdot = matvec_rows(geo["anchor_d"].swapaxes(1, 2), y)
        cost = np.array([problem.cost.value(*row) for row in zip(q, y, u)])
        # row dot products as (1, m) @ (m, 1): the floats of p_y @ ydot at one point
        pairing = (matvec_rows(p_y[:, None], ydot) + matvec_rows(p_q[:, None], qdot))[:, 0]
        return u, pairing - cost, cost

    def _build_kernel(self):
        """The kernel of the drift form of H: the hoisted polynomial when the
        drift is constant, else the chart kernel over ``drift_rows``.  A
        non-quadratic cost leaves its controls out, for ``_with_controls``."""
        problem, system = self.problem, self.system
        n, d = self.dim_q, self.dim_q + self.rank_d

        def actuation(p_y):
            """B u for the Legendre map u = W^-1 B^T p_y of every row of a
            quadratic cost, and 0 for any other cost."""
            if not problem.cost.quadratic:
                return np.zeros_like(p_y)
            return _actuation(problem, _optimal_control(problem, None, None, p_y))

        if not system.constant_drift:
            # chart-dependent drift: one drift_rows per evaluation; the kick
            # matrix and the momentum half of the symplectic schemes reuse the
            # rows of the last stack while they are asked for again
            seen, kept = {}, []

            def position_terms(x):
                """drift, its q- and y-Jacobians, the anchor and its
                q-partials at the rows of x (B, dim_q + rank_d)."""
                index = [seen.get(row.tobytes()) for row in x]
                if None not in index:
                    return [a[index] for a in kept]
                q, y = x[:, :n], x[:, n:]
                delta, ddq, ddy, geo = system.drift_rows(q, y)
                kept[:] = [delta, ddq, ddy, geo["anchor_d"], geo["anchor_d_dq"]]
                seen.clear()
                seen.update((row.tobytes(), i) for i, row in enumerate(x))
                return kept

            def x_half(x, p, terms):
                y, p_q, p_y = x[:, n:], p[:, :n], p[:, n:]
                _, ddq, ddy, anchor, anchor_dq = terms
                d_y = matvec_rows(-ddy.swapaxes(1, 2), p_y) + matvec_rows(anchor, p_q)
                d_q = (matvec_rows(-ddq.swapaxes(1, 2), p_y)
                       + np.einsum("...iAj,...j,...A->...i", anchor_dq, p_q, y))
                return np.concatenate([d_q, d_y], axis=1)

            def p_half(x, p, terms):
                delta, _, _, anchor, _ = terms
                return np.concatenate([matvec_rows(anchor.swapaxes(1, 2), x[:, n:]),
                                       actuation(p[:, n:]) - delta], axis=1)

            def chart_field(z):
                x, p = z[:, :d], z[:, d:]
                terms = position_terms(x)
                return np.concatenate([p_half(x, p, terms), -x_half(x, p, terms)], axis=1)

            def chart_kick_matrix(x):
                _, ddq, ddy, anchor, anchor_dq = position_terms(x)
                top = np.concatenate([np.einsum("...iAj,...A->...ij", anchor_dq, x[:, n:]),
                                      -ddq.swapaxes(1, 2)], axis=2)
                return np.concatenate([top, np.concatenate([anchor, -ddy.swapaxes(1, 2)],
                                                           axis=2)], axis=1)

            def chart_grad_p(x, p):
                return p_half(x, p, position_terms(x))

            return _Kernel(field=chart_field,
                           grad_x=lambda x, p: x_half(x, p, position_terms(x)),
                           grad_p=chart_grad_p, kick_matrix=chart_kick_matrix,
                           drift=_drift(chart_grad_p))
        # constant Gamma and anchor, no potential: H is cubic in (y, p), and
        # its field one fixed matrix of coefficients times the monomials of
        # v = (y, p_q, p_y): v itself and v (x) y, at index (i, b) -> v_i y_b
        m = self.rank_d
        gamma, anchor = system.gamma(), system.anchor_d()
        lin, quad = np.zeros((2 * d, m + d)), np.zeros((2 * d, m + d, m))
        # qdot = rho^T y and ydot = A p_y - Gamma(y, y), A = B W^-1 B^T
        lin[:n, :m] = anchor.T
        lin[n:d, m + n:] = actuation(np.eye(m)).T
        quad[n:d, :m] = -gamma
        # pdot_q = 0 and pdot_y^e = -dH/dy^e = S^c_eb p_c y^b - (rho p_q)^e,
        # with S^c_eb = Gamma^c_eb + Gamma^c_be
        lin[d + n:, m:m + n] = -anchor
        quad[d + n:, m + n:] = gamma.swapaxes(0, 1) + gamma.transpose(2, 0, 1)
        field_coeffs = np.concatenate([lin, quad.reshape(2 * d, -1)], axis=1)
        # dH/dp: the coefficients of y, p and y (x) y
        p_coeffs = np.concatenate([lin[:d], quad[:d, :m].reshape(d, m * m)], axis=1)
        # dH/dx = M(x) p: its coefficients of p and p (x) y, which give M
        kick_const, kick_y = -lin[d:, m:], -quad[d:, m:].reshape(d * d, m)
        x_coeffs = np.concatenate([kick_const, kick_y.reshape(d, d * m)], axis=1)
        rho_t, legendre, y_quad = lin[:n, :m], lin[n:d, m + n:], quad[n:d, :m].reshape(m, m * m)

        def entries(matvec, outer):
            """The kernel from these blocks, on stacks of rows with ``matvec_rows``
            and ``_outer_rows``, or on one flat row with ``np.dot`` and
            ``_outer_row``: either way each entry is one product of a block
            with the monomials of its rows."""

            def monomials(v, y):
                return np.concatenate([v, outer(v, y)], axis=-1)

            def field(z):
                return matvec(field_coeffs, monomials(z[..., n:], z[..., n:d]))

            def grad_x(x, p):
                return matvec(x_coeffs, monomials(p, x[..., n:]))

            def grad_p(x, p):
                y = x[..., n:]
                return matvec(p_coeffs, np.concatenate([y, p, outer(y, y)], axis=-1))

            def kick_matrix(x):
                return kick_const + matvec(kick_y, x[..., n:]).reshape(x.shape[:-1] + (d, d))

            def drift(x, p, tau):
                # dH/dp = (rho^T y, A p_y - Gamma(y, y)) reads y only: the velocities
                # iterate Y <- c - tau Gamma(Y, Y), then the chart positions take one step
                gp, y = grad_p(x, p), x[..., n:]
                gp_q, gp_y = gp[..., :n], gp[..., n:]
                with np.errstate(over="ignore", invalid="ignore"):
                    c = y + tau * (gp_y + matvec(legendre, p[..., n:]))
                    v0 = y + tau * (gp_y + gp_y)
                fixed_point = _fixed_point if v0.ndim > 1 else _row_fixed_point
                v = fixed_point(lambda rows, vv: c[rows] + tau * matvec(y_quad, outer(vv, vv)),
                                v0)
                return np.concatenate([x[..., :n] + tau * (gp_q + matvec(rho_t, v)), v], axis=-1)

            return _Kernel(field=field, grad_x=grad_x, grad_p=grad_p, kick_matrix=kick_matrix,
                           drift=drift)

        return entries(matvec_rows, _outer_rows)._replace(row=entries(np.dot, _outer_row))

    def _with_controls(self, kernel):
        """The kernel of a non-quadratic cost, from the kernel of its drift
        form: per row one Legendre inversion gives u, B u joins dH/dp_y, and
        the cost partials (C_q, C_y) at u, from one pass over the stack
        (``CostModel.dx_rows``), leave dH/dx.  dH/dx is then not
        linear in the momenta, so there is no kick matrix, and the drift
        iterates the generic map."""
        problem, cost = self.problem, self.problem.cost
        n, d = self.dim_q, self.dim_q + self.rank_d

        def controls(x, p):
            return _optimal_control(problem, x[:, :n], x[:, n:], p[:, n:])

        def add_actuation(gp, u):
            gp[:, n:] += _actuation(problem, u)
            return gp

        def less_cost_partials(gx, x, u):
            gx -= np.concatenate(cost.dx_rows(x[:, :n], x[:, n:], u), axis=1)
            return gx

        def field(z):
            x, p = z[:, :d], z[:, d:]
            u = controls(x, p)
            return np.concatenate([add_actuation(kernel.grad_p(x, p), u),
                                   -less_cost_partials(kernel.grad_x(x, p), x, u)], axis=1)

        def grad_x(x, p):
            return less_cost_partials(kernel.grad_x(x, p), x, controls(x, p))

        def grad_p(x, p):
            return add_actuation(kernel.grad_p(x, p), controls(x, p))

        return _Kernel(field=field, grad_x=grad_x, grad_p=grad_p, kick_matrix=None,
                       drift=_drift(grad_p))

    @property
    def _compiled(self):
        """The kernel of this system, compiled on first use."""
        if self._kernel is None:
            kernel = self._build_kernel()
            self._kernel = (kernel if self.problem.cost.quadratic
                            else self._with_controls(kernel))
        return self._kernel

    def partials(self, phase):
        """(dH/dq, dH/dy, dH/dp_q, dH/dp_y) in closed form, batched like phase."""
        zdot = self.field(phase)
        return -zdot.p_q, -zdot.p_y, zdot.q, zdot.y

    def field(self, phase):
        """Canonical Hamiltonian vector field as a PhasePoint of derivatives."""
        z = self.flatten(phase)
        return self.unflatten(self._compiled.field(z.reshape(-1, z.shape[-1])).reshape(z.shape))

    def flatten(self, phase):
        """Flat phase rows (..., 2(dim_q + rank_d)) of a PhasePoint, the
        inverse of ``unflatten``.  Raises DimensionMismatch unless the fields
        have lengths (dim_q, rank_d, dim_q, rank_d) and one leading batch
        shape, and ValidationError unless every entry is finite."""
        fields = phase.q, phase.y, phase.p_q, phase.p_y
        shapes = [f.shape for f in fields]
        expected = [shapes[0][:-1] + (k,) for k in (self.dim_q, self.rank_d) * 2]
        if shapes != expected:
            raise DimensionMismatch(f"phase fields (q, y, p_q, p_y) have shapes {shapes}, "
                                    f"expected {expected}")
        return checked_array(np.concatenate(fields, axis=-1), "phase point")

    def unflatten(self, z):
        """PhasePoint of flat phase rows of shape (..., 2(dim_q + rank_d))."""
        n, m = self.dim_q, self.rank_d
        z = np.asarray(z, dtype=float)
        if z.ndim == 0 or z.shape[-1] != 2 * (n + m):
            raise DimensionMismatch(f"phase vector must have length {2 * (n + m)}")
        return PhasePoint(q=z[..., :n], y=z[..., n:n + m], p_q=z[..., n + m:2 * n + m],
                          p_y=z[..., 2 * n + m:])


def _fixed_point(gfun, z0):
    """Rows z solving z = gfun(rows, z) by fixed-point iteration from z0.

    ``gfun(rows, z)`` evaluates the map on the rows of the stack selected by
    the index ``rows``.  A row stops updating once its own update is within
    1e-12, so every row takes exactly the iterates it would take alone; 100
    iterations are allowed.
    """
    z = np.array(z0, dtype=float)
    rows = slice(None)
    # a diverging map overflows on the way, and its update, infinite or NaN
    # through the max, decides finiteness and convergence in one reduction
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            z_old = z[rows]
            z_new = gfun(rows, z_old)
            update = np.abs(z_new - z_old).max(axis=1)
            worst = update.max(initial=0.0)
            z[rows] = z_new
            if worst <= 1e-12:
                return z
            if not worst < np.inf:
                raise FixedPointDivergence("implicit substep produced non-finite values")
            if not (update > 1e-12).all():
                rows = np.arange(len(z))[rows][update > 1e-12]
    raise FixedPointDivergence("implicit substep did not converge within 100 iterations")


def _row_fixed_point(gfun, z0):
    """``_fixed_point`` for one flat row z0: the same iterates, tolerance,
    verdicts and cap, without the bookkeeping of the rows still updating."""
    z = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            z_new = gfun(..., z)
            update = np.maximum.reduce(np.abs(z_new - z), initial=0.0)
            z = z_new
            if update <= 1e-12:
                return z
            if not update < np.inf:
                raise FixedPointDivergence("implicit substep produced non-finite values")
    raise FixedPointDivergence("implicit substep did not converge within 100 iterations")


def _drift(grad_p):
    """The drift entry of a kernel with dH/dp = ``grad_p``: the map
    X -> x + tau (dH/dp(x, p) + dH/dp(X, p)), iterated from its value at X = x."""

    def drift(x, p, tau):
        gp = grad_p(x, p)
        with np.errstate(over="ignore", invalid="ignore"):
            x0 = x + tau * (gp + gp)
        return _fixed_point(lambda rows, xx: x[rows] + tau * (gp[rows] + grad_p(xx, p[rows])), x0)

    return drift


def _check_scheme(dt, scheme):
    if not 0 < dt < np.inf:
        raise DimensionMismatch("need finite dt > 0")
    if scheme not in SCHEMES:
        raise DimensionMismatch(f"unknown scheme {scheme!r}; choose from {SCHEMES}")


def _kick(kernel, x, p, tau, identity):
    """Momenta p' = p - tau dH/dx(x, p') of an implicit kick at the rows of x.

    With a quadratic cost dH/dx = M(x) p, so p' solves (I + tau M(x)) p' = p,
    one batched linear solve (Hairer, Lubich & Wanner, Geometric Numerical
    Integration, VI.3), with ``identity`` the I of the momenta; a singular
    system or a non-finite p' raises FixedPointDivergence.  Other costs take
    the fixed-point iteration.
    """
    if kernel.kick_matrix is None:
        return _fixed_point(lambda rows, pp: p[rows] - tau * kernel.grad_x(x[rows], pp), p)
    lhs = tau * kernel.kick_matrix(x) + identity
    try:
        p_new = (np.linalg.solve(lhs, p) if p.ndim == 1
                 else np.linalg.solve(lhs, p[:, :, None])[:, :, 0])
    except np.linalg.LinAlgError as exc:
        raise FixedPointDivergence("implicit kick is singular") from exc
    if not np.isfinite(p_new).all():
        raise FixedPointDivergence("implicit kick produced non-finite values")
    return p_new


def _stepper(hs, dt, scheme, row=False):
    """The step function (t, z) -> z' of one flow of ``hs``, built once per
    flow: one step of the scheme for every row of a (B, 2(n + m)) stack of
    phase rows, or with ``row`` for one flat row by the row kernel.  It holds
    the kernel, the scheme's branch, the half step and the kick's identity;
    the field is autonomous, so t is unused."""
    d = hs.dim_q + hs.rank_d
    kernel = hs._compiled.row if row else hs._compiled
    if scheme == "rk4":
        def field(t, z):
            return kernel.field(z)

        # rk4_step is looked up at each step, where perfbench/tracing.py patches it
        return lambda t, z: rk4_step(field, t, z, dt)
    identity = np.eye(d)
    if scheme == "symp_euler":
        def symplectic_euler(t, z):
            x, p = z[..., :d], z[..., d:]
            p_new = _kick(kernel, x, p, dt, identity)
            return np.concatenate([x + dt * kernel.grad_p(x, p_new), p_new], axis=-1)
        return symplectic_euler
    half = 0.5 * dt

    def stormer_verlet(t, z):
        # generalized Stormer-Verlet: implicit half-kick, implicit drift, half-kick
        x, p = z[..., :d], z[..., d:]
        p_half = _kick(kernel, x, p, half, identity)
        x_new = kernel.drift(x, p_half, half)
        return np.concatenate([x_new, p_half - half * kernel.grad_x(x_new, p_half)], axis=-1)
    return stormer_verlet


def integrate_step(hs, phase, dt, scheme):
    """One step of rk4, symplectic Euler, or generalized Stormer-Verlet: the
    one-step case of the stepper that ``integrate_hamiltonian`` builds.

    The Hamiltonian is not separable, so the symplectic schemes have
    implicit substeps.  With a quadratic cost their momentum kicks are
    linear, one solve of (I + tau M(x)) p' = p; the drift of Stormer-Verlet,
    and the kicks of other costs, take fixed-point iteration (tol 1e-12,
    max 100); the drift starts from the explicit predictor x + dt dH/dp(x,
    p_half).  A singular kick, or a fixed point that fails, raises
    FixedPointDivergence.  The fields of ``phase`` may carry leading batch
    axes; the rows are stepped together, each with the floats it would get
    alone.
    """
    _check_scheme(dt, scheme)
    z = hs.flatten(phase)
    step = _stepper(hs, dt, scheme)
    return hs.unflatten(step(0.0, z.reshape(-1, z.shape[-1])).reshape(z.shape))


def symplecticity_defect(hs, phase, dt, scheme):
    """Max-norm violation of DPsi^T J DPsi = J for one step of the scheme.

    DPsi is the central finite-difference Jacobian of the step map
    (step 1e-4); J is canonical for the (q, y | p_q, p_y) ordering.
    """
    n = hs.dim_q + hs.rank_d
    jmat = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])

    def step_map(z):
        return integrate_step(hs, hs.unflatten(z), dt, scheme).flat()

    # where a fixed point remains (the drift of Stormer-Verlet, the kicks of
    # non-quadratic costs) it stops at a 1e-12 tolerance, which a difference
    # quotient of step h reads as a defect of about 1e-12 / h: 1e-8 at
    # h = 1e-4, where the default 1e-6 stencil would read 1e-6; the linear
    # kicks of quadratic costs are solved to rounding
    dpsi = fd_jacobian(step_map, _one_point(hs.flatten(phase), "symplecticity_defect"),
                       step=1e-4)
    return float(np.abs(dpsi.T @ jmat @ dpsi - jmat).max())


def integrate_hamiltonian(hs, phase0, t_final, dt, scheme):
    """Fixed-step integration of Hamilton's equations; returns (times, phases).

    ``phases`` holds the flattened phase points, of shape (n_steps + 1,
    2(dim_q + rank_d)).  The fields of ``phase0`` may carry leading batch
    axes; the whole stack is then integrated as one flow through the
    fixed-step driver, and ``phases`` gains those axes after the first.
    One row on a kernel with row forms (the hoisted kernel of a quadratic
    cost) steps as a flat row, with the floats and the errors it gets in a
    stack; segments, the chart kernel and other costs step stacks.
    Raises DimensionMismatch unless dt divides t_final, and NonFiniteState
    when any row leaves the finite range.
    """
    n_steps = step_count(t_final, dt)
    _check_scheme(dt, scheme)
    z0 = hs.flatten(phase0)
    rows = z0.reshape(-1, z0.shape[-1])
    row = len(rows) == 1 and hs._compiled.row is not None
    times, phases = integrate_fixed_steps(_stepper(hs, dt, scheme, row),
                                          rows[0] if row else rows, n_steps, dt)
    return times, phases.reshape((n_steps + 1,) + z0.shape)
