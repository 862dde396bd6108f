"""Hamiltonian form of the necessary conditions on T*D and one-step integrators.

Phase coordinates are ordered (q, y, p_q, p_y); (q, y) are positions and
(p_q, p_y) momenta for the canonical symplectic structure.  One Legendre
inversion per phase point gives the optimal control u, closed-form for
quadratic costs and a damped Newton solve otherwise; the Hamiltonian value
and its partials both follow from that u in closed form.

The flows run on flat phase arrays with a leading batch axis: each
``HamiltonianSystem`` compiles its partials once into a kernel on row
stacks, and every scheme steps a whole stack through the fixed-step driver
``numerics.integrate_fixed_steps``.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import drift_acceleration
from .errors import (DimensionMismatch, FixedPointDivergence, LegendreDivergence,
                     SingularHessian)
from .numerics import (fd_jacobian, integrate_fixed_steps, matvec_rows, rk4_step,
                       step_count)
from .optimal_control import ExtremalState, drift_jacobians, drift_rows, recover_controls

SCHEMES = ("rk4", "symp_euler", "stormer_verlet")


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """Point of T*D in induced coordinates (q, y, p_q, p_y).

    The fields may share leading batch axes; ``flat`` joins them along the
    last axis.
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


@dataclass(frozen=True, eq=False)
class RegularityReport:
    """Bordered Hessian of the constrained Legendre map and its verdict."""

    matrix_m: np.ndarray
    determinant: float
    condition: float
    is_regular: bool


def regularity_matrix(problem, state):
    """Bordered matrix of the vakonomic Legendre transform at a state.

    Blocks over the velocities (qdot, ydot): the extended-Lagrangian Hessian
    (zero except the cost block d2L/dydot2) bordered by the constraint
    velocity-gradient df^j/dqdot^i = delta^j_i.  Regular iff the determinant
    is away from zero, which reduces to invertibility of the cost Hessian.
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
    cond = float(np.linalg.cond(mat)) if size else 1.0
    scale = max(1.0, float(np.abs(mat).max())) ** size
    return RegularityReport(matrix_m=mat, determinant=det, condition=cond,
                            is_regular=bool(abs(det) > 1e-10 * scale))


def legendre_map(problem, state):
    """Momenta of the extended Lagrangian: p_q = lambda, p_y = dL/dydot.

    With basis-aligned inputs p_y = C_u(q, y, u) on the actuated rows, with
    u = v + delta there, and p_y = lambda_bar on the unactuated rows.  A
    square input matrix gives p_y = B^{-T} C_u.
    """
    ctrl = problem.controls
    q, y = state.q, state.y
    u = recover_controls(problem, q, y, state.v)
    cu = problem.cost.du(q, y, u)
    if ctrl.actuated_indices is None:
        return PhasePoint(q=q, y=y, p_q=state.lam, p_y=ctrl._inverse.T @ cu)
    if state.lam_bar.shape != (ctrl.rank_d - ctrl.k,):
        raise DimensionMismatch(f"lambda_bar must have length {ctrl.rank_d - ctrl.k}")
    p_y = np.empty(ctrl.rank_d)
    p_y[ctrl._act] = cu
    p_y[ctrl._una] = state.lam_bar
    return PhasePoint(q=q, y=y, p_q=state.lam, p_y=p_y)


def _optimal_control(problem, q, y, p_y):
    """Control u solving C_u(q, y, u) = B^T p_y.

    Quadratic costs invert exactly: u = W^{-1} B^T p_y.  Otherwise damped
    Newton from u = B^T p_y (tol 1e-12, max 50 iterations), raising
    LegendreDivergence on failure.
    """
    cost, ctrl = problem.cost, problem.controls
    target = p_y if ctrl._identity else ctrl.input_matrix.T @ p_y
    if cost.quadratic:
        if cost.weight_identity:
            return target
        try:
            return np.linalg.solve(cost.weight, target)
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
        scale = 1.0
        for _ in range(20):
            trial = u + scale * step
            trial_res = cost.du(q, y, trial) - target
            if np.linalg.norm(trial_res) < np.linalg.norm(res):
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
    ctrl = problem.controls
    return u if ctrl._identity else ctrl.input_matrix @ u


def inverse_legendre(problem, phase):
    """Accelerations and multipliers from momenta, inverting ``legendre_map``.

    The control u solves C_u = B^T p_y and lambda = p_q.  With basis-aligned
    inputs v = u - delta on the actuated rows and lambda_bar = p_y on the
    unactuated rows; a square input matrix gives v = B u - delta.
    """
    ctrl = problem.controls
    q, y = phase.q, phase.y
    u = _optimal_control(problem, q, y, phase.p_y)
    delta = drift_acceleration(problem.system, q, y)
    if ctrl.actuated_indices is None:
        if ctrl._inverse is None:
            raise DimensionMismatch("input matrix is neither basis-aligned nor square")
        return ExtremalState(q=q, y=y, v=_actuation(problem, u) - delta, lam=phase.p_q)
    return ExtremalState(q=q, y=y, v=u - delta[ctrl._act], lam=phase.p_q,
                         lam_bar=phase.p_y[ctrl._una])


class HamiltonianSystem:
    """Hamiltonian H(q, y, p_q, p_y) of the optimal control problem.

    H = p_y (B u - delta) + p_q rho^T y - C(q, y, u), with delta the drift
    and u solving C_u = B^T p_y: the maximum-principle Hamiltonian for any
    input matrix B of full column rank, so underactuated problems take the
    same flow.  By the envelope theorem its partials follow from that one
    inversion, for every cost: the drift and anchor terms plus -C_q and -C_y
    at the optimal u, which vanish for quadratic costs.

    The partials are compiled on first use into one kernel on stacks of
    phase rows.  With a quadratic cost every row is evaluated at once: on a
    chart-independent model without potential Gamma, the anchor and the
    Legendre map are hoisted out of the kernel, and otherwise one stacked
    geometry build per evaluation covers the rows and the stencil of their
    drift q-Jacobians; rows at the positions of the last build reuse it, as
    in the momentum iterations of the symplectic schemes.  A non-quadratic
    cost takes the per-point formulas row by row.
    """

    def __init__(self, problem):
        self.problem = problem
        self.system = problem.system
        self.dim_q = problem.dim_q
        self.rank_d = problem.rank_d
        self._kernel = None

    def value(self, phase):
        q, y, p_q, p_y = phase.q, phase.y, phase.p_q, phase.p_y
        u = _optimal_control(self.problem, q, y, p_y)
        ydot = _actuation(self.problem, u) - drift_acceleration(self.system, q, y)
        return float(p_y @ ydot + p_q @ (self.system.anchor_d(q).T @ y)
                     - self.problem.cost.value(q, y, u))

    def _point_partials(self, q, y, p_q, p_y):
        """(dH/dx, dH/dp) at one phase point."""
        cost = self.problem.cost
        anchor = self.system.anchor_d(q)
        u = _optimal_control(self.problem, q, y, p_y)
        delta = drift_acceleration(self.system, q, y)
        ddq, ddy = drift_jacobians(self.system, q, y)
        d_pq = anchor.T @ y
        d_py = _actuation(self.problem, u) - delta
        d_y = -ddy.T @ p_y + anchor @ p_q
        if self.dim_q > 0:
            d_q = -ddq.T @ p_y + np.einsum("iAj,j,A->i",
                                           self.system.anchor_d_dq(q), p_q, y)
        else:
            d_q = np.zeros(0)
        if not cost.quadratic:
            d_q = d_q - cost.dq(q, y, u)
            d_y = d_y - cost.dy(q, y, u)
        return np.concatenate([d_q, d_y]), np.concatenate([d_pq, d_py])

    def _rowwise_partials(self, x, p):
        """The kernel of non-quadratic costs: the per-point formulas, row by row."""
        n = self.dim_q
        gx, gp = np.empty_like(x), np.empty_like(p)
        for i in range(len(x)):
            gx[i], gp[i] = self._point_partials(x[i, :n], x[i, n:], p[i, :n], p[i, n:])
        return gx, gp

    @property
    def _stacks_at_once(self):
        """True when the kernel evaluates a whole stack at once, which it does
        for every quadratic cost, so that extra rows of a flow cost little;
        False when each row takes the per-point formulas."""
        return bool(self.problem.cost.quadratic)

    def _build_kernel(self):
        problem, system, n = self.problem, self.system, self.dim_q
        cost, ctrl = problem.cost, problem.controls
        if not self._stacks_at_once:
            return self._rowwise_partials
        input_m = None if ctrl._identity else ctrl.input_matrix
        weight = None if cost.weight_identity else cost.weight

        def actuation(p_y):
            """B u for the Legendre map u = W^-1 B^T p_y of every row."""
            u = p_y if input_m is None else matvec_rows(input_m.T, p_y)
            if weight is not None:
                try:
                    u = np.linalg.solve(weight, u[:, :, None])[:, :, 0]
                except np.linalg.LinAlgError as exc:
                    raise SingularHessian("quadratic cost weight is singular") from exc
            return u if input_m is None else matvec_rows(input_m, u)

        if not system.constant_drift:
            # chart-dependent drift: one stacked geometry build per evaluation
            # covers the rows and the stencil of their drift q-Jacobians.  The
            # implicit substeps of the symplectic schemes iterate the momenta
            # at fixed positions, so the position terms of the last stack are
            # kept and its rows reused while they are asked for again.
            seen, kept = {}, []

            def position_terms(x):
                """drift, its q- and y-Jacobians, the anchor and its
                q-partials at the rows of x (B, dim_q + rank_d)."""
                index = [seen.get(row.tobytes()) for row in x]
                if None not in index:
                    return [a[index] for a in kept]
                q, y = x[:, :n], x[:, n:]
                delta, ddq, ddy, geo = drift_rows(system, q, y)
                kept[:] = [delta, ddq, ddy, geo["anchor_d"], system.anchor_d_dq(q)]
                seen.clear()
                seen.update((row.tobytes(), i) for i, row in enumerate(x))
                return kept

            def chart_kernel(x, p):
                y, p_q, p_y = x[:, n:], p[:, :n], p[:, n:]
                delta, ddq, ddy, anchor, anchor_dq = position_terms(x)
                d_y = matvec_rows(-ddy.swapaxes(1, 2), p_y) + matvec_rows(anchor, p_q)
                d_q = (matvec_rows(-ddq.swapaxes(1, 2), p_y)
                       + np.einsum("...iAj,...j,...A->...i", anchor_dq, p_q, y))
                return (np.concatenate([d_q, d_y], axis=1),
                        np.concatenate([matvec_rows(anchor.swapaxes(1, 2), y),
                                        actuation(p_y) - delta], axis=1))

            return chart_kernel
        # constant geometry and no potential: the drift has no q-Jacobian
        gamma, anchor = system.gamma(), system.anchor_d()

        def kernel(x, p):
            y, p_q, p_y = x[:, n:], p[:, :n], p[:, n:]
            bu = actuation(p_y)
            delta = np.einsum("cab,...a,...b->...c", gamma, y, y)
            ddy = (np.einsum("cab,...b->...ca", gamma, y)
                   + np.einsum("cab,...a->...cb", gamma, y))
            d_y = matvec_rows(-ddy.swapaxes(1, 2), p_y)
            if n == 0:
                return d_y, bu - delta
            d_pq = matvec_rows(anchor.T, y)
            return (np.concatenate([np.zeros_like(d_pq), d_y + matvec_rows(anchor, p_q)], axis=1),
                    np.concatenate([d_pq, bu - delta], axis=1))

        return kernel

    def _grads(self, x, p):
        """(dH/dx, dH/dp) for positions x = (q, y) and momenta p = (p_q, p_y)
        stacked as rows of shape (B, dim_q + rank_d)."""
        if self._kernel is None:
            self._kernel = self._build_kernel()
        return self._kernel(x, p)

    def partials(self, phase):
        """(dH/dq, dH/dy, dH/dp_q, dH/dp_y) in closed form, batched like phase."""
        n = self.dim_q
        x = np.concatenate([phase.q, phase.y], axis=-1)
        p = np.concatenate([phase.p_q, phase.p_y], axis=-1)
        gx, gp = self._grads(x.reshape(-1, x.shape[-1]), p.reshape(-1, p.shape[-1]))
        gx, gp = gx.reshape(x.shape), gp.reshape(p.shape)
        return gx[..., :n], gx[..., n:], gp[..., :n], gp[..., n:]

    def field(self, phase):
        """Canonical Hamiltonian vector field as a PhasePoint of derivatives."""
        d_q, d_y, d_pq, d_py = self.partials(phase)
        return PhasePoint(q=d_pq, y=d_py, p_q=-d_q, p_y=-d_y)

    def unflatten(self, z):
        """PhasePoint of flat phase rows of shape (..., 2(dim_q + rank_d))."""
        n, m = self.dim_q, self.rank_d
        z = np.asarray(z, dtype=float)
        if z.ndim == 0 or z.shape[-1] != 2 * (n + m):
            raise DimensionMismatch(f"phase vector must have length {2 * (n + m)}")
        return PhasePoint(q=z[..., :n], y=z[..., n:n + m], p_q=z[..., n + m:2 * n + m],
                          p_y=z[..., 2 * n + m:])


def _fixed_point(gfun, z0):
    """Rows z solving z = gfun(rows, z) by fixed-point iteration.

    ``gfun(rows, z)`` evaluates the map on the rows of the stack selected by
    the index ``rows``.  A row stops updating once its own update is within
    1e-12, so every row takes exactly the iterates it would take alone; 100
    iterations are allowed.
    """
    z = np.array(z0, dtype=float)
    rows = slice(None)
    for _ in range(100):
        z_old = z[rows]
        z_new = gfun(rows, z_old)
        if not np.isfinite(z_new).all():
            raise FixedPointDivergence("implicit substep produced non-finite values")
        moving = np.abs(z_new - z_old).max(axis=1) > 1e-12
        z[rows] = z_new
        if not moving.any():
            return z
        if not moving.all():
            rows = np.arange(len(z))[rows][moving]
    raise FixedPointDivergence("implicit substep did not converge within 100 iterations")


def _check_scheme(dt, scheme):
    if not 0 < dt < np.inf:
        raise DimensionMismatch("need finite dt > 0")
    if scheme not in SCHEMES:
        raise DimensionMismatch(f"unknown scheme {scheme!r}; choose from {SCHEMES}")


def _flat_step(hs, z, dt, scheme):
    """One step of every row of a (B, 2(n + m)) stack of phase rows."""
    d = hs.dim_q + hs.rank_d
    grads = hs._grads
    if scheme == "rk4":
        def field(t, zz):
            gx, gp = grads(zz[:, :d], zz[:, d:])
            return np.concatenate([gp, -gx], axis=1)
        return rk4_step(field, 0.0, z, dt)
    x, p = z[:, :d], z[:, d:]
    if scheme == "symp_euler":
        p_new = _fixed_point(lambda rows, pp: p[rows] - dt * grads(x[rows], pp)[0], p)
        x_new = x + dt * grads(x, p_new)[1]
        return np.concatenate([x_new, p_new], axis=1)
    # generalized Stormer-Verlet: implicit half-kick, implicit drift, half-kick
    p_half = _fixed_point(lambda rows, pp: p[rows] - 0.5 * dt * grads(x[rows], pp)[0], p)
    gp_left = grads(x, p_half)[1]
    x_new = _fixed_point(lambda rows, xx: x[rows] + 0.5 * dt * (
        gp_left[rows] + grads(xx, p_half[rows])[1]), x)
    p_new = p_half - 0.5 * dt * grads(x_new, p_half)[0]
    return np.concatenate([x_new, p_new], axis=1)


def integrate_step(hs, phase, dt, scheme="stormer_verlet"):
    """One step of rk4, symplectic Euler, or generalized Stormer-Verlet.

    The Hamiltonian is not separable, so the symplectic schemes solve their
    implicit substeps by fixed-point iteration (tol 1e-12, max 100).  The
    fields of ``phase`` may carry leading batch axes; the rows are stepped
    together, each with the iterates it would take alone.
    """
    _check_scheme(dt, scheme)
    z = phase.flat()
    return hs.unflatten(_flat_step(hs, z.reshape(-1, z.shape[-1]), dt, scheme).reshape(z.shape))


def symplecticity_defect(hs, phase, dt, scheme):
    """Max-norm violation of DPsi^T J DPsi = J for one step of the scheme.

    DPsi is the central finite-difference Jacobian of the step map
    (step 1e-4); J is canonical for the (q, y | p_q, p_y) ordering.
    """
    n = hs.dim_q + hs.rank_d
    jmat = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])

    def step_map(z):
        return integrate_step(hs, hs.unflatten(z), dt, scheme).flat()

    # the implicit substeps stop at a 1e-12 fixed-point tolerance, which a
    # difference quotient of step h reads as a defect of about 1e-12 / h:
    # 1e-8 at h = 1e-4, where the default 1e-6 stencil would read 1e-6
    dpsi = fd_jacobian(step_map, phase.flat(), step=1e-4)
    return float(np.abs(dpsi.T @ jmat @ dpsi - jmat).max())


def integrate_hamiltonian(hs, phase0, t_final, dt, scheme="stormer_verlet"):
    """Fixed-step integration of Hamilton's equations; returns (times, phases).

    ``phases`` holds the flattened phase points, of shape (n_steps + 1,
    2(dim_q + rank_d)).  The fields of ``phase0`` may carry leading batch
    axes; the whole stack is then integrated as one flow through the
    fixed-step driver, and ``phases`` gains those axes after the first.
    Raises DimensionMismatch unless dt divides t_final, and NonFiniteState
    when any row leaves the finite range.
    """
    n_steps = step_count(t_final, dt)
    _check_scheme(dt, scheme)
    z0 = phase0.flat()
    times, phases = integrate_fixed_steps(lambda t, z: _flat_step(hs, z, dt, scheme),
                                          z0.reshape(-1, z0.shape[-1]), n_steps, dt)
    return times, phases.reshape((n_steps + 1,) + z0.shape)
