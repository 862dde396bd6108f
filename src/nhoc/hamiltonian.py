"""Hamiltonian form of the necessary conditions on T*D and one-step integrators.

Phase coordinates are ordered (q, y, p_q, p_y); (q, y) are positions and
(p_q, p_y) momenta for the canonical symplectic structure.  One Legendre
inversion per phase point gives the optimal control u, closed-form for
quadratic costs and a damped Newton solve otherwise; the Hamiltonian value
and its partials both follow from that u in closed form.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import drift_acceleration
from .errors import (DimensionMismatch, FixedPointDivergence, NewtonDivergence,
                     SingularHessian)
from .numerics import check_finite, fd_jacobian, rk4_step, step_count
from .optimal_control import ExtremalState, drift_jacobians, recover_controls

SCHEMES = ("rk4", "symp_euler", "stormer_verlet")


@dataclass(frozen=True)
class PhasePoint:
    """Point of T*D in induced coordinates (q, y, p_q, p_y)."""

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
        return np.concatenate([self.q, self.y, self.p_q, self.p_y])


@dataclass(frozen=True)
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
    """Momenta of the extended Lagrangian: p_q = lambda, p_y = dL/dydot."""
    if not problem.controls.fully_actuated:
        raise DimensionMismatch("the Hamiltonian formulation requires full actuation")
    q, y = state.q, state.y
    u = recover_controls(problem, q, y, state.v)
    cu = problem.cost.du(q, y, u)
    p_y = problem.controls.solve_inputs_t(cu)
    return PhasePoint(q=q, y=y, p_q=state.lam, p_y=p_y)


def _optimal_control(problem, q, y, p_y):
    """Control u solving C_u(q, y, u) = B^T p_y.

    Quadratic costs invert exactly: u = W^{-1} B^T p_y.  Otherwise damped
    Newton from u = B^T p_y (tol 1e-12, max 50 iterations), raising
    NewtonDivergence on failure.
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
            raise NewtonDivergence("Legendre inversion stalled", best=u,
                                   residual_norm=float(np.linalg.norm(res)))
    raise NewtonDivergence("Legendre inversion did not converge", best=u,
                           residual_norm=float(np.linalg.norm(res)))


def _actuation(problem, u):
    ctrl = problem.controls
    return u if ctrl._identity else ctrl.input_matrix @ u


def inverse_legendre(problem, phase):
    """Acceleration and multipliers from momenta: v = B u - drift, lambda = p_q,
    with u from the Legendre inversion C_u = B^T p_y."""
    q, y = phase.q, phase.y
    u = _optimal_control(problem, q, y, phase.p_y)
    v = _actuation(problem, u) - drift_acceleration(problem.system, q, y)
    return ExtremalState(q=q, y=y, v=v, lam=phase.p_q)


class HamiltonianSystem:
    """Hamiltonian H(q, y, p_q, p_y) of the optimal control problem.

    H = p_y (B u - delta) + p_q rho^T y - C(q, y, u), with delta the drift
    and u solving C_u = B^T p_y.  By the envelope theorem its partials follow
    from that one inversion, for every cost: the drift and anchor terms plus
    -C_q and -C_y at the optimal u, which vanish for quadratic costs.
    """

    def __init__(self, problem):
        if not problem.controls.fully_actuated:
            raise DimensionMismatch("the Hamiltonian formulation requires full actuation")
        self.problem = problem
        self.system = problem.system
        self.dim_q = problem.dim_q
        self.rank_d = problem.rank_d

    def value(self, phase):
        q, y, p_q, p_y = phase.q, phase.y, phase.p_q, phase.p_y
        geo = self.system.geometry(q)
        u = _optimal_control(self.problem, q, y, p_y)
        ydot = _actuation(self.problem, u) - drift_acceleration(self.system, q, y, geo)
        return float(p_y @ ydot + p_q @ (geo["anchor_d"].T @ y)
                     - self.problem.cost.value(q, y, u))

    def partials(self, phase):
        """(dH/dq, dH/dy, dH/dp_q, dH/dp_y) in closed form."""
        q, y, p_q, p_y = phase.q, phase.y, phase.p_q, phase.p_y
        cost = self.problem.cost
        geo = self.system.geometry(q)
        u = _optimal_control(self.problem, q, y, p_y)
        delta = drift_acceleration(self.system, q, y, geo)
        ddq, ddy = drift_jacobians(self.system, q, y, geo)
        anchor = geo["anchor_d"]
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
        return d_q, d_y, d_pq, d_py

    def field(self, phase):
        """Canonical Hamiltonian vector field as a PhasePoint of derivatives."""
        d_q, d_y, d_pq, d_py = self.partials(phase)
        return PhasePoint(q=d_pq, y=d_py, p_q=-d_q, p_y=-d_y)

    def unflatten(self, z):
        n, m = self.dim_q, self.rank_d
        z = np.asarray(z, dtype=float)
        if z.shape != (2 * (n + m),):
            raise DimensionMismatch(f"phase vector must have length {2 * (n + m)}")
        return PhasePoint(q=z[:n], y=z[n:n + m], p_q=z[n + m:2 * n + m], p_y=z[2 * n + m:])


def build_hamiltonian(problem):
    """Hamiltonian system of a fully actuated problem on T*D."""
    return HamiltonianSystem(problem)


def _fixed_point(gfun, z0, tol=1e-12, max_iter=100):
    z = np.asarray(z0, dtype=float)
    for _ in range(max_iter):
        z_new = gfun(z)
        if not np.all(np.isfinite(z_new)):
            raise FixedPointDivergence("implicit substep produced non-finite values")
        if np.abs(z_new - z).max() <= tol:
            return z_new
        z = z_new
    raise FixedPointDivergence(f"implicit substep did not converge within {max_iter} iterations")


def _split_xp(hs, phase):
    x = np.concatenate([phase.q, phase.y])
    p = np.concatenate([phase.p_q, phase.p_y])
    return x, p


def _join_xp(hs, x, p):
    n, m = hs.dim_q, hs.rank_d
    return PhasePoint(q=x[:n], y=x[n:], p_q=p[:n], p_y=p[n:])


def _grad_x(hs, x, p):
    d_q, d_y, _, _ = hs.partials(_join_xp(hs, x, p))
    return np.concatenate([d_q, d_y])


def _grad_p(hs, x, p):
    _, _, d_pq, d_py = hs.partials(_join_xp(hs, x, p))
    return np.concatenate([d_pq, d_py])


def integrate_step(hs, phase, dt, scheme="stormer_verlet"):
    """One step of rk4, symplectic Euler, or generalized Stormer-Verlet.

    The Hamiltonian is not separable, so the symplectic schemes solve their
    implicit substeps by fixed-point iteration (tol 1e-12, max 100).
    """
    if dt <= 0:
        raise DimensionMismatch("need dt > 0")
    if scheme not in SCHEMES:
        raise DimensionMismatch(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if scheme == "rk4":
        z = rk4_step(lambda t, zz: hs.field(hs.unflatten(zz)).flat(), 0.0, phase.flat(), dt)
        return hs.unflatten(z)
    x, p = _split_xp(hs, phase)
    if scheme == "symp_euler":
        p_new = _fixed_point(lambda z: p - dt * _grad_x(hs, x, z), p)
        x_new = x + dt * _grad_p(hs, x, p_new)
        return _join_xp(hs, x_new, p_new)
    # generalized Stormer-Verlet: implicit half-kick, implicit drift, half-kick
    p_half = _fixed_point(lambda z: p - 0.5 * dt * _grad_x(hs, x, z), p)
    gp_left = _grad_p(hs, x, p_half)
    x_new = _fixed_point(lambda z: x + 0.5 * dt * (gp_left + _grad_p(hs, z, p_half)), x)
    p_new = p_half - 0.5 * dt * _grad_x(hs, x_new, p_half)
    return _join_xp(hs, x_new, p_new)


def symplecticity_defect(hs, phase, dt, scheme):
    """Max-norm violation of DPsi^T J DPsi = J for one step of the scheme.

    DPsi is the central finite-difference Jacobian of the step map
    (step 1e-6); J is canonical for the (q, y | p_q, p_y) ordering.
    """
    n = hs.dim_q + hs.rank_d
    jmat = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])

    def step_map(z):
        return integrate_step(hs, hs.unflatten(z), dt, scheme).flat()

    dpsi = fd_jacobian(step_map, phase.flat(), step=1e-6)
    return float(np.abs(dpsi.T @ jmat @ dpsi - jmat).max())


def integrate_hamiltonian(hs, phase0, t_final, dt, scheme="stormer_verlet"):
    """Fixed-step integration of Hamilton's equations; returns (times, phases).

    ``phases`` is an (n_steps + 1, 2(dim_q + rank_d)) array of flattened
    phase points.  Raises DimensionMismatch unless dt divides t_final, and
    NonFiniteState when the phase point leaves the finite range.
    """
    n_steps = step_count(t_final, dt)
    times = np.arange(n_steps + 1) * dt
    phases = np.empty((n_steps + 1, 2 * (hs.dim_q + hs.rank_d)))
    z = phase0.flat()
    for k in range(n_steps + 1):
        phases[k] = z
        if k == n_steps:
            break
        z = integrate_step(hs, hs.unflatten(z), dt, scheme).flat()
        check_finite(z)
    return times, phases
