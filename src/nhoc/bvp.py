"""Two-point boundary value problems for extremals by single shooting."""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import Trajectory
from .errors import (DimensionMismatch, NewtonDivergence, NonFiniteState,
                     SingularJacobian)
from .hamiltonian import PhasePoint, inverse_legendre, integrate_hamiltonian
from .numerics import fd_jacobian, step_count
from .optimal_control import recover_controls


@dataclass(frozen=True)
class NewtonOptions:
    """Damped-Newton parameters for the shooting solve."""

    tolerance: float = 1e-10
    max_iterations: int = 50
    fd_step: float = 1e-7
    damping: float = 0.5
    max_halvings: int = 20

    def __post_init__(self):
        if self.tolerance <= 0:
            raise DimensionMismatch("Newton tolerance must be positive")


@dataclass(frozen=True)
class ShootingProblem:
    """Shooting setup: Hamiltonian system, boundary data, step and scheme.

    Boundary fields default to the ones stored on the underlying problem.
    """

    hs: object
    dt: float = 1e-3
    scheme: str = "rk4"
    q0: Optional[np.ndarray] = None
    y0: Optional[np.ndarray] = None
    qT: Optional[np.ndarray] = None
    yT: Optional[np.ndarray] = None
    newton: NewtonOptions = field(default_factory=NewtonOptions)

    def __post_init__(self):
        prob = self.hs.problem
        for name in ("q0", "y0", "qT", "yT"):
            val = getattr(self, name)
            if val is None:
                val = getattr(prob, name)
            if val is None:
                if name in ("q0", "qT") and prob.dim_q == 0:
                    val = np.zeros(0)
                else:
                    raise DimensionMismatch(f"boundary value {name} is missing")
            arr = np.atleast_1d(np.asarray(val, dtype=float))
            expected = prob.dim_q if name in ("q0", "qT") else prob.rank_d
            if arr.shape != (expected,):
                raise DimensionMismatch(f"{name} must have length {expected}")
            object.__setattr__(self, name, arr)
        step_count(prob.horizon, self.dt)

    @property
    def horizon(self):
        return self.hs.problem.horizon

    @property
    def n_momenta(self):
        return self.hs.dim_q + self.hs.rank_d


def _initial_phase(sp, p0):
    n = sp.hs.dim_q
    batch = p0.shape[:-1]
    return PhasePoint(q=np.broadcast_to(sp.q0, batch + sp.q0.shape),
                      y=np.broadcast_to(sp.y0, batch + sp.y0.shape),
                      p_q=p0[..., :n], p_y=p0[..., n:])


def shooting_residual(sp, p0):
    """Terminal mismatch (q(T) - qT, y(T) - yT) for an initial-momenta guess.

    ``p0`` may be a stack of guesses with leading batch axes; they are then
    integrated as one batched flow and the residuals are stacked the same way.
    """
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    if p0.shape[-1] != sp.n_momenta:
        raise DimensionMismatch(f"p0 must have length {sp.n_momenta}")
    _, phases = integrate_hamiltonian(sp.hs, _initial_phase(sp, p0),
                                      sp.horizon, sp.dt, sp.scheme)
    n, m = sp.hs.dim_q, sp.hs.rank_d
    end = phases[-1]
    return np.concatenate([end[..., :n] - sp.qT, end[..., n:n + m] - sp.yT], axis=-1)


def extremal_trajectory(sp, p0):
    """Integrate the extremal for p0 and attach controls and diagnostics."""
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    times, phases = integrate_hamiltonian(sp.hs, _initial_phase(sp, p0),
                                          sp.horizon, sp.dt, sp.scheme)
    hs = sp.hs
    n, m = hs.dim_q, hs.rank_d
    problem = hs.problem
    n_samples = len(times)
    controls = np.empty((n_samples, problem.controls.k))
    energies = np.empty(n_samples)
    hamiltonians = np.empty(n_samples)
    for k in range(n_samples):
        phase = hs.unflatten(phases[k])
        state = inverse_legendre(problem, phase)
        controls[k] = recover_controls(problem, phase.q, phase.y, state.v)
        energies[k] = problem.system.energy(phase.q, phase.y)
        hamiltonians[k] = hs.value(phase)
    return Trajectory(times=times, qs=phases[:, :n].copy(), ys=phases[:, n:n + m].copy(),
                      controls=controls, p_qs=phases[:, n + m:2 * n + m].copy(),
                      p_ys=phases[:, 2 * n + m:].copy(), energies=energies,
                      hamiltonians=hamiltonians)


def trajectory_cost(sp, trajectory):
    """Trapezoidal quadrature of the running cost along a trajectory."""
    cost = sp.hs.problem.cost
    values = np.array([cost.value(trajectory.qs[k], trajectory.ys[k], trajectory.controls[k])
                       for k in range(len(trajectory))])
    return float(np.trapezoid(values, trajectory.times))


@dataclass(frozen=True)
class ShootingResult:
    """Converged initial momenta plus the extremal trajectory and diagnostics."""

    p0: np.ndarray
    trajectory: Trajectory
    cost: float
    iterations: int
    residual_norm: float


def solve_bvp(sp, p0_guess=None):
    """Damped Newton on the shooting residual with a forward-difference Jacobian.

    The Jacobian's columns are the residuals at the stacked guesses
    p0 + h e_i, integrated as one batched flow; the line search evaluates one
    guess at a time.

    Raises NewtonDivergence (best iterate and residual norm attached) when the
    residual cannot be driven below the tolerance; callers can still build the
    best-iterate trajectory via extremal_trajectory.
    """
    opts = sp.newton
    p0 = (np.zeros(sp.n_momenta) if p0_guess is None
          else np.atleast_1d(np.asarray(p0_guess, dtype=float)).copy())
    if not np.all(np.isfinite(p0)):
        raise DimensionMismatch("initial momenta guess must be finite")
    res = shooting_residual(sp, p0)
    best_p0, best_norm = p0.copy(), float(np.abs(res).max())
    iterations = 0
    while float(np.abs(res).max()) > opts.tolerance:
        if iterations >= opts.max_iterations:
            raise NewtonDivergence(
                f"shooting Newton did not converge in {opts.max_iterations} iterations",
                best=best_p0, residual_norm=best_norm)
        jac = fd_jacobian(lambda p: shooting_residual(sp, p), p0, step=opts.fd_step, f0=res)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian("shooting Jacobian is singular") from exc
        scale = 1.0
        for _ in range(opts.max_halvings + 1):
            trial = p0 + scale * step
            try:
                trial_res = shooting_residual(sp, trial)
            except NonFiniteState:
                # overshooting trial blew up the flow: treat as no decrease
                scale *= opts.damping
                continue
            if np.abs(trial_res).max() < np.abs(res).max():
                p0, res = trial, trial_res
                break
            scale *= opts.damping
        else:
            raise NewtonDivergence("shooting line search stalled",
                                   best=best_p0, residual_norm=best_norm)
        iterations += 1
        norm = float(np.abs(res).max())
        if norm < best_norm:
            best_p0, best_norm = p0.copy(), norm
    trajectory = extremal_trajectory(sp, p0)
    return ShootingResult(p0=p0, trajectory=trajectory, cost=trajectory_cost(sp, trajectory),
                          iterations=iterations, residual_norm=float(np.abs(res).max()))
