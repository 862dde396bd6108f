"""Two-point boundary value problems for extremals by single shooting."""

import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .errors import (DimensionMismatch, FixedPointDivergence, LegendreDivergence,
                     NewtonDivergence, NonFiniteState, SingularHessian, SingularJacobian,
                     SingularMetric, ValidationError)
# inverse_legendre is not called here; perfbench/tracing.py patches it under this name
from .hamiltonian import (PhasePoint, _check_scheme, inverse_legendre,  # noqa: F401
                          integrate_hamiltonian)
from .numerics import step_count


# damped-Newton constants of the shooting solve: forward-difference step of
# the Jacobian columns, step factor per line-search halving, halvings allowed
JACOBIAN_STEP = 1e-7
DAMPING = 0.5
MAX_HALVINGS = 20


@dataclass(frozen=True, eq=False)
class ShootingProblem:
    """Shooting setup: Hamiltonian system, step, scheme and Newton stopping rule.

    The fields' defaults are those of ``nhoc optimize``, and every setting is
    checked here.  The horizon and the boundary data are read from the
    underlying ``OCProblem``, which must hold all four boundary values.
    """

    hs: object
    dt: float = 1e-3
    scheme: str = "rk4"
    tolerance: float = 1e-10
    max_iterations: int = 50

    def __post_init__(self):
        if not 0 < self.tolerance < np.inf:
            raise DimensionMismatch("Newton tolerance must be positive and finite")
        if not isinstance(self.max_iterations, numbers.Integral) or self.max_iterations < 0:
            raise DimensionMismatch("Newton iteration budget must be a non-negative integer")
        prob = self.hs.problem
        for name in ("q0", "y0", "qT", "yT"):
            if getattr(prob, name) is None:
                raise DimensionMismatch(f"boundary value {name} is missing")
        step_count(prob.horizon, self.dt)
        _check_scheme(self.dt, self.scheme)

    @property
    def n_momenta(self):
        return self.hs.dim_q + self.hs.rank_d


def _initial_phase(sp, p0):
    prob, n = sp.hs.problem, sp.hs.dim_q
    batch = p0.shape[:-1]
    return PhasePoint(q=np.broadcast_to(prob.q0, batch + prob.q0.shape),
                      y=np.broadcast_to(prob.y0, batch + prob.y0.shape),
                      p_q=p0[..., :n], p_y=p0[..., n:])


def _flow(sp, p0):
    """(residual, times, samples) of the flow from the boundary point and
    momenta p0, which may be a stack with leading batch axes."""
    prob, n, m = sp.hs.problem, sp.hs.dim_q, sp.hs.rank_d
    times, phases = integrate_hamiltonian(sp.hs, _initial_phase(sp, p0),
                                          prob.horizon, sp.dt, sp.scheme)
    end = phases[-1]
    res = np.concatenate([end[..., :n] - prob.qT, end[..., n:n + m] - prob.yT], axis=-1)
    return res, times, phases


def shooting_residual(sp, p0):
    """Terminal mismatch (q(T) - qT, y(T) - yT) for an initial-momenta guess.

    ``p0`` may be a stack of guesses with leading batch axes; they are then
    integrated as one batched flow and the residuals are stacked the same way.
    """
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    if p0.shape[-1] != sp.n_momenta:
        raise DimensionMismatch(f"p0 must have length {sp.n_momenta}")
    return _flow(sp, p0)[0]


def _extremal(sp, times, phases):
    """Trajectory of integrated phase samples with controls and diagnostics,
    and its cost: H, the energies and the running cost come from one stacked
    geometry build of the samples."""
    hs = sp.hs
    ph = hs.unflatten(phases)
    geo = hs.system.geometry_rows(ph.q)
    controls, hamiltonians, running = hs._controls_and_values(phases, geo)
    return (Trajectory(times=times, qs=ph.q.copy(), ys=ph.y.copy(), controls=controls,
                       p_qs=ph.p_q.copy(), p_ys=ph.p_y.copy(),
                       energies=hs.system._energies(ph.q, ph.y, geo["metric_d"]),
                       hamiltonians=hamiltonians),
            float(np.trapezoid(running, times)))


def extremal_trajectory(sp, p0):
    """Integrate the extremal for p0 and attach controls and diagnostics;
    returns (trajectory, cost)."""
    return _extremal(sp, *_flow(sp, np.atleast_1d(np.asarray(p0, dtype=float)))[1:])


def trajectory_cost(sp, trajectory):
    """Trapezoidal quadrature of the running cost along a trajectory."""
    cost = sp.hs.problem.cost
    values = np.array([cost.value(trajectory.qs[k], trajectory.ys[k], trajectory.controls[k])
                       for k in range(len(trajectory))])
    return float(np.trapezoid(values, trajectory.times))


@dataclass(frozen=True, eq=False)
class ShootingResult:
    """Converged initial momenta plus the extremal trajectory and diagnostics."""

    p0: np.ndarray
    trajectory: Trajectory
    cost: float
    iterations: int
    residual_norm: float


def _predicts_convergence(previous, norm, tolerance):
    """Whether Newton's quadratic model, after a full step that took the
    residual norm from ``previous`` to ``norm``, expects the next full step
    to end the solve: norm * (norm / previous)**2 <= tolerance."""
    return norm * (norm / previous) ** 2 <= tolerance


def solve_bvp(sp, p0_guess=None):
    """Damped Newton on the shooting residual with a forward-difference Jacobian.

    Each Newton iteration integrates one flow.  The Hamiltonian kernel
    evaluates a stack at once, for every cost and model, so the full-step
    trial p0 + step (and the initial guess) is integrated together with its
    columns p0 + step + h e_i, and an accepted trial brings the next Jacobian
    with it; the halved trials of the line search are integrated alone.  So
    is a full-step trial that Newton's quadratic model expects to end the
    solve: after a full step took the residual norm from r_prev to r, the
    next is predicted to be r * (r / r_prev)**2, and at or below the
    tolerance no columns ride.  Should such a trial be accepted above the
    tolerance, its Jacobian is one flow of its columns.  Both take the one
    forward formula (r(p + h e_i) - r(p)) / h, h = ``JACOBIAN_STEP``, so a
    Jacobian has the same floats on either path.  Every residual has the
    floats of its single call (``shooting_residual``), and should the
    stacked flow fail (a non-finite state, a diverging implicit substep, a
    singular metric or a failed Legendre inversion), the trial is
    integrated alone.  The accepted flow's samples become the extremal,
    which is not integrated again.

    Raises NewtonDivergence (best iterate, its residual norm and the number of
    iterations attached) when the residual cannot be driven below the
    tolerance; callers can still build the best-iterate trajectory via
    extremal_trajectory.
    """
    p0 = (np.zeros(sp.n_momenta) if p0_guess is None
          else np.atleast_1d(np.asarray(p0_guess, dtype=float)).copy())
    if not np.all(np.isfinite(p0)):
        raise DimensionMismatch("initial momenta guess must be finite")
    if p0.shape != (sp.n_momenta,):
        raise DimensionMismatch(f"p0 must have length {sp.n_momenta}")
    h = JACOBIAN_STEP
    columns = h * np.eye(sp.n_momenta)

    def forward(res, column_res):
        """The forward-difference Jacobian from the residual at p and those
        at its columns p + h e_i."""
        return ((column_res - res) / h).T

    def evaluate(p, with_columns):
        """Residual at p, the (times, samples) of its flow, and the
        forward-difference Jacobian at p if its columns rode along, else None."""
        if with_columns:
            try:
                res, times, phases = _flow(sp, np.vstack([p, p + columns]))
            except (NonFiniteState, FixedPointDivergence, SingularMetric, LegendreDivergence,
                    SingularHessian):
                pass  # the failing row may be a column's: integrate p alone
            else:
                return res[0], (times, phases[:, 0]), forward(res[0], res[1:])
        res, times, phases = _flow(sp, p)
        return res, (times, phases), None

    res, samples, jac = evaluate(p0, True)
    norm = float(np.abs(res).max())
    best_p0, best_norm = p0.copy(), norm
    iterations, last = 0, False
    while norm > sp.tolerance:
        if iterations >= sp.max_iterations:
            raise NewtonDivergence(
                f"shooting Newton did not converge in {sp.max_iterations} iterations",
                best=best_p0, residual_norm=best_norm, iterations=iterations)
        if jac is None:
            jac = forward(res, _flow(sp, p0 + columns)[0])
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian("shooting Jacobian is singular") from exc
        scale = 1.0
        for halving in range(MAX_HALVINGS + 1):
            trial = p0 + scale * step
            try:
                trial_res, trial_samples, trial_jac = evaluate(trial, halving == 0 and not last)
            except (NonFiniteState, ValidationError):
                # overshooting trial blew up the flow or overflowed: no decrease
                scale *= DAMPING
                continue
            if np.abs(trial_res).max() < norm:
                p0, res, samples, jac = trial, trial_res, trial_samples, trial_jac
                break
            scale *= DAMPING
        else:
            raise NewtonDivergence("shooting line search stalled", best=best_p0,
                                   residual_norm=best_norm, iterations=iterations)
        iterations += 1
        previous, norm = norm, float(np.abs(res).max())
        last = halving == 0 and _predicts_convergence(previous, norm, sp.tolerance)
        if norm < best_norm:
            best_p0, best_norm = p0.copy(), norm
    trajectory, cost = _extremal(sp, *samples)
    return ShootingResult(p0=p0, trajectory=trajectory, cost=cost,
                          iterations=iterations, residual_norm=norm)
