"""Two-point boundary value problems for extremals by single shooting."""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import Trajectory
from .errors import (DimensionMismatch, FixedPointDivergence, NewtonDivergence,
                     NonFiniteState, SingularJacobian, SingularMetric)
# inverse_legendre is not called here; perfbench/tracing.py patches it under this name
from .hamiltonian import PhasePoint, inverse_legendre, integrate_hamiltonian  # noqa: F401
from .numerics import fd_jacobian, step_count


# damped-Newton constants of the shooting solve: forward-difference step of
# the Jacobian columns, step factor per line-search halving, halvings allowed
JACOBIAN_STEP = 1e-7
DAMPING = 0.5
MAX_HALVINGS = 20


@dataclass(frozen=True, eq=False)
class ShootingProblem:
    """Shooting setup: Hamiltonian system, step, scheme and Newton stopping rule.

    The boundary data are read from the underlying ``OCProblem``; a missing
    chart boundary defaults to the empty point when ``dim_q == 0``.
    """

    hs: object
    dt: float = 1e-3
    scheme: str = "rk4"
    tolerance: float = 1e-10
    max_iterations: int = 50
    q0: np.ndarray = field(init=False)
    y0: np.ndarray = field(init=False)
    qT: np.ndarray = field(init=False)
    yT: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.tolerance > 0:
            raise DimensionMismatch("Newton tolerance must be positive")
        if self.max_iterations < 0:
            raise DimensionMismatch("Newton iteration budget must not be negative")
        prob = self.hs.problem
        for name in ("q0", "y0", "qT", "yT"):
            val = getattr(prob, name)
            if val is None:
                if name[0] != "q" or prob.dim_q != 0:
                    raise DimensionMismatch(f"boundary value {name} is missing")
                val = np.zeros(0)
            object.__setattr__(self, name, val)
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


def _flow(sp, p0):
    """(residual, times, samples) of the flow from the boundary point and
    momenta p0, which may be a stack with leading batch axes."""
    times, phases = integrate_hamiltonian(sp.hs, _initial_phase(sp, p0),
                                          sp.horizon, sp.dt, sp.scheme)
    n, m = sp.hs.dim_q, sp.hs.rank_d
    end = phases[-1]
    res = np.concatenate([end[..., :n] - sp.qT, end[..., n:n + m] - sp.yT], axis=-1)
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
                       energies=hs.system._energies(ph.q, ph.y, geo), hamiltonians=hamiltonians),
            float(np.trapezoid(running, times)))


def extremal_trajectory(sp, p0, with_cost=False):
    """Integrate the extremal for p0 and attach controls and diagnostics;
    with ``with_cost``, return (trajectory, cost)."""
    extremal = _extremal(sp, *_flow(sp, np.atleast_1d(np.asarray(p0, dtype=float)))[1:])
    return extremal if with_cost else extremal[0]


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


def solve_bvp(sp, p0_guess=None):
    """Damped Newton on the shooting residual with a forward-difference Jacobian.

    Each Newton iteration integrates one flow.  With a quadratic cost the
    Hamiltonian kernel evaluates a stack at once, on chart-dependent models
    too, so the full-step trial p0 + step (and the initial guess) is
    integrated together with its columns p0 + step + h e_i, and an accepted
    trial brings the next Jacobian with it; the halved trials of the line
    search are integrated alone.  On the per-row kernel of a non-quadratic
    cost, where every extra row costs a full flow, the columns are integrated
    only for the iterate the line search accepted.  Every residual and
    Jacobian has the floats of the single calls (``shooting_residual`` and
    ``fd_jacobian``), and should the stacked flow fail (a non-finite state, a
    diverging implicit substep or a singular metric), the trial is
    integrated alone.  The accepted flow's samples become the extremal, which
    is not integrated again.

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
    speculate = sp.hs._stacks_at_once
    h = JACOBIAN_STEP
    columns = h * np.eye(sp.n_momenta)

    def evaluate(p, with_columns):
        """Residual at p, the (times, samples) of its flow, and the
        forward-difference Jacobian at p if its columns rode along, else None."""
        if with_columns and speculate:
            try:
                res, times, phases = _flow(sp, np.vstack([p, p + columns]))
            except (NonFiniteState, FixedPointDivergence, SingularMetric):
                pass  # the failing row may be a column's: integrate p alone
            else:
                return res[0], (times, phases[:, 0]), ((res[1:] - res[0]) / h).T
        res, times, phases = _flow(sp, p)
        return res, (times, phases), None

    res, samples, jac = evaluate(p0, True)
    best_p0, best_norm = p0.copy(), float(np.abs(res).max())
    iterations = 0
    while float(np.abs(res).max()) > sp.tolerance:
        if iterations >= sp.max_iterations:
            raise NewtonDivergence(
                f"shooting Newton did not converge in {sp.max_iterations} iterations",
                best=best_p0, residual_norm=best_norm, iterations=iterations)
        if jac is None:
            jac = fd_jacobian(lambda p: _flow(sp, p)[0], p0, step=h, f0=res)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian("shooting Jacobian is singular") from exc
        scale = 1.0
        for halving in range(MAX_HALVINGS + 1):
            trial = p0 + scale * step
            try:
                trial_res, trial_samples, trial_jac = evaluate(trial, halving == 0)
            except NonFiniteState:
                # overshooting trial blew up the flow: treat as no decrease
                scale *= DAMPING
                continue
            if np.abs(trial_res).max() < np.abs(res).max():
                p0, res, samples, jac = trial, trial_res, trial_samples, trial_jac
                break
            scale *= DAMPING
        else:
            raise NewtonDivergence("shooting line search stalled", best=best_p0,
                                   residual_norm=best_norm, iterations=iterations)
        iterations += 1
        norm = float(np.abs(res).max())
        if norm < best_norm:
            best_p0, best_norm = p0.copy(), norm
    trajectory, cost = _extremal(sp, *samples)
    return ShootingResult(p0=p0, trajectory=trajectory, cost=cost,
                          iterations=iterations, residual_norm=float(np.abs(res).max()))
