"""Two-point boundary value problems for extremals by shooting.

``solve_bvp`` finds the initial momenta p0 whose extremal meets the target
positions by damped Newton with forward-difference Jacobians, shooting over
M segments of L = n_steps / M steps (multiple shooting; Stoer & Bulirsch,
Introduction to Numerical Analysis, 7.3.5).  M is the largest divisor of
the step count that is at most ``MAX_SEGMENTS`` and leaves at least
``MIN_SEGMENT_STEPS`` steps per segment, so a horizon of at most 19 steps or
a prime step count keeps one segment, which is single shooting.  A
non-quadratic cost keeps one segment too: its kernel runs a Legendre Newton
per row, so a stack of segments costs more than the shorter flow saves.
A flow costs its sequential steps far more than its rows, and each Newton
iteration integrates every segment and its Jacobian columns as one stacked
flow of L steps.  Without a guess the segments start from the boundary
data (p0 = 0, and the boundary positions interpolated linearly to each
segment start, with zero momenta), so the first flow is such a stack too.
Full-horizon flows judge only a given guess, whose samples then start the
segments, and the trials that may end the solve, each on one row.
"""

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import Trajectory
from .errors import (DimensionMismatch, FixedPointDivergence, LegendreDivergence,
                     NewtonDivergence, NonFiniteState, SingularHessian, SingularJacobian,
                     SingularMetric, ValidationError)
# inverse_legendre is not called here; perfbench/tracing.py patches it under this name
from .hamiltonian import (_check_scheme, _one_point, inverse_legendre,  # noqa: F401
                          integrate_hamiltonian)
from .numerics import step_count


# damped-Newton constants of the shooting solve: forward-difference step of
# the Jacobian columns, step factor per line-search halving, halvings allowed
JACOBIAN_STEP = 1e-7
DAMPING = 0.5
MAX_HALVINGS = 20
# segment rule of the multiple shooting: at most MAX_SEGMENTS segments, of at
# least MIN_SEGMENT_STEPS steps each
MAX_SEGMENTS = 32
MIN_SEGMENT_STEPS = 10
# errors of a stacked flow that a Jacobian column's row alone may cause
_STACK_FAILURES = (NonFiniteState, FixedPointDivergence, SingularMetric, LegendreDivergence,
                   SingularHessian)


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


def _boundary(sp):
    """The start positions x0 = (q0, y0) and the target positions (qT, yT)."""
    prob = sp.hs.problem
    return np.concatenate([prob.q0, prob.y0]), np.concatenate([prob.qT, prob.yT])


def _flow_rows(sp, rows, n_steps):
    """(times, samples) of ``n_steps`` steps from flat phase rows (q, y, p_q,
    p_y), which may carry leading batch axes."""
    return integrate_hamiltonian(sp.hs, sp.hs.unflatten(rows), n_steps * sp.dt, sp.dt,
                                 sp.scheme)


def _flow(sp, p0):
    """(residual, times, samples) of the flow from the boundary point and
    momenta p0, which may be a stack with leading batch axes."""
    x0, target = _boundary(sp)
    rows = np.concatenate([np.broadcast_to(x0, p0.shape[:-1] + x0.shape), p0], axis=-1)
    times, phases = _flow_rows(sp, rows, step_count(sp.hs.problem.horizon, sp.dt))
    return phases[-1][..., :len(x0)] - target, times, phases


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
    p0 = _one_point(np.atleast_1d(np.asarray(p0, dtype=float)), "extremal_trajectory")
    return _extremal(sp, *_flow(sp, p0)[1:])


@dataclass(frozen=True, eq=False)
class ShootingResult:
    """Converged initial momenta plus the extremal trajectory and diagnostics."""

    p0: np.ndarray
    trajectory: Trajectory
    cost: float
    iterations: int
    residual_norm: float


def _segment_count(sp, n_steps):
    """M, the number of shooting segments (see the module docstring)."""
    if not sp.hs.problem.cost.quadratic:
        return 1
    return max((m for m in range(2, MAX_SEGMENTS + 1)
                if n_steps % m == 0 and n_steps // m >= MIN_SEGMENT_STEPS), default=1)


class _Segments:
    """M segments of L steps each.  The unknowns are u = (p0, s_1, ...,
    s_{M-1}), s_j the phase row where segment j starts, and the residual
    holds the defects (end of segment j - 1) - s_j, then the terminal
    mismatch of the positions; both have length n + (M - 1) 2n.  With M = 1
    they are p0 and the shooting residual."""

    def __init__(self, sp, count, steps):
        self.count, self.steps, self.n = count, steps, sp.n_momenta
        self.x0, target = _boundary(sp)
        # what the end of the last segment must meet; its momenta are free
        self.goal = np.concatenate([target, np.zeros(self.n)])
        self.size = self.n + (count - 1) * 2 * self.n
        # the segment that each unknown, and so its Jacobian column, starts
        self.owner = np.repeat(np.arange(count), [self.n] + [2 * self.n] * (count - 1))

    def seeds(self, p0, phases=None):
        """The start (p0, s_1, ..., s_{M-1}): s_j the sample at t_j = j L of
        p0's full-horizon flow ``phases``, or without it the boundary
        positions interpolated linearly to t_j, with zero momenta."""
        if phases is not None:
            return np.concatenate([p0, phases[self.steps * np.arange(1, self.count)].ravel()])
        start = np.concatenate([self.x0, np.zeros(self.n)])
        w = np.arange(1, self.count)[:, None] / self.count
        return np.concatenate([p0, ((1 - w) * start + w * self.goal).ravel()])

    def starts(self, u):
        """(M, 2n) start rows of the segments."""
        n = self.n
        return np.vstack([np.concatenate([self.x0, u[:n]]), u[n:].reshape(-1, 2 * n)])

    def column_rows(self, u, starts):
        """Start rows of the forward-difference columns, one per unknown: the
        first segment's momenta p0 + h e_i, then each later s_j + h e_i."""
        n, h = self.n, JACOBIAN_STEP
        return np.vstack([np.hstack([np.broadcast_to(self.x0, (n, n)), u[:n] + h * np.eye(n)]),
                          (starts[1:, None] + h * np.eye(2 * n)).reshape(-1, 2 * n)])

    def mismatch(self, ends, starts, owner=slice(None)):
        """End rows less the rows they must meet: the next segment's start,
        and for the last segment the target (``owner`` picks the segments)."""
        return ends - np.vstack([starts[1:], self.goal])[owner]

    def jacobian(self, mismatch, column_mismatch):
        """The block-bidiagonal Jacobian: each column row's forward difference
        (r(u + h e_i) - r(u)) / h fills its own segment's block, and the -I
        of each start s_j that its defect subtracts."""
        n2 = 2 * self.n
        jac = np.zeros((self.count * n2, self.size))
        jac[self.owner[:, None] * n2 + np.arange(n2), np.arange(self.size)[:, None]] = (
            (column_mismatch - mismatch[self.owner]) / JACOBIAN_STEP)
        link = np.arange((self.count - 1) * n2)
        jac[link, self.n + link] = -1.0
        return jac[:self.size]


class _Evaluation(NamedTuple):
    """One flow of the segments at the unknowns u: their samples, the mismatch
    of their ends, and the Jacobian when its columns were integrated."""

    segments: _Segments
    u: np.ndarray
    mismatch: np.ndarray
    times: np.ndarray
    phases: np.ndarray
    jac: np.ndarray = None

    @property
    def residual(self):
        return self.mismatch.ravel()[:self.segments.size]

    @property
    def norm(self):
        return float(np.abs(self.residual).max())


def _evaluate(sp, segments, u, with_columns):
    """The segments' flow at u, stacked with its Jacobian columns if asked.
    Should that stack fail (a non-finite state, a diverging implicit
    substep, a singular metric or a failed Legendre inversion), the failing
    row may be a column's, and the segments are integrated alone."""
    starts, m = segments.starts(u), segments.count
    if with_columns:
        try:
            times, phases = _flow_rows(sp, np.vstack([starts, segments.column_rows(u, starts)]),
                                       segments.steps)
        except _STACK_FAILURES:
            pass
        else:
            ev = _Evaluation(segments, u, segments.mismatch(phases[-1, :m], starts), times,
                             phases[:, :m])
            return _with_columns(sp, ev, phases[:, m:])
    times, phases = _flow_rows(sp, starts, segments.steps)
    return _Evaluation(segments, u, segments.mismatch(phases[-1], starts), times, phases)


def _with_columns(sp, ev, column_phases=None):
    """``ev`` with its Jacobian, from the samples of its columns: those given,
    or one flow of its columns alone."""
    segments = ev.segments
    starts = segments.starts(ev.u)
    if column_phases is None:
        column_phases = _flow_rows(sp, segments.column_rows(ev.u, starts), segments.steps)[1]
    column_mismatch = segments.mismatch(column_phases[-1], starts, segments.owner)
    return ev._replace(jac=segments.jacobian(ev.mismatch, column_mismatch))


def _full_flow_estimate(ev):
    """The max-norm residual that the full-horizon flow of the p0 of ``ev``,
    segments with their Jacobian, has to first order: each continuity
    defect carried to the end through the later segments' blocks
    d(end_j)/d(s_j), which the terminal mismatch then joins.  The segment
    residual alone can read several times lower: 1.1e-7 on the sleigh at
    dt = 1e-2, whose full flow ends 5.0e-7 off, as this estimate reads."""
    n, n2 = ev.segments.n, 2 * ev.segments.n
    carried = ev.mismatch[0]
    for j in range(1, ev.segments.count):
        block = ev.jac[j * n2:(j + 1) * n2, j * n2 - n:(j + 1) * n2 - n]
        carried = ev.mismatch[j, :len(block)] + block @ carried
    return float(np.abs(carried).max())


def _predicts_convergence(previous, norm, tolerance):
    """Whether Newton's quadratic model, after a full step that took the
    residual norm from ``previous`` to ``norm``, expects the next full step
    to end the solve: norm * (norm / previous)**2 <= tolerance."""
    return norm * (norm / previous) ** 2 <= tolerance


def solve_bvp(sp, p0_guess=None):
    """Damped Newton on the shooting residual with a forward-difference Jacobian.

    The horizon splits into M segments of L steps (the module docstring
    gives the rule).  Without a guess Newton starts from u = (0, s_1, ...,
    s_{M-1}), each s_j = ((1 - j/M) x0 + (j/M) xT, 0): the boundary
    positions interpolated linearly to t_j = j L, with zero momenta.  That
    start is one stacked flow of its segments and their columns, judged as
    any trial below, so seeds that meet the tolerance end the solve after 0
    iterations; with M = 1 it is the zero guess, which a given guess
    replaces.  With M > 1 a given guess is first one full-horizon flow on
    one row, the answer after 0 iterations if it meets the tolerance;
    otherwise its samples at t_j seed the s_j, without continuity defects,
    and that start is judged as the one without a guess.  Each later trial
    integrates all M segments as one stacked flow of L steps, with the
    columns s_j + h e_i of every unknown when it is a full step, so an
    accepted trial brings its Jacobian; the halved trials of the line
    search are integrated without columns.  The block-bidiagonal
    Newton system is solved densely, and the line search halves the step until
    the max-norm of the residual (the continuity defects and the terminal
    mismatch) falls.  With M = 1 all of this is single shooting.

    Only a full-horizon flow decides convergence, and a full flow that
    meets the tolerance gives its samples to the extremal, which is not
    integrated again.  After a full step took the residual norm from r_prev
    to r, Newton's quadratic model predicts the next to be
    r * (r / r_prev)**2; at or below the tolerance (or when r itself is),
    that trial is first one full-horizon flow of its p0 on one row, and
    where that flow misses, its segments are integrated with their
    columns as any full step's (with M = 1 the full flow is its segment,
    and an accepted trial takes its columns in a flow of their own).  Any
    other trial whose segments meet the tolerance, and whose continuity
    defects carried through its Jacobian leave the full flow within it too
    (``_full_flow_estimate``), is judged at once by the full-horizon flow
    of its p0; where that flow misses, the trial keeps its segments and the
    next Newton step goes ahead, and where it fails, the trial has failed.
    Every Jacobian takes the one forward formula (r(u + h e_i) - r(u)) / h, h =
    ``JACOBIAN_STEP``.  Should a stacked flow fail (a non-finite state, a
    diverging implicit substep, a singular metric or a failed Legendre
    inversion), the segments are integrated alone and their columns follow.

    Raises NewtonDivergence when the iteration budget is spent or the line
    search stalls, with the best p0, the max-norm residual of that p0's own
    full-horizon flow and the number of iterations attached: the best p0 is
    the accepted iterate of least residual, or the guess (p0 = 0 without
    one, whose full flow is then integrated again, and whose failure
    propagates) where that iterate's full flow fails or ends farther off.
    Callers can still build its trajectory via extremal_trajectory.
    """
    n = sp.n_momenta
    p0 = np.atleast_1d(np.asarray(np.zeros(n) if p0_guess is None else p0_guess,
                                  dtype=float)).copy()
    if not np.all(np.isfinite(p0)):
        raise DimensionMismatch("initial momenta guess must be finite")
    if p0.shape != (n,):
        raise DimensionMismatch(f"p0 must have length {n}")
    n_steps = step_count(sp.hs.problem.horizon, sp.dt)
    count = _segment_count(sp, n_steps)
    whole = _Segments(sp, 1, n_steps)
    split = whole if count == 1 else _Segments(sp, count, n_steps // count)

    def done(ev):
        return ev.segments is whole and ev.norm <= sp.tolerance

    def judge(u, with_columns, predicted):
        """The trial u: a predicted last trial is first one full-horizon flow,
        and other segments that meet the tolerance, with a full flow
        expected to meet it too, are then judged by the full flow of their
        p0.  Where that flow misses, the trial keeps its segments; where it
        fails, the trial has failed."""
        if predicted:
            full = _evaluate(sp, whole, u[:n], False)
            if split is whole or done(full):
                return full
        trial = _evaluate(sp, split, u, with_columns or predicted)
        if (predicted or split is whole or trial.norm > sp.tolerance or trial.jac is None
                or _full_flow_estimate(trial) > sp.tolerance):
            return trial
        full = _evaluate(sp, whole, u[:n], False)
        return full if done(full) else trial

    def divergence(message):
        """NewtonDivergence at the best iterate, judged by its own full flow,
        or at the start's p0 where that flow fails or ends farther off."""
        reported = best
        if best.segments is not whole:
            fallback = _evaluate(sp, whole, p0, False)
            try:
                full = _evaluate(sp, whole, best.u[:n], False)
                reported = min(fallback, full, key=lambda ev: ev.norm)
            except _STACK_FAILURES + (ValidationError,):
                reported = fallback
        return NewtonDivergence(message, best=reported.u.copy(), residual_norm=reported.norm,
                                iterations=iterations)

    if p0_guess is None or split is whole:
        ev = judge(split.seeds(p0), True, False)
    else:
        ev = _evaluate(sp, whole, p0, False)
        if not done(ev):
            ev = judge(split.seeds(p0, ev.phases[:, 0]), True, False)
    best, norm = ev, ev.norm
    iterations, last = 0, False
    while not done(ev):
        if iterations >= sp.max_iterations:
            raise divergence(f"shooting Newton did not converge in {sp.max_iterations} "
                             "iterations")
        if ev.jac is None:
            ev = _with_columns(sp, ev)
        try:
            step = np.linalg.solve(ev.jac, -ev.residual)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian("shooting Jacobian is singular") from exc
        scale = 1.0
        for halving in range(MAX_HALVINGS + 1):
            try:
                trial = judge(ev.u + scale * step, halving == 0 and not last,
                              halving == 0 and last)
            except (NonFiniteState, ValidationError):
                # overshooting trial blew up the flow or overflowed: no decrease
                scale *= DAMPING
                continue
            if trial.norm < norm or done(trial):
                ev = trial
                break
            scale *= DAMPING
        else:
            raise divergence("shooting line search stalled")
        iterations += 1
        previous, norm = norm, ev.norm
        last = norm <= sp.tolerance or (
            halving == 0 and _predicts_convergence(previous, norm, sp.tolerance))
        if norm < best.norm:
            best = ev
    trajectory, cost = _extremal(sp, ev.times, ev.phases[:, 0])
    return ShootingResult(p0=ev.u.copy(), trajectory=trajectory, cost=cost,
                          iterations=iterations, residual_norm=norm)
