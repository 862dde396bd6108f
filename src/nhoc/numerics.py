"""Small shared numerical helpers: derivatives, null spaces, row products, the
rk4 step, step counts and the one fixed-step driver with its finite-state
guard.

Every derivative in the package that is not given in closed form goes
through this module: the complex step of ``complex_step_pass`` (the model
callables without analytic partials, several in one pass) and its
one-callable case ``complex_step_partials``, or finite differences through
``fd_partials``, ``fd_jacobian`` or the stacked stencil of
``central_stencil``, ``stencil_partials`` and ``central_differences``.
"""

import functools
import warnings

import numpy as np
from numpy.exceptions import ComplexWarning

from .errors import DimensionMismatch, NonFiniteState, RankDeficient, ValidationError

FD_STEP = 1e-6
# imaginary step of the complex-step derivative: no difference is taken, so
# the step can be far below rounding and the derivative is exact to rounding
COMPLEX_STEP = 1e-30
# largest gap, relative to the values' scale, between the complex-step
# partials along a direction and its central difference (about 1e-10 apart
# for a smooth callable)
CS_CHECK_TOL = 1e-6
# second derivatives by nested differences: wider step, since two differences
# of a 1e-6 stencil would lose most of the precision
FD2_STEP = 1e-4
BLOWUP_LIMIT = 1e12
# steps of the fixed-step driver per finiteness check: a check after every
# step cost 10-25% of a free-flow step, and one check of a block costs
# little more than one of those
CHECK_EVERY = 32
# rows, columns and pivots at or below this size count as dependent
RANK_TOL = 1e-10


def fd_partials(f, q, step=FD_STEP):
    """Central finite differences of an array-valued function of the chart point.

    Returns an array of shape (len(q),) + f(q).shape; entry [i] is the partial
    derivative with respect to q^i.  For an empty chart the result is empty.
    ``q`` may be a stack of chart points (B, n), giving a leading axis B: all
    2 n B points are evaluated in one pass, and each point gets the floats
    of its own call.
    """
    q = np.asarray(q, dtype=float)
    points = np.atleast_2d(q)
    k, n = points.shape
    if n == 0:
        return np.zeros(q.shape + np.shape(f(points[0])))
    steps = step * np.eye(n)
    shifted = np.concatenate([points[:, None] + steps, points[:, None] - steps], axis=1)
    values = np.array([f(x) for x in shifted.reshape(-1, n)], dtype=float)
    values = values.reshape((k, 2, n) + values.shape[1:])
    out = (values[:, 0] - values[:, 1]) / (2.0 * step)
    return out[0] if q.ndim == 1 else out


@functools.lru_cache
def _steps(n):
    """The imaginary steps i h e_j (n, n) of an n-dimensional chart, the
    direction v of the check and its real steps +-FD_STEP v (2, n); read-only."""
    v = np.sqrt(np.arange(1.0, n + 1))
    steps = (COMPLEX_STEP * 1j) * np.eye(n), v, FD_STEP * np.array([v, -v])
    for a in steps:
        a.setflags(write=False)
    return steps


def _drops_in_part(f, points, partials):
    """True for each chart point whose complex-step partials (K, n, ...) miss
    the central difference along one direction by more than ``CS_CHECK_TOL``
    of the values' scale: an entry that dropped the imaginary part (abs,
    real, a norm, ...) reads a wrong partial without any error."""
    k, n = points.shape
    _, v, dv = _steps(n)
    values = np.array([f(x) for x in (points[:, None] + dv).reshape(-1, n)],
                      dtype=float).reshape(k, 2, -1)
    along = v @ partials.reshape(k, n, -1)
    gap = np.abs(along - (values[:, 0] - values[:, 1]) / (2.0 * FD_STEP))
    scale = np.abs(np.concatenate([values.reshape(k, -1), along], axis=1))
    return (np.maximum.reduce(gap, axis=1, initial=0.0)
            > CS_CHECK_TOL * np.maximum.reduce(scale, axis=1, initial=1.0))


def complex_step_pass(jobs):
    """Partials of several array-valued functions of the chart point by the
    complex step (Martins, Sturdza & Alonso, ACM TOMS 29(3), 2003), in one
    pass.

    ``jobs`` holds triples (f, q, fd): a callable, its chart point or stack
    of chart points (B, n), and None or the central differences of f there
    that the caller already holds, shaped as ``fd_partials`` returns them.
    Returns one array of partials per job, shaped as ``fd_partials``.  Every
    complex point of every job is evaluated under one ``catch_warnings``,
    then each job makes one check of its points, so each callable and each
    point keeps the verdict and the floats of its own
    ``complex_step_partials`` call; where f drops the imaginary part the
    partials are ``fd``, or ``fd_partials`` when none is given.
    """
    pending = []  # per job its stacks and one value per complex point, None where f drops it
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        for f, q, fd in jobs:
            q = np.asarray(q, dtype=float)
            points = np.atleast_2d(q)
            n = points.shape[1]
            values, dropped = [], 0
            for z in (points[:, None] + _steps(n)[0]).reshape(-1, n):
                try:
                    value = f(z)
                except (TypeError, ComplexWarning):
                    value = None
                # np.iscomplexobj, read straight from the dtype of an array
                # or numpy scalar, which spares its dispatch on each call
                kind = getattr(getattr(value, "dtype", None), "kind", None)
                if not (np.iscomplexobj(value) if kind is None else kind == "c"):
                    value, dropped = None, dropped + 1
                values.append(value)
            pending.append((f, q, points, fd, values, dropped))
    return [_checked_partials(*job) for job in pending]


def _checked_partials(f, q, points, fd, values, dropped):
    """The partials of one job of ``complex_step_pass`` at the chart point or
    stack q (as ``points``, (B, n)) from its complex values, of which
    ``dropped`` are None: complex-step partials at the points where every
    value is complex and the check passes, central differences at the
    others."""
    k, n = points.shape
    if n == 0 or dropped == len(values):
        return fd_partials(f, q) if fd is None else fd
    out = None
    if not dropped:
        out = np.array(values)
        out = (out.imag / COMPLEX_STEP).reshape((k, n) + out.shape[1:])
        kept = ~_drops_in_part(f, points, out)
        if kept.all():
            return out[0] if q.ndim == 1 else out
    else:
        kept = [all(v is not None for v in values[j * n:(j + 1) * n]) for j in range(k)]
    if not any(kept):
        return fd_partials(f, q) if fd is None else fd
    # mixed verdicts: the points that kept every imaginary part take their
    # own check, the others central differences
    kept = np.asarray(kept)
    if out is None:
        out = _checked_partials(f, points[kept], points[kept],
                                None if fd is None else fd[kept],
                                [v for v, keep in zip(values, np.repeat(kept, n)) if keep], 0)
    else:
        out = out[kept]
    mixed = np.empty((k,) + out.shape[1:])
    mixed[kept] = out
    mixed[~kept] = fd_partials(f, points[~kept]) if fd is None else fd[~kept]
    return mixed


def complex_step_partials(f, q):
    """Partials of an array-valued function of the chart point by the complex
    step: the one-callable case of ``complex_step_pass``.

    Entry [i] is Im f(q + i h e_i) / h with h = ``COMPLEX_STEP``: exact to
    rounding for a real-analytic f, one call of f per chart direction.  Two
    more calls check the partials along one direction against its central
    difference, so f is called dim_q + 2 times per point.  At a point where
    f drops the imaginary part (it returns a real array, raises TypeError,
    casts complex to real with numpy's ComplexWarning, or drops it in some
    entries only, so that the check fails by more than ``CS_CHECK_TOL`` of
    the values' scale) the partials are central differences
    (``fd_partials``) instead.  ``q`` may be a stack of chart points (B, n),
    giving a leading axis B: every point and direction is evaluated in one
    pass, and each point gets the verdict and the floats of its own call.
    """
    return complex_step_pass([(f, q, None)])[0]


def fd_jacobian(f, x, step=FD_STEP, f0=None):
    """Finite-difference Jacobian of a vector map; columns are partials.

    Central differences (``fd_partials``) by default, two evaluations of
    ``f`` per column.  Given ``f0 = f(x)``, forward differences that reuse
    it: ``f`` is then called once, on the stack of points x + step e_i
    (shape (len(x), len(x))), and must return one row per point, so a
    batched map such as the shooting residual integrates all columns as one
    flow.
    """
    x = np.asarray(x, dtype=float)
    if f0 is not None:
        f0 = np.asarray(f0, dtype=float)
        if x.size == 0:
            return np.zeros((f0.size, 0))
        rows = np.asarray(f(x + step * np.eye(x.size)), dtype=float)
        return ((rows - f0) / step).T
    # C order, as a product's floats depend on layout
    return np.ascontiguousarray(fd_partials(f, x, step).T)


def central_stencil(x):
    """The rows of a stack x (B, n) followed by their central-difference
    points: x + FD_STEP e_i for every row and i, then x - FD_STEP e_i, each
    block row-major in (row, i); shape ((1 + 2n) B, n)."""
    b, n = x.shape
    steps = FD_STEP * np.eye(n)
    return np.concatenate([x, (x[:, None] + steps).reshape(b * n, n),
                           (x[:, None] - steps).reshape(b * n, n)])


def stencil_partials(values, n):
    """Partials (B, n, ...) at the rows of ``central_stencil``, chart index
    first, from the values (B (1 + 2n), ...) of a function at all its points;
    each row's partials have the floats of ``fd_partials`` there, whose
    points and formula these are."""
    b = len(values) // (1 + 2 * n)
    plus = values[b:b + b * n].reshape((b, n) + values.shape[1:])
    minus = values[b + b * n:].reshape((b, n) + values.shape[1:])
    return (plus - minus) / (2.0 * FD_STEP)


def central_differences(values, n):
    """Jacobians (B, k, n) at the rows of ``central_stencil`` from the values
    (B (1 + 2n), k) of a map at all its points; each Jacobian has the floats
    of the central ``fd_jacobian`` at its row."""
    # C order, as ``fd_jacobian`` returns: a product's floats depend on layout
    return np.ascontiguousarray(stencil_partials(values, n).swapaxes(1, 2))


def step_count(t_final, dt):
    """Number of fixed steps of size dt that end at t_final.

    Raises DimensionMismatch unless both are finite and positive and dt
    divides t_final within a relative rounding tolerance of 1e-9, so that no
    integrator shortens the horizon.
    """
    if not (0 < dt < np.inf and 0 < t_final < np.inf):
        raise DimensionMismatch("need finite dt > 0 and t_final > 0")
    n_steps = round(t_final / dt)
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise DimensionMismatch(f"dt = {dt:g} must divide the horizon {t_final:g} "
                                "within rounding")
    return n_steps


def check_finite(z):
    """Raise NonFiniteState when an integrated state is non-finite or blown up.

    One ufunc reduction, without the Python wrapper of ``ndarray.max``: the
    comparison is false for NaN and for an infinite maximum, so it catches
    them together with entries above ``BLOWUP_LIMIT``.  ``z`` may be a stack
    of states, or empty.
    """
    if not np.maximum.reduce(np.abs(z), axis=None, initial=0.0) <= BLOWUP_LIMIT:
        raise NonFiniteState("state left the finite range during integration")


def integrate_fixed_steps(step, z0, n_steps, dt):
    """The fixed-step driver of every flow in the package.

    Takes ``n_steps`` steps z_{k+1} = step(t_k, z_k) with t_k = k dt from
    ``z0``, whose leading axes (if any) are a batch of independent states.
    Returns ``(times, samples)``; ``samples`` has shape (n_steps + 1,) +
    z0.shape.

    The steps run in blocks of ``CHECK_EVERY``, and one ``check_finite``
    call covers each block's new samples, under one ``np.errstate`` that
    keeps the steps past a blow-up from printing overflow warnings.  The
    verdict is that of a check after every step: when a step raises, the
    block's earlier samples are checked first, so a state that left the
    finite range raises NonFiniteState, not the error its next step ran
    into (a fixed point or a Legendre inversion that failed on it, a
    singular metric); otherwise the step's own error propagates unchanged.
    """
    times = np.arange(n_steps + 1) * dt
    samples = np.empty((n_steps + 1,) + np.shape(z0))
    samples[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, CHECK_EVERY):
            end = min(start + CHECK_EVERY, n_steps)
            try:
                for k in range(start, end):
                    samples[k + 1] = step(k * dt, samples[k])
            except Exception:
                check_finite(samples[start + 1:k + 1])
                raise
            check_finite(samples[start + 1:end + 1])
    return times, samples


def check_full_rank(a, what="constraint"):
    """Raise RankDeficient unless the rows of `a` are independent, and
    ValidationError when an entry is not finite."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} has non-finite entries")
    if a.shape[0] == 0:
        return
    if np.linalg.matrix_rank(a, tol=RANK_TOL) < a.shape[0]:
        raise RankDeficient(f"{what} rows are linearly dependent (tol={RANK_TOL:g})")


def rref_null_space(a):
    """Deterministic basis of the kernel of `a`, one row per basis vector.

    Gauss-Jordan elimination with partial pivoting; each free column yields a
    basis vector with a unit entry in that column, taken in ascending column
    order.  Sign convention: first nonzero entry of each vector is positive.
    For coordinate-aligned inputs this reproduces the coordinate basis of the
    kernel, which keeps adapted frames human-readable.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[1]
    if a.shape[0] == 0 or a.size == 0:
        return np.eye(n)
    r = a.copy()
    pivots = []
    row = 0
    for col in range(n):
        if row >= r.shape[0]:
            break
        k = row + np.argmax(np.abs(r[row:, col]))
        if abs(r[k, col]) <= RANK_TOL:
            continue
        r[[row, k]] = r[[k, row]]
        r[row] = r[row] / r[row, col]
        for j in range(r.shape[0]):
            if j != row:
                r[j] -= r[j, col] * r[row]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for c in free:
        v = np.zeros(n)
        v[c] = 1.0
        for i, p in enumerate(pivots):
            v[p] = -r[i, c]
        nz = np.nonzero(np.abs(v) > RANK_TOL)[0]
        if nz.size and v[nz[0]] < 0:
            v = -v
        basis.append(v)
    return np.array(basis).reshape(len(basis), n)


def matvec_rows(a, v):
    """a @ v for every row v of a stack (..., n); ``a`` may be one matrix or a
    matching stack.  Each row gets exactly the floats of a single ``a @ v``,
    which a ``v @ a.T`` product over the stack does not guarantee."""
    return (a @ v[..., None])[..., 0]


def rk4_step(f, t, x, dt):
    """One classical Runge-Kutta step for x' = f(t, x).

    The stages are summed into one new array, in place, in the order of
    x + (dt / 6) (k1 + 2 k2 + 2 k3 + k4); sums and products commute bit for
    bit, so the floats are that formula's.  No array that f returned is
    written to.
    """
    k1 = f(t, x)
    k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = f(t + dt, x + dt * k3)
    acc = 2.0 * k2
    acc += k1
    acc += 2.0 * k3
    acc += k4
    acc *= dt / 6.0
    acc += x
    return acc


def symmetric_positive_definite(a):
    """True when `a`, one square matrix or a stack of them, is finite,
    symmetric (to 1e-12 of each matrix's largest entry, at least 1) and
    positive-definite; a stack passes only when every matrix does."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or not np.isfinite(a).all():
        return False
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    if (np.abs(a - a.swapaxes(-1, -2)) > 1e-12 * scale[..., None, None]).any():
        return False
    try:
        np.linalg.cholesky(a)
        return True
    except np.linalg.LinAlgError:
        return False
