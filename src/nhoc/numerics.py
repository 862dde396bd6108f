"""Small shared numerical helpers: derivatives, null spaces, steppers, step
counts and the one fixed-step driver with its finite-state guard.

Every derivative in the package that is not given in closed form goes
through this module: the complex step of ``complex_step_partials`` (model
callables without analytic partials), or finite differences through
``fd_partials``, ``fd_jacobian`` or the stacked stencil of
``central_stencil`` and ``central_differences``.
"""

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
# rows, columns and pivots at or below this size count as dependent
RANK_TOL = 1e-10


def fd_partials(f, q, step=FD_STEP):
    """Central finite differences of an array-valued function of the chart point.

    Returns an array of shape (len(q),) + f(q).shape; entry [i] is the partial
    derivative with respect to q^i.  For an empty chart the result is empty.
    """
    q = np.asarray(q, dtype=float)
    if q.size == 0:
        return np.zeros((0,) + np.shape(f(q)))
    out = []
    for i in range(q.size):
        dq = np.zeros_like(q)
        dq[i] = step
        out.append((np.asarray(f(q + dq), dtype=float)
                    - np.asarray(f(q - dq), dtype=float)) / (2.0 * step))
    return np.stack(out)


def _complex_step(f, q):
    """Im f(q + i h e_i) / h for each i, or None when f drops the imaginary
    part.  Runs where ComplexWarning is an error."""
    out = None
    try:
        for i in range(q.size):
            qc = q.astype(complex)
            qc[i] += COMPLEX_STEP * 1j
            value = np.asarray(f(qc))
            if not np.iscomplexobj(value):
                return None
            if out is None:
                out = np.empty((q.size,) + value.shape)
            out[i] = value.imag
    except (TypeError, ComplexWarning):
        return None
    return None if out is None else out / COMPLEX_STEP


def _drops_in_part(f, points, partials):
    """True for each chart point whose complex-step partials (K, n, ...) miss
    the central difference along one direction by more than ``CS_CHECK_TOL``
    of the values' scale: an entry that dropped the imaginary part (abs,
    real, a norm, ...) reads a wrong partial without any error."""
    k, n = points.shape
    v = np.sqrt(np.arange(1.0, n + 1))
    dv = FD_STEP * v
    values = np.array([[f(point + dv), f(point - dv)] for point in points], dtype=float)
    fd = ((values[:, 0] - values[:, 1]) / (2.0 * FD_STEP)).reshape(k, -1)
    along = (v @ partials.reshape(k, n, -1)).reshape(k, -1)
    scale = np.abs(np.concatenate([values.reshape(k, -1), along], axis=1)).max(axis=1,
                                                                               initial=1.0)
    return np.abs(along - fd).max(axis=1, initial=0.0) > CS_CHECK_TOL * scale


def complex_step_partials(f, q):
    """Partials of an array-valued function of the chart point by the complex
    step (Martins, Sturdza & Alonso, ACM TOMS 29(3), 2003).

    Entry [i] is Im f(q + i h e_i) / h with h = ``COMPLEX_STEP``: exact to
    rounding for a real-analytic f, one call of f per chart direction.  Two
    more calls check the partials along one direction against its central
    difference.  At a point where f drops the imaginary part (it returns a
    real array, raises TypeError, casts complex to real with numpy's
    ComplexWarning, or drops it in some entries only, so that the check
    fails by more than ``CS_CHECK_TOL`` of the values' scale) the partials
    are central differences (``fd_partials``) instead.  ``q`` may be a stack
    of chart points (B, n), giving a leading axis B.
    """
    q = np.asarray(q, dtype=float)
    points = q.reshape(-1, q.shape[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        out = [_complex_step(f, point) for point in points]
    kept = [i for i, d in enumerate(out) if d is not None]
    if kept:
        for i, dropped in zip(kept, _drops_in_part(f, points[kept],
                                                   np.stack([out[i] for i in kept]))):
            if dropped:
                out[i] = None
    out = [fd_partials(f, point) if d is None else d for d, point in zip(out, points)]
    return out[0] if q.ndim == 1 else np.stack(out)


def fd_jacobian(f, x, step=FD_STEP, f0=None):
    """Finite-difference Jacobian of a vector map; columns are partials.

    Central differences by default, two evaluations of ``f`` per column.
    Given ``f0 = f(x)``, forward differences that reuse it: ``f`` is then
    called once, on the stack of points x + step e_i (shape (len(x), len(x))),
    and must return one row per point, so a batched map such as the shooting
    residual integrates all columns as one flow.
    """
    x = np.asarray(x, dtype=float)
    if f0 is not None:
        f0 = np.asarray(f0, dtype=float)
        if x.size == 0:
            return np.zeros((f0.size, 0))
        rows = np.asarray(f(x + step * np.eye(x.size)), dtype=float)
        return ((rows - f0) / step).T
    cols = []
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = step
        cols.append((np.asarray(f(x + dx)) - np.asarray(f(x - dx))) / (2.0 * step))
    return np.column_stack(cols) if cols else np.zeros((np.size(f(x)), 0))


def central_stencil(x):
    """The rows of a stack x (B, n) followed by their central-difference
    points: x + FD_STEP e_i for every row and i, then x - FD_STEP e_i, each
    block row-major in (row, i); shape ((1 + 2n) B, n)."""
    b, n = x.shape
    steps = FD_STEP * np.eye(n)
    return np.concatenate([x, (x[:, None] + steps).reshape(b * n, n),
                           (x[:, None] - steps).reshape(b * n, n)])


def central_differences(values, n):
    """Jacobians (B, k, n) at the rows of ``central_stencil`` from the values
    (B (1 + 2n), k) of a map at all its points; each Jacobian has the floats
    of the central ``fd_jacobian`` at its row."""
    b = len(values) // (1 + 2 * n)
    plus = values[b:b + b * n].reshape(b, n, values.shape[1])
    minus = values[b + b * n:].reshape(b, n, values.shape[1])
    # C order, as ``fd_jacobian`` returns: a product's floats depend on layout
    return np.ascontiguousarray(((plus - minus) / (2.0 * FD_STEP)).swapaxes(1, 2))


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
    """Raise NonFiniteState when an integrated state is non-finite or blown up."""
    if not np.all(np.isfinite(z)) or np.abs(z).max() > BLOWUP_LIMIT:
        raise NonFiniteState("state left the finite range during integration")


def integrate_fixed_steps(step, z0, n_steps, dt):
    """The fixed-step driver of every flow in the package.

    Takes ``n_steps`` steps z_{k+1} = step(t_k, z_k) with t_k = k dt from
    ``z0``, whose leading axes (if any) are a batch of independent states,
    and checks the whole state for finiteness after every step.  Returns
    ``(times, samples)``; ``samples`` has shape (n_steps + 1,) + z0.shape.
    """
    times = np.arange(n_steps + 1) * dt
    samples = np.empty((n_steps + 1,) + np.shape(z0))
    samples[0] = z0
    for k in range(n_steps):
        samples[k + 1] = step(times[k], samples[k])
        check_finite(samples[k + 1])
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
    """One classical Runge-Kutta step for x' = f(t, x)."""
    k1 = f(t, x)
    k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = f(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
