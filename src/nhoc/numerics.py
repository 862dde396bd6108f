"""Small shared numerical helpers: the one checked read of a caller's array,
derivatives, null spaces, row products, the rk4 step, step counts and the
one fixed-step driver with its finite-state guard.

Every derivative in the package that is not given in closed form goes
through this module: the complex step of ``complex_step_pass`` (the model
callables without analytic partials, several in one pass), or central
differences, whose one stencil is ``central_stencil`` (the points
x +- h e_i) with ``stencil_partials`` (the formula (f+ - f-) / 2h).
``fd_partials`` and ``fd_jacobian`` call f at that stencil themselves, and
``central_differences`` reads Jacobians from values a caller took there.
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
    ``q`` may be a stack of chart points (B, n), giving a leading axis B: f
    is called at every point of their ``central_stencil`` in one pass.
    """
    q = np.asarray(q, dtype=float)
    points = np.atleast_2d(q)
    if points.shape[1] == 0:  # no point to call f at, but the shape of its value
        return np.zeros(q.shape + np.shape(f(points[0])))
    values = np.array([f(x) for x in central_stencil(points, step)], dtype=float)
    out = stencil_partials(values, len(points), step)
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
    Returns one array of partials per job, shaped as ``fd_partials``: entry
    [i] is Im f(q + i h e_i) / h with h = ``COMPLEX_STEP``, exact to rounding
    for a real-analytic f.  Two more calls check the partials along one
    direction against its central difference, so f is called dim_q + 2
    times per point.  Where f drops the imaginary part (it returns a real
    array, raises TypeError, casts complex to real with numpy's
    ComplexWarning, or drops it in some entries only, so that the check
    misses by more than ``CS_CHECK_TOL`` of the values' scale) the partials
    are ``fd``, or ``fd_partials`` (2 dim_q more calls) when none is given.
    Every complex point is evaluated under one ``catch_warnings``, and each
    job checks its own points, so each callable and point keeps the verdict
    and the floats it has in a job of its own.
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
    whole = slice(None)  # the points whose every value is complex: all, or a mask
    if dropped:
        whole = np.array([v is not None for v in values]).reshape(k, n).all(axis=1)
        values = [v for v, keep in zip(values, np.repeat(whole, n)) if keep]
        if not values:
            return fd_partials(f, q) if fd is None else fd
    out = np.array(values)
    out = (out.imag / COMPLEX_STEP).reshape((-1, n) + out.shape[1:])
    passed = ~_drops_in_part(f, points[whole], out)
    if not dropped and passed.all():
        return out[0] if q.ndim == 1 else out
    kept = np.zeros(k, dtype=bool)
    kept[whole] = passed
    if not kept.any():
        return fd_partials(f, q) if fd is None else fd
    mixed = np.empty((k,) + out.shape[1:])
    mixed[kept] = out[passed]
    mixed[~kept] = fd_partials(f, points[~kept]) if fd is None else fd[~kept]
    return mixed


def fd_jacobian(f, x, step=FD_STEP):
    """Central finite-difference Jacobian of a vector map; columns are
    partials (``fd_partials``), two evaluations of ``f`` per column."""
    # C order, as a product's floats depend on layout
    return np.ascontiguousarray(fd_partials(f, x, step).T)


def central_stencil(x, step=FD_STEP):
    """The central-difference points of the rows of a stack x (B, n):
    x + step e_i for every row and i, then x - step e_i, each block
    row-major in (row, i); shape (2 n B, n)."""
    b, n = x.shape
    steps = step * np.eye(n)
    return np.concatenate([(x[:, None] + steps).reshape(b * n, n),
                           (x[:, None] - steps).reshape(b * n, n)])


def stencil_partials(values, b, step=FD_STEP):
    """Partials (b, n, ...) at the b rows of a ``central_stencil``, chart
    index first, from the values (2 n b, ...) of a function at its points:
    (f(x + step e_i) - f(x - step e_i)) / (2 step)."""
    plus, minus = values.reshape((2, b, len(values) // (2 * b)) + values.shape[1:])
    return (plus - minus) / (2.0 * step)


def central_differences(values, b):
    """Jacobians (b, k, n) at the b rows of a ``central_stencil`` from the
    values (2 n b, k) of a map at its points; each Jacobian has the floats
    of ``fd_jacobian`` at its row."""
    # C order, as ``fd_jacobian`` returns: a product's floats depend on layout
    return np.ascontiguousarray(stencil_partials(values, b).swapaxes(1, 2))


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


def checked_array(value, what, shape=None):
    """The one read of an array that a caller passes in: ``value`` as a float
    array of at least one dimension, named ``what`` in the errors.

    Raises DimensionMismatch unless its shape is ``shape`` (when given), and
    ValidationError for a non-numeric, ragged or non-finite value.
    """
    a = _float_array(value, what)
    if shape is not None and a.shape != shape:
        raise DimensionMismatch(f"{what} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has non-finite entries")
    return a


def _float_array(value, what):
    """``value`` as a float array of at least one dimension; ValidationError
    naming ``what`` for a non-numeric or ragged value."""
    try:
        return np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a rectangular array of numbers") from None


def coerce_fields(record, names):
    """Set each field ``names`` of the frozen dataclass ``record`` to a float
    array of at least one dimension; a 1-d array is kept as it is.  Raises
    ValidationError naming the field for a non-numeric or ragged value.  It
    does not check finiteness: records also hold the states of a flow."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not np.ndarray or value.ndim != 1:
            object.__setattr__(record, name,
                               _float_array(value, f"{type(record).__name__}.{name}"))


def check_full_rank(a, what="constraint"):
    """Raise RankDeficient unless the rows of `a` are independent, and
    ValidationError when an entry is not finite or numeric."""
    a = np.atleast_2d(checked_array(a, what))
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
