"""Small shared numerical helpers: finite differences, null spaces, steppers,
step counts and the one fixed-step driver with its finite-state guard.

Every finite-difference derivative in the package goes through
``fd_partials`` or ``fd_jacobian``.
"""

import numpy as np

from .errors import DimensionMismatch, NonFiniteState, RankDeficient

FD_STEP = 1e-6
# second derivatives by nested differences: wider step, since two differences
# of a 1e-6 stencil would lose most of the precision
FD2_STEP = 1e-4
BLOWUP_LIMIT = 1e12


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


def step_count(t_final, dt):
    """Number of fixed steps of size dt that end at t_final.

    Raises DimensionMismatch unless dt divides t_final within a relative
    rounding tolerance of 1e-9, so that no integrator shortens the horizon.
    """
    if dt <= 0 or t_final <= 0:
        raise DimensionMismatch("need dt > 0 and t_final > 0")
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


def check_full_rank(a, tol=1e-10, what="constraint"):
    """Raise RankDeficient unless the rows of `a` are independent."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] == 0:
        return
    if np.linalg.matrix_rank(a, tol=tol) < a.shape[0]:
        raise RankDeficient(f"{what} rows are linearly dependent (tol={tol:g})")


def rref_null_space(a, tol=1e-10):
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
        if abs(r[k, col]) <= tol:
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
        nz = np.nonzero(np.abs(v) > tol)[0]
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


def symmetric_positive_definite(a, tol=0.0):
    """True when `a` is symmetric and positive-definite."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(a).max())):
        return False
    try:
        np.linalg.cholesky(a - tol * np.eye(a.shape[0]))
        return True
    except np.linalg.LinAlgError:
        return False
