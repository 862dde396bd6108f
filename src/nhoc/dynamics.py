"""Nonholonomic and controlled flows on D, plus an independent d'Alembert oracle.

The free field is compiled into one function on flat (q, y) rows, one row
or a stack, which ``simulate`` steps through ``numerics.integrate_fixed_steps``.
With constant drift its quadratic term is two matrix-vector products.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ConstraintViolated, DimensionMismatch, NonFiniteState,
                     SingularMetric)
from .numerics import checked_array, integrate_fixed_steps, matvec_rows, rk4_step, step_count

INTEGRATORS = ("rk4", "symp_euler")  # the first is the default


@dataclass(frozen=True, eq=False)
class StateQY:
    """Chart point and fiber velocity in adapted D-coordinates; a
    non-numeric or non-finite entry raises ValidationError."""

    q: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", checked_array(self.q, "state q"))
        object.__setattr__(self, "y", checked_array(self.y, "state y"))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed samples of a flow with optional controls and diagnostics."""

    times: np.ndarray
    qs: np.ndarray
    ys: np.ndarray
    controls: Optional[np.ndarray] = None
    p_qs: Optional[np.ndarray] = None
    p_ys: Optional[np.ndarray] = None
    energies: Optional[np.ndarray] = None
    hamiltonians: Optional[np.ndarray] = None

    def __post_init__(self):
        n = len(self.times)
        for name in ("qs", "ys", "controls", "p_qs", "p_ys", "energies", "hamiltonians"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != n:
                raise DimensionMismatch(f"trajectory field {name} has length {len(arr)} != {n}")
        if n > 1 and np.any(np.diff(self.times) <= 0):
            raise DimensionMismatch("trajectory times must be strictly increasing")

    def __len__(self):
        return len(self.times)


def drift_acceleration(system, q, y):
    """Geometric drift Gamma(y, y) + grad V at one row; the free flow has
    ydot = -drift.  The one-row read of ``ConstrainedSystem.drift``."""
    q, y = system.fiber_row(q, y)
    return system.drift(y, system._geometry_at(q))


def _free_field(system):
    """The free field zdot = (rho_D^T y, -Gamma(y, y) - grad V) on flat (q, y)
    rows: one row, or a stack whose rows each get the floats of a one-row call.

    With constant drift it is rho_D^T y and two matrix-vector products,
    -Gamma(y, y) = ((-Gamma) y) y.  Otherwise each evaluation takes one
    stacked geometry build at its chart points, whose record holds grad V,
    and the drift from its one home, ``ConstrainedSystem.drift``.
    """
    nq, m = system.dim_q, system.rank_d
    if system.constant_drift:
        geo = system.geometry()
        anchor_t, neg_gamma = geo["anchor_d"].T, -geo["gamma"]

        def field(z):
            if z.ndim == 1:  # the stepped row: same floats, fewer numpy calls
                y = z[nq:]
                ydot = (neg_gamma @ y) @ y
                return np.concatenate([anchor_t @ y, ydot]) if nq else ydot
            y = z[..., nq:]
            ydot = matvec_rows((neg_gamma @ y[..., None, :, None])[..., 0], y)
            return np.concatenate([matvec_rows(anchor_t, y), ydot], axis=-1) if nq else ydot
        return field

    last = {}  # the geometry at the last chart points; semi-implicit Euler reuses it

    def field(z):
        rows = z.reshape(-1, nq + m)
        qs, ys = rows[:, :nq], rows[:, nq:]
        key = len(qs), qs.tobytes()  # with dim_q = 0 every stack has the same bytes
        if key not in last:
            last.clear()
            last[key] = system.geometry_rows(qs)
        geo = last[key]
        return np.concatenate([matvec_rows(geo["anchor_d"].swapaxes(1, 2), ys),
                               -system.drift(ys, geo)], axis=1).reshape(z.shape)
    return field


def nonholonomic_field(system, s):
    """Right-hand side of the free nonholonomic equations at a state.

    qdot^i = rho^i_A y^A and ydot^C = -Gamma^C_AB y^A y^B - (grad V)^C.  Stacks
    of rows q (B, dim_q) and y (B, rank_d) give rows with single-call floats.
    Other shapes raise DimensionMismatch.
    """
    lead = s.q.shape[:-1]
    if (s.q.shape, s.y.shape) != (lead + (system.dim_q,), lead + (system.rank_d,)):
        raise DimensionMismatch(f"state rows q {s.q.shape} and y {s.y.shape} must be "
                                f"(..., {system.dim_q}) and (..., {system.rank_d}) alike")
    zdot = _free_field(system)(np.concatenate([s.q, s.y], axis=-1))
    return zdot[..., :system.dim_q], zdot[..., system.dim_q:]


def _control_vector(controls, u, t):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (controls.k,):
        raise DimensionMismatch(f"control has shape {u.shape}, expected ({controls.k},)")
    if not np.isfinite(u).all():
        raise NonFiniteState(f"control {u} at t = {t:g} is not finite")
    return u


def dalembert_oracle_field(model, spec, xi):
    """Lagrange-d'Alembert equations on a Lie algebra, solved directly.

    Independent of the projected-bracket pipeline: solves
    I xidot = ad*_xi (I xi) + lambda_alpha mu^alpha with mu xidot = 0 as one
    linear system, and returns xidot in the adapted D-basis.  Used to validate
    nonholonomic_field on every Lie-algebra model.
    """
    if model.dim_q != 0:
        raise DimensionMismatch("the d'Alembert oracle applies to dim_q = 0 models only")
    xi = checked_array(xi, "fiber vector", (model.rank_e,))
    q = model.chart_point(None)
    mu = spec.to_annihilator()
    if mu.shape[0] and np.abs(mu @ xi).max() > 1e-10:
        raise ConstraintViolated(f"<mu, xi> = {np.abs(mu @ xi).max():.2e} exceeds 1e-10")
    inertia = np.asarray(model.metric(q), dtype=float)
    momentum = inertia @ xi
    coad = np.einsum("cab,a,c->b", np.asarray(model.structure(q), dtype=float), xi, momentum)
    n, k = model.rank_e, mu.shape[0]
    kkt = np.block([[inertia, -mu.T], [mu, np.zeros((k, k))]])
    try:
        sol = np.linalg.solve(kkt, np.concatenate([coad, np.zeros(k)]))
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("inertia/constraint system is singular") from exc
    xidot = sol[:n]
    d = spec.d_basis()
    gram = d @ inertia @ d.T
    return np.linalg.solve(gram, d @ inertia @ xidot)


def simulate(system, s0, t_final, dt, integrator=INTEGRATORS[0], controls=None, u=None):
    """Integrate the free or controlled flow with a fixed step.

    ``u`` is a callable t -> control vector (requires ``controls`` on D);
    without it the free nonholonomic field is integrated.  The field is
    compiled once per call on flat (q, y) rows, controls add (0; B) u(t), the
    step function of the integrator is chosen once, and the package's one
    fixed-step driver steps it.  ``Trajectory.controls`` holds the control
    that the first stage of each step evaluated at its t_k, and u(T).
    Returned samples satisfy qdot = rho_D y by construction, and carry the
    energy diagnostic ell = (1/2) G^D(y, y) + V(q) per instant, from one
    stacked call.  Raises DimensionMismatch unless dt divides t_final,
    NonFiniteState for a non-finite control.
    """
    n_steps = step_count(t_final, dt)
    if integrator not in INTEGRATORS:
        raise DimensionMismatch(f"unknown integrator {integrator!r}")
    if (u is None) != (controls is None):
        raise DimensionMismatch("controls and u must be supplied together")
    nq, ny = system.dim_q, system.rank_d
    if s0.q.shape != (nq,) or s0.y.shape != (ny,):
        raise DimensionMismatch("initial state does not match the system")
    if controls is not None and controls.rank_d != ny:
        raise DimensionMismatch(f"input sections have {controls.rank_d} rows, D has rank {ny}")
    field = _free_field(system)
    f = lambda t, z: field(z)
    evaluated = []  # the control of every stage; each step's first is at its t_k
    if u is not None:
        block = np.concatenate([np.zeros((nq, controls.k)), controls.input_matrix])

        def f(t, z):
            evaluated.append(_control_vector(controls, u(t), t))
            return field(z) + block @ evaluated[-1]

    stages = 4 if integrator == "rk4" else 1  # evaluations of f per step
    if integrator == "rk4":
        def step(t, z):
            return rk4_step(f, t, z, dt)
    else:
        def step(t, z):
            z = z.copy()  # semi-implicit Euler: y first, then q with the new y
            z[nq:] += dt * f(t, z)[nq:]
            if nq:
                z[:nq] += dt * field(z)[:nq]
            return z

    times, zs = integrate_fixed_steps(step, np.concatenate([s0.q, s0.y]), n_steps, dt)
    us = None if u is None else np.array(
        evaluated[::stages] + [_control_vector(controls, u(times[-1]), times[-1])])
    energies = system.energy(zs[:, :nq], zs[:, nq:])
    return Trajectory(times=times, qs=zs[:, :nq].copy(), ys=zs[:, nq:].copy(),
                      controls=us, energies=energies)
