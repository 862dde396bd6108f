"""Nonholonomic and controlled flows on D, plus an independent d'Alembert oracle.

The free field is compiled per system into a flat kernel on stacked (q, y)
rows, and ``simulate`` steps it through ``numerics.integrate_fixed_steps``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebroid import grad_potential
from .errors import (ConstraintViolated, DimensionMismatch, NonFiniteState,
                     SingularMetric)
from .numerics import integrate_fixed_steps, matvec_rows, rk4_step, step_count


@dataclass(frozen=True, eq=False)
class StateQY:
    """Chart point and fiber velocity in adapted D-coordinates."""

    q: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.y))):
            raise NonFiniteState("state contains non-finite entries")


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
    """Geometric drift Gamma(y, y) + grad V; the free flow has ydot = -drift."""
    acc = np.einsum("cab,a,b->c", system.gamma(q), y, y)
    if system.dim_q > 0:
        acc = acc + grad_potential(system, q)
    return acc


def _free_kernels(system):
    """The free field as two flat kernels qdot(q, y) = rho^T y and
    ydot(q, y) = -drift on (q, y) rows with leading batch axes.

    On a chart-independent model without potential, Gamma and the anchor
    are hoisted and all rows are evaluated at once; otherwise each row takes
    the per-point formulas at its own chart point.
    """
    if system.constant_drift:
        gamma, anchor_t = system.gamma(), system.anchor_d().T
        return (lambda q, y: matvec_rows(anchor_t, y),
                lambda q, y: -np.einsum("cab,...a,...b->...c", gamma, y, y))

    def rowwise(point):
        def kernel(q, y):
            if y.ndim == 1:
                return point(q, y)
            return np.stack([kernel(a, b) for a, b in zip(q, y)])
        return kernel

    return (rowwise(lambda q, y: system.anchor_d(q).T @ y),
            rowwise(lambda q, y: -drift_acceleration(system, q, y)))


def nonholonomic_field(system, s):
    """Right-hand side of the free nonholonomic equations at a state.

    qdot^i = rho^i_A y^A and ydot^C = -Gamma^C_AB y^A y^B - (grad V)^C.
    """
    qdot, ydot = _free_kernels(system)
    return qdot(s.q, s.y), ydot(s.q, s.y)


def _control_vector(controls, u):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (controls.k,):
        raise DimensionMismatch(f"control has shape {u.shape}, expected ({controls.k},)")
    return u


def controlled_field(system, controls, s, u):
    """Free field plus input_matrix @ u along the actuated sections."""
    u = _control_vector(controls, u)
    qdot, ydot = nonholonomic_field(system, s)
    return qdot, ydot + controls.input_matrix @ u


def dalembert_oracle_field(model, spec, xi):
    """Lagrange-d'Alembert equations on a Lie algebra, solved directly.

    Independent of the projected-bracket pipeline: solves
    I xidot = ad*_xi (I xi) + lambda_alpha mu^alpha with mu xidot = 0 as one
    linear system, and returns xidot in the adapted D-basis.  Used to validate
    nonholonomic_field on every Lie-algebra model.
    """
    if model.dim_q != 0:
        raise DimensionMismatch("the d'Alembert oracle applies to dim_q = 0 models only")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (model.rank_e,):
        raise DimensionMismatch(f"fiber vector has shape {xi.shape}, expected ({model.rank_e},)")
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


def simulate(system, s0, t_final, dt, integrator="rk4", controls=None, u=None):
    """Integrate the free or controlled flow with a fixed step.

    ``u`` is a callable t -> control vector (requires ``controls``); without
    it the free nonholonomic field is integrated.  The field is the system's
    flat kernel, which takes a leading batch axis of (q, y) rows, stepped by
    the package's one fixed-step driver.  Returned samples satisfy the
    admissibility equation qdot = rho_D y by construction, and carry the
    energy diagnostic ell = (1/2) G^D(y, y) + V(q) per instant.  Raises
    DimensionMismatch unless dt divides t_final.
    """
    n_steps = step_count(t_final, dt)
    if integrator not in ("rk4", "symp_euler"):
        raise DimensionMismatch(f"unknown integrator {integrator!r}")
    if (u is None) != (controls is None):
        raise DimensionMismatch("controls and u must be supplied together")
    nq, ny = system.dim_q, system.rank_d
    if s0.q.shape != (nq,) or s0.y.shape != (ny,):
        raise DimensionMismatch("initial state does not match the system")
    qdot, ydot = _free_kernels(system)

    def accel(t, q, y):
        acc = ydot(q, y)
        return acc if u is None else acc + controls.input_matrix @ _control_vector(controls, u(t))

    def rhs(t, z):
        q, y = z[:nq], z[nq:]
        return np.concatenate([qdot(q, y), accel(t, q, y)])

    def step(t, z):
        if integrator == "rk4":
            return rk4_step(rhs, t, z, dt)
        # semi-implicit Euler: fiber velocity first, base point with it
        q, y = z[:nq], z[nq:]
        y_next = y + dt * accel(t, q, y)
        return np.concatenate([q + dt * qdot(q, y_next), y_next])

    times, zs = integrate_fixed_steps(step, np.concatenate([s0.q, s0.y]), n_steps, dt)
    us = None if u is None else np.array([_control_vector(controls, u(t)) for t in times])
    energies = system.energy(zs[:, :nq], zs[:, nq:])
    return Trajectory(times=times, qs=zs[:, :nq].copy(), ys=zs[:, nq:].copy(),
                      controls=us, energies=energies)
