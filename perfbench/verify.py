"""Checks of benchmark items against computations made apart from nhoc.

Every check returns None when the output is right and a one-line reason
when it is not.  The references are written here from the textbook
equations (closed-form Chaplygin sleigh, Lagrange-d'Alembert KKT system of
the Suslov body, discrete double-integrator shooting) and never call into
nhoc, so a fault in the package cannot hide in its own reference.

Tolerances are ``scale * (c * h**order + floor)``: the term in the step
``h`` (dt for free flows, whose dynamics run on unit time scales; dt / T
for boundary problems, which are scale-free in T) bounds the discretisation
error of the scheme under test, and the floor bounds rounding.  Algebraic
conditions that hold at every sample (energy diagnostic, stationarity,
terminal residual) do not depend on dt.
"""

import math

import numpy as np

ORDER = {"rk4": 4, "stormer_verlet": 2, "symp_euler": 1}


def tolerance(scale, h, order, c, floor):
    return scale * (c * h ** order + floor)


def _grid_reason(times, n_steps, t_final):
    """The sample grid must hold n_steps + 1 samples ending at t_final."""
    if len(times) != n_steps + 1:
        return f"{len(times)} samples, expected {n_steps + 1}"
    if abs(times[0]) > 1e-12 or abs(times[-1] - t_final) > 1e-9 * max(1.0, t_final):
        return f"time grid spans [{times[0]:.6g}, {times[-1]:.6g}], expected [0, {t_final:.6g}]"
    return None


def _worse(name, err, tol):
    if not err <= tol:  # also catches NaN
        return f"{name} error {err:.3e} exceeds {tol:.3e}"
    return None


# ---------------------------------------------------------------- free flows

class Sleigh:
    """Chaplygin sleigh with the centre of mass on the blade axis (b = 0).

    Fiber velocity y = (omega, v): turning rate and blade-axis speed.
    Equations: (J + m a^2) omega' = -m a v omega + u0', v' = a omega^2 + u1',
    written with the controls as accelerations in y as nhoc's adapted
    input matrix is the identity.
    """

    def __init__(self, m, J, a):
        self.m, self.J, self.a = float(m), float(J), float(a)
        self.inertia = self.J + self.m * self.a ** 2

    def field(self, w, v):
        return -self.m * self.a * v * w / self.inertia, self.a * w * w

    def energy(self, w, v):
        return 0.5 * self.inertia * w * w + 0.5 * self.m * v * v

    def closed_form(self, w0, v0, times):
        """v = V tanh(k t + atanh(v0/V)), omega = sign(w0) sqrt(m/I) V sech(k t + c)."""
        big_v = math.sqrt(2.0 * self.energy(w0, v0) / self.m)
        k = self.a * self.m * big_v / self.inertia
        phase = k * np.asarray(times) + math.atanh(v0 / big_v)
        v = big_v * np.tanh(phase)
        w = math.copysign(1.0, w0) * math.sqrt(self.m / self.inertia) * big_v / np.cosh(phase)
        return np.column_stack([w, v])


class SuslovKKT:
    """Suslov body: I xi' = (I xi) x xi + lambda e3 with xi3 = 0, solved as
    one KKT system.  The KKT matrix is constant, so its inverse is formed
    once and the reference field is plain float arithmetic."""

    def __init__(self, inertia):
        self.inertia = np.asarray(inertia, dtype=float)
        kkt = np.zeros((4, 4))
        kkt[:3, :3] = self.inertia
        kkt[:3, 3] = [0.0, 0.0, -1.0]
        kkt[3, :3] = [0.0, 0.0, 1.0]
        self._inv = np.linalg.inv(kkt)[:3, :3].tolist()
        self._i = self.inertia.tolist()

    def field(self, x1, x2):
        i = self._i
        m1 = i[0][0] * x1 + i[0][1] * x2
        m2 = i[1][0] * x1 + i[1][1] * x2
        m3 = i[2][0] * x1 + i[2][1] * x2
        # (I xi) x xi with xi = (x1, x2, 0)
        c1, c2, c3 = -m3 * x2, m3 * x1, m1 * x2 - m2 * x1
        a = self._inv
        return (a[0][0] * c1 + a[0][1] * c2 + a[0][2] * c3,
                a[1][0] * c1 + a[1][1] * c2 + a[1][2] * c3)

    def energy(self, x1, x2):
        i = self._i
        return 0.5 * (i[0][0] * x1 * x1 + 2.0 * i[0][1] * x1 * x2 + i[1][1] * x2 * x2)


def integrate_free(field, y0, dt, n_steps, scheme):
    """The benchmark's own RK4 or explicit Euler (symplectic Euler on a
    Lie algebra, where there is no base point) of a 2-d field."""
    out = np.empty((n_steps + 1, 2))
    y1, y2 = float(y0[0]), float(y0[1])
    out[0] = y1, y2
    h = dt
    for k in range(1, n_steps + 1):
        if scheme == "rk4":
            a1, a2 = field(y1, y2)
            b1, b2 = field(y1 + 0.5 * h * a1, y2 + 0.5 * h * a2)
            c1, c2 = field(y1 + 0.5 * h * b1, y2 + 0.5 * h * b2)
            d1, d2 = field(y1 + h * c1, y2 + h * c2)
            y1 += h / 6.0 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            y2 += h / 6.0 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        else:
            a1, a2 = field(y1, y2)
            y1 += h * a1
            y2 += h * a2
        out[k] = y1, y2
    return out


# rk4 against the sleigh's closed form: the observed error / (dt^4 T |y0|)
# stays below 3e-3 at dt = 0.01, T = 10; c leaves a factor of about 30
FREE_RK4_C = 0.1
# the same scheme computed twice: rounding grows with the number of steps
SAME_SCHEME_FLOOR_PER_STEP = 1e-13


def check_free_flow(model, traj, y0, dt, n_steps, scheme, reference):
    """Free flow on a Lie algebra (dim_q = 0) against an own integration.

    ``model`` is a Sleigh or SuslovKKT.  ``reference`` is "closed_form"
    (sleigh, rk4 items) or "same_scheme" (the benchmark's own integration
    of the reference field with the scheme under test).
    """
    t_final = n_steps * dt
    reason = _grid_reason(traj.times, n_steps, t_final)
    if reason:
        return reason
    ys = np.asarray(traj.ys)
    if ys.shape != (n_steps + 1, 2):
        return f"fiber samples have shape {ys.shape}"
    scale = max(1.0, float(np.abs(ys[0]).max()))
    if reference == "closed_form":
        ref = model.closed_form(y0[0], y0[1], traj.times)
        tol = tolerance(scale, dt, 4, FREE_RK4_C * t_final, 1e-12)
    else:
        ref = integrate_free(model.field, y0, dt, n_steps, scheme)
        tol = scale * SAME_SCHEME_FLOOR_PER_STEP * n_steps
    reason = _worse("trajectory", float(np.abs(ys - ref).max()), tol)
    if reason:
        return reason
    own = np.array([model.energy(w, v) for w, v in ys])
    return _worse("energy diagnostic", float(np.abs(np.asarray(traj.energies) - own).max()),
                  1e-12 * max(1.0, abs(own[0])))


# ------------------------------------------------------- optimize (CLI) items

def read_csv(path):
    """Header and data of a trajectory CSV written by ``nhoc``."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def parse_stdout(text):
    """Key-value lines printed by ``nhoc optimize``."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _column(header, data, name):
    return data[:, header.index(name)]


def di_step_matrix(dt, scheme):
    """One step of the scheme on the double integrator H = p_y^2/2 + p_q y,
    as a 4x4 matrix on z = (q, y, p_q, p_y); all three steps are linear."""

    def step(z):
        q, y, pq, py = z
        if scheme == "rk4":
            # z' = A z with A nilpotent (A^4 = 0): rk4 is the exact flow
            return np.array([q + dt * y + dt ** 2 * py / 2 - dt ** 3 * pq / 6,
                             y + dt * py - dt ** 2 * pq / 2, pq, py - dt * pq])
        if scheme == "symp_euler":
            py_new = py - dt * pq
            return np.array([q + dt * y, y + dt * py_new, pq, py_new])
        py_half = py - 0.5 * dt * pq
        y_new = y + dt * py_half
        return np.array([q + 0.5 * dt * (y + y_new), y_new, pq, py_half - 0.5 * dt * pq])

    return np.column_stack([step(e) for e in np.eye(4)])


def di_discrete_p0(d, t_final, n_steps, scheme):
    """Exact initial momenta of the discrete shooting problem: rest at 0 to
    rest at d with the scheme's own step map."""
    flow = np.linalg.matrix_power(di_step_matrix(t_final / n_steps, scheme), n_steps)
    return np.linalg.solve(flow[:2, 2:], np.array([d, 0.0])), flow


# continuous solution against the discrete schemes, in units of scale * h^order
# (h = dt / T); observed maxima: symp_euler 1.0, stormer_verlet 1.8, rk4 is
# exact on this nilpotent system
DI_C = {"rk4": 0.0, "symp_euler": 4.0, "stormer_verlet": 8.0}
# trapezoidal cost against 6 d^2 / T^3, units of cost * h^min(order, 2);
# observed: rk4 2.0, symp_euler 0.07, stormer_verlet 4.0
DI_COST_C = {"rk4": 8.0, "symp_euler": 1.0, "stormer_verlet": 16.0}
DI_FLOOR = 1e-9


def check_di_optimize(rc, stdout, csv_path, d, t_final, n_steps, scheme):
    """Double integrator, rest to rest over distance d in time T.

    Continuous optimum: p0 = (12d/T^3, 6d/T^2), u(t) = (6d/T^2)(1 - 2t/T),
    cost 6d^2/T^3.  The discrete optimum of the same scheme is also formed
    here and must match the output to rounding.
    """
    if rc != 0:
        return f"nhoc optimize exited with code {rc}"
    header, data = read_csv(csv_path)
    expected = ["t", "q_0", "y_0", "pq_0", "py_0", "u_0", "energy", "hamiltonian"]
    if header != expected:
        return f"CSV header {header}"
    times = _column(header, data, "t")
    reason = _grid_reason(times, n_steps, t_final)
    if reason:
        return reason
    h = 1.0 / n_steps
    order = ORDER[scheme]
    u_scale = 6.0 * abs(d) / t_final ** 2
    p0 = data[0, [header.index("pq_0"), header.index("py_0")]]
    p0_exact = np.array([12.0 * d / t_final ** 3, 6.0 * d / t_final ** 2])
    p0_disc, flow = di_discrete_p0(d, t_final, n_steps, scheme)
    reason = (_worse("p0 (discrete)", float(np.abs(p0 - p0_disc).max()),
                     tolerance(u_scale, h, order, 0.0, DI_FLOOR))
              or _worse("p0 (closed form)", float(np.abs(p0 - p0_exact).max()),
                        tolerance(u_scale, h, order, DI_C[scheme], DI_FLOOR)))
    if reason:
        return reason
    u = _column(header, data, "u_0")
    u_exact = u_scale * math.copysign(1.0, d) * (1.0 - 2.0 * times / t_final)
    z = np.array([0.0, 0.0, p0_disc[0], p0_disc[1]])
    step = di_step_matrix(t_final / n_steps, scheme)
    u_disc = np.empty(n_steps + 1)
    for k in range(n_steps + 1):
        u_disc[k] = z[3]
        z = step @ z
    reason = (_worse("u (discrete)", float(np.abs(u - u_disc).max()),
                     tolerance(u_scale, h, order, 0.0, DI_FLOOR))
              or _worse("u (closed form)", float(np.abs(u - u_exact).max()),
                        tolerance(u_scale, h, order, DI_C[scheme], DI_FLOOR)))
    if reason:
        return reason
    end = data[-1, [header.index("q_0"), header.index("y_0")]]
    reason = _worse("terminal state", float(np.abs(end - [d, 0.0]).max()), 1e-9 * max(1.0, abs(d)))
    if reason:
        return reason
    printed = parse_stdout(stdout)
    try:
        cost = float(printed["cost"])
    except (KeyError, ValueError):
        return "no cost line on stdout"
    cost_exact = 6.0 * d * d / t_final ** 3
    return _worse("cost", abs(cost - cost_exact),
                  tolerance(cost_exact, h, min(order, 2), DI_COST_C[scheme], 1e-10))


def interp_cubic(values, s):
    """Cubic Lagrange interpolation of equally spaced samples at fractional
    index s, from the four nearest samples."""
    n = len(values)
    i = min(max(int(math.floor(s)) - 1, 0), n - 4)
    x = s - i
    w = ((x - 1) * (x - 2) * (x - 3) / -6.0, x * (x - 2) * (x - 3) / 2.0,
         x * (x - 1) * (x - 3) / -2.0, x * (x - 1) * (x - 2) / 6.0)
    return sum(wk * values[i + k] for k, wk in enumerate(w))


def replay_controls(sleigh, y0, controls, dt):
    """RK4 of the controlled sleigh y' = f(y) + u(t), with u interpolated
    from the sampled controls; returns the terminal fiber velocity."""
    u0 = controls[:, 0].tolist()
    u1 = controls[:, 1].tolist()

    def rhs(s, w, v):
        a, b = sleigh.field(w, v)
        return a + interp_cubic(u0, s), b + interp_cubic(u1, s)

    w, v = float(y0[0]), float(y0[1])
    for k in range(len(u0) - 1):
        a1, a2 = rhs(k, w, v)
        b1, b2 = rhs(k + 0.5, w + 0.5 * dt * a1, v + 0.5 * dt * a2)
        c1, c2 = rhs(k + 0.5, w + 0.5 * dt * b1, v + 0.5 * dt * b2)
        d1, d2 = rhs(k + 1, w + dt * c1, v + dt * c2)
        w += dt / 6.0 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        v += dt / 6.0 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
    return np.array([w, v])


# replayed controls against yT, in units of max(0.1, |yT|) * h^order;
# observed maxima: rk4 0.007, stormer_verlet 0.03, symp_euler 0.12
SLEIGH_REPLAY_C = {"rk4": 0.1, "symp_euler": 1.0, "stormer_verlet": 0.2}


def check_sleigh_optimize(rc, stdout, csv_path, sleigh, yT, t_final, n_steps, scheme):
    """Chaplygin steering from rest: the CSV controls, replayed through the
    benchmark's own sleigh equations, must land on yT."""
    if rc != 0:
        return f"nhoc optimize exited with code {rc}"
    header, data = read_csv(csv_path)
    expected = ["t", "y_0", "y_1", "py_0", "py_1", "u_0", "u_1", "energy", "hamiltonian"]
    if header != expected:
        return f"CSV header {header}"
    times = _column(header, data, "t")
    reason = _grid_reason(times, n_steps, t_final)
    if reason:
        return reason
    yT = np.asarray(yT, dtype=float)
    end = data[-1, [header.index("y_0"), header.index("y_1")]]
    reason = _worse("terminal state", float(np.abs(end - yT).max()), 1e-9)
    if reason:
        return reason
    controls = data[:, [header.index("u_0"), header.index("u_1")]]
    landed = replay_controls(sleigh, np.zeros(2), controls, t_final / n_steps)
    scale = max(0.1, float(np.abs(yT).max()))
    return _worse("replayed endpoint", float(np.abs(landed - yT).max()),
                  tolerance(scale, 1.0 / n_steps, ORDER[scheme], SLEIGH_REPLAY_C[scheme], 1e-9))


# --------------------------------------------------------- chart_dependent

def curved_energy(q, y):
    """Energy of the benchmark's curved model: 1/2 y^T G(q) y + q^2/4."""
    g11, g12, g22 = 1.0 + q * q, 0.2, 2.0 + math.sin(q) ** 2
    return 0.5 * (g11 * y[0] ** 2 + 2.0 * g12 * y[0] * y[1] + g22 * y[1] ** 2) + 0.25 * q * q


# rk4 energy drift over T on the curved model; the floor is the drift that
# the finite-difference Christoffel symbols (central step 1e-6) add per unit
# time, measured below 1e-10 on these initial conditions
CURVED_RK4_C = 10.0
CURVED_FD_FLOOR = 1e-8


def check_curved_flow(traj, q0, y0, dt, n_steps):
    """Free rk4 flow on the curved model: the start is the given state, the
    energy diagnostic matches the model energy, and energy is conserved."""
    t_final = n_steps * dt
    reason = _grid_reason(traj.times, n_steps, t_final)
    if reason:
        return reason
    qs, ys = np.asarray(traj.qs), np.asarray(traj.ys)
    if qs.shape != (n_steps + 1, 1) or ys.shape != (n_steps + 1, 2):
        return f"samples have shapes {qs.shape}, {ys.shape}"
    if qs[0, 0] != q0 or not np.array_equal(ys[0], y0):
        return "trajectory does not start at the initial state"
    own = np.array([curved_energy(q[0], y) for q, y in zip(qs, ys)])
    e_scale = max(1.0, abs(own[0]))
    reason = _worse("energy diagnostic", float(np.abs(np.asarray(traj.energies) - own).max()),
                    1e-12 * e_scale)
    if reason:
        return reason
    return _worse("energy drift", float(np.abs(own - own[0]).max()),
                  tolerance(e_scale, dt, 4, CURVED_RK4_C * t_final, CURVED_FD_FLOOR * t_final))


NEWTON_TOL = 1e-10  # nhoc's default shooting tolerance


def check_solved(result, q0, y0, qT, yT, t_final, n_steps):
    """A shooting solve: the extremal starts at (q0, y0), ends on (qT, yT)
    within the Newton tolerance, and reports that residual."""
    traj = result.trajectory
    reason = _grid_reason(traj.times, n_steps, t_final)
    if reason:
        return reason
    start = np.concatenate([traj.qs[0], traj.ys[0]])
    if not np.array_equal(start, np.concatenate([q0, y0])):
        return "extremal does not start at the boundary state"
    end = np.concatenate([traj.qs[-1], traj.ys[-1]])
    reason = _worse("terminal residual", float(np.abs(end - np.concatenate([qT, yT])).max()),
                    NEWTON_TOL)
    if reason:
        return reason
    return _worse("reported residual", float(result.residual_norm), NEWTON_TOL)


def check_quartic_solved(result, yT, t_final, n_steps):
    """Chaplygin with C = |u|^2/2 + sum(u^4)/4: terminal residual, and the
    stationarity condition dC/du = u + u^3 = p_y at every sample."""
    reason = check_solved(result, np.zeros(0), np.zeros(2), np.zeros(0), yT, t_final, n_steps)
    if reason:
        return reason
    u = np.asarray(result.trajectory.controls)
    p_y = np.asarray(result.trajectory.p_ys)
    scale = max(1.0, float(np.abs(p_y).max()))
    return _worse("stationarity u + u^3 - p_y", float(np.abs(u + u ** 3 - p_y).max()),
                  1e-10 * scale)
