"""Geometric data of a constrained skew-symmetric algebroid.

Array conventions used throughout the package:

* chart points ``q`` are 1-d arrays of length ``dim_q`` (length 0 for a Lie
  algebra over a point);
* ``structure(q)[c, a, b]`` is the coefficient of ``e_c`` in the bracket
  ``[e_a, e_b]`` of the frame of the full bundle E, antisymmetric in (a, b);
* ``anchor(q)[a, i]`` is the i-th chart component of the anchor of ``e_a``;
* ``metric(q)[a, b]`` is the symmetric positive-definite bundle metric;
* basis matrices store one (co)vector per row.

The constraint subbundle D carries the orthogonally projected bracket, the
restricted metric and its Levi-Civita connection; all of that is assembled
here, on a stack of chart points at once, and a single point is the one-row
case.  One step, ``_split``, splits E = D + D-perp for every build: the
geometry of a stack of chart points and the splitting at one point both take
their coefficient map from it, and the projected bracket has its one home in
the stacked build.  The drift Gamma(y, y) + grad V that every flow reads has
its one home here too.
"""

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import numerics
from .errors import DimensionMismatch, RankDeficient, SingularMetric, ValidationError


@dataclass(frozen=True)
class ModelPartials:
    """Optional analytic partial derivatives of the model fields.

    Each callable returns the stacked derivatives with the chart index first,
    e.g. ``metric_dq(q)[i] == d metric / d q^i``.  Fields left as None are
    computed by the complex step (``numerics.complex_step_partials``), exact
    to rounding: the model callable is evaluated at q + i h e_i.  At a point
    where it drops the imaginary part, in every entry or in some (which a
    check along one direction detects), they are central finite differences
    with step ``numerics.FD_STEP``.  The structure functions need none: the
    Koszul formula does not read them.
    """

    anchor_dq: Optional[Callable] = None
    metric_dq: Optional[Callable] = None
    potential_dq: Optional[Callable] = None


@dataclass(frozen=True)
class AlgebroidModel:
    """Evaluatable structure functions, anchor, metric and potential on a chart.

    ``q_independent`` is a flag, set by ``constant_model``, marking models
    whose structure, anchor and metric do not depend on the chart point; it
    lets the downstream geometry build once and skip derivative terms that
    vanish identically.  ``zero_potential`` marks a model without potential.

    The anchor, metric and potential of a chart-dependent model without
    analytic ``partials`` are differentiated by the complex step, so their
    callables should accept a complex chart point and be holomorphic in it
    in every entry (numpy's elementary functions are; ``abs``, ``real``,
    ``conj`` and norms are not).  At a point where a callable drops the
    imaginary part (returns a real array, raises TypeError, casts complex to
    real, or drops it in some entries only) it is differentiated by central
    finite differences, about 1e-10 accurate.
    Every callable is called with one chart point at a time: per point, the
    geometry and grad V call the metric 1 + dim_q + 2 times, the potential
    dim_q + 2 times, and the structure and the anchor once, and invert G^D
    once; that checked inverse serves the projection, Koszul solve and grad V.
    """

    dim_q: int
    rank_e: int
    structure: Callable[[np.ndarray], np.ndarray]
    anchor: Callable[[np.ndarray], np.ndarray]
    metric: Callable[[np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray], float] = lambda q: 0.0
    partials: ModelPartials = field(default_factory=ModelPartials)
    q_independent: bool = False
    zero_potential: bool = False

    def chart_point(self, q=None):
        """Validate and coerce a chart point (None means the origin)."""
        if q is None:
            return np.zeros(self.dim_q)
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if q.shape != (self.dim_q,):
            raise DimensionMismatch(f"chart point has shape {q.shape}, expected ({self.dim_q},)")
        if not np.isfinite(q).all():
            raise ValidationError("chart point has non-finite entries")
        return q

    # Stacked q-derivatives of the model fields (chart index first) at q, or
    # at each row of a stack of chart points; analytic partials win.
    def anchor_dq(self, q):
        return self._dq(self.anchor, self.partials.anchor_dq, q,
                        (self.rank_e, self.dim_q), self.q_independent)

    def metric_dq(self, q):
        return self._dq(self.metric, self.partials.metric_dq, q,
                        (self.rank_e, self.rank_e), self.q_independent)

    def potential_dq(self, q):
        return self._dq(self.potential, self.partials.potential_dq, q, (), False)

    def _dq(self, f, analytic, q, shape, constant):
        q = np.asarray(q, dtype=float)
        if constant or self.dim_q == 0:
            return np.zeros(q.shape[:-1] + (self.dim_q,) + shape)
        if analytic is None:
            return numerics.complex_step_partials(f, q)
        return _at_points(analytic, q) if q.ndim == 2 else np.asarray(analytic(q), dtype=float)


def constant_model(structure, metric, anchor=None, dim_q=0, potential=None):
    """Model with constant structure functions, metric and anchor.

    With ``dim_q == 0`` this is a Lie(-like) algebra over a point: the anchor
    is the empty map and every chart derivative vanishes identically.
    """
    structure = np.asarray(structure, dtype=float)
    metric = np.asarray(metric, dtype=float)
    rank_e = metric.shape[0]
    if structure.shape != (rank_e, rank_e, rank_e):
        raise DimensionMismatch("structure constants must be a rank_e^3 array")
    if np.abs(structure + structure.swapaxes(1, 2)).max() > 1e-12:
        raise DimensionMismatch("structure constants are not antisymmetric in the lower indices")
    anchor = np.zeros((rank_e, dim_q)) if anchor is None else np.asarray(anchor, dtype=float)
    if anchor.shape != (rank_e, dim_q):
        raise DimensionMismatch("anchor must have shape (rank_e, dim_q)")
    return AlgebroidModel(
        dim_q=dim_q, rank_e=rank_e,
        structure=lambda q, _c=structure: _c,
        anchor=lambda q, _a=anchor: _a,
        metric=lambda q, _g=metric: _g,
        potential=(lambda q: 0.0) if potential is None else potential,
        q_independent=True, zero_potential=potential is None)


@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """Linear velocity constraint D, as a fiber span or an annihilator.

    Exactly one of ``span_basis`` (rank_d x rank_e, rows spanning D) or
    ``annihilator`` ((rank_e - rank_d) x rank_e, rows mu with D = ker mu)
    must be given.  Rows must be independent (rank tolerance 1e-10).
    """

    span_basis: Optional[np.ndarray] = None
    annihilator: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.span_basis is None) == (self.annihilator is None):
            raise DimensionMismatch("give exactly one of span_basis or annihilator")
        if self.span_basis is not None:
            arr = np.atleast_2d(np.asarray(self.span_basis, dtype=float))
            numerics.check_full_rank(arr, what="span basis")
            object.__setattr__(self, "span_basis", arr)
        else:
            arr = np.atleast_2d(np.asarray(self.annihilator, dtype=float))
            numerics.check_full_rank(arr, what="annihilator")
            object.__setattr__(self, "annihilator", arr)

    @property
    def rank_e(self):
        arr = self.span_basis if self.span_basis is not None else self.annihilator
        return arr.shape[1]

    def rank_d(self):
        if self.span_basis is not None:
            return self.span_basis.shape[0]
        return self.annihilator.shape[1] - self.annihilator.shape[0]

    def d_basis(self):
        """Adapted basis of D: the span rows as given, or the deterministic
        kernel basis of the annihilator."""
        if self.span_basis is not None:
            return self.span_basis.copy()
        basis = numerics.rref_null_space(self.annihilator)
        if basis.shape[0] != self.rank_d():
            raise RankDeficient("annihilator kernel has unexpected dimension")
        return basis

    def to_annihilator(self):
        """Covectors whose kernel is D (the given ones, or derived from the span)."""
        if self.annihilator is not None:
            return self.annihilator.copy()
        return numerics.rref_null_space(self.span_basis)


@dataclass(frozen=True, eq=False)
class OrthogonalSplitting:
    """Metric-orthogonal decomposition E = D + D-perp at a chart point.

    ``coeff_map @ v`` gives the adapted-basis coefficients of the projection
    of v onto D, orthogonal for the bundle ``metric`` at the point; it is
    row 0 of ``_split``, the step every geometry build splits E with.  The
    projectors and the D-perp basis are derived on access; no flow reads them.
    """

    d_basis: np.ndarray
    metric: np.ndarray
    coeff_map: np.ndarray

    @property
    def rank_d(self):
        return self.d_basis.shape[0]

    @property
    def projector_p(self):
        return self.d_basis.T @ self.coeff_map

    @property
    def projector_q(self):
        return np.eye(self.metric.shape[0]) - self.projector_p

    @property
    def dperp_basis(self):
        return numerics.rref_null_space(self.d_basis @ self.metric)


def _at_points(f, qs):
    """Stack of f(q) over the rows of qs: model callables see one chart point
    at a time."""
    return np.array([f(q) for q in qs], dtype=float)


def build_splitting(model, spec, q=None):
    """Adapted basis of D and the coefficient map of the orthogonal
    projection onto it at q, for a metric checked positive-definite there:
    the one-row case of ``_split``."""
    q = model.chart_point(q)
    d = spec.d_basis()
    if d.shape[1] != model.rank_e:
        raise DimensionMismatch(
            f"constraint is on a rank-{d.shape[1]} bundle, model has rank {model.rank_e}")
    g = np.asarray(model.metric(q), dtype=float)
    return OrthogonalSplitting(d_basis=d, metric=g, coeff_map=_split(d, g[None])[2][0])


def restrict_metric(d_basis, metric):
    """Restricted metric G^D and its inverse in the adapted basis ``d_basis``.

    A stack of bundle metrics (B, r, r) gives stacks; every inverse is
    checked to a residual of 1e-12.  A geometry build inverts G^D here once
    per chart point, and that inverse serves the coefficient map of the
    splitting, the Koszul solve and grad V.
    """
    gd = d_basis @ metric @ d_basis.T
    gd = 0.5 * (gd + gd.swapaxes(-1, -2))
    try:
        gd_inv = np.linalg.inv(gd)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("restricted metric is singular") from exc
    residual = np.abs(gd @ gd_inv - np.eye(gd.shape[-1])).max()
    if not residual <= 1e-12:
        raise SingularMetric(f"restricted metric inverse residual {residual:.2e} > 1e-12")
    return gd, gd_inv


def _split(d, g):
    """The splitting E = D + D-perp for the adapted basis d at a stack of
    bundle metrics g (B, rank_e, rank_e), each checked symmetric
    positive-definite: G^D, its checked inverse and the coefficient map of
    the projection onto D, each with a leading axis B."""
    if not numerics.symmetric_positive_definite(g):
        raise SingularMetric("bundle metric is not symmetric positive-definite at q")
    gd, gd_inv = restrict_metric(d, g)
    return gd, gd_inv, gd_inv @ (d @ g)


def _chart_geometry(system, qs):
    """Projected data at every row of the chart-point stack qs (B, dim_q) in
    one flat pass, each step one product over the stack; each array has a
    leading axis B."""
    model, d, kron_dd = system.parent, system.splitting.d_basis, system._kron_dd
    b, r = len(qs), len(d)
    g = _at_points(model.metric, qs)
    gd, gd_inv, coeff_map = _split(d, g)
    # the projected bracket: adapted coefficients of P[e_a, e_b]_E.  The
    # adapted frame has constant E-frame coefficients, so no anchor terms.
    c = _at_points(model.structure, qs).reshape(b, model.rank_e, -1)
    s = (coeff_map @ (c @ kron_dd)).reshape(b, r, r, r)
    cd = 0.5 * (s - s.swapaxes(-1, -2))
    rho = d @ _at_points(model.anchor, qs)
    # Koszul: 2 G^D Gamma[c, a, b] = T[a, c, b] + T[b, c, a] - T[c, b, a] with
    # T = G^D c_D, plus U[a, b, c] + U[b, a, c] - U[c, a, b] with U = rho dG^D
    t = (gd @ cd.reshape(b, r, r * r)).reshape(b, r, r, r)
    rhs = t.transpose(0, 2, 1, 3) + t.transpose(0, 2, 3, 1) - t.swapaxes(2, 3)
    if model.dim_q > 0 and not model.q_independent:
        u = (rho @ (model.metric_dq(qs).reshape(b, model.dim_q, -1) @ kron_dd)).reshape(b, r, r, r)
        rhs += u.transpose(0, 3, 1, 2) + u.transpose(0, 3, 2, 1) - u
    gamma = 0.5 * (gd_inv @ rhs.reshape(b, r, r * r)).reshape(b, r, r, r)
    return {"structure_d": cd, "anchor_d": rho, "metric_d": gd, "metric_d_inv": gd_inv,
            "gamma": gamma}


class ConstrainedSystem:
    """The skew-symmetric algebroid induced on the constraint subbundle D.

    Wraps a parent model plus a constraint and exposes the projected
    structure functions, restricted anchor/metric, Christoffel field and
    potential gradient as functions of the chart point.  Values are immutable.
    ``geometry_rows`` builds a whole stack of chart points in one pass, and a
    single point is its one-row case; a chart-independent model builds its
    one record once and every point reads it.
    It is the one home of the drift Gamma(y, y) + grad V and its Jacobians:
    ``drift``, ``drift_dy`` and, on stacks from one build, ``drift_rows``.
    """

    def __init__(self, model, spec):
        self.parent = model
        self.spec = spec
        self.splitting = build_splitting(model, spec)
        self.rank_d = self.splitting.rank_d
        d = self.splitting.d_basis
        # one product with kron(d, d)^T takes a flattened (rank_e, rank_e)
        # block a to the flattened d a d^T
        self._kron_dd = np.kron(d, d).T
        self.dim_q = model.dim_q

    @property
    def constant_drift(self):
        """True when Gamma is constant and there is no potential, so that the
        drift Gamma(y, y) has no q-Jacobian and one Gamma serves every row."""
        return self.parent.q_independent and (self.dim_q == 0 or self.parent.zero_potential)

    def fiber_row(self, q, y):
        """Validate and coerce one row: a chart point (None means the origin)
        and a fiber velocity of shape (rank_d,)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.rank_d,):
            raise DimensionMismatch(f"fiber velocity has shape {y.shape}, not ({self.rank_d},)")
        if not np.isfinite(y).all():
            raise ValidationError("fiber velocity has non-finite entries")
        return self.parent.chart_point(q), y

    def drift(self, q, y, geo, grad_v=None):
        """The drift Gamma(y, y) + grad V at chart points q and fiber
        velocities y, from the geometry record ``geo`` there: one row, or
        stacks with a matching leading axis; the free flow has ydot = -drift.
        A caller that keeps grad V at q passes it as ``grad_v``."""
        acc = np.einsum("...cab,...a,...b->...c", geo["gamma"], y, y)
        if grad_v is None and self.dim_q == 0:
            return acc
        return acc + (self._grad_v(q, geo) if grad_v is None else grad_v)

    @staticmethod
    def drift_dy(y, geo):
        """d(drift)/dy = Gamma(., y) + Gamma(y, .) from the record ``geo``, any leading shape."""
        g = geo["gamma"]
        return np.einsum("...cab,...b->...ca", g, y) + np.einsum("...cab,...a->...cb", g, y)

    def drift_rows(self, qs, ys):
        """(drift, d/dq, d/dy, record) at the rows of the stacks qs (B, dim_q)
        and ys (B, rank_d), each with a leading axis B, the record that of
        ``geometry_rows`` at qs.  One stacked build covers the rows and their
        central-difference points (``numerics.central_stencil``), so d/dq has
        the floats of ``fd_jacobian`` of the drift at each row, or of grad V
        alone on a chart-independent model, whose Gamma is constant."""
        n, b = self.dim_q, len(qs)
        points = numerics.central_stencil(qs)
        geo = self.geometry_rows(points)
        rows = {k: v[:b] for k, v in geo.items()}
        if self.parent.q_independent:  # Gamma is constant: only grad V varies
            varying = self._grad_v(points, geo)
            drift = self.drift(qs, ys, rows, varying[:b])
        else:
            stencil_ys = np.concatenate([ys] + [np.repeat(ys, n, axis=0)] * 2)
            varying = self.drift(points, stencil_ys, geo)
            drift = varying[:b]
        return drift, numerics.central_differences(varying, n), self.drift_dy(ys, rows), rows

    def _grad_v(self, q, geo):
        """grad V = (G^D)^{CB} rho^i_B dV/dq^i at chart points q, one point or
        a stack, from the geometry record ``geo`` there."""
        if self.dim_q == 0 or self.parent.zero_potential:
            return np.zeros(np.shape(q)[:-1] + (self.rank_d,))
        rhs = numerics.matvec_rows(geo["anchor_d"], self.parent.potential_dq(q))
        return numerics.matvec_rows(geo["metric_d_inv"], rhs)

    def geometry_rows(self, qs):
        """Projected data at every row of a stack of chart points (B, dim_q):
        the record of ``geometry`` with a leading axis B on each array, from
        one stacked build; a chart-independent model broadcasts its one
        record.  Read-only."""
        qs = np.asarray(qs, dtype=float)
        if qs.ndim != 2 or qs.shape[1] != self.dim_q or len(qs) == 0:
            raise DimensionMismatch(f"chart points must have shape (B, {self.dim_q}), B > 0")
        if self.parent.q_independent:
            return {k: np.broadcast_to(v, (len(qs),) + v.shape)
                    for k, v in self._constant_geometry.items()}
        return _chart_geometry(self, qs)

    def geometry(self, q):
        """Projected data at q: structure_d, anchor_d, metric_d, metric_d_inv
        and gamma, row 0 of a one-row build, or the one record of a
        chart-independent model.  Read-only."""
        q = self.parent.chart_point(q)
        if self.parent.q_independent:
            return self._constant_geometry
        return {k: v[0] for k, v in _chart_geometry(self, q[None]).items()}

    @functools.cached_property
    def _constant_geometry(self):
        """The one record of a chart-independent model, built on first use."""
        return {k: v[0] for k, v in _chart_geometry(self, np.zeros((1, self.dim_q))).items()}

    def structure_d(self, q=None):
        return self.geometry(q)["structure_d"]

    def anchor_d(self, q=None):
        return self.geometry(q)["anchor_d"]

    def metric_d(self, q=None):
        return self.geometry(q)["metric_d"]

    def gamma(self, q=None):
        """Christoffel symbols of the restricted metric at q, from the full
        Koszul formula (solved with the checked inverse of G^D).

        ``gamma[c, a, b]`` solves the Koszul relation for nabla_{e_a} e_b
        along e_c; torsion identity: gamma[:, a, b] - gamma[:, b, a] =
        structure_d[:, a, b].  The three anchor-derivative terms use the
        model partials (complex-step or finite-difference derivatives by
        default) and vanish identically for chart-independent models; the
        three bracket terms use the projected structure functions.  Built
        with the rest of the geometry at q.
        """
        return self.geometry(q)["gamma"]

    def metric_d_dq(self, q=None):
        """Stacked chart derivatives of the restricted metric."""
        q = self.parent.chart_point(q)
        return np.einsum("iAB,aA,bB->iab", self.parent.metric_dq(q), *[self.splitting.d_basis] * 2)

    def anchor_d_dq(self, q=None):
        """Stacked chart derivatives of the restricted anchor; a stack of
        chart points (B, dim_q) gives a leading axis B."""
        q = q if np.ndim(q) == 2 else self.parent.chart_point(q)
        return np.einsum("...iAj,aA->...iaj", self.parent.anchor_dq(q), self.splitting.d_basis)

    def energy(self, q, y):
        """Restricted kinetic energy plus potential, conserved by the free flow.

        One formula over stacks of rows q (B, dim_q) and y (B, rank_d) from one
        stacked geometry build; a single call is its one-row case.  Only a
        model with a potential has it called, once per row.
        """
        if np.ndim(y) == 1:
            q, y = self.fiber_row(q, y)
            return self.energy(q[None], y[None])[0]
        q, y = np.asarray(q, dtype=float), np.asarray(y, dtype=float)
        if y.shape != (len(q), self.rank_d):
            raise DimensionMismatch(f"fiber rows must have shape ({len(q)}, {self.rank_d})")
        return self._energies(q, y, self.geometry_rows(q))

    def _energies(self, qs, ys, geo):
        """Energies at the rows of qs and ys from their stacked record ``geo``."""
        energy = 0.5 * (ys * numerics.matvec_rows(geo["metric_d"], ys)).sum(axis=1)
        if self.parent.zero_potential:
            return energy
        return energy + np.array([float(self.parent.potential(q)) for q in qs])


def build_constrained_system(model, spec):
    """Assemble the constrained system (splitting validated at the origin)."""
    return ConstrainedSystem(model, spec)


def grad_potential(system, q=None):
    """Metric gradient of the potential on D: (G^D)^{CB} rho^i_B dV/dq^i."""
    return system._grad_v(system.parent.chart_point(q), system.geometry(q))
