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
here, on a stack of chart points at once, and cached per chart point.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import numerics
from .errors import DimensionMismatch, RankDeficient, SingularMetric


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
    Every callable is called with one chart point at a time.
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
    of v onto D, orthogonal for the bundle ``metric`` at the point.  The
    projectors and the D-perp basis are derived on access; no flow reads them.
    Inside a stacked geometry build ``metric`` and ``coeff_map`` carry a
    leading axis, one entry per chart point.
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
    return np.stack([np.asarray(f(q), dtype=float) for q in qs])


def _split(d, g):
    """Splitting for the adapted basis d and the bundle metric g, one matrix
    or a stack of them (leading axis), each checked positive-definite."""
    if not numerics.symmetric_positive_definite(g):
        raise SingularMetric("bundle metric is not symmetric positive-definite at q")
    dg = d @ g
    try:
        coeff = np.linalg.solve(dg @ d.T, dg)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("restricted metric Gram matrix is singular") from exc
    return OrthogonalSplitting(d_basis=d, metric=g, coeff_map=coeff)


def build_splitting(model, spec, q=None):
    """Adapted basis of D and the coefficient map of the orthogonal
    projection onto it at q, for a metric checked positive-definite there."""
    q = model.chart_point(q)
    d = spec.d_basis()
    if d.shape[1] != model.rank_e:
        raise DimensionMismatch(
            f"constraint is on a rank-{d.shape[1]} bundle, model has rank {model.rank_e}")
    return _split(d, np.asarray(model.metric(q), dtype=float))


def _bracket(c, splitting):
    """Projected structure functions for the E-frame structure functions c,
    one point or a stack matching the splitting's."""
    d = splitting.d_basis
    bracket = np.einsum("...cAB,aA,bB->...cab", c, d, d)
    s = np.einsum("...cE,...Eab->...cab", splitting.coeff_map, bracket)
    return 0.5 * (s - s.swapaxes(-1, -2))


def project_bracket(model, splitting, q=None):
    """Structure functions of D: adapted coefficients of P[e_a, e_b]_E.

    The adapted frame has constant coefficients in the E-frame, so the
    bracket of frame sections carries no anchor-derivative terms.
    """
    q = model.chart_point(q)
    return _bracket(np.asarray(model.structure(q), dtype=float), splitting)


def restrict_metric(splitting):
    """Restricted metric G^D and its inverse in the adapted basis.

    A splitting on a stack of chart points (metric of shape (B, r, r)) gives
    stacks; every inverse is checked to a residual of 1e-12.
    """
    d = splitting.d_basis
    gd = d @ splitting.metric @ d.T
    gd = 0.5 * (gd + gd.swapaxes(-1, -2))
    try:
        gd_inv = np.linalg.inv(gd)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("restricted metric is singular") from exc
    residual = np.abs(gd @ gd_inv - np.eye(gd.shape[-1])).max()
    if not residual <= 1e-12:
        raise SingularMetric(f"restricted metric inverse residual {residual:.2e} > 1e-12")
    return gd, gd_inv


def _restrict_dq(dg, d):
    """Chart derivatives of the restricted metric from those of the bundle
    metric (chart index first, after any stack axis)."""
    return np.einsum("...iAB,aA,bB->...iab", dg, d, d)


def _chart_geometry(model, d, qs):
    """Projected data at every row of the chart-point stack qs (B, dim_q) in
    one pass: each model callable is called once per point, and every
    numeric step runs once on the stack.  Each array has a leading axis B."""
    split = _split(d, _at_points(model.metric, qs))
    gd, gd_inv = restrict_metric(split)
    geo = {
        "structure_d": _bracket(_at_points(model.structure, qs), split),
        "anchor_d": d @ _at_points(model.anchor, qs),
        "metric_d": gd,
        "metric_d_inv": gd_inv,
    }
    geo["gamma"] = _koszul_gamma(model, d, qs, geo)
    return geo


class ConstrainedSystem:
    """The skew-symmetric algebroid induced on the constraint subbundle D.

    Wraps a parent model plus a constraint and exposes the projected
    structure functions, restricted anchor/metric, Christoffel field and
    potential gradient as functions of the chart point.  Values are immutable;
    a small per-point cache makes repeated evaluation along trajectories cheap,
    and ``geometry_rows`` builds a whole stack of chart points in one pass.
    """

    def __init__(self, model, spec):
        self.parent = model
        self.spec = spec
        self.splitting = build_splitting(model, spec)
        self.rank_d = self.splitting.rank_d
        self.dim_q = model.dim_q
        self._cache = {}

    @property
    def constant_drift(self):
        """True when Gamma is constant and there is no potential, so that the
        drift Gamma(y, y) has no q-Jacobian and one Gamma serves every row."""
        return self.parent.q_independent and (self.dim_q == 0 or self.parent.zero_potential)

    def geometry_rows(self, qs):
        """Projected data at every row of a stack of chart points (B, dim_q):
        the record of ``geometry`` with a leading axis B on each array, from
        one stacked build.  Not cached; a chart-independent model broadcasts
        its one record.  Read-only."""
        qs = np.asarray(qs, dtype=float)
        if qs.ndim != 2 or qs.shape[1] != self.dim_q or len(qs) == 0:
            raise DimensionMismatch(f"chart points must have shape (B, {self.dim_q}), B > 0")
        if self.parent.q_independent:
            return {k: np.broadcast_to(v, (len(qs),) + v.shape)
                    for k, v in self.geometry(None).items()}
        return _chart_geometry(self.parent, self.splitting.d_basis, qs)

    def geometry(self, q):
        """Projected data at q, cached complete and never changed after:
        structure_d, anchor_d, metric_d, metric_d_inv and gamma.  The
        one-row case of ``geometry_rows``.  Read-only."""
        q = self.parent.chart_point(q)
        key = b"const" if self.parent.q_independent else q.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        stack = _chart_geometry(self.parent, self.splitting.d_basis, q[None])
        geo = {k: v[0] for k, v in stack.items()}
        if len(self._cache) > 64:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = geo
        return geo

    def structure_d(self, q=None):
        return self.geometry(q)["structure_d"]

    def anchor_d(self, q=None):
        return self.geometry(q)["anchor_d"]

    def metric_d(self, q=None):
        return self.geometry(q)["metric_d"]

    def metric_d_inv(self, q=None):
        return self.geometry(q)["metric_d_inv"]

    def gamma(self, q=None):
        """Christoffel symbols of the restricted metric at q, from the full
        Koszul formula (linear solve in G^D).

        ``gamma[c, a, b]`` solves the Koszul relation for nabla_{e_a} e_b
        along e_c; torsion identity: gamma[:, a, b] - gamma[:, b, a] =
        structure_d[:, a, b].  The three anchor-derivative terms use the
        model partials (complex-step or finite-difference derivatives by
        default) and vanish identically for chart-independent models; the
        three bracket terms use the projected structure functions.  Built
        with the rest of the geometry at q, so this is a lookup.
        """
        return self.geometry(q)["gamma"]

    def metric_d_dq(self, q=None):
        """Stacked chart derivatives of the restricted metric."""
        q = self.parent.chart_point(q)
        return _restrict_dq(self.parent.metric_dq(q), self.splitting.d_basis)

    def anchor_d_dq(self, q=None):
        """Stacked chart derivatives of the restricted anchor; a stack of
        chart points (B, dim_q) gives a leading axis B."""
        q = q if np.ndim(q) == 2 else self.parent.chart_point(q)
        return np.einsum("...iAj,aA->...iaj", self.parent.anchor_dq(q), self.splitting.d_basis)

    def energy(self, q, y):
        """Restricted kinetic energy plus potential, conserved by the free flow.

        Stacks of rows q (B, dim_q) and y (B, rank_d) give the B energies from
        one stacked geometry build, each with the floats of its single call.
        """
        y = np.asarray(y, dtype=float)
        if y.ndim == 2:
            q = np.asarray(q, dtype=float)
            if y.shape != (len(q), self.rank_d):
                raise DimensionMismatch(f"fiber rows must have shape ({len(q)}, {self.rank_d})")
            metrics = self.geometry_rows(q)["metric_d"]
            return np.array([0.5 * yk @ gk @ yk + float(self.parent.potential(qk))
                             for qk, yk, gk in zip(q, y, metrics)])
        q = self.parent.chart_point(q)
        return 0.5 * y @ self.metric_d(q) @ y + float(self.parent.potential(q))


def build_constrained_system(model, spec):
    """Assemble the constrained system (splitting validated at the origin)."""
    return ConstrainedSystem(model, spec)


def _koszul_gamma(model, d, qs, geo):
    """Christoffel symbols at each row of the chart-point stack qs from the
    stacked record ``geo`` (the solve of ``ConstrainedSystem.gamma``)."""
    gd = geo["metric_d"]
    cd = geo["structure_d"]
    rhs = (np.einsum("...am,...mcb->...cab", gd, cd)
           + np.einsum("...bm,...mca->...cab", gd, cd)
           - np.einsum("...cm,...mba->...cab", gd, cd))
    if model.dim_q > 0 and not model.q_independent:
        dgd = _restrict_dq(model.metric_dq(qs), d)
        rho = geo["anchor_d"]
        rhs = rhs + (np.einsum("...ai,...ibc->...cab", rho, dgd)
                     + np.einsum("...bi,...iac->...cab", rho, dgd)
                     - np.einsum("...ci,...iab->...cab", rho, dgd))
    try:
        return 0.5 * np.linalg.solve(gd, rhs.reshape(rhs.shape[:-2] + (-1,))).reshape(rhs.shape)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("restricted metric is singular in the Koszul solve") from exc


def potential_gradients(system, qs, geo):
    """Metric gradient of the potential at every row of the chart-point stack
    qs, from the stacked record ``geo`` there (``ConstrainedSystem.geometry_rows``)."""
    if system.dim_q == 0 or system.parent.zero_potential:
        return np.zeros((len(qs), system.rank_d))
    dv = system.parent.potential_dq(qs)
    rhs = numerics.matvec_rows(geo["anchor_d"], dv)
    try:
        grad = np.linalg.solve(geo["metric_d"], rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("restricted metric is singular in grad_potential") from exc
    # exact zeros where dV vanishes, as without the solve
    return np.where(dv.any(axis=-1)[:, None], grad, 0.0)


def grad_potential(system, q=None):
    """Metric gradient of the potential on D: (G^D)^{CB} rho^i_B dV/dq^i."""
    q = system.parent.chart_point(q)
    if system.dim_q == 0 or system.parent.zero_potential:
        return np.zeros(system.rank_d)
    geo = system.geometry(q)
    return potential_gradients(system, q[None], {k: v[None] for k, v in geo.items()})[0]
