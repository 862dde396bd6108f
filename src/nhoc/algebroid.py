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
here and cached per chart point.
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
    e.g. ``metric_dq(q)[i] == d metric / d q^i``.  Fields left as None fall
    back to central finite differences with step ``numerics.FD_STEP``.
    """

    structure_dq: Optional[Callable] = None
    anchor_dq: Optional[Callable] = None
    metric_dq: Optional[Callable] = None
    potential_dq: Optional[Callable] = None


@dataclass(frozen=True)
class AlgebroidModel:
    """Evaluatable structure functions, anchor, metric and potential on a chart.

    ``q_independent`` marks models whose structure, anchor and metric do not
    depend on the chart point (always true when ``dim_q == 0``); it lets the
    downstream geometry skip derivative terms that vanish identically.
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

    # Stacked q-derivatives of the model fields; analytic partials win.
    def structure_dq(self, q):
        if self.q_independent or self.dim_q == 0:
            return np.zeros((self.dim_q, self.rank_e, self.rank_e, self.rank_e))
        if self.partials.structure_dq is not None:
            return np.asarray(self.partials.structure_dq(q), dtype=float)
        return numerics.fd_partials(self.structure, q)

    def anchor_dq(self, q):
        if self.q_independent or self.dim_q == 0:
            return np.zeros((self.dim_q, self.rank_e, self.dim_q))
        if self.partials.anchor_dq is not None:
            return np.asarray(self.partials.anchor_dq(q), dtype=float)
        return numerics.fd_partials(self.anchor, q)

    def metric_dq(self, q):
        if self.q_independent or self.dim_q == 0:
            return np.zeros((self.dim_q, self.rank_e, self.rank_e))
        if self.partials.metric_dq is not None:
            return np.asarray(self.partials.metric_dq(q), dtype=float)
        return numerics.fd_partials(self.metric, q)

    def potential_dq(self, q):
        if self.dim_q == 0:
            return np.zeros(0)
        if self.partials.potential_dq is not None:
            return np.asarray(self.partials.potential_dq(q), dtype=float)
        return numerics.fd_partials(lambda qq: np.asarray(self.potential(qq), dtype=float), q)


def constant_model(structure, metric, anchor=None, dim_q=0, potential=None,
                   potential_dq=None):
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
    zero_potential = potential is None
    if zero_potential:
        pot = lambda q: 0.0
        if potential_dq is None:
            potential_dq = lambda q, _z=np.zeros(dim_q): _z
    else:
        pot = potential
    partials = ModelPartials(potential_dq=potential_dq)
    return AlgebroidModel(
        dim_q=dim_q, rank_e=rank_e,
        structure=lambda q, _c=structure: _c,
        anchor=lambda q, _a=anchor: _a,
        metric=lambda q, _g=metric: _g,
        potential=pot, partials=partials, q_independent=True,
        zero_potential=zero_potential)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class OrthogonalSplitting:
    """Metric-orthogonal decomposition E = D + D-perp at a chart point.

    ``coeff_map @ v`` gives the adapted-basis coefficients of the projection
    of v onto D; ``projector_p = d_basis.T @ coeff_map``.
    """

    d_basis: np.ndarray
    dperp_basis: np.ndarray
    projector_p: np.ndarray
    projector_q: np.ndarray
    coeff_map: np.ndarray

    @property
    def rank_d(self):
        return self.d_basis.shape[0]


def build_splitting(model, spec, q=None):
    """Adapted bases of D and D-perp plus the orthogonal projectors at q."""
    q = model.chart_point(q)
    d = spec.d_basis()
    if d.shape[1] != model.rank_e:
        raise DimensionMismatch(
            f"constraint is on a rank-{d.shape[1]} bundle, model has rank {model.rank_e}")
    g = np.asarray(model.metric(q), dtype=float)
    if not numerics.symmetric_positive_definite(g):
        raise SingularMetric("bundle metric is not symmetric positive-definite at q")
    gram = d @ g @ d.T
    try:
        coeff = np.linalg.solve(gram, d @ g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("restricted metric Gram matrix is singular") from exc
    p = d.T @ coeff
    eye = np.eye(model.rank_e)
    dperp = numerics.rref_null_space(d @ g)
    return OrthogonalSplitting(d_basis=d, dperp_basis=dperp,
                               projector_p=p, projector_q=eye - p, coeff_map=coeff)


def project_bracket(model, splitting, q=None):
    """Structure functions of D: adapted coefficients of P[e_a, e_b]_E.

    The adapted frame has constant coefficients in the E-frame, so the
    bracket of frame sections carries no anchor-derivative terms.
    """
    q = model.chart_point(q)
    c = np.asarray(model.structure(q), dtype=float)
    d = splitting.d_basis
    bracket = np.einsum("cAB,aA,bB->cab", c, d, d)
    s = np.einsum("cE,Eab->cab", splitting.coeff_map, bracket)
    return 0.5 * (s - s.swapaxes(1, 2))


def restrict_metric(model, splitting, q=None):
    """Restricted metric G^D and its inverse in the adapted basis."""
    q = model.chart_point(q)
    g = np.asarray(model.metric(q), dtype=float)
    d = splitting.d_basis
    gd = d @ g @ d.T
    gd = 0.5 * (gd + gd.T)
    try:
        gd_inv = np.linalg.inv(gd)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("restricted metric is singular") from exc
    residual = np.abs(gd @ gd_inv - np.eye(gd.shape[0])).max()
    if residual > 1e-12:
        raise SingularMetric(f"restricted metric inverse residual {residual:.2e} > 1e-12")
    return gd, gd_inv


class ConstrainedSystem:
    """The skew-symmetric algebroid induced on the constraint subbundle D.

    Wraps a parent model plus a constraint and exposes the projected
    structure functions, restricted anchor/metric, Christoffel field and
    potential gradient as functions of the chart point.  Values are immutable;
    a small per-point cache makes repeated evaluation along trajectories cheap.
    """

    def __init__(self, model, spec, q_ref=None):
        self.parent = model
        self.spec = spec
        self.splitting = build_splitting(model, spec, q_ref)
        self.rank_d = self.splitting.rank_d
        self.dim_q = model.dim_q
        self._cache = {}

    def splitting_at(self, q):
        if self.parent.q_independent:
            return self.splitting
        return build_splitting(self.parent, self.spec, q)

    def geometry(self, q):
        """Projected data bundle at q, cached: structure_d, anchor_d, metric_d,
        metric_d_inv (plus gamma once requested).  Treat as read-only."""
        q = self.parent.chart_point(q)
        key = b"const" if self.parent.q_independent else q.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        split = self.splitting_at(q)
        gd, gd_inv = restrict_metric(self.parent, split, q)
        geo = {
            "split": split,
            "structure_d": project_bracket(self.parent, split, q),
            "anchor_d": split.d_basis @ np.asarray(self.parent.anchor(q), dtype=float),
            "metric_d": gd,
            "metric_d_inv": gd_inv,
        }
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
        model partials (finite differences by default) and vanish
        identically for chart-independent models; the three bracket terms
        use the projected structure functions.

        Cached alongside the projected data: gamma depends only on the
        metric, structure and anchor fields, which are what the cache key
        tracks (a single entry for chart-independent models).
        """
        geo = self.geometry(q)
        if "gamma" not in geo:
            geo["gamma"] = _koszul_gamma(self, self.parent.chart_point(q), geo)
        return geo["gamma"]

    def metric_d_dq(self, q=None):
        """Stacked chart derivatives of the restricted metric."""
        q = self.parent.chart_point(q)
        dg = self.parent.metric_dq(q)
        d = self.splitting.d_basis
        return np.einsum("iAB,aA,bB->iab", dg, d, d)

    def anchor_d_dq(self, q=None):
        q = self.parent.chart_point(q)
        da = self.parent.anchor_dq(q)
        return np.einsum("iAj,aA->iaj", da, self.splitting.d_basis)

    def energy(self, q, y):
        """Restricted kinetic energy plus potential, conserved by the free flow."""
        q = self.parent.chart_point(q)
        y = np.asarray(y, dtype=float)
        return 0.5 * y @ self.metric_d(q) @ y + float(self.parent.potential(q))


def build_constrained_system(model, spec, q_ref=None):
    """Assemble the constrained system (splitting validated at q_ref)."""
    return ConstrainedSystem(model, spec, q_ref)


def _koszul_gamma(system, q, geo):
    gd = geo["metric_d"]
    cd = geo["structure_d"]
    m = system.rank_d
    rhs = (np.einsum("am,mcb->cab", gd, cd)
           + np.einsum("bm,mca->cab", gd, cd)
           - np.einsum("cm,mba->cab", gd, cd))
    if system.dim_q > 0 and not system.parent.q_independent:
        dgd = system.metric_d_dq(q)
        rho = geo["anchor_d"]
        rhs = rhs + (np.einsum("ai,ibc->cab", rho, dgd)
                     + np.einsum("bi,iac->cab", rho, dgd)
                     - np.einsum("ci,iab->cab", rho, dgd))
    try:
        return 0.5 * np.linalg.solve(gd, rhs.reshape(m, -1)).reshape(m, m, m)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("restricted metric is singular in the Koszul solve") from exc


def grad_potential(system, q=None):
    """Metric gradient of the potential on D: (G^D)^{CB} rho^i_B dV/dq^i."""
    q = system.parent.chart_point(q)
    if system.dim_q == 0 or system.parent.zero_potential:
        return np.zeros(system.rank_d)
    dv = system.parent.potential_dq(q)
    if not dv.any():
        return np.zeros(system.rank_d)
    rhs = system.anchor_d(q) @ dv
    try:
        return np.linalg.solve(system.metric_d(q), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("restricted metric is singular in grad_potential") from exc
