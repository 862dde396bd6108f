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
case.  One step, ``_split``, splits E = D + D-perp for every build, and the
geometry record is the one home of that splitting: its ``coeff_map`` maps a
vector of E to the adapted coefficients of its projection onto D, so the
projector is P = d_basis^T coeff_map.  The projected bracket has its one home
in the stacked build, and the drift Gamma(y, y) + grad V that every flow
reads has its one home here too.
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
    e.g. ``metric_dq(q)[i] == d metric / d q^i``; the one place that reads
    them is ``AlgebroidModel.partials_at``.  Fields left as None are
    computed by the complex step, exact to rounding: the model callable is
    evaluated at q + i h e_i, and a geometry build takes the partials of all
    the callables it reads in one pass (``numerics.complex_step_pass``).  At
    a point where a callable drops the imaginary part, in every entry or in
    some (which a check along one direction detects), they are central
    finite differences with step ``numerics.FD_STEP``; the anchor's at the
    rows of ``ConstrainedSystem.drift_rows`` are read from the anchor values
    of the build's stencil, the same points and formula.  The structure
    functions need none: the Koszul formula does not read them.
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
    vanish identically.  ``potential`` is None for a model without
    potential: it is then never called, and grad V is zero.

    The anchor, metric and potential of a chart-dependent model without
    analytic ``partials`` are differentiated by the complex step, so their
    callables should accept a complex chart point and be holomorphic in it
    in every entry (numpy's elementary functions are; ``abs``, ``real``,
    ``conj`` and norms are not).  At a point where a callable drops the
    imaginary part (returns a real array, raises TypeError, casts complex to
    real, or drops it in some entries only) it is differentiated by central
    finite differences, about 1e-10 accurate.
    Every callable is called with one chart point at a time: per point, the
    geometry and grad V call the metric 1 + dim_q + 2 times, a potential
    dim_q + 2 times, and the structure and the anchor once, and invert G^D
    once; that checked inverse serves the projection, Koszul solve and grad V.
    A stacked build differentiates all these callables in one complex-step
    pass: the metric, the potential (every record with a chart holds grad
    V), and in ``drift_rows`` the anchor at the rows only, dim_q more calls
    per row.
    The shape of each callable's value is checked once, at the origin, when
    a ``ConstrainedSystem`` is made.  ``partials_at`` is the one entry to
    the fields' partials.
    """

    dim_q: int
    rank_e: int
    structure: Callable[[np.ndarray], np.ndarray]
    anchor: Callable[[np.ndarray], np.ndarray]
    metric: Callable[[np.ndarray], np.ndarray]
    potential: Optional[Callable[[np.ndarray], float]] = None
    partials: ModelPartials = field(default_factory=ModelPartials)
    q_independent: bool = False

    def chart_point(self, q=None):
        """Validate and coerce a chart point (None means the origin)."""
        if q is None:
            return np.zeros(self.dim_q)
        return numerics.checked_array(q, "chart point", (self.dim_q,))

    def field_shape(self, name):
        """Shape of the value of the model field ``name`` at one chart point."""
        r = self.rank_e
        return {"structure": (r, r, r), "anchor": (r, self.dim_q), "metric": (r, r),
                "potential": ()}[name]

    def partials_at(self, fd=None, **points):
        """Stacked q-derivatives of the named fields ("anchor", "metric",
        "potential"), each at its own chart point or stack of chart points:
        ``partials_at(metric=qs, anchor=rows)``.  Analytic partials win, a
        constant field's are zero, and the rest come from one complex-step
        pass (``numerics.complex_step_pass``), which takes the central
        differences ``fd[name]`` the caller holds in place of its own."""
        out, names, jobs = {}, [], []
        for name, q in points.items():
            analytic = getattr(self.partials, name + "_dq")
            constant = self.potential is None if name == "potential" else self.q_independent
            if constant or self.dim_q == 0:
                out[name] = np.zeros(np.shape(q)[:-1] + (self.dim_q,) + self.field_shape(name))
            elif analytic is not None:
                out[name] = (_at_points(analytic, q) if np.ndim(q) == 2
                             else np.asarray(analytic(q), dtype=float))
            else:
                names.append(name)
                jobs.append((getattr(self, name), q, None if fd is None else fd.get(name)))
        if jobs:
            out.update(zip(names, numerics.complex_step_pass(jobs)))
        return out


def constant_model(structure, metric, anchor=None, dim_q=0, potential=None):
    """Model with constant structure functions, metric and anchor.

    With ``dim_q == 0`` this is a Lie(-like) algebra over a point: the anchor
    is the empty map and every chart derivative vanishes identically.
    """
    metric = numerics.checked_array(metric, "metric")
    rank_e = metric.shape[0]
    structure = numerics.checked_array(structure, "structure constants", (rank_e,) * 3)
    if np.abs(structure + structure.swapaxes(1, 2)).max() > 1e-12:
        raise DimensionMismatch("structure constants are not antisymmetric in the lower indices")
    anchor = (np.zeros((rank_e, dim_q)) if anchor is None
              else numerics.checked_array(anchor, "anchor", (rank_e, dim_q)))
    return AlgebroidModel(
        dim_q=dim_q, rank_e=rank_e,
        structure=lambda q, _c=structure: _c,
        anchor=lambda q, _a=anchor: _a,
        metric=lambda q, _g=metric: _g,
        potential=potential, q_independent=True)


@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """Linear velocity constraint D, as a fiber span or an annihilator.

    Exactly one of ``span_basis`` (rank_d x rank_e, rows spanning D) or
    ``annihilator`` ((rank_e - rank_d) x rank_e, rows mu with D = ker mu)
    must be given.  Rows must be independent (rank tolerance 1e-10), and D
    must not be {0}: an empty span (``[]``, ``[[]]`` or no rows) or an
    annihilator of full rank raises RankDeficient.  An annihilator without
    columns raises DimensionMismatch: no constraint on E is the (0, rank_e)
    annihilator.
    """

    span_basis: Optional[np.ndarray] = None
    annihilator: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.span_basis is None) == (self.annihilator is None):
            raise DimensionMismatch("give exactly one of span_basis or annihilator")
        if self.span_basis is not None:
            arr = np.atleast_2d(numerics.checked_array(self.span_basis, "span basis"))
            if arr.size == 0:  # [] and [[]] read as one row of length 0
                arr = arr.reshape(0, arr.shape[1])
            numerics.check_full_rank(arr, what="span basis")
            object.__setattr__(self, "span_basis", arr)
        else:
            arr = np.atleast_2d(numerics.checked_array(self.annihilator, "annihilator"))
            if arr.shape[1] == 0:
                raise DimensionMismatch("an empty annihilator must have shape (0, rank_e)")
            numerics.check_full_rank(arr, what="annihilator")
            object.__setattr__(self, "annihilator", arr)
        if self.rank_d() == 0:
            raise RankDeficient("the constraint leaves D = {0}, which carries no motion")

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


def _at_points(f, qs):
    """Stack of f(q) over the rows of qs: model callables see one chart point
    at a time."""
    return np.array([f(q) for q in qs], dtype=float)


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


def _grad_v(geo, dv):
    """grad V = (G^D)^{CB} rho^i_B dV/dq^i from the geometry record ``geo``
    and the potential partials ``dv`` at its chart points, one point or a
    stack."""
    return numerics.matvec_rows(geo["metric_d_inv"], numerics.matvec_rows(geo["anchor_d"], dv))


def _chart_geometry(system, qs, anchor_rows=0):
    """Projected data at every row of the chart-point stack qs (B, dim_q) in
    one flat pass, each step one product over the stack; each array has a
    leading axis B.

    The model partials that the build reads come from one complex-step pass:
    the metric's and the potential's, and a record with a chart holds grad V
    ("grad_v"; zeros without a potential, and on a chart-independent model,
    whose readers add grad V at their own points).  With ``anchor_rows`` b > 0, qs
    is its first b rows followed by their ``numerics.central_stencil``, and
    the record also holds the chart derivatives of the restricted anchor at
    those rows ("anchor_d_dq", leading axis b); where the anchor drops the
    imaginary part they are the central differences of the stencil's anchor
    values.
    """
    model, d, kron_dd = system.parent, system.d_basis, system._kron_dd
    b, r, n = len(qs), len(d), model.dim_q
    g = _at_points(model.metric, qs)
    gd, gd_inv, coeff_map = _split(d, g)
    # the projected bracket: adapted coefficients of P[e_a, e_b]_E.  The
    # adapted frame has constant E-frame coefficients, so no anchor terms.
    c = _at_points(model.structure, qs).reshape(b, model.rank_e, -1)
    s = (coeff_map @ (c @ kron_dd)).reshape(b, r, r, r)
    cd = 0.5 * (s - s.swapaxes(-1, -2))
    anchor = _at_points(model.anchor, qs)
    rho = d @ anchor
    chart = n > 0 and not model.q_independent
    points = {"metric": qs} if chart else {}
    if chart and model.potential is not None:  # else ``_with_grad_v`` adds grad V
        points["potential"] = qs
    fd = None
    if anchor_rows:
        points["anchor"] = qs[:anchor_rows]
        fd = {"anchor": numerics.stencil_partials(anchor[anchor_rows:], anchor_rows)}
    dq = model.partials_at(fd, **points)
    # Koszul: 2 G^D Gamma[c, a, b] = T[a, c, b] + T[b, c, a] - T[c, b, a] with
    # T = G^D c_D, plus U[a, b, c] + U[b, a, c] - U[c, a, b] with U = rho dG^D
    t = (gd @ cd.reshape(b, r, r * r)).reshape(b, r, r, r)
    rhs = t.transpose(0, 2, 1, 3) + t.transpose(0, 2, 3, 1) - t.swapaxes(2, 3)
    if chart:
        u = (rho @ (dq["metric"].reshape(b, n, -1) @ kron_dd)).reshape(b, r, r, r)
        rhs += u.transpose(0, 3, 1, 2) + u.transpose(0, 3, 2, 1) - u
    gamma = 0.5 * (gd_inv @ rhs.reshape(b, r, r * r)).reshape(b, r, r, r)
    geo = {"structure_d": cd, "anchor_d": rho, "metric_d": gd, "metric_d_inv": gd_inv,
           "coeff_map": coeff_map, "gamma": gamma}
    if n:
        geo["grad_v"] = (_grad_v(geo, dq["potential"]) if "potential" in dq
                         else np.zeros((b, r)))
    if anchor_rows:
        geo["anchor_d_dq"] = np.einsum("...iAj,aA->...iaj", dq["anchor"], d)
    return geo


class ConstrainedSystem:
    """The skew-symmetric algebroid induced on the constraint subbundle D.

    Wraps a parent model plus a constraint; ``geometry(q)`` reads the
    projected structure functions, restricted anchor/metric, Christoffel
    symbols and potential gradient at a chart point as one record.  Values
    are immutable.
    ``geometry_rows`` builds a whole stack of chart points in one pass, and a
    single point is its one-row case.  The origin is built once, when the
    system is made, which checks the metric there; a chart-independent model
    keeps that record for every point.
    It is the one home of the drift Gamma(y, y) + grad V and its Jacobians:
    ``drift``, ``drift_dy`` and, on stacks from one build, ``drift_rows``.
    """

    def __init__(self, model, spec):
        self.parent = model
        self.dim_q = model.dim_q
        self.d_basis = d = spec.d_basis()
        if d.shape[1] != model.rank_e:
            raise DimensionMismatch(
                f"constraint is on a rank-{d.shape[1]} bundle, model has rank {model.rank_e}")
        self.rank_d = len(d)
        origin = np.zeros(self.dim_q)
        for name in ("structure", "anchor", "metric", "potential"):
            f, expected = getattr(model, name), model.field_shape(name)
            if f is not None and (shape := np.shape(f(origin))) != expected:
                raise DimensionMismatch(
                    f"model {name} has shape {shape} at the origin, expected {expected}")
        # one product with kron(d, d)^T takes a flattened (rank_e, rank_e)
        # block a to the flattened d a d^T
        self._kron_dd = np.kron(d, d).T
        record = {k: v[0] for k, v in _chart_geometry(self, origin[None]).items()}
        self._constant = record if model.q_independent else None

    @property
    def constant_drift(self):
        """True when Gamma is constant and there is no potential, so that the
        drift Gamma(y, y) has no q-Jacobian and one Gamma serves every row."""
        return self.parent.q_independent and (self.dim_q == 0 or self.parent.potential is None)

    def fiber_row(self, q, y):
        """Validate and coerce one row: a chart point (None means the origin)
        and a fiber velocity of shape (rank_d,)."""
        y = numerics.checked_array(y, "fiber velocity", (self.rank_d,))
        return self.parent.chart_point(q), y

    def drift(self, y, geo):
        """The drift Gamma(y, y) + grad V at fiber velocities y, from the
        geometry record ``geo`` at their chart points: one row, or stacks
        with a matching leading axis; the free flow has ydot = -drift.
        Without a chart there is no grad V to add."""
        acc = np.einsum("...cab,...a,...b->...c", geo["gamma"], y, y)
        return acc + geo["grad_v"] if self.dim_q else acc

    @staticmethod
    def drift_dy(y, geo):
        """d(drift)/dy = Gamma(., y) + Gamma(y, .) from the record ``geo``, any leading shape."""
        g = geo["gamma"]
        return np.einsum("...cab,...b->...ca", g, y) + np.einsum("...cab,...a->...cb", g, y)

    def drift_rows(self, qs, ys):
        """(drift, d/dq, d/dy, record) at the rows of the stacks qs (B, dim_q)
        and ys (B, rank_d), each with a leading axis B, the record that of
        ``geometry_rows`` at qs with grad V and the chart derivatives of the
        restricted anchor ("grad_v", "anchor_d_dq").  One stacked build covers
        the rows and their central-difference points
        (``numerics.central_stencil``), so d/dq has the floats of
        ``fd_jacobian`` of the drift at each row, or of grad V alone on a
        chart-independent model, whose Gamma is constant; its one
        complex-step pass takes the partials of the metric, the potential and
        the anchor, the last at the rows only."""
        n, b = self.dim_q, len(qs)
        points = np.concatenate([qs, numerics.central_stencil(qs)])
        geo = self.geometry_rows(points, anchor_rows=b)
        rows = {k: v[:b] for k, v in geo.items()}
        if self.parent.q_independent:  # Gamma is constant: only grad V varies
            varying = geo["grad_v"]
            drift = self.drift(ys, rows)
        else:
            stencil_ys = np.concatenate([ys] + [np.repeat(ys, n, axis=0)] * 2)
            varying = self.drift(stencil_ys, geo)
            drift = varying[:b]
        return drift, numerics.central_differences(varying[b:], b), self.drift_dy(ys, rows), rows

    def _with_grad_v(self, geo, q):
        """The record ``geo`` of a chart-independent model with grad V at its
        chart points q, one point or a stack: its one record holds grad V = 0,
        which is grad V everywhere only without a potential."""
        if self.dim_q == 0 or self.parent.potential is None:
            return geo
        return dict(geo, grad_v=_grad_v(geo, self.parent.partials_at(potential=q)["potential"]))

    def geometry_rows(self, qs, anchor_rows=0):
        """Projected data at every row of a stack of chart points (B, dim_q):
        the record of ``geometry`` with a leading axis B on each array, from
        one stacked build; a chart-independent model broadcasts its one
        record, with grad V at qs.  With ``anchor_rows`` b > 0, qs is its
        first b rows followed by their central stencil, and the record holds
        the anchor's chart derivatives there (see ``_chart_geometry``).
        Read-only.  Raises ValidationError for text or a ragged list; it
        checks no finiteness, since it reads the states of a flow."""
        qs = numerics._float_array(qs, "chart points")
        if qs.ndim != 2 or qs.shape[1] != self.dim_q or len(qs) == 0:
            raise DimensionMismatch(f"chart points must have shape (B, {self.dim_q}), B > 0")
        if self._constant is None:
            return _chart_geometry(self, qs, anchor_rows)
        geo = {k: np.broadcast_to(v, (len(qs),) + v.shape) for k, v in self._constant.items()}
        if anchor_rows:  # a constant anchor has zero chart derivatives
            geo["anchor_d_dq"] = np.zeros((anchor_rows, self.dim_q, self.rank_d, self.dim_q))
        return self._with_grad_v(geo, qs)

    def geometry(self, q=None):
        """Projected data at q (None means the origin): structure_d, anchor_d,
        metric_d, metric_d_inv, coeff_map and gamma, and with a chart grad V,
        row 0 of a one-row build, or the one record of a chart-independent
        model.  The one read of each of them.  Read-only."""
        return self._geometry_at(self.parent.chart_point(q))

    def _geometry_at(self, q):
        """The record of ``geometry`` at a chart point that ``chart_point``
        has already checked."""
        if self._constant is not None:
            return self._with_grad_v(self._constant, q)
        return {k: v[0] for k, v in _chart_geometry(self, q[None]).items()}

    # the one per-key read kept beside ``geometry``: perfbench/tracing.py times
    # the Christoffel reads under this name
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

    def energy(self, q, y):
        """Restricted kinetic energy plus potential, conserved by the free flow.

        One formula over stacks of rows q (B, dim_q) and y (B, rank_d); a
        single call is its one-row case.  It reads G^D only: on a
        chart-dependent model one metric call per row, split as a geometry
        build splits it (the same SPD check and checked inverse), and no
        other part of the build.  Only a model with a potential has it
        called, once per row.  Raises ValidationError for a non-finite or
        non-numeric entry, before any call.
        """
        y = numerics.checked_array(y, "fiber velocity")
        one = y.ndim == 1
        q = (self.parent.chart_point(q) if one
             else numerics.checked_array(q, "chart points", (len(y), self.dim_q)))
        if y.shape != q.shape[:-1] + (self.rank_d,):
            raise DimensionMismatch(f"fiber velocity has shape {y.shape}, "
                                    f"expected {q.shape[:-1] + (self.rank_d,)}")
        qs, ys = (q[None], y[None]) if one else (q, y)
        if self._constant is not None:
            metric_d = self._constant["metric_d"]
        else:
            metric_d = _split(self.d_basis, _at_points(self.parent.metric, qs))[0]
        energies = self._energies(qs, ys, metric_d)
        return energies[0] if one else energies

    def _energies(self, qs, ys, metric_d):
        """Energies at the rows of qs and ys from G^D there, one matrix or a
        stack."""
        energy = 0.5 * (ys * numerics.matvec_rows(metric_d, ys)).sum(axis=1)
        if self.parent.potential is None:
            return energy
        return energy + np.array([float(self.parent.potential(q)) for q in qs])


# perfbench/workloads.py builds its systems under this name
build_constrained_system = ConstrainedSystem
