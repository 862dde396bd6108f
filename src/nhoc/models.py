"""Built-in example systems and a JSON loader for constant-coefficient models."""

import json
from pathlib import Path

import numpy as np

from .algebroid import ConstraintSpec, constant_model
from .errors import (DimensionMismatch, NotPositiveDefinite, ParseError,
                     RankDeficient, ValidationError)
from .numerics import checked_array, symmetric_positive_definite


def so3_structure():
    """Structure constants of so(3): [e1,e2]=e3 and cyclic."""
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[k, i, j], c[k, j, i] = 1.0, -1.0
    return c


def se2_structure():
    """Structure constants of se(2) in the basis (E1, E2, E3).

    Sign convention as used for the sleigh: [E3,E1] = -E2, [E2,E3] = E1,
    [E1,E2] = 0.
    """
    c = np.zeros((3, 3, 3))
    c[1, 2, 0], c[1, 0, 2] = -1.0, 1.0
    c[0, 1, 2], c[0, 2, 1] = 1.0, -1.0
    return c


def make_suslov(I11=2.0, I22=3.0, I33=4.0, I13=0.1, I23=0.2):
    """Rigid body on so(3) with the angular-velocity constraint xi^3 = 0.

    The inertia operator couples the constrained axes to the forbidden one
    through I13, I23; those couplings drive the reduced drift.
    """
    inertia = np.array([[I11, 0.0, I13],
                        [0.0, I22, I23],
                        [I13, I23, I33]])
    if not symmetric_positive_definite(inertia):
        raise NotPositiveDefinite("inertia matrix is not positive-definite")
    model = constant_model(so3_structure(), inertia)
    return model, ConstraintSpec(annihilator=np.array([[0.0, 0.0, 1.0]]))


def make_chaplygin(m=1.0, J=1.0, a=1.0, b=0.0):
    """Chaplygin sleigh on se(2): blade at the origin, center of mass at (a, b).

    The metric is the Hessian of the kinetic energy
    (1/2)[(J + m(a^2+b^2)) w^2 + m v1^2 + m v2^2 - 2bm w v1 - 2am w v2]
    and the constraint kills the transverse velocity v2.  The adapted basis is
    passed as the ordered span {X = E3, Y = E1} so that y1 is the turning rate
    and y2 the blade-axis speed.
    """
    if m <= 0 or J <= 0:
        raise NotPositiveDefinite("need m > 0 and J > 0")
    metric = np.array([[m, 0.0, -b * m],
                       [0.0, m, -a * m],
                       [-b * m, -a * m, J + m * (a * a + b * b)]])
    if not symmetric_positive_definite(metric):
        raise NotPositiveDefinite("sleigh kinetic-energy metric is not positive-definite")
    model = constant_model(se2_structure(), metric)
    span = np.array([[0.0, 0.0, 1.0],
                     [1.0, 0.0, 0.0]])
    return model, ConstraintSpec(span_basis=span)


def make_double_integrator(n=1):
    """Unconstrained flat system on R^n: identity anchor and metric, D = E.

    Exercises every chart-dependent code path (multipliers, base dynamics)
    with trivially flat geometry.
    """
    if n < 1:
        raise DimensionMismatch("need n >= 1")
    model = constant_model(np.zeros((n, n, n)), np.eye(n), anchor=np.eye(n), dim_q=n)
    return model, ConstraintSpec(span_basis=np.eye(n))


BUILTIN_CONSTRUCTORS = {
    "suslov": make_suslov,
    "chaplygin": make_chaplygin,
    "double_integrator": make_double_integrator,
}


def make_builtin(name, **params):
    """Dispatch to a built-in constructor by name."""
    try:
        ctor = BUILTIN_CONSTRUCTORS[name]
    except KeyError:
        raise ValidationError(
            f"unknown builtin {name!r}; available: {sorted(BUILTIN_CONSTRUCTORS)}") from None
    try:
        if name == "double_integrator" and "n" in params:
            n = params["n"]  # --params hands over floats: 2.0 is n = 2, 1.5 is no n
            if isinstance(n, bool) or not float(n).is_integer():
                raise ValueError(f"n = {n!r} is not an integer")
            params = dict(params, n=int(n))
        return ctor(**params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad parameters for builtin {name!r}: {exc}") from None


_TOP_KEYS = {"name", "kind", "rank_e", "structure_constants", "metric", "constraint", "params"}


def _parse_document(document):
    if isinstance(document, dict):
        return document
    if isinstance(document, (str, Path)):
        path = Path(document)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ParseError(f"no such file: {path}") from None
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                             f"{exc.msg}") from None
    raise ParseError(f"unsupported config document type {type(document).__name__}")


def _require(doc, key, typ):
    if key not in doc:
        raise ValidationError(f"missing required field {key!r}")
    value = doc[key]
    if not isinstance(value, typ):
        raise ValidationError(f"field {key!r} must be of type {typ.__name__}")
    return value


def _structure_from_triples(rank_e, entries):
    c = np.zeros((rank_e, rank_e, rank_e))
    seen = np.zeros((rank_e, rank_e, rank_e), dtype=bool)
    for pos, entry in enumerate(entries):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 4):
            raise ValidationError(
                f"structure_constants[{pos}] must be [C, A, B, value]")
        ci, ai, bi, value = entry
        try:
            ci, ai, bi, value = int(ci), int(ai), int(bi), float(value)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"structure_constants[{pos}] has non-numeric fields") from None
        if not np.isfinite(value):
            raise ValidationError(f"structure_constants[{pos}] value is not finite")
        for idx in (ci, ai, bi):
            if not 0 <= idx < rank_e:
                raise ValidationError(
                    f"structure_constants[{pos}] index {idx} out of range for rank_e={rank_e}")
        if ai == bi:
            if value != 0.0:
                raise ValidationError(
                    f"structure_constants[{pos}]: C^{ci}_{ai}{bi} must vanish (antisymmetry)")
            continue
        for (x, y, v) in ((ai, bi, value), (bi, ai, -value)):
            if seen[ci, x, y] and c[ci, x, y] != v:
                raise ValidationError(
                    f"structure_constants[{pos}]: C^{ci}_{x}{y}={v} conflicts with "
                    f"previously implied value {c[ci, x, y]} (not antisymmetric)")
            c[ci, x, y] = v
            seen[ci, x, y] = True
    return c


def load_model_config(document):
    """Build (model, constraint) from a JSON config document or file path.

    Strict mode: unknown top-level fields are rejected.  Supported kinds are
    "builtin" (dispatches to the named constructor with ``params``) and
    "lie_algebra_constant" (constant structure constants and metric over a
    point, with the constraint given as an annihilator or a span).
    """
    doc = _parse_document(document)
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    name = _require(doc, "name", str)
    kind = _require(doc, "kind", str)
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("field 'params' must be an object")

    if kind == "builtin":
        extra = set(doc) - {"name", "kind", "params"}
        if extra:
            raise ValidationError(f"builtin configs do not take fields: {sorted(extra)}")
        return make_builtin(name, **params)

    if kind != "lie_algebra_constant":
        raise ValidationError(f"unknown kind {kind!r}")

    rank_e = _require(doc, "rank_e", int)
    if isinstance(rank_e, bool) or rank_e < 1:
        raise ValidationError("rank_e must be a positive integer")
    entries = _require(doc, "structure_constants", list)
    structure = _structure_from_triples(rank_e, entries)

    metric = checked_array(_require(doc, "metric", list), "metric")
    if metric.shape != (rank_e, rank_e):
        raise ValidationError(f"metric must be {rank_e}x{rank_e}")
    if np.abs(metric - metric.T).max() > 1e-12 * max(1.0, np.abs(metric).max()):
        raise ValidationError("metric is not symmetric")
    if not symmetric_positive_definite(metric):
        raise ValidationError("metric is not positive-definite")

    constraint = _require(doc, "constraint", dict)
    if set(constraint) == {"annihilator"}:
        rows = np.atleast_2d(checked_array(constraint["annihilator"], "constraint annihilator"))
        spec_kwargs = {"annihilator": rows}
    elif set(constraint) == {"span"}:
        rows = np.atleast_2d(checked_array(constraint["span"], "constraint span"))
        spec_kwargs = {"span_basis": rows}
    else:
        raise ValidationError("constraint must have exactly one of 'annihilator' or 'span'")
    if rows.shape[1] != rank_e:
        raise ValidationError(f"constraint rows must have length rank_e={rank_e}")
    try:
        spec = ConstraintSpec(**spec_kwargs)
    except RankDeficient as exc:
        raise ValidationError(str(exc)) from None

    model = constant_model(structure, metric)
    return model, spec
