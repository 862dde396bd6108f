"""Invariant suites run by the `check` command; reusable from tests."""

from dataclasses import dataclass

import numpy as np

from .algebroid import build_constrained_system, build_splitting
from .dynamics import StateQY, dalembert_oracle_field, nonholonomic_field
from .hamiltonian import (HamiltonianSystem, PhasePoint, inverse_legendre,
                          legendre_map, symplecticity_defect)
from .optimal_control import ControlDistribution, OCProblem, quadratic_cost


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float

    @property
    def passed(self):
        return self.value < self.threshold


def _random_chart_points(model, rng, count):
    """A stack (count, dim_q) of random chart points."""
    return 0.3 * rng.standard_normal((count, model.dim_q))


def check_projectors(model, spec, rng):
    """Idempotence, complementarity and metric-orthogonality of P and Q."""
    worst_idem, worst_comp, worst_orth = 0.0, 0.0, 0.0
    for q in _random_chart_points(model, rng, 3):
        split = build_splitting(model, spec, q)
        p, qq = split.projector_p, split.projector_q
        worst_idem = max(worst_idem, float(np.abs(p @ p - p).max()))
        worst_comp = max(worst_comp, float(np.abs(p + qq - np.eye(model.rank_e)).max()))
        g = np.asarray(model.metric(q), dtype=float)
        for _ in range(100):
            v = rng.standard_normal(model.rank_e)
            w = rng.standard_normal(model.rank_e)
            worst_orth = max(worst_orth, abs(float((p @ v) @ g @ (qq @ w))))
    return [CheckResult("projector idempotence", worst_idem, 1e-12),
            CheckResult("projector complement", worst_comp, 1e-12),
            CheckResult("projector metric orthogonality", worst_orth, 1e-10)]


def check_span_annihilator(model, spec):
    """Projectors agree between the span and annihilator representations."""
    from .algebroid import ConstraintSpec

    d = spec.d_basis()
    mu = spec.to_annihilator()
    split_span = build_splitting(model, ConstraintSpec(span_basis=d))
    if mu.shape[0] == 0:
        value = float(np.abs(split_span.projector_p - np.eye(model.rank_e)).max())
    else:
        split_ann = build_splitting(model, ConstraintSpec(annihilator=mu))
        value = float(np.abs(split_span.projector_p - split_ann.projector_p).max())
    return [CheckResult("span/annihilator projector agreement", value, 1e-10)]


def check_bracket_antisymmetry(system, rng):
    cd = system.geometry_rows(_random_chart_points(system.parent, rng, 3))["structure_d"]
    return [CheckResult("projected bracket antisymmetry",
                        float(np.abs(cd + cd.swapaxes(2, 3)).max()), 1e-14)]


def check_koszul(system, rng):
    """Defining relation of the Levi-Civita connection, with independent
    central differences of G^D (step 1e-5, as ``fd_partials`` takes them)
    for the anchor-derivative terms; one stacked geometry build covers the
    points and their neighbours."""
    n, count, step = system.dim_q, 3, 1e-5
    qs = _random_chart_points(system.parent, rng, count)
    steps = step * np.eye(n)
    near = np.concatenate([qs[:, None] + steps, qs[:, None] - steps], axis=1)
    geo = system.geometry_rows(np.concatenate([qs, near.reshape(2 * n * count, n)]))
    gd_near = geo["metric_d"][count:].reshape((count, 2, n) + geo["metric_d"].shape[1:])
    dgds = (gd_near[:, 0] - gd_near[:, 1]) / (2.0 * step)
    worst_koszul, worst_torsion = 0.0, 0.0
    # zip stops at the points, the first ``count`` rows of the build
    for gd, cd, gamma, rho, dgd in zip(geo["metric_d"], geo["structure_d"], geo["gamma"],
                                       geo["anchor_d"], dgds):
        lhs = 2.0 * np.einsum("cm,mab->cab", gd, gamma)
        rhs = ((np.einsum("am,mcb->cab", gd, cd)
                + np.einsum("bm,mca->cab", gd, cd)
                - np.einsum("cm,mba->cab", gd, cd))
               + (np.einsum("ai,ibc->cab", rho, dgd)
                  + np.einsum("bi,iac->cab", rho, dgd)
                  - np.einsum("ci,iab->cab", rho, dgd)))
        worst_koszul = max(worst_koszul, float(np.abs(lhs - rhs).max()))
        worst_torsion = max(worst_torsion,
                            float(np.abs(gamma - gamma.swapaxes(1, 2) - cd).max()))
    return [CheckResult("Koszul defining relation", worst_koszul, 1e-8),
            CheckResult("torsion identity", worst_torsion, 1e-10)]


def check_oracle(model, spec, system, rng):
    """nonholonomic_field against the Lagrange-d'Alembert solve (dim_q = 0)."""
    if model.dim_q != 0:
        return []
    d = spec.d_basis()
    worst = 0.0
    for _ in range(100):
        y = rng.uniform(-1.0, 1.0, system.rank_d)
        _, ydot = nonholonomic_field(system, StateQY(q=np.zeros(0), y=y))
        oracle = dalembert_oracle_field(model, spec, d.T @ y)
        worst = max(worst, float(np.abs(ydot - oracle).max()))
    return [CheckResult("Lagrange-d'Alembert oracle equivalence", worst, 1e-10)]


def _default_problem(system):
    return OCProblem(system=system, controls=ControlDistribution.full(system.rank_d),
                     cost=quadratic_cost(np.eye(system.rank_d)), horizon=1.0)


def check_legendre_roundtrip(system, rng):
    problem = _default_problem(system)
    worst = 0.0
    for _ in range(100):
        q = (np.zeros(0) if system.dim_q == 0
             else 0.3 * rng.standard_normal(system.dim_q))
        phase = PhasePoint(q=q, y=rng.uniform(-1, 1, system.rank_d),
                           p_q=rng.uniform(-1, 1, system.dim_q),
                           p_y=rng.uniform(-1, 1, system.rank_d))
        state = inverse_legendre(problem, phase)
        back = legendre_map(problem, state)
        worst = max(worst, float(np.abs(back.flat() - phase.flat()).max()))
    return [CheckResult("Legendre roundtrip", worst, 1e-10)]


def check_symplecticity(system):
    problem = _default_problem(system)
    hs = HamiltonianSystem(problem)
    n, m = system.dim_q, system.rank_d
    phase = PhasePoint(q=np.zeros(n), y=np.full(m, 0.3), p_q=np.full(n, 0.1),
                       p_y=np.full(m, 0.2))
    results = []
    for scheme in ("stormer_verlet", "symp_euler"):
        worst = max(symplecticity_defect(hs, phase, dt, scheme) for dt in (0.1, 0.01))
        results.append(CheckResult(f"symplecticity defect ({scheme})", worst, 1e-6))
    return results


def run_all(model, spec):
    """Full invariant suite for one model, with a fixed random seed; returns
    a list of CheckResults."""
    rng = np.random.default_rng(20260810)
    system = build_constrained_system(model, spec)
    results = []
    results += check_projectors(model, spec, rng)
    results += check_span_annihilator(model, spec)
    results += check_bracket_antisymmetry(system, rng)
    results += check_koszul(system, rng)
    results += check_oracle(model, spec, system, rng)
    results += check_legendre_roundtrip(system, rng)
    results += check_symplecticity(system)
    return results
