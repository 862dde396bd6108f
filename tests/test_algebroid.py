from collections import Counter

import numpy as np
import pytest

from dataclasses import replace

from nhoc import (AlgebroidModel, ConstraintSpec, ModelPartials, StateQY, algebroid,
                  build_constrained_system, constant_model,
                  make_chaplygin, make_suslov, numerics, restrict_metric, simulate)
from nhoc.errors import DimensionMismatch, RankDeficient, SingularMetric, ValidationError
from nhoc.dynamics import drift_acceleration
from nhoc.optimal_control import drift_jacobians

from conftest import SUSLOV_PARAMS, curved_model, field_systems


def collinear(u, v, tol=1e-10):
    u, v = np.asarray(u, float), np.asarray(v, float)
    return np.abs(np.outer(u, v) - np.outer(v, u)).max() < tol


def projector(system, q=None):
    """P = d^T coeff_map at q, from the system's geometry record."""
    return system.d_basis.T @ system.geometry(q)["coeff_map"]


def complement_direction(system):
    """The one vector spanning the range of Q = I - P at the origin (D-perp)."""
    q = np.eye(system.parent.rank_e) - projector(system)
    assert np.linalg.matrix_rank(q) == 1
    return np.linalg.svd(q)[0][:, 0]


class TestSplitting:
    def test_suslov_adapted_basis_and_complement(self):
        system = build_constrained_system(*make_suslov(**SUSLOV_PARAMS))
        assert np.allclose(system.d_basis, [[1, 0, 0], [0, 1, 0]], atol=1e-14)
        I11, I22, I13, I23 = 2.0, 3.0, 0.1, 0.2
        z_expected = np.array([I22 * I13, I11 * I23, -I11 * I22])
        assert collinear(complement_direction(system), z_expected)

    def test_orthonormal_span_gives_diagonal_projector(self):
        model = constant_model(np.zeros((3, 3, 3)), np.eye(3))
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(3)[:2]))
        assert np.allclose(projector(system), np.diag([1.0, 1.0, 0.0]), atol=1e-14)

    def test_chaplygin_complement(self):
        # the complement must be metric-orthogonal to D; for the sleigh that
        # is the span of (abm, J+ma^2, am) in the (E1, E2, E3) frame
        m, J, a, b = 2.0, 1.5, 0.7, 0.3
        model, spec = make_chaplygin(m, J, a, b)
        system = build_constrained_system(model, spec)
        z = complement_direction(system)
        assert collinear(z, [a * b * m, J + m * a * a, a * m])
        g = model.metric(model.chart_point())
        assert np.abs(system.d_basis @ g @ z).max() < 1e-10

    def test_projector_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            model, spec = make_chaplygin(1.0 + rng.random(), 1.0 + rng.random(),
                                         rng.uniform(-1, 1), rng.uniform(-1, 1))
            system = build_constrained_system(model, spec)
            p = projector(system)
            q = np.eye(3) - p
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.abs(p + q - np.eye(3)).max() < 1e-14
            g = model.metric(model.chart_point())
            for _ in range(100):
                v = rng.standard_normal(3)
                w = rng.standard_normal(3)
                assert abs((p @ v) @ g @ (q @ w)) < 1e-10
            assert np.abs(p @ system.d_basis.T - system.d_basis.T).max() < 1e-12

    def test_span_and_annihilator_agree(self):
        model, spec = make_suslov(**SUSLOV_PARAMS)
        from_ann = build_constrained_system(model, spec)
        from_span = build_constrained_system(model, ConstraintSpec(span_basis=spec.d_basis()))
        assert np.abs(projector(from_ann) - projector(from_span)).max() < 1e-10

    def test_rank_deficient_spec(self):
        with pytest.raises(RankDeficient):
            ConstraintSpec(span_basis=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(RankDeficient):
            ConstraintSpec(annihilator=[[0.0, 1.0, 1.0], [0.0, 2.0, 2.0]])

    @pytest.mark.parametrize("spec", [dict(annihilator=np.eye(3)),
                                      dict(annihilator=[[1.0, 2.0], [0.0, 1.0]]),
                                      dict(span_basis=np.zeros((0, 3))),
                                      dict(span_basis=[]), dict(span_basis=[[]])],
                             ids=["identity_annihilator", "full_rank_annihilator", "empty_span",
                                  "empty_list_span", "empty_row_span"])
    def test_zero_subbundle_is_named(self, spec):
        with pytest.raises(RankDeficient, match=r"D = \{0\}"):
            ConstraintSpec(**spec)

    @pytest.mark.parametrize("annihilator", [[], [[]], np.zeros((0, 0))],
                             ids=["empty_list", "empty_row", "no_columns"])
    def test_empty_annihilator_needs_the_bundle_rank(self, annihilator):
        with pytest.raises(DimensionMismatch, match=r"shape \(0, rank_e\)"):
            ConstraintSpec(annihilator=annihilator)
        # with its columns it leaves D = E
        assert ConstraintSpec(annihilator=np.zeros((0, 3))).rank_d() == 3

    @pytest.mark.parametrize("field", ["span_basis", "annihilator"])
    def test_non_finite_spec(self, field):
        with pytest.raises(ValidationError):
            ConstraintSpec(**{field: [[np.nan, 1.0, 0.0]]})

    def test_non_positive_metric_rejected(self):
        model = constant_model(np.zeros((3, 3, 3)), np.eye(3))
        bad = AlgebroidReplaceMetric(model, np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(SingularMetric):
            build_constrained_system(bad, ConstraintSpec(span_basis=np.eye(3)[:2]))

    def test_constraint_of_another_rank_rejected(self):
        model = constant_model(np.zeros((3, 3, 3)), np.eye(3))
        with pytest.raises(DimensionMismatch, match="rank-2 bundle, model has rank 3"):
            build_constrained_system(model, ConstraintSpec(span_basis=[[1.0, 0.0]]))

    @pytest.mark.parametrize("model, spec, qs", [
        (*make_chaplygin(1.3, 0.8, 0.6, -0.4), np.zeros((3, 0))),
        (*make_chaplygin(1.7, 0.9, 0.5, 0.2), np.zeros((2, 0))),
        (curved_model(), ConstraintSpec(span_basis=[[1.0, 0.3], [0.2, 1.0]]),
         np.array([[-0.7], [0.35], [0.0]])),
    ], ids=["sleigh", "sleigh_offset", "curved"])
    def test_coefficient_map_is_the_one_of_the_geometry_build(self, model, spec, qs):
        system = build_constrained_system(model, spec)
        stack = system.geometry_rows(qs)["coeff_map"]
        for row, q in zip(stack, qs):
            geo = system.geometry(q)
            assert row.tobytes() == geo["coeff_map"].tobytes()
            g = model.metric(model.chart_point(q))
            assert row.tobytes() == (geo["metric_d_inv"] @ (system.d_basis @ g)).tobytes()

    def test_chart_independent_system_splits_its_metric_once(self, monkeypatch):
        counts = Counter()
        restrict = algebroid.restrict_metric
        monkeypatch.setattr(algebroid, "restrict_metric",
                            lambda d, g: counts.update(["split"]) or restrict(d, g))
        system = build_constrained_system(*make_chaplygin())
        assert counts["split"] == 1
        system.geometry(None)
        system.geometry_rows(np.zeros((4, 0)))
        system.gamma()
        drift_acceleration(system, None, [0.3, -0.2])
        simulate(system, StateQY(q=[], y=[0.3, -0.2]), 0.05, 0.01)
        assert counts["split"] == 1


def AlgebroidReplaceMetric(model, new_metric):
    from dataclasses import replace
    return replace(model, metric=lambda q: new_metric)


class TestProjectBracket:
    def test_suslov_constants(self):
        cd = build_constrained_system(*make_suslov(**SUSLOV_PARAMS)).structure_d()
        assert abs(cd[0, 0, 1] - 0.1 / 2.0) < 1e-14
        assert abs(cd[1, 0, 1] - 0.2 / 3.0) < 1e-14

    def test_chaplygin_constants(self):
        m, J, a, b = 1.3, 0.8, 0.6, -0.4
        cd = build_constrained_system(*make_chaplygin(m, J, a, b)).structure_d()
        assert abs(cd[0, 0, 1] - m * a / (J + m * a * a)) < 1e-13
        assert abs(cd[1, 0, 1] - m * a * b / (J + m * a * a)) < 1e-13

    def test_abelian_projects_to_zero(self):
        model = constant_model(np.zeros((4, 4, 4)), np.diag([1.0, 2.0, 3.0, 4.0]))
        spec = ConstraintSpec(annihilator=[[0.0, 0.0, 1.0, 1.0]])
        cd = build_constrained_system(model, spec).structure_d()
        assert np.abs(cd).max() == 0.0

    def test_exact_antisymmetry(self):
        cd = build_constrained_system(*make_chaplygin(1.7, 0.9, 0.5, 0.2)).structure_d()
        assert np.abs(cd + cd.swapaxes(1, 2)).max() < 1e-14


class TestRestrictMetric:
    def test_suslov_diagonal(self):
        model, spec = make_suslov(**SUSLOV_PARAMS)
        gd, gd_inv = restrict_metric(spec.d_basis(), model.metric(model.chart_point()))
        assert np.allclose(gd, np.diag([2.0, 3.0]), atol=1e-14)
        assert np.abs(gd @ gd_inv - np.eye(2)).max() < 1e-12

    def test_chaplygin_quadratic_form(self):
        m, J, a, b = 1.0, 1.0, 1.0, 0.5
        model, spec = make_chaplygin(m, J, a, b)
        gd, _ = restrict_metric(spec.d_basis(), model.metric(model.chart_point()))
        expected = np.array([[J + m * (a * a + b * b), -b * m], [-b * m, m]])
        assert np.abs(gd - expected).max() < 1e-14

    def test_identity_case(self):
        gd, gd_inv = restrict_metric(np.eye(3)[:2], np.eye(3))
        assert np.allclose(gd, np.eye(2), atol=1e-15)
        assert np.allclose(gd_inv, np.eye(2), atol=1e-15)

    def test_singular_restriction_raises(self):
        with pytest.raises(SingularMetric):
            restrict_metric(np.eye(2), np.zeros((2, 2)))


class TestChristoffel:
    def test_suslov_values(self, suslov_system):
        gamma = suslov_system.gamma()
        assert abs(gamma[0, 0, 1] - 0.05) < 1e-14
        assert abs(gamma[0, 1, 0]) < 1e-14
        assert abs(gamma[0, 1, 1] - 0.1) < 1e-14   # = I23 / I11
        assert abs(gamma[1, 0, 0] + 1.0 / 30.0) < 1e-14
        assert abs(gamma[1, 1, 0] + 1.0 / 15.0) < 1e-14

    def test_flat_model_is_zero(self):
        model = constant_model(np.zeros((3, 3, 3)), np.diag([1.0, 2.0, 5.0]))
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(3)[:2]))
        assert np.abs(system.gamma()).max() == 0.0

    def test_chaplygin_classical_case(self, chaplygin_system):
        gamma = chaplygin_system.gamma()
        y = np.array([1.0, 2.0])
        quad = np.einsum("cab,a,b->c", gamma, y, y)
        assert abs(quad[0] - 0.5 * y[0] * y[1]) < 1e-14
        assert abs(quad[1] + y[0] ** 2) < 1e-14
        assert abs(gamma[1, 0, 0] + 1.0) < 1e-14

    def test_chaplygin_offset_center_of_mass(self):
        # hand-solved Koszul system for m = J = a = b = 1
        model, spec = make_chaplygin(1.0, 1.0, 1.0, 1.0)
        system = build_constrained_system(model, spec)
        gamma = system.gamma()
        assert abs(gamma[0, 0, 0] + 0.5) < 1e-13
        assert abs(gamma[1, 0, 0] + 1.5) < 1e-13
        assert abs(gamma[0, 0, 1] - 0.5) < 1e-13
        assert abs(gamma[1, 0, 1] - 0.5) < 1e-13
        assert np.abs(gamma[:, 1, :]).max() < 1e-13

    def test_torsion_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            model, spec = make_chaplygin(0.5 + rng.random(), 0.5 + rng.random(),
                                         rng.uniform(-1, 1), rng.uniform(-1, 1))
            system = build_constrained_system(model, spec)
            gamma = system.gamma()
            cd = system.structure_d()
            assert np.abs(gamma - gamma.swapaxes(1, 2) - cd).max() < 1e-10

    def test_closed_form_matches_for_identity_metric(self):
        # Gamma^C_AB = (C^B_CA + C^A_CB + C^C_AB) / 2 holds when G^D = Id
        rng = np.random.default_rng(11)
        c_full = np.zeros((2, 2, 2))
        c_full[0, 0, 1], c_full[0, 1, 0] = 0.7, -0.7
        c_full[1, 0, 1], c_full[1, 1, 0] = -0.3, 0.3
        model = constant_model(c_full, np.eye(2))
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(2)))
        gamma = system.gamma()
        cd = system.structure_d()
        closed = 0.5 * (np.einsum("bca->cab", cd) + np.einsum("acb->cab", cd) + cd)
        assert np.abs(gamma - closed).max() < 1e-14

    def test_koszul_relation_with_chart_dependence(self):
        model = curved_model()
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(2)))
        for q0 in (-0.7, 0.2, 1.3):
            q = np.array([q0])
            gd = system.metric_d(q)
            cd = system.structure_d(q)
            gamma = system.gamma(q)
            lhs = 2.0 * np.einsum("cm,mab->cab", gd, gamma)

            def rhs_with(dgd):
                rho = system.anchor_d(q)
                return (np.einsum("am,mcb->cab", gd, cd)
                        + np.einsum("bm,mca->cab", gd, cd)
                        - np.einsum("cm,mba->cab", gd, cd)
                        + np.einsum("ai,ibc->cab", rho, dgd)
                        + np.einsum("bi,iac->cab", rho, dgd)
                        - np.einsum("ci,iab->cab", rho, dgd))

            # analytic derivative terms: residual at solver precision
            d = system.d_basis
            dgd = np.einsum("iAB,aA,bB->iab", system.parent.partials_at(metric=q)["metric"], d, d)
            assert np.abs(lhs - rhs_with(dgd)).max() < 1e-12
            # independent finite-difference derivative terms: loose tolerance
            h = 1e-5
            dgd_fd = np.array([(system.metric_d(q + h) - system.metric_d(q - h)) / (2 * h)])
            assert np.abs(lhs - rhs_with(dgd_fd)).max() < 1e-8
            assert np.abs(gamma - gamma.swapaxes(1, 2) - cd).max() < 1e-10

    def test_fd_partials_agree_with_analytic(self):
        from dataclasses import replace
        from nhoc import ModelPartials
        analytic = curved_model()
        fd = replace(analytic, partials=ModelPartials())
        sys_a = build_constrained_system(analytic, ConstraintSpec(span_basis=np.eye(2)))
        sys_f = build_constrained_system(fd, ConstraintSpec(span_basis=np.eye(2)))
        q = np.array([0.6])
        assert np.abs(sys_a.gamma(q) - sys_f.gamma(q)).max() < 1e-8

    def test_restricted_subbundle_with_chart_dependence(self):
        # rank-1 subbundle: Gamma = rho(e)(G_11) / (2 G_11), checked against FD
        model = curved_model()
        spec = ConstraintSpec(span_basis=[[1.0, 0.3]])
        system = build_constrained_system(model, spec)
        q = np.array([0.4])
        gamma = system.gamma(q)
        h = 1e-6
        g11 = lambda qq: system.metric_d(qq)[0, 0]
        dg11 = (g11(q + h) - g11(q - h)) / (2 * h)
        rho = system.anchor_d(q)[0, 0]
        assert abs(gamma[0, 0, 0] - rho * dg11 / (2 * g11(q))) < 1e-9


class TestGradPotential:
    """grad V, read as the drift at rest: Gamma(0, 0) + grad V."""

    @staticmethod
    def grad_v(system, q=None):
        return drift_acceleration(system, q, np.zeros(system.rank_d))

    def test_lie_algebra_is_zero(self, suslov_system):
        assert np.abs(self.grad_v(suslov_system)).max() == 0.0

    def test_identity_model_harmonic_potential(self):
        model = constant_model(np.zeros((1, 1, 1)), np.eye(1), anchor=np.eye(1),
                               dim_q=1, potential=lambda q: 0.5 * q[0] ** 2)
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(1)))
        q = np.array([1.7])
        assert abs(self.grad_v(system, q)[0] - 1.7) < 1e-9

    def test_scaled_metric_linear_potential(self):
        model = constant_model(np.zeros((1, 1, 1)), np.array([[2.0]]), anchor=np.eye(1),
                               dim_q=1, potential=lambda q: q[0])
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(1)))
        assert abs(self.grad_v(system, np.zeros(1))[0] - 0.5) < 1e-9

    def test_curved_model_against_fd(self):
        model = curved_model()
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(2)))
        q = np.array([0.8])
        grad = self.grad_v(system, q)
        # defining relation: G^D(grad V, X) = rho(X)(V) for basis sections
        h = 1e-6
        pot = model.potential
        dv = (pot(q + h) - pot(q - h)) / (2 * h)
        rhs = system.anchor_d(q) @ np.array([dv])
        assert np.abs(system.metric_d(q) @ grad - rhs).max() < 1e-9


class TestConstrainedSystem:
    def test_anchor_restriction(self):
        model = curved_model()
        spec = ConstraintSpec(span_basis=[[1.0, 0.3]])
        system = build_constrained_system(model, spec)
        q = np.array([0.2])
        expected = np.array([[1.0 + 0.3 * 0.5]])
        assert np.abs(system.anchor_d(q) - expected).max() < 1e-14

    def test_energy(self, suslov_system):
        e = suslov_system.energy(np.zeros(0), np.array([1.0, 1.0]))
        assert abs(e - 0.5 * (2.0 + 3.0)) < 1e-14

    def test_chart_point_validation(self, suslov_system):
        with pytest.raises(DimensionMismatch):
            suslov_system.parent.chart_point([1.0])

    @pytest.mark.parametrize("read", [
        lambda system, q, y: drift_acceleration(system, q, y),
        lambda system, q, y: drift_jacobians(system, q, y),
        lambda system, q, y: system.geometry(q),
    ], ids=["drift_acceleration", "drift_jacobians", "geometry"])
    @pytest.mark.parametrize("name", ["curved", "constant_with_potential", "sleigh"])
    def test_one_row_read_checks_its_chart_point_once(self, monkeypatch, read, name):
        system = field_systems()[name]
        calls = []
        check = AlgebroidModel.chart_point
        monkeypatch.setattr(AlgebroidModel, "chart_point",
                            lambda model, q=None: calls.append(q) or check(model, q))
        read(system, [0.1] * system.dim_q, [0.3, -0.2])
        assert len(calls) == 1

    def test_per_point_geometry_is_built_once_and_lean(self, monkeypatch):
        system = build_constrained_system(curved_model(), ConstraintSpec(span_basis=np.eye(2)))
        calls = []
        null_space = numerics.rref_null_space
        monkeypatch.setattr(numerics, "rref_null_space",
                            lambda a: calls.append(a) or null_space(a))
        simulate(system, StateQY(q=[0.1], y=[0.3, -0.2]), 0.05, 0.01)
        assert calls == []  # no D-perp basis at any chart point of the flow
        q = np.array([0.2])
        geo = system.geometry(q)
        keys = set(geo)
        assert "gamma" in keys
        assert system.gamma(q).tobytes() == geo["gamma"].tobytes()
        assert set(system.geometry(q)) == keys

    def test_metric_evaluated_once_per_built_point(self, monkeypatch):
        model = curved_model()  # analytic metric_dq: only the build reads the metric
        calls, points = [], []
        counted = replace(model, metric=lambda q: calls.append(q) or model.metric(q))
        system = build_constrained_system(counted, ConstraintSpec(span_basis=np.eye(2)))
        restrict = algebroid.restrict_metric
        monkeypatch.setattr(algebroid, "restrict_metric",
                            lambda d, g: points.append(len(g)) or restrict(d, g))
        calls.clear()
        simulate(system, StateQY(q=[0.1], y=[0.3, -0.2]), 0.05, 0.01)
        # one-row builds at the 20 rk4 stage points, then one stacked build
        # over the 6 samples for their energies
        assert points == [1] * 20 + [6]
        assert len(calls) == sum(points)

    def test_energy_reads_the_metric_only(self):
        # the conftest curved model without partials: one metric call per
        # row, no structure or anchor call, and the energies of the full
        # stacked build
        base = replace(curved_model(), partials=ModelPartials())
        calls = Counter()

        def counted(name):
            f = getattr(base, name)
            return lambda q: calls.update([name]) or f(q)

        model = replace(base, **{name: counted(name) for name in ("structure", "anchor", "metric")})
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(2)))
        rng = np.random.default_rng(5)
        qs, ys = rng.uniform(-1.0, 1.0, (101, 1)), rng.uniform(-1.0, 1.0, (101, 2))
        calls.clear()
        energies = system.energy(qs, ys)
        assert calls == Counter(metric=101)
        full_build = system._energies(qs, ys, system.geometry_rows(qs)["metric_d"])
        assert energies.tobytes() == full_build.tobytes()

    def test_stacked_energies_equal_single_calls(self):
        system = build_constrained_system(curved_model(), ConstraintSpec(span_basis=np.eye(2)))
        qs = np.array([[-0.4], [0.1], [0.9]])
        ys = np.array([[0.3, -0.2], [1.0, 0.5], [0.0, 2.0]])
        energies = system.energy(qs, ys)
        assert energies.shape == (3,)
        for e, q, y in zip(energies, qs, ys):
            assert e.tobytes() == np.float64(system.energy(q, y)).tobytes()

    def test_adapted_basis_read_from_the_system(self, monkeypatch):
        system = build_constrained_system(curved_model(), ConstraintSpec(annihilator=[[0.0, 1.0]]))
        calls = []
        null_space = numerics.rref_null_space
        monkeypatch.setattr(numerics, "rref_null_space",
                            lambda a: calls.append(a) or null_space(a))
        simulate(system, StateQY(q=[0.1], y=[0.3]), 0.05, 0.01)
        assert calls == []


BAD_METRICS = {
    "indefinite": np.diag([1.0, -1.0]),
    "asymmetric": np.array([[1.0, 0.5], [0.0, 1.0]]),
    "nan": np.array([[1.0, np.nan], [np.nan, 1.0]]),
    "nan_diagonal": np.array([[np.nan, 0.2], [0.2, 1.0]]),
    "inf_diagonal": np.diag([np.inf, 1.0]),
}


class TestStackedGeometry:
    def test_stack_equals_one_point_builds(self):
        spec = ConstraintSpec(span_basis=[[1.0, 0.3], [0.2, 1.0]])
        qs = np.array([[-0.7], [0.0], [0.35], [1.3]])
        stack = build_constrained_system(curved_model(), spec).geometry_rows(qs)
        for k, q in enumerate(qs):
            single = build_constrained_system(curved_model(), spec).geometry(q)
            assert set(single) == set(stack)
            for name, value in single.items():
                assert stack[name].shape == (len(qs),) + value.shape
                assert stack[name][k].tobytes() == value.tobytes(), name

    def test_chart_independent_stack_broadcasts_one_record(self, suslov_system):
        stack = suslov_system.geometry_rows(np.zeros((3, 0)))
        for name, value in suslov_system.geometry(None).items():
            assert all(row.tobytes() == value.tobytes() for row in stack[name])

    @pytest.mark.parametrize("bad", sorted(BAD_METRICS))
    def test_one_bad_metric_row_raises(self, bad):
        good = curved_model()
        model = replace(good, metric=lambda q: BAD_METRICS[bad] if q[0] > 1.0 else good.metric(q))
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(2)))
        with pytest.raises(SingularMetric):
            system.geometry_rows(np.array([[0.1], [1.5], [0.2]]))
        with pytest.raises(SingularMetric):
            system.geometry(np.array([1.5]))
        assert np.isfinite(system.geometry_rows(np.array([[0.1], [0.2]]))["gamma"]).all()

    def test_stack_shape_checked(self):
        system = build_constrained_system(curved_model(), ConstraintSpec(span_basis=np.eye(2)))
        with pytest.raises(DimensionMismatch):
            system.geometry_rows(np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            system.geometry_rows(np.zeros(3))
        with pytest.raises(DimensionMismatch):
            system.geometry_rows(np.zeros((0, 1)))
        with pytest.raises(DimensionMismatch):
            system.energy(np.zeros((3, 1)), np.zeros((2, 2)))


def rank3_chart_model():
    """dim_q = 2, rank-3 model without partials: chart-dependent structure
    functions, anchor, non-diagonal metric and potential, all holomorphic."""

    def structure(q):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2], c[1, 0, 2], c[2, 0, 1] = np.sin(q[0]), q[0] * q[1], 0.3 + np.cos(q[1])
        return c - c.swapaxes(1, 2)

    def metric(q):
        return np.array([[2.0 + q[0] ** 2, 0.3 * np.sin(q[1]), 0.1],
                         [0.3 * np.sin(q[1]), 1.5 + np.cos(q[0]) ** 2, 0.2 * q[0]],
                         [0.1, 0.2 * q[0], 3.0 + q[1] ** 2]])

    def anchor(q):
        return np.array([[1.0, 0.2 * q[1]], [np.sin(q[0]), 0.5], [0.3, 1.0 + q[0] ** 2]])

    return AlgebroidModel(dim_q=2, rank_e=3, structure=structure, anchor=anchor, metric=metric,
                          potential=lambda q: 0.25 * q[0] ** 2 + np.cos(q[1]))


class TestFlatKoszul:
    """The stacked build against the einsum Koszul formula written out here.
    A drift contracts Gamma with the symmetric y (x) y, so flow tests cannot
    see a permutation of Gamma's lower indices; this test and the torsion
    identity can."""

    def test_gamma_matches_the_einsum_koszul_formula(self):
        model = rank3_chart_model()
        spec = ConstraintSpec(annihilator=[[0.3, -1.0, 0.5]])
        system = build_constrained_system(model, spec)
        qs = np.random.default_rng(4).uniform(-1.0, 1.0, (6, 2))
        geo = system.geometry_rows(qs)
        d = spec.d_basis()
        r = len(d)
        for k, q in enumerate(qs):
            g = model.metric(q)
            gd = d @ g @ d.T
            s = np.einsum("cE,EAB,aA,bB->cab", np.linalg.solve(gd, d @ g),
                          model.structure(q), d, d)
            cd = 0.5 * (s - s.swapaxes(1, 2))
            rho = d @ model.anchor(q)
            dgd = np.einsum("iAB,aA,bB->iab", model.partials_at(metric=q)["metric"], d, d)
            rhs = (np.einsum("am,mcb->cab", gd, cd) + np.einsum("bm,mca->cab", gd, cd)
                   - np.einsum("cm,mba->cab", gd, cd) + np.einsum("ai,ibc->cab", rho, dgd)
                   + np.einsum("bi,iac->cab", rho, dgd) - np.einsum("ci,iab->cab", rho, dgd))
            gamma = 0.5 * np.linalg.solve(gd, rhs.reshape(r, r * r)).reshape(r, r, r)
            assert np.abs(gamma).max() > 0.5 and np.abs(gamma - gamma.swapaxes(1, 2)).max() > 0.5
            for name, expected in (("gamma", gamma), ("structure_d", cd), ("metric_d", gd)):
                gap = np.abs(geo[name][k] - expected) / np.maximum(1.0, np.abs(expected))
                assert gap.max() < 1e-14, name
            torsion = geo["gamma"][k] - geo["gamma"][k].swapaxes(1, 2) - geo["structure_d"][k]
            assert np.abs(torsion).max() < 1e-14


class TestDefaultPartials:
    """Without analytic partials the model callables are differentiated by
    the complex step, exact to rounding."""

    def test_complex_step_matches_analytic_partials(self):
        analytic = curved_model()
        default = replace(analytic, partials=ModelPartials())
        for q0 in (-0.7, 0.4, 1.3):
            q = np.array([q0])
            want = analytic.partials_at(metric=q, potential=q)
            got = default.partials_at(metric=q, potential=q, anchor=q)
            assert np.abs(got["metric"] - want["metric"]).max() < 1e-15
            assert np.abs(got["potential"] - want["potential"]).max() < 1e-15
            # the constant anchor is a real array: central differences, all zero
            assert not got["anchor"].any()

    @pytest.mark.parametrize("make", [curved_model, rank3_chart_model])
    def test_each_callable_called_once_per_use_per_point(self, make):
        # geometry and grad V per chart point: the metric once for its value,
        # dim_q times for its complex-step partials and twice for their check;
        # the potential dim_q + 2 times for its partials; the rest once
        counts = Counter()
        base = replace(make(), partials=ModelPartials())
        names = ("structure", "anchor", "metric", "potential")
        model = replace(base, **{name: lambda q, f=getattr(base, name), name=name:
                                 counts.update([name]) or f(q) for name in names})
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(model.rank_e)))
        qs = np.random.default_rng(2).uniform(-0.8, 0.8, (3, model.dim_q))
        counts.clear()
        assert system.geometry_rows(qs)["grad_v"].shape == (3, system.rank_d)
        n = model.dim_q
        assert counts == {"metric": 3 * (1 + n + 2), "potential": 3 * (n + 2),
                          "structure": 3, "anchor": 3}

    def test_metric_with_an_abs_entry(self):
        # the metric stays complex, but its first entry drops the imaginary
        # part: the complex step alone would read d/dq of it as 0
        def metric(q):
            return np.array([[1.0 + np.abs(q[0]), 0.2], [0.2, 2.0 + q[0] ** 2]])

        def metric_dq(q):
            return np.array([[[np.sign(q[0]), 0.0], [0.0, 2.0 * q[0]]]])

        base = replace(curved_model(), metric=metric)
        analytic = replace(base, partials=replace(base.partials, metric_dq=metric_dq))
        default = replace(base, partials=ModelPartials())
        spec = ConstraintSpec(span_basis=np.eye(2))
        systems = [build_constrained_system(m, spec) for m in (analytic, default)]
        for q0 in (0.4, -0.3):
            q = np.array([q0])
            assert np.abs(default.partials_at(metric=q)["metric"] - metric_dq(q)).max() < 1e-9
            assert np.abs(systems[0].gamma(q) - systems[1].gamma(q)).max() < 1e-9

    def test_drift_q_jacobian_matches_analytic_partials(self):
        spec = ConstraintSpec(span_basis=np.eye(2))
        analytic = build_constrained_system(curved_model(), spec)
        default = build_constrained_system(replace(curved_model(), partials=ModelPartials()),
                                           spec)
        for q0 in (0.4, -0.3):
            for y in ([0.3, -0.2], [1.0, 0.5], [2.0, -1.0]):
                q = np.array([q0])
                gap = np.abs(drift_jacobians(analytic, q, y)[1]
                             - drift_jacobians(default, q, y)[1]).max()
                # left: the rounding of the one outer central difference, a
                # few ulps of the drift over the stencil width 2 FD_STEP
                drift = np.abs(drift_acceleration(analytic, q, y)).max()
                assert gap <= max(1e-10, 4.0 * np.spacing(drift) / (2.0 * numerics.FD_STEP))


def abs_anchor_model():
    """The curved model without partials, its anchor with an abs entry."""
    return replace(curved_model(), partials=ModelPartials(),
                   anchor=lambda q: np.array([[1.0 + np.abs(q[0])], [0.5 * q[0]]]))


class TestStackReads:
    """Partials that ``drift_rows`` reads on its stack against single calls."""

    @pytest.mark.parametrize("make", [
        lambda: replace(curved_model(), partials=ModelPartials()),  # a constant real array
        rank3_chart_model, abs_anchor_model,
        lambda: field_systems()["constant_with_potential"].parent,
    ], ids=["constant", "holomorphic", "abs", "chart_independent"])
    def test_anchor_partials_equal_single_calls(self, make):
        model = make()
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(model.rank_e)))
        qs = np.array([[0.4, -0.2], [-0.3, 0.5], [0.7, 0.1]])[:, :model.dim_q]
        ys = np.array([[0.3, -0.2, 0.1], [0.0, 0.5, 1.0], [-1.0, 0.7, 0.2]])[:, :system.rank_d]
        anchor_d_dq = system.drift_rows(qs, ys)[3]["anchor_d_dq"]
        assert anchor_d_dq.shape == (len(qs), model.dim_q, system.rank_d, model.dim_q)
        assert anchor_d_dq.tobytes() == system.anchor_d_dq(qs).tobytes()
        for q, row in zip(qs, anchor_d_dq):
            assert row.tobytes() == system.anchor_d_dq(q).tobytes()

    def test_abs_anchor_takes_central_differences(self):
        system = build_constrained_system(abs_anchor_model(), ConstraintSpec(span_basis=np.eye(2)))
        qs = np.array([[0.4], [-0.3]])
        anchor_d_dq = system.drift_rows(qs, np.zeros((2, 2)))[3]["anchor_d_dq"]
        d_anchor = system.parent.anchor
        for q, row in zip(qs, anchor_d_dq):
            assert row.tobytes() == numerics.fd_partials(d_anchor, q).tobytes()
            assert np.abs(row[0] - [[np.sign(q[0])], [0.5]]).max() < 1e-9


class TestModelShapes:
    """A model callable of the wrong shape is rejected when the system is
    made, from one call at the origin."""

    @staticmethod
    def model(**fields):
        return replace(curved_model(), partials=ModelPartials(), **fields)

    @pytest.mark.parametrize("fields", [
        dict(anchor=lambda q: np.array([[1.0, 0.5]])),
        dict(anchor=lambda q: np.array([1.0, 0.5])),
        dict(metric=lambda q: np.eye(3) + q[0] ** 2),
        dict(structure=lambda q: np.zeros((2, 2))),
        dict(potential=lambda q: np.array([0.25 * q[0] ** 2])),
    ], ids=["transposed_anchor", "flat_anchor", "metric_3x3", "structure_2x2",
            "potential_shape_1"])
    def test_wrong_shape_raises_at_construction(self, fields):
        with pytest.raises(DimensionMismatch, match=next(iter(fields))):
            build_constrained_system(self.model(**fields), ConstraintSpec(span_basis=np.eye(2)))

    def test_each_callable_is_checked_once(self):
        counts = Counter()
        base = self.model()
        names = ("structure", "anchor", "metric", "potential")
        model = replace(base, **{name: lambda q, f=getattr(base, name), name=name:
                                 counts.update([name]) or f(q) for name in names})
        build_constrained_system(model, ConstraintSpec(span_basis=np.eye(2)))
        # one call for the check; the origin build then calls the rest once
        # more, and the potential dim_q + 2 times for the complex step of grad V
        assert counts == {"structure": 2, "anchor": 2, "metric": 2 + 1 + 2,
                          "potential": 1 + (1 + 2)}


class TestNonFiniteRows:
    SYSTEMS = field_systems()
    READS = {
        "drift_q": lambda s: drift_acceleration(s, [np.nan, 0.0], [0.1, 0.2]),
        "drift_y": lambda s: drift_acceleration(s, [0.3, -0.1], [np.nan, 0.2]),
        "grad_v": lambda s: drift_acceleration(s, [np.inf, 0.0], [0.0, 0.0]),
        "energy": lambda s: s.energy([np.nan, 0.0], [0.1, 0.2]),
    }

    @pytest.mark.parametrize("read", sorted(READS))
    def test_one_row_reads_reject_non_finite_entries(self, read):
        with pytest.raises(ValidationError):
            self.READS[read](self.SYSTEMS["constant_with_potential"])

    def test_chart_point_of_a_curved_model(self):
        with pytest.raises(ValidationError):
            self.SYSTEMS["curved"].geometry([np.nan])

    @pytest.mark.parametrize("system, q, y", [
        ("constant_with_potential", [[np.nan, 0.0]], [[0.1, 0.2]]),
        ("constant_with_potential", [[0.3, -0.1], [0.0, 0.0]], [[0.1, 0.2], [np.inf, 0.0]]),
        ("curved", [[np.nan]], [[0.1, 0.2]]),
    ], ids=["nan_chart_point", "infinite_velocity_row", "curved_nan_chart_point"])
    def test_stacked_energy_rejects_non_finite_rows(self, system, q, y):
        with pytest.raises(ValidationError):
            self.SYSTEMS[system].energy(q, y)
