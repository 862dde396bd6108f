import numpy as np
import pytest

from nhoc import (ConstraintSpec, build_constrained_system, build_splitting,
                  constant_model, grad_potential, make_chaplygin,
                  make_suslov, project_bracket, restrict_metric)
from nhoc.errors import DimensionMismatch, RankDeficient, SingularMetric

from conftest import SUSLOV_PARAMS, curved_model


def collinear(u, v, tol=1e-10):
    u, v = np.asarray(u, float), np.asarray(v, float)
    return np.abs(np.outer(u, v) - np.outer(v, u)).max() < tol


class TestBuildSplitting:
    def test_suslov_adapted_basis_and_complement(self):
        model, spec = make_suslov(**SUSLOV_PARAMS)
        split = build_splitting(model, spec)
        assert np.allclose(split.d_basis, [[1, 0, 0], [0, 1, 0]], atol=1e-14)
        I11, I22, I13, I23 = 2.0, 3.0, 0.1, 0.2
        z_expected = np.array([I22 * I13, I11 * I23, -I11 * I22])
        assert split.dperp_basis.shape == (1, 3)
        assert collinear(split.dperp_basis[0], z_expected)

    def test_orthonormal_span_gives_diagonal_projector(self):
        model = constant_model(np.zeros((3, 3, 3)), np.eye(3))
        spec = ConstraintSpec(span_basis=np.eye(3)[:2])
        split = build_splitting(model, spec)
        assert np.allclose(split.projector_p, np.diag([1.0, 1.0, 0.0]), atol=1e-14)

    def test_chaplygin_complement(self):
        # the complement must be metric-orthogonal to D; for the sleigh that
        # is the span of (abm, J+ma^2, am) in the (E1, E2, E3) frame
        m, J, a, b = 2.0, 1.5, 0.7, 0.3
        model, spec = make_chaplygin(m, J, a, b)
        split = build_splitting(model, spec)
        z = split.dperp_basis[0]
        assert collinear(z, [a * b * m, J + m * a * a, a * m])
        g = model.metric(model.chart_point())
        assert np.abs(split.d_basis @ g @ z).max() < 1e-10

    def test_projector_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            model, spec = make_chaplygin(1.0 + rng.random(), 1.0 + rng.random(),
                                         rng.uniform(-1, 1), rng.uniform(-1, 1))
            split = build_splitting(model, spec)
            p, q = split.projector_p, split.projector_q
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.abs(p + q - np.eye(3)).max() < 1e-14
            g = model.metric(model.chart_point())
            for _ in range(100):
                v = rng.standard_normal(3)
                w = rng.standard_normal(3)
                assert abs((p @ v) @ g @ (q @ w)) < 1e-10
            assert np.abs(p @ split.d_basis.T - split.d_basis.T).max() < 1e-12

    def test_span_and_annihilator_agree(self):
        model, spec = make_suslov(**SUSLOV_PARAMS)
        from_ann = build_splitting(model, spec)
        from_span = build_splitting(model, ConstraintSpec(span_basis=spec.d_basis()))
        assert np.abs(from_ann.projector_p - from_span.projector_p).max() < 1e-10

    def test_rank_deficient_spec(self):
        with pytest.raises(RankDeficient):
            ConstraintSpec(span_basis=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(RankDeficient):
            ConstraintSpec(annihilator=[[0.0, 1.0, 1.0], [0.0, 2.0, 2.0]])

    def test_non_positive_metric_rejected(self):
        model = constant_model(np.zeros((3, 3, 3)), np.eye(3))
        bad = AlgebroidReplaceMetric(model, np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(SingularMetric):
            build_splitting(bad, ConstraintSpec(span_basis=np.eye(3)[:2]))


def AlgebroidReplaceMetric(model, new_metric):
    from dataclasses import replace
    return replace(model, metric=lambda q: new_metric)


class TestProjectBracket:
    def test_suslov_constants(self):
        model, spec = make_suslov(**SUSLOV_PARAMS)
        split = build_splitting(model, spec)
        cd = project_bracket(model, split)
        assert abs(cd[0, 0, 1] - 0.1 / 2.0) < 1e-14
        assert abs(cd[1, 0, 1] - 0.2 / 3.0) < 1e-14

    def test_chaplygin_constants(self):
        m, J, a, b = 1.3, 0.8, 0.6, -0.4
        model, spec = make_chaplygin(m, J, a, b)
        split = build_splitting(model, spec)
        cd = project_bracket(model, split)
        assert abs(cd[0, 0, 1] - m * a / (J + m * a * a)) < 1e-13
        assert abs(cd[1, 0, 1] - m * a * b / (J + m * a * a)) < 1e-13

    def test_abelian_projects_to_zero(self):
        model = constant_model(np.zeros((4, 4, 4)), np.diag([1.0, 2.0, 3.0, 4.0]))
        spec = ConstraintSpec(annihilator=[[0.0, 0.0, 1.0, 1.0]])
        cd = project_bracket(model, build_splitting(model, spec))
        assert np.abs(cd).max() == 0.0

    def test_exact_antisymmetry(self):
        model, spec = make_chaplygin(1.7, 0.9, 0.5, 0.2)
        cd = project_bracket(model, build_splitting(model, spec))
        assert np.abs(cd + cd.swapaxes(1, 2)).max() < 1e-14


class TestRestrictMetric:
    def test_suslov_diagonal(self):
        model, spec = make_suslov(**SUSLOV_PARAMS)
        gd, gd_inv = restrict_metric(model, build_splitting(model, spec))
        assert np.allclose(gd, np.diag([2.0, 3.0]), atol=1e-14)
        assert np.abs(gd @ gd_inv - np.eye(2)).max() < 1e-12

    def test_chaplygin_quadratic_form(self):
        m, J, a, b = 1.0, 1.0, 1.0, 0.5
        model, spec = make_chaplygin(m, J, a, b)
        gd, _ = restrict_metric(model, build_splitting(model, spec))
        expected = np.array([[J + m * (a * a + b * b), -b * m], [-b * m, m]])
        assert np.abs(gd - expected).max() < 1e-14

    def test_identity_case(self):
        model = constant_model(np.zeros((3, 3, 3)), np.eye(3))
        gd, gd_inv = restrict_metric(model, build_splitting(
            model, ConstraintSpec(span_basis=np.eye(3)[:2])))
        assert np.allclose(gd, np.eye(2), atol=1e-15)
        assert np.allclose(gd_inv, np.eye(2), atol=1e-15)

    def test_singular_restriction_raises(self):
        base = constant_model(np.zeros((2, 2, 2)), np.eye(2))
        split = build_splitting(base, ConstraintSpec(span_basis=np.eye(2)))
        degenerate = AlgebroidReplaceMetric(base, np.zeros((2, 2)))
        with pytest.raises(SingularMetric):
            restrict_metric(degenerate, split)


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
            assert np.abs(lhs - rhs_with(system.metric_d_dq(q))).max() < 1e-12
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
    def test_lie_algebra_is_zero(self, suslov_system):
        assert np.abs(grad_potential(suslov_system)).max() == 0.0

    def test_identity_model_harmonic_potential(self):
        model = constant_model(np.zeros((1, 1, 1)), np.eye(1), anchor=np.eye(1),
                               dim_q=1, potential=lambda q: 0.5 * q[0] ** 2)
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(1)))
        q = np.array([1.7])
        assert abs(grad_potential(system, q)[0] - 1.7) < 1e-9

    def test_scaled_metric_linear_potential(self):
        model = constant_model(np.zeros((1, 1, 1)), np.array([[2.0]]), anchor=np.eye(1),
                               dim_q=1, potential=lambda q: q[0])
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(1)))
        assert abs(grad_potential(system, np.zeros(1))[0] - 0.5) < 1e-9

    def test_curved_model_against_fd(self):
        model = curved_model()
        system = build_constrained_system(model, ConstraintSpec(span_basis=np.eye(2)))
        q = np.array([0.8])
        grad = grad_potential(system, q)
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
