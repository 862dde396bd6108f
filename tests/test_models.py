import json

import numpy as np
import pytest

from nhoc import (StateQY, build_constrained_system, load_model_config,
                  make_builtin, make_chaplygin, make_double_integrator, make_suslov,
                  nonholonomic_field)
from nhoc.errors import (DimensionMismatch, NotPositiveDefinite, ParseError,
                         ValidationError)

from conftest import SUSLOV_PARAMS

SO3_TRIPLES = [[2, 0, 1, 1.0], [0, 1, 2, 1.0], [1, 2, 0, 1.0]]


def suslov_config(**overrides):
    I = dict(SUSLOV_PARAMS)
    doc = {
        "name": "suslov-like",
        "kind": "lie_algebra_constant",
        "rank_e": 3,
        "structure_constants": [list(t) for t in SO3_TRIPLES],
        "metric": [[I["I11"], 0.0, I["I13"]],
                   [0.0, I["I22"], I["I23"]],
                   [I["I13"], I["I23"], I["I33"]]],
        "constraint": {"annihilator": [[0.0, 0.0, 1.0]]},
    }
    doc.update(overrides)
    return doc


class TestSuslov:
    def test_diagonal_inertia_has_no_drift(self):
        model, spec = make_suslov(1.0, 2.0, 3.0, 0.0, 0.0)
        system = build_constrained_system(model, spec)
        assert np.abs(system.structure_d()).max() == 0.0

    def test_paper_formulas_instantiated(self):
        model, spec = make_suslov(**SUSLOV_PARAMS)
        system = build_constrained_system(model, spec)
        cd = system.structure_d()
        assert abs(cd[0, 0, 1] - 0.05) < 1e-15
        assert abs(cd[1, 0, 1] - 0.2 / 3.0) < 1e-15

    def test_indefinite_inertia_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            make_suslov(I11=1.0, I22=1.0, I33=1.0, I13=2.0, I23=0.0)


class TestChaplygin:
    def test_structure_constants(self):
        model, spec = make_chaplygin(1.0, 1.0, 1.0, 0.0)
        system = build_constrained_system(model, spec)
        cd = system.structure_d()
        assert abs(cd[0, 0, 1] - 0.5) < 1e-15
        assert abs(cd[1, 0, 1]) < 1e-15

    def test_restricted_metric(self):
        m, J, a, b = 1.2, 0.7, 0.4, 0.9
        model, spec = make_chaplygin(m, J, a, b)
        system = build_constrained_system(model, spec)
        expected = np.array([[J + m * (a * a + b * b), -b * m], [-b * m, m]])
        assert np.abs(system.metric_d() - expected).max() < 1e-14

    def test_pivot_at_contact_point(self):
        model, spec = make_chaplygin(1.0, 1.0, 0.0, 0.7)
        system = build_constrained_system(model, spec)
        assert np.abs(system.structure_d()).max() < 1e-15

    def test_bad_mass_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            make_chaplygin(m=-1.0, J=1.0, a=1.0, b=0.0)
        with pytest.raises(NotPositiveDefinite):
            make_chaplygin(m=1.0, J=0.0, a=1.0, b=0.0)

    def test_classical_limit(self):
        # b = 0 sleigh: omega_dot = -(ma/(J+ma^2)) omega v, v_dot = a omega^2
        rng = np.random.default_rng(42)
        for _ in range(10):
            m, J, a = 0.5 + rng.random(), 0.5 + rng.random(), rng.uniform(0.2, 2.0)
            model, spec = make_chaplygin(m, J, a, 0.0)
            system = build_constrained_system(model, spec)
            y = rng.uniform(-2, 2, 2)
            _, ydot = nonholonomic_field(system, StateQY(q=[], y=y))
            coeff = m * a / (J + m * a * a)
            assert abs(ydot[0] + coeff * y[0] * y[1]) < 1e-12
            assert abs(ydot[1] - a * y[0] ** 2) < 1e-12


class TestDoubleIntegrator:
    def test_flat_field(self):
        model, spec = make_double_integrator(1)
        system = build_constrained_system(model, spec)
        qdot, ydot = nonholonomic_field(system, StateQY(q=[0.3], y=[2.0]))
        assert abs(qdot[0] - 2.0) < 1e-15
        assert abs(ydot[0]) < 1e-15

    def test_bad_dimension(self):
        with pytest.raises(DimensionMismatch):
            make_double_integrator(0)


class TestLoader:
    def test_equivalent_to_builtin(self):
        model_a, spec_a = load_model_config(suslov_config())
        model_b, spec_b = make_suslov(**SUSLOV_PARAMS)
        sys_a = build_constrained_system(model_a, spec_a)
        sys_b = build_constrained_system(model_b, spec_b)
        assert np.abs(sys_a.structure_d() - sys_b.structure_d()).max() < 1e-14
        assert np.abs(sys_a.metric_d() - sys_b.metric_d()).max() < 1e-14
        assert np.abs(sys_a.gamma() - sys_b.gamma()).max() < 1e-14

    def test_builtin_dispatch(self):
        doc = {"name": "chaplygin", "kind": "builtin",
               "params": {"m": 2.0, "J": 1.5, "a": 0.7, "b": 0.3}}
        model_a, spec_a = load_model_config(doc)
        model_b, spec_b = make_chaplygin(2.0, 1.5, 0.7, 0.3)
        sys_a = build_constrained_system(model_a, spec_a)
        sys_b = build_constrained_system(model_b, spec_b)
        assert np.abs(sys_a.structure_d() - sys_b.structure_d()).max() < 1e-14

    def test_span_constraint_form(self):
        doc = suslov_config(constraint={"span": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]})
        model, spec = load_model_config(doc)
        system = build_constrained_system(model, spec)
        assert abs(system.structure_d()[0, 0, 1] - 0.05) < 1e-14

    def test_not_antisymmetric_rejected(self):
        doc = suslov_config(structure_constants=[[0, 0, 1, 1.0], [0, 1, 0, 1.0]])
        with pytest.raises(ValidationError, match="antisym"):
            load_model_config(doc)

    def test_diagonal_structure_entry_rejected(self):
        doc = suslov_config(structure_constants=[[0, 1, 1, 0.5]])
        with pytest.raises(ValidationError):
            load_model_config(doc)

    def test_non_symmetric_metric_rejected(self):
        doc = suslov_config(metric=[[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            load_model_config(doc)

    def test_indefinite_metric_rejected(self):
        doc = suslov_config(metric=[[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
        with pytest.raises(ValidationError, match="positive-definite"):
            load_model_config(doc)

    def test_unknown_field_rejected(self):
        doc = suslov_config(plotting=True)
        with pytest.raises(ValidationError, match="unknown config fields"):
            load_model_config(doc)

    def test_constraint_must_be_single_kind(self):
        doc = suslov_config(constraint={"annihilator": [[0.0, 0.0, 1.0]],
                                        "span": [[1.0, 0.0, 0.0]]})
        with pytest.raises(ValidationError):
            load_model_config(doc)

    def test_dependent_constraint_rejected(self):
        doc = suslov_config(constraint={"span": [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]})
        with pytest.raises(ValidationError):
            load_model_config(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="no such file"):
            load_model_config(tmp_path / "absent.json")

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "kind": }\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_model_config(path)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(suslov_config()), encoding="utf-8")
        model, spec = load_model_config(path)
        system = build_constrained_system(model, spec)
        assert abs(system.structure_d()[1, 0, 1] - 0.2 / 3.0) < 1e-14

    def test_unknown_builtin(self):
        with pytest.raises(ValidationError, match="unknown builtin"):
            make_builtin("rolling_disk")

    def test_bad_builtin_params(self):
        with pytest.raises(ValidationError, match="bad parameters"):
            make_builtin("suslov", bogus=1.0)
