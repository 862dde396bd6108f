import json

import numpy as np
import pytest

from nhoc import StateQY, build_constrained_system, make_suslov, simulate
from nhoc.cli import main

from conftest import SUSLOV_PARAMS

SUSLOV_ARGS = ["--builtin", "suslov",
               "--params", "I11=2,I22=3,I33=4,I13=0.1,I23=0.2"]


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


class TestSimulate:
    def test_chaplygin_row_count_and_exit(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["simulate", "--builtin", "chaplygin", "--params", "m=1,J=1,a=1,b=0",
                     "--y0", "1,0", "--T", "1", "--dt", "0.001", "--integrator", "rk4",
                     "--out", str(out)])
        assert code == 0
        header, data = read_csv(out)
        assert data.shape[0] == 1001
        assert header == ["t", "y_0", "y_1", "energy"]
        assert "energy drift" in capsys.readouterr().out

    def test_negative_dt_rejected(self, tmp_path, capsys):
        code = main(["simulate", *SUSLOV_ARGS, "--y0", "1,0", "--T", "1",
                     "--dt", "-1", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("t_final,dt", [("nan", "0.1"), ("inf", "0.1"), ("1", "nan")])
    def test_non_finite_horizon_or_step_rejected(self, tmp_path, capsys, t_final, dt):
        code = main(["simulate", *SUSLOV_ARGS, "--y0", "0.1,0.2", "--T", t_final,
                     "--dt", dt, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_dt_not_dividing_horizon_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--builtin", "chaplygin", "--params", "m=1,J=1,a=1,b=0",
                     "--y0", "1,0", "--T", "1", "--dt", "0.4", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_diagonal_inertia_constant_velocity(self, tmp_path):
        out = tmp_path / "d.csv"
        code = main(["simulate", "--builtin", "suslov",
                     "--params", "I11=1,I22=2,I33=3,I13=0,I23=0",
                     "--y0", "0.7,-0.4", "--T", "0.5", "--dt", "0.001",
                     "--out", str(out)])
        assert code == 0
        header, data = read_csv(out)
        y_cols = [i for i, h in enumerate(header) if h.startswith("y_")]
        for i in y_cols:
            assert np.ptp(data[:, i]) == 0.0

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--y0", "1,0", "--T", "1", "--dt", "0.1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_byte_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", *SUSLOV_ARGS, "--y0", "1,1", "--T", "1", "--dt", "0.001"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_csv_round_trip_exact(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["simulate", *SUSLOV_ARGS, "--y0", "1,1", "--T", "0.02",
                     "--dt", "0.001", "--out", str(out)]) == 0
        _, data = read_csv(out)
        model, spec = make_suslov(**SUSLOV_PARAMS)
        system = build_constrained_system(model, spec)
        traj = simulate(system, StateQY(q=[], y=[1.0, 1.0]), 0.02, 1e-3)
        assert np.array_equal(data[:, 1:3], traj.ys)
        assert np.array_equal(data[:, 3], traj.energies)


class TestOptimize:
    def test_double_integrator_fixture(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        code = main(["optimize", "--builtin", "double_integrator", "--params", "n=1",
                     "--q0", "0", "--qT", "1", "--y0", "0", "--yT", "0",
                     "--T", "1", "--dt", "0.0002", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        cost = float(next(l for l in captured.splitlines() if l.startswith("cost:"))
                     .split(":")[1])
        assert abs(cost - 6.0) < 1e-6
        header, data = read_csv(out)
        assert header[:6] == ["t", "q_0", "y_0", "pq_0", "py_0", "u_0"]
        assert header[6:] == ["energy", "hamiltonian"]

    def test_drift_boundary_zero_cost(self, tmp_path, capsys):
        model, spec = make_suslov(**SUSLOV_PARAMS)
        system = build_constrained_system(model, spec)
        free = simulate(system, StateQY(q=[], y=[1.0, 1.0]), 0.5, 1e-3)
        yT = ",".join(f"{v:.17g}" for v in free.ys[-1])
        code = main(["optimize", *SUSLOV_ARGS, "--y0", "1,1", "--yT", yT,
                     "--T", "0.5", "--dt", "0.001", "--out", str(tmp_path / "z.csv")])
        assert code == 0
        captured = capsys.readouterr().out
        cost = float(next(l for l in captured.splitlines() if l.startswith("cost:"))
                     .split(":")[1])
        assert cost < 1e-10

    def test_singular_weight_exits_3(self, tmp_path, capsys):
        code = main(["optimize", "--builtin", "chaplygin", "--params", "m=1,J=1,a=1,b=0",
                     "--y0", "1,0", "--yT", "0.5,0.5", "--T", "1", "--weights", "1,0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "SingularHessian" in capsys.readouterr().err

    def test_non_finite_newton_tolerance_rejected(self, tmp_path, capsys):
        code = main(["optimize", "--builtin", "chaplygin", "--y0", "0,0", "--yT", "0.1,0.1",
                     "--T", "1", "--dt", "0.1", "--newton-tol", "nan",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_negative_iteration_budget_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["optimize", "--builtin", "chaplygin", "--y0", "0,0", "--yT", "0.1,0.1",
                     "--T", "1", "--dt", "0.1", "--max-iterations", "-1", "--out", str(out)])
        assert code == 2
        assert "DimensionMismatch" in capsys.readouterr().err
        assert not out.exists()

    def test_nonconvergence_exits_4_with_best_iterate(self, tmp_path, capsys):
        out = tmp_path / "best.csv"
        code = main(["optimize", "--builtin", "chaplygin", "--params", "m=1,J=1,a=1,b=0",
                     "--y0", "0.5,0.2", "--yT", "5,-4", "--T", "1", "--dt", "0.01",
                     "--max-iterations", "1", "--out", str(out)])
        assert code == 4
        assert out.exists()
        assert "NewtonDivergence" in capsys.readouterr().err

    def test_stall_reports_iterations_taken(self, tmp_path, capsys):
        # the line search stalls at the 9th Newton step, after 8 accepted ones
        code = main(["optimize", "--builtin", "chaplygin", "--params", "m=1,J=1,a=1,b=0",
                     "--y0", "0.5,0.2", "--yT", "5,-4", "--T", "1", "--dt", "0.01",
                     "--newton-tol", "1e-17", "--out", str(tmp_path / "best.csv")])
        assert code == 4
        captured = capsys.readouterr()
        assert "shooting line search stalled" in captured.err
        assert "iterations: 8" in captured.out.splitlines()

    def test_legendre_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        from nhoc import cli
        from nhoc.errors import LegendreDivergence

        def failing_solve(sp, guess):
            raise LegendreDivergence("Legendre inversion stalled", control=np.ones(2))

        monkeypatch.setattr(cli, "solve_bvp", failing_solve)
        code = main(["optimize", "--builtin", "chaplygin", "--params", "m=1,J=1,a=1,b=0",
                     "--y0", "0.5,0.2", "--yT", "0.4,0.3", "--T", "1", "--dt", "0.01",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "LegendreDivergence" in capsys.readouterr().err


class TestCheck:
    @pytest.mark.parametrize("builtin,params", [
        ("suslov", "I11=2,I22=3,I33=4,I13=0.1,I23=0.2"),
        ("chaplygin", "m=1,J=1,a=1,b=0.5"),
    ])
    def test_builtins_pass(self, builtin, params, capsys):
        assert main(["check", "--builtin", builtin, "--params", params]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_invariant_failure_exits_1(self, monkeypatch, capsys):
        from nhoc import cli
        from nhoc.checks import CheckResult
        monkeypatch.setattr(cli, "run_all",
                            lambda model, spec: [CheckResult("forced failure", 1.0, 1e-10)])
        code = main(["check", "--builtin", "suslov"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_corrupted_config_exits_2(self, tmp_path):
        doc = {"name": "bad", "kind": "lie_algebra_constant", "rank_e": 3,
               "structure_constants": [[0, 0, 1, 1.0], [0, 1, 0, 1.0]],
               "metric": np.eye(3).tolist(),
               "constraint": {"annihilator": [[0.0, 0.0, 1.0]]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--config", str(path)]) == 2

    @pytest.mark.parametrize("field,value", [
        ("constraint", {"annihilator": [[float("nan"), 1.0, 0.0]]}),
        ("structure_constants", [[2, 0, 1, float("nan")]]),
    ])
    def test_non_finite_config_exits_2(self, tmp_path, capsys, field, value):
        doc = {"name": "nan", "kind": "lie_algebra_constant", "rank_e": 3,
               "structure_constants": [[2, 0, 1, 1.0]], "metric": np.eye(3).tolist(),
               "constraint": {"annihilator": [[0.0, 0.0, 1.0]]}, field: value}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # writes the NaN literal, which json reads back
        assert main(["check", "--config", str(path)]) == 2
        assert "ValidationError" in capsys.readouterr().err

    def test_malformed_config_array_exits_2(self, tmp_path, capsys):
        doc = {"name": "ragged", "kind": "lie_algebra_constant", "rank_e": 2,
               "structure_constants": [], "metric": [[1, "a"], [0, 1]],
               "constraint": {"span": [[1.0, 0.0]]}}
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--config", str(path)]) == 2
        assert "ValidationError" in capsys.readouterr().err


class TestDerive:
    def test_json_document(self, capsys):
        assert main(["derive", *SUSLOV_ARGS]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"q", "structure_constants", "restricted_metric",
                            "restricted_metric_inverse", "christoffel"}
        assert abs(doc["structure_constants"][0][0][1] - 0.05) < 1e-14
        assert abs(doc["christoffel"][0][1][1] - 0.1) < 1e-14
        assert doc["restricted_metric"] == [[2.0, 0.0], [0.0, 3.0]]
