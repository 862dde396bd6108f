import dataclasses
import inspect
import json

import numpy as np
import pytest

from nhoc import (ConstrainedSystem, ControlDistribution, HamiltonianSystem, OCProblem,
                  ShootingProblem, StateQY, Trajectory, make_chaplygin, make_suslov,
                  quadratic_cost, simulate, solve_bvp)
from nhoc import bvp, cli
from nhoc.cli import main
from nhoc.dynamics import INTEGRATORS
from nhoc.hamiltonian import SCHEMES
from nhoc.models import BUILTIN_CONSTRUCTORS
from nhoc.errors import NewtonDivergence, ValidationError

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
        system = ConstrainedSystem(model, spec)
        traj = simulate(system, StateQY(q=[], y=[1.0, 1.0]), 0.02, 1e-3)
        assert np.array_equal(data[:, 1:3], traj.ys)
        assert np.array_equal(data[:, 3], traj.energies)

    @pytest.mark.parametrize("n, code", [("1.5", 2), ("2", 0)])
    def test_double_integrator_dimension_must_be_integral(self, tmp_path, capsys, n, code):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--builtin", "double_integrator", "--params", f"n={n}",
                     "--y0", "1,0", "--q0", "0,0", "--T", "0.1", "--dt", "0.01",
                     "--out", str(out)]) == code
        if code:
            assert "ValidationError" in capsys.readouterr().err and not out.exists()
        else:
            assert read_csv(out)[0] == ["t", "q_0", "q_1", "y_0", "y_1", "energy"]


    @pytest.mark.parametrize("params, message", [
        ("m=1,J", "bad --params item 'J', expected key=value"),
        ("m=one", "bad numeric value in --params item 'm=one'"),
        ("m=1,J=inf", "non-finite value in --params item 'J=inf'"),
    ])
    def test_bad_params_exit_2(self, tmp_path, capsys, params, message):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--builtin", "chaplygin", "--params", params, "--y0", "1,0",
                     "--T", "0.1", "--dt", "0.01", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and message in err and not out.exists()


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
        system = ConstrainedSystem(model, spec)
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
        assert capsys.readouterr().err == (
            "error: SingularHessian: regularity matrix is singular (det = 0.000e+00)\n")

    @pytest.mark.parametrize("weights", ["-1,1", "1,-1e-9"])
    def test_negative_weight_exits_2_before_any_solve(self, weights, tmp_path, capsys,
                                                      monkeypatch):
        # an indefinite W makes u = W^-1 B^T p_y a saddle of H in u, which
        # fails the Legendre-Clebsch condition
        monkeypatch.setattr(cli, "solve_bvp", lambda *args: pytest.fail("solve_bvp called"))
        out = tmp_path / "x.csv"
        code = main(["optimize", "--builtin", "chaplygin", "--params", "m=1,J=1,a=1,b=0",
                     "--y0", "0,0", "--yT", "0.3,0.2", "--T", "1", "--dt", "0.01",
                     f"--weights={weights}", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: ValidationError: --weights '{weights}' must be non-negative\n")
        assert not out.exists()

    def test_uniformly_small_weights_scale_the_momenta(self, tmp_path, capsys):
        p0 = {}
        for weights in ("1,1", "1e-6,1e-6"):
            code = main(["optimize", "--builtin", "chaplygin", "--y0", "0,0", "--yT", "0.3,0.2",
                         "--T", "1", "--dt", "0.01", "--weights", weights,
                         "--out", str(tmp_path / "x.csv")])
            out = capsys.readouterr().out
            assert code == 0, out
            line = next(line for line in out.splitlines() if line.startswith("p0: "))
            p0[weights] = np.array(line[4:].split(","), dtype=float)
        assert np.allclose(p0["1e-6,1e-6"], 1e-6 * p0["1,1"], rtol=1e-8, atol=0.0)

    def test_defaults_and_choices_are_the_shooting_setup_s(self, capsys):
        parse = cli.build_parser().parse_args
        model = ["--builtin", "chaplygin", "--y0", "0,0", "--T", "1", "--out", "x.csv"]
        opt = parse(["optimize", *model, "--yT", "0,0"])
        defaults = {f.name: f.default for f in dataclasses.fields(ShootingProblem)}
        assert defaults == dict(hs=dataclasses.MISSING, dt=1e-3, scheme="rk4",
                                tolerance=1e-10, max_iterations=50)
        assert (opt.dt, opt.integrator, opt.newton_tol, opt.max_iterations) == (
            defaults["dt"], defaults["scheme"], defaults["tolerance"], defaults["max_iterations"])
        sim = parse(["simulate", *model, "--dt", "0.1"])
        assert sim.integrator == inspect.signature(simulate).parameters["integrator"].default
        assert sim.integrator == "rk4"
        builtins = "--builtin {" + ",".join(BUILTIN_CONSTRUCTORS) + "}"
        for cmd, schemes in [("optimize", SCHEMES), ("simulate", INTEGRATORS),
                             ("check", None), ("derive", None)]:
            with pytest.raises(SystemExit):
                parse([cmd, "--help"])
            text = capsys.readouterr().out
            assert builtins in text
            if schemes is not None:
                assert "--integrator {" + ",".join(schemes) + "}" in text

    @pytest.mark.parametrize("builtin,boundary", [
        ("chaplygin", ["--y0", "0,0", "--yT", "0.1,0.1"]),
        # an infinite tolerance once passed the zero guess as solved: exit 0
        ("double_integrator", ["--q0", "0", "--qT", "1", "--y0", "0", "--yT", "0"])])
    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_newton_tolerance_rejected(self, tmp_path, capsys, tolerance, builtin,
                                                  boundary):
        out = tmp_path / "x.csv"
        code = main(["optimize", "--builtin", builtin, *boundary, "--T", "1", "--dt", "0.1",
                     "--newton-tol", tolerance, "--out", str(out)])
        assert code == 2
        assert "DimensionMismatch" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("guess, full_flows", [([], 2), (["--guess", "0,0"], 3)])
    def test_nonconvergence_writes_its_best_without_another_flow(self, guess, full_flows,
                                                                 tmp_path, monkeypatch):
        # the divergence carries the extremal of its best p0's full flow, so
        # the report integrates nothing more: from the boundary data the start
        # p0 and the best iterate are judged by their full flows, and a guess
        # adds its own first
        rows, flow = [], bvp.integrate_hamiltonian

        def counting(hs, phase0, t_final, dt, scheme):
            rows.append((np.atleast_2d(phase0.p_y).shape[0], round(t_final / dt)))
            return flow(hs, phase0, t_final, dt, scheme)

        monkeypatch.setattr(bvp, "integrate_hamiltonian", counting)
        code = main(["optimize", "--builtin", "chaplygin", "--y0", "0.5,0.2", "--yT", "5,-4",
                     "--T", "1", "--dt", "0.01", "--max-iterations", "1", *guess,
                     "--out", str(tmp_path / "best.csv")])
        assert code == 4
        assert rows.count((1, 100)) == full_flows

    def test_stall_reports_iterations_taken(self, tmp_path, capsys):
        # a tolerance below rounding makes the line search stall, at a Newton
        # step that moves with any rounding-level change of the flow, so the
        # count is read from the same solve made directly
        model, spec = make_chaplygin(m=1.0, J=1.0, a=1.0, b=0.0)
        problem = OCProblem(system=ConstrainedSystem(model, spec),
                            controls=ControlDistribution.full(2),
                            cost=quadratic_cost(np.eye(2)), horizon=1.0,
                            y0=[0.5, 0.2], yT=[5.0, -4.0])
        sp = ShootingProblem(hs=HamiltonianSystem(problem), dt=0.01, tolerance=1e-17)
        with pytest.raises(NewtonDivergence, match="line search stalled") as stalled:
            solve_bvp(sp, np.zeros(2))
        assert stalled.value.result.iterations > 0
        code = main(["optimize", "--builtin", "chaplygin", "--params", "m=1,J=1,a=1,b=0",
                     "--y0", "0.5,0.2", "--yT", "5,-4", "--T", "1", "--dt", "0.01",
                     "--newton-tol", "1e-17", "--out", str(tmp_path / "best.csv")])
        assert code == 4
        captured = capsys.readouterr()
        assert "shooting line search stalled" in captured.err
        assert f"iterations: {stalled.value.result.iterations}" in captured.out.splitlines()

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


DOUBLE_INTEGRATOR_ARGS = ["--builtin", "double_integrator", "--params", "n=1"]


def invalid_inputs():
    """(command, flag, value, error) of every invalid value of every flag
    that a command checks, on the double integrator (one chart coordinate,
    rank 1, two momenta), with the error its check raises."""
    flags = {"simulate": ["--T", "--dt", "--y0", "--q0"],
             "optimize": ["--T", "--dt", "--y0", "--yT", "--q0", "--qT", "--weights", "--guess"],
             "derive": ["--q"]}
    for command, names in flags.items():
        for flag in names:
            if flag in ("--T", "--dt"):
                # zero, negative, non-finite, and a step that does not divide T = 1
                values = ["0", "-1", "nan", "inf", "-inf"] + (["0.3"] if flag == "--dt" else [])
            else:
                # the wrong length, non-numeric, non-finite
                values = ["0,0,0", "a", "1,,2", "nan", "1,inf"] + (
                    ["-1", "-1e-9"] if flag == "--weights" else [])
            error = "DimensionMismatch" if flag in ("--T", "--dt") else "ValidationError"
            for value in values:
                yield command, flag, value, error


class TestInvalidInput:
    """Every invalid flag value exits 2, with its error named, and writes
    nothing.  Each check has one home: the vector flags in ``cli.vector_flag``
    (and the sign of ``--weights`` in ``cmd_optimize``), the horizon and step
    in ``step_count``, ``OCProblem`` and ``ShootingProblem``."""

    COMMANDS = {
        "simulate": ["simulate", *DOUBLE_INTEGRATOR_ARGS, "--q0", "0", "--y0", "1",
                     "--T", "1", "--dt", "0.1"],
        "optimize": ["optimize", *DOUBLE_INTEGRATOR_ARGS, "--q0", "0", "--qT", "1",
                     "--y0", "0", "--yT", "0", "--T", "1", "--dt", "0.1"],
        "derive": ["derive", *DOUBLE_INTEGRATOR_ARGS, "--q", "0"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_the_valid_commands_exit_0(self, tmp_path, capsys, command):
        out = ["--out", str(tmp_path / "x.csv")] if command != "derive" else []
        assert main(self.COMMANDS[command] + out) == 0

    @pytest.mark.parametrize("command, flag, value, error", list(invalid_inputs()))
    def test_invalid_value_exits_2(self, tmp_path, capsys, command, flag, value, error):
        out = tmp_path / "x.csv"
        # the flag's last occurrence is the one parsed
        argv = self.COMMANDS[command] + [f"{flag}={value}"]
        assert main(argv + (["--out", str(out)] if command != "derive" else [])) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {error}: ") and captured.out == ""
        assert not out.exists()

    # a zero weight leaves the regularity matrix singular: alone it exits 3
    ZERO_WEIGHT = ["optimize", "--builtin", "chaplygin", "--y0", "0,0", "--yT", "0.3,0.2",
                   "--T", "1", "--weights", "1,0"]

    @pytest.mark.parametrize("flag", ["--dt=-1", "--dt=0.3", "--newton-tol=0",
                                      "--max-iterations=-1"])
    def test_configuration_error_is_reported_before_the_regularity_check(
            self, tmp_path, capsys, flag):
        out = tmp_path / "x.csv"
        assert main(self.ZERO_WEIGHT + ["--out", str(out)]) == 3
        assert "SingularHessian" in capsys.readouterr().err
        assert main(self.ZERO_WEIGHT + [flag, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: DimensionMismatch: ") and captured.out == ""
        assert not out.exists()


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

    @pytest.mark.parametrize("command", ["check", "derive"])
    def test_zero_subbundle_config_exits_2(self, tmp_path, capsys, command):
        # an annihilator of full rank leaves D = {0}
        doc = {"name": "rigid", "kind": "lie_algebra_constant", "rank_e": 3,
               "structure_constants": [[2, 0, 1, 1.0]], "metric": np.eye(3).tolist(),
               "constraint": {"annihilator": np.eye(3).tolist()}}
        path = tmp_path / "rigid.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path)]) == 2
        assert "D = {0}" in capsys.readouterr().err

    @pytest.mark.parametrize("constraint", [{"span": []}, {"span": [[]]}, {"annihilator": []}],
                             ids=["empty_span", "empty_row_span", "empty_annihilator"])
    def test_empty_constraint_config_exits_2(self, tmp_path, capsys, constraint):
        # a document cannot spell a (0, rank_e) array: [] is a row of length 0
        doc = {"name": "empty", "kind": "lie_algebra_constant", "rank_e": 3,
               "structure_constants": [[2, 0, 1, 1.0]], "metric": np.eye(3).tolist(),
               "constraint": constraint}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--config", str(path)]) == 2
        assert "constraint rows must have length rank_e=3" in capsys.readouterr().err

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


class TestOutput:
    """The CSV writer, unwritable output paths and the parser kept per process."""

    @pytest.mark.parametrize("integral", [False, True])
    def test_rows_equal_the_per_value_format(self, tmp_path, integral):
        times, ys = np.arange(4.0), np.array([[-0.0, 5e-324], [1e308, -1e308],
                                               [3.0, -7.0], [0.1, 2.0 ** 60]])
        energies = np.array([1.5, -2.25, 0.0, 1e-300])
        if integral:  # integer samples format as their float values
            times, ys = np.arange(4), np.array([[0, -3], [7, 2 ** 60], [-5, 1], [11, 12]])
            energies = np.array([2, -1, 0, 10 ** 18])
        traj = Trajectory(times=times, qs=np.zeros((4, 0)), ys=ys, energies=energies)
        cli.write_trajectory_csv(tmp_path / "v.csv", traj)
        # the writer's former form: one "%.17g" format call per value
        rows = np.hstack([times.reshape(-1, 1), ys, energies.reshape(-1, 1)])
        expected = "t,y_0,y_1,energy\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
        assert (tmp_path / "v.csv").read_text() == expected

    def test_unwritable_path_raises_validation_error(self, tmp_path):
        traj = Trajectory(times=np.arange(2.0), qs=np.zeros((2, 0)), ys=np.ones((2, 1)))
        with pytest.raises(ValidationError):
            cli.write_trajectory_csv(tmp_path / "missing" / "t.csv", traj)
        with pytest.raises(ValidationError):
            cli.write_trajectory_csv(tmp_path, traj)

    @pytest.mark.parametrize("command", [
        ["simulate", *SUSLOV_ARGS, "--y0", "1,1", "--T", "0.1", "--dt", "0.01"],
        ["optimize", "--builtin", "double_integrator", "--params", "n=1", "--q0", "0",
         "--qT", "1", "--y0", "0", "--yT", "0", "--T", "1", "--dt", "0.01"]])
    def test_missing_output_directory_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "t.csv"
        assert main(command + ["--out", str(out)]) == 2
        assert "ValidationError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", *SUSLOV_ARGS, "--y0", "1,1", "--T", "0.1", "--dt", "0.01"],
        ["optimize", "--builtin", "double_integrator", "--params", "n=1", "--q0", "0",
         "--qT", "1", "--y0", "0", "--yT", "0", "--T", "1", "--dt", "0.01"]])
    @pytest.mark.parametrize("where", ["missing_directory", "directory", "file_as_directory"])
    def test_unwritable_out_rejected_before_the_flow(self, tmp_path, capsys, monkeypatch,
                                                     command, where):
        def never(*args, **kwargs):
            raise AssertionError("the flow ran before --out was checked")

        monkeypatch.setattr(cli, "simulate", never)
        monkeypatch.setattr(cli, "solve_bvp", never)
        (tmp_path / "file").write_text("")
        out = {"missing_directory": tmp_path / "missing" / "t.csv",
               "directory": tmp_path,
               "file_as_directory": tmp_path / "file" / "t.csv"}[where]
        before = sorted(tmp_path.rglob("*"))
        assert main(command + ["--out", str(out)]) == 2
        assert f"ValidationError: cannot write {out}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_in_process_calls_match_fresh_calls(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        commands = [
            ["simulate", *SUSLOV_ARGS, "--y0", "1,1", "--T", "0.1", "--dt", "0.01",
             "--out", str(out)],
            ["optimize", "--builtin", "chaplygin", "--y0", "0,0", "--yT", "0.1,0.1", "--T", "1",
             "--dt", "0.1", "--integrator", "stormer_verlet", "--out", str(out)],
            ["check", "--builtin", "chaplygin", "--params", "m=1,J=1,a=1,b=0"],
            ["derive", *SUSLOV_ARGS, "--q", ""],
            ["simulate", *SUSLOV_ARGS, "--y0", "1", "--T", "0.1", "--dt", "0.01",
             "--out", str(out)],
            ["optimize", "--builtin", "chaplygin", "--y0", "0,0", "--yT", "0.1,0.1", "--T", "1",
             "--dt", "0.1", "--max-iterations", "0", "--out", str(out)],
        ]

        def run(command):
            out.unlink(missing_ok=True)
            code = main(command)
            return code, capsys.readouterr(), out.read_bytes() if out.exists() else None

        in_process = [run(command) for command in commands]
        assert [result[0] for result in in_process] == [0, 0, 0, 0, 2, 4]
        for command, result in zip(commands, in_process):
            cli.build_parser.cache_clear()
            assert run(command) == result
