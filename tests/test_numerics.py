from collections import Counter
from types import SimpleNamespace
import warnings

import numpy as np
import pytest

from nhoc import numerics
from nhoc.errors import NonFiniteState
from nhoc.numerics import (BLOWUP_LIMIT, FD_STEP, ComplexWarning, central_differences,
                           central_stencil, check_finite, complex_step_pass, fd_jacobian,
                           fd_partials, stencil_partials)


def complex_step_partials(f, q):
    """The complex-step partials of one callable: a pass of one job."""
    return complex_step_pass([(f, q, None)])[0]


class TestFdJacobian:
    def test_empty_point_keeps_the_rows_of_f(self):
        f = lambda x: np.ones(3)
        assert fd_jacobian(f, np.zeros(0)).shape == (3, 0)

    def test_central_form_matches_the_exact_jacobian(self):
        f = lambda x: np.stack([np.exp(x[..., 0]) * x[..., 1], x[..., 1] ** 3], axis=-1)
        x = np.array([0.2, 0.5])
        exact = np.array([[np.exp(x[0]) * x[1], np.exp(x[0])], [0.0, 3.0 * x[1] ** 2]])
        assert np.abs(fd_jacobian(f, x) - exact).max() < 1e-9


def metric_like(q):
    return np.array([[1.0 + q[0] ** 2, np.sin(q[1])], [np.sin(q[1]), 2.0 + q[0] * q[1]]])


def real_part_only(q):
    return metric_like(np.real(q))


def float_conversion(q):
    return metric_like(np.array([float(v) for v in q.tolist()]))  # complex: TypeError


def cast_into_real_array(q):
    out = np.zeros((2, 2))
    out[:] = metric_like(q)  # complex input: ComplexWarning
    return out


def abs_entry(q):
    return metric_like(q) + np.diag([np.abs(q[0]), 0.0])


def real_entry(q):
    return metric_like(q) + np.diag([0.0, np.real(q[1]) ** 2])


def norm_entry(q):
    return metric_like(q) * np.linalg.norm(q)


def conj_entry(q):
    return metric_like(q) + np.diag([np.conj(q[0]), np.conj(q[0])])


class TestComplexStep:
    def test_exact_to_rounding(self):
        q = np.array([0.4, -0.3])
        exact = np.array([[[2.0 * q[0], 0.0], [0.0, q[1]]],
                          [[0.0, np.cos(q[1])], [np.cos(q[1]), q[0]]]])
        assert np.abs(complex_step_partials(metric_like, q) - exact).max() < 1e-15
        # central differences of the same callable sit near 1e-10
        assert np.abs(fd_partials(metric_like, q) - exact).max() > 1e-12

    @pytest.mark.parametrize("f", [real_part_only, float_conversion, cast_into_real_array])
    def test_callable_dropping_the_imaginary_part_keeps_central_differences(self, f):
        q = np.array([0.4, -0.3])
        assert complex_step_partials(f, q).tobytes() == fd_partials(f, q).tobytes()

    @pytest.mark.parametrize("f", [abs_entry, real_entry, norm_entry, conj_entry])
    def test_callable_dropping_it_in_some_entries_keeps_central_differences(self, f):
        # the result stays complex, so only the check along one direction
        # tells these partials from exact ones
        z = np.array([0.4 + 1e-30j, -0.3])
        assert np.iscomplexobj(f(z))
        for q in (np.array([0.4, -0.3]), np.array([-0.2, 0.6])):
            assert complex_step_partials(f, q).tobytes() == fd_partials(f, q).tobytes()
        stack = np.array([[0.4, -0.3], [-0.2, 0.6]])
        assert (complex_step_partials(f, stack).tobytes()
                == np.stack([fd_partials(f, q) for q in stack]).tobytes())

    def test_each_point_of_a_stack_gets_its_own_verdict(self):
        # at q0 = 0 the abs entry has no partial to miss: the complex step stays
        stack = np.array([[0.0, -0.3], [0.4, 0.6]])
        out = complex_step_partials(abs_entry, stack)
        for row, q in zip(out, stack):
            assert row.tobytes() == complex_step_partials(abs_entry, q).tobytes()
        assert out[0].tobytes() != fd_partials(abs_entry, stack[0]).tobytes()
        assert out[1].tobytes() == fd_partials(abs_entry, stack[1]).tobytes()
        # callables that raise TypeError, or cast into a real array, at some
        # points of a stack only: those points alone take central differences
        stack = np.array([[0.4, -0.3], [-0.2, 0.6], [0.1, 0.2], [-0.5, -0.1]])
        for dropping in (float_conversion, cast_into_real_array, real_part_only):
            f = lambda q, g=dropping: g(q) if q.real[0] > 0 else metric_like(q)
            out = complex_step_partials(f, stack)
            for row, q in zip(out, stack):
                assert row.tobytes() == complex_step_partials(f, q).tobytes()
                fd = fd_partials(f, q).tobytes()
                assert (row.tobytes() == fd) == (q[0] > 0), (dropping.__name__, q)

    def test_those_callables_do_drop_the_imaginary_part(self):
        z = np.array([0.4 + 1e-30j, -0.3])
        assert not np.iscomplexobj(real_part_only(z))
        with pytest.raises(TypeError):
            float_conversion(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ComplexWarning)
            with pytest.raises(ComplexWarning):
                cast_into_real_array(z)

    def test_scalar_function(self):
        d = complex_step_partials(lambda q: 0.25 * q[0] ** 2, np.array([0.7]))
        assert d.shape == (1,) and abs(d[0] - 0.35) <= 1e-16


CONSTANT_ANCHOR = np.array([[1.0, 0.2], [0.5, -0.3]])


def constant_anchor(q):
    return CONSTANT_ANCHOR  # a real array at every point, complex or not


def abs_where_positive(q):
    # drops the imaginary part only at the points where q0 > 0
    return 0.25 * q[0] ** 2 + np.cos(q[1]) + (np.abs(q[0]) if q.real[0] > 0 else 0.0)


class TestComplexStepPass:
    """One pass over several callables, each at its own stack of chart points."""

    STACK = np.array([[0.4, -0.3], [-0.2, 0.6], [0.1, 0.2], [-0.5, -0.1], [-0.05, 0.3]])

    def jobs(self):
        rows = self.STACK[:2]
        return [(metric_like, self.STACK), (constant_anchor, rows),
                (abs_where_positive, self.STACK), (float_conversion, rows)]

    def test_mixed_stack_equals_single_calls(self, monkeypatch):
        entered = []
        catch_warnings = warnings.catch_warnings
        monkeypatch.setattr(numerics, "warnings", SimpleNamespace(
            catch_warnings=lambda: entered.append(1) or catch_warnings(),
            simplefilter=warnings.simplefilter))
        out = complex_step_pass([(f, q, None) for f, q in self.jobs()])
        assert len(entered) == 1
        monkeypatch.undo()
        for (f, q), partials in zip(self.jobs(), out):
            assert partials.tobytes() == complex_step_partials(f, q).tobytes(), f.__name__
            assert partials.shape == (len(q),) + fd_partials(f, q).shape[1:]
            # the verdicts: central differences exactly where f drops the
            # imaginary part (abs_where_positive: at q0 > 0 only)
            dropped = [partials[j].tobytes() == fd_partials(f, point).tobytes()
                       for j, point in enumerate(q)]
            expected = {"metric_like": [False] * len(q), "constant_anchor": [True] * len(q),
                        "float_conversion": [True] * len(q),
                        "abs_where_positive": list(q[:, 0] > 0)}[f.__name__]
            assert dropped == expected, f.__name__

    def test_each_callable_called_as_in_its_own_call(self):
        counts, single = Counter(), Counter()

        def counted(f, counter):
            return lambda q: counter.update([f.__name__]) or f(q)

        complex_step_pass([(counted(f, counts), q, None) for f, q in self.jobs()])
        for f, q in self.jobs():
            complex_step_partials(counted(f, single), q)
        assert counts == single

    def test_given_central_differences_replace_the_fallback(self):
        # the caller's differences are used as they are, at the dropped points only
        rows = self.STACK
        held = np.arange(rows.size, dtype=float).reshape(rows.shape) + 0.5
        out = complex_step_pass([(abs_where_positive, rows, held),
                                 (constant_anchor, rows[:2], np.ones((2, 2, 2, 2)))])
        exact = complex_step_partials(abs_where_positive, rows)
        for j, q in enumerate(rows):
            expected = held[j] if q[0] > 0 else exact[j]
            assert out[0][j].tobytes() == expected.tobytes()
        assert out[1].tobytes() == np.ones((2, 2, 2, 2)).tobytes()


class TestCentralStencil:
    X = np.array([[0.3, -0.7], [1.1, 0.2], [0.0, 0.5]])

    @pytest.mark.parametrize("step", [FD_STEP, 1e-4])
    def test_points_are_the_shifted_rows_only(self, step):
        x = self.X
        points = central_stencil(x, step)
        assert points.shape == (len(x) * 4, 2)
        shifts = step * np.eye(2)
        for j, row in enumerate(x):
            for i in range(2):
                assert points[2 * j + i].tobytes() == (row + shifts[i]).tobytes()
                assert points[6 + 2 * j + i].tobytes() == (row - shifts[i]).tobytes()

    def test_jacobians_equal_fd_jacobian(self):
        x = self.X
        f = lambda p: np.stack([p[..., 0] * p[..., 1], np.sin(p[..., 1]), p[..., 0] ** 3],
                               axis=-1)
        jac = central_differences(f(central_stencil(x)), len(x))
        assert jac.shape == (3, 3, 2) and jac.flags.c_contiguous
        for row, xr in zip(jac, x):
            assert row.tobytes() == fd_jacobian(f, xr).tobytes()

    @pytest.mark.parametrize("step", [FD_STEP, 1e-4])
    def test_partials_equal_fd_partials(self, step):
        x = self.X
        values = np.array([metric_like(p) for p in central_stencil(x, step)])
        partials = stencil_partials(values, len(x), step)
        assert partials.shape == (3, 2, 2, 2)
        assert partials.tobytes() == fd_partials(metric_like, x, step).tobytes()
        for row, xr in zip(partials, x):
            assert row.tobytes() == fd_partials(metric_like, xr, step).tobytes()

    def test_empty_chart_has_no_points_and_empty_partials(self):
        x = np.zeros((3, 0))
        assert central_stencil(x).shape == (0, 0)
        assert stencil_partials(np.zeros((0, 2, 2)), 3).shape == (3, 0, 2, 2)
        assert fd_partials(lambda q: np.ones((2, 2)), x).shape == (3, 0, 2, 2)


class TestCheckFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0 * BLOWUP_LIMIT,
                                     -2.0 * BLOWUP_LIMIT])
    def test_one_bad_entry_in_one_row_raises(self, bad):
        stack = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        stack[1, 2] = bad
        with pytest.raises(NonFiniteState):
            check_finite(stack)

    @pytest.mark.parametrize("shape", [(0,), (0, 4)])
    def test_empty_stack_passes(self, shape):
        check_finite(np.empty(shape))

    def test_finite_stack_passes(self):
        stack = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        stack[2, 3] = BLOWUP_LIMIT
        check_finite(stack)

    @pytest.mark.parametrize("shape", [(4,), (3, 4)])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, -0.5, -BLOWUP_LIMIT,
                                       BLOWUP_LIMIT, np.nextafter(BLOWUP_LIMIT, np.inf),
                                       -np.nextafter(BLOWUP_LIMIT, np.inf)])
    def test_verdicts_of_the_former_max_form(self, shape, entry):
        z = np.linspace(-1.0, 1.0, int(np.prod(shape))).reshape(shape)
        z[(-1,) * len(shape)] = entry
        passes = bool(np.abs(z).max() <= BLOWUP_LIMIT)  # the former check
        assert passes == (abs(entry) <= BLOWUP_LIMIT)
        if passes:
            check_finite(z)
        else:
            with pytest.raises(NonFiniteState):
                check_finite(z)
