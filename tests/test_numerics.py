import warnings

import numpy as np
import pytest

from nhoc.numerics import (ComplexWarning, central_differences, central_stencil,
                           complex_step_partials, fd_jacobian, fd_partials)


class TestFdJacobian:
    def test_empty_point_keeps_the_rows_of_f(self):
        f = lambda x: np.ones(3)
        assert fd_jacobian(f, np.zeros(0)).shape == (3, 0)
        assert fd_jacobian(f, np.zeros(0), f0=f(np.zeros(0))).shape == (3, 0)

    def test_forward_form_evaluates_the_stacked_points_once(self):
        calls = []

        def f(x):
            calls.append(x.shape)
            return np.stack([x[..., 0] * x[..., 1], x[..., 0] ** 2, np.sin(x[..., 1])],
                            axis=-1)

        x = np.array([0.3, -0.7])
        f0 = f(x)
        jac = fd_jacobian(f, x, step=1e-7, f0=f0)
        assert calls == [(2,), (2, 2)]
        exact = np.array([[x[1], x[0]], [2.0 * x[0], 0.0], [0.0, np.cos(x[1])]])
        assert np.abs(jac - exact).max() < 1e-6

    def test_central_form_matches_forward_form(self):
        f = lambda x: np.stack([np.exp(x[..., 0]) * x[..., 1], x[..., 1] ** 3], axis=-1)
        x = np.array([0.2, 0.5])
        central = fd_jacobian(f, x)
        forward = fd_jacobian(f, x, step=1e-7, f0=f(x))
        assert np.abs(central - forward).max() < 1e-6


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


class TestCentralStencil:
    def test_rows_and_jacobians_equal_fd_jacobian(self):
        x = np.array([[0.3, -0.7], [1.1, 0.2], [0.0, 0.5]])
        f = lambda p: np.stack([p[..., 0] * p[..., 1], np.sin(p[..., 1]), p[..., 0] ** 3],
                               axis=-1)
        points = central_stencil(x)
        assert points.shape == (len(x) * 5, 2)
        assert points[:len(x)].tobytes() == x.tobytes()
        jac = central_differences(f(points), 2)
        assert jac.shape == (3, 3, 2) and jac.flags.c_contiguous
        for row, xr in zip(jac, x):
            assert row.tobytes() == fd_jacobian(f, xr).tobytes()
