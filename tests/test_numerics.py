import numpy as np

from nhoc.numerics import fd_jacobian


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
