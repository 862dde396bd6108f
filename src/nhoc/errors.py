"""Exception hierarchy shared by all nhoc modules."""


class NhocError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(NhocError):
    """Constraint vectors or covectors are not linearly independent."""


class SingularMetric(NhocError):
    """A (restricted) bundle metric is not invertible where it must be."""


class NotPositiveDefinite(NhocError):
    """A matrix required to be symmetric positive-definite is not."""


class DimensionMismatch(NhocError):
    """An array argument has the wrong length or shape, or a setting (a
    horizon, a step, a tolerance) is out of its range."""


class ConstraintViolated(NhocError):
    """A state does not satisfy the velocity constraint."""


class NonFiniteState(NhocError):
    """A flow produced a non-finite or blown-up state, or met a non-finite
    control u(t) during the flow.  A non-finite array that a caller passes
    in is a ValidationError."""


class SingularHessian(NhocError):
    """The cost Hessian (regularity matrix) is singular at a state."""


class NewtonDivergence(NhocError):
    """The shooting Newton iteration failed to converge.

    Carries ``result``, the ``bvp.ShootingResult`` of the iterate it reports:
    its initial momenta p0, their extremal and cost, the Newton iterations
    taken and the residual norm of p0's full-horizon flow, so callers report
    partial progress as they report a converged solve.
    """

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class LegendreDivergence(NhocError):
    """The Newton inversion C_u(q, y, u) = B^T p_y found no control u.

    Carries the last control iterate and its residual norm; the control is
    not a momentum, so it is no starting point for the shooting solve.
    """

    def __init__(self, message, control=None, residual_norm=None):
        super().__init__(message)
        self.control = control
        self.residual_norm = residual_norm


class SingularJacobian(NhocError):
    """The finite-difference shooting Jacobian is singular."""


class FixedPointDivergence(NhocError):
    """An implicit integrator substep failed: its fixed point was not reached
    or not finite, or its linear system (the kick of a quadratic cost) is
    singular or gave non-finite momenta."""


class ParseError(NhocError):
    """A model configuration document could not be parsed."""


class ValidationError(NhocError):
    """A parsed model configuration, or any array that a caller passes in,
    violates a structural invariant: it is not numeric, is ragged or has a
    non-finite entry (``numerics.checked_array``)."""
