"""Exception types shared across the package; the CLI exits 2 on a DatasetError
and 3 on the other three."""


class DomainError(ValueError):
    """Input outside the operation's domain (e.g. a point inside a support, a
    constant activation, a rank-deficient Gram, a contour enclosing nothing)."""


class SingularityError(ArithmeticError):
    """Evaluation at or numerically too close to a singular point (an eigenvalue,
    the interpolation peak, a width at the kernel's effective dimension)."""


class ConvergenceError(ArithmeticError):
    """An iterative solver failed; its message gives the iterations and residual."""


class DatasetError(Exception):
    """A dataset is unreadable or unusable; a malformed row's message starts with
    ``row <i>:`` (1-based)."""
