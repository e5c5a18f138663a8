"""Exception types shared across the package."""


class EpdiffError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatchError(EpdiffError, ValueError):
    """Two fields on different grids were combined."""


class NumericalFailureError(EpdiffError, RuntimeError):
    """A solver or time step failed numerically.

    Attributes
    ----------
    residual : float or None
        The residual (relative, in the grid norm) achieved before giving up,
        when one is available.
    step : int or None
        The index of the time step being computed, when the failure happened
        inside :func:`epdiff.steppers.integrate`.
    """

    def __init__(
        self, message: str, residual: float | None = None, step: int | None = None
    ):
        super().__init__(message)
        self.residual = residual
        self.step = step


class NonConvergenceError(NumericalFailureError):
    """A fixed-point or Krylov iteration exhausted its budget."""


class ConfigError(EpdiffError, ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""
