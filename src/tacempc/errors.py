"""Shared exception types."""


class TacempcError(Exception):
    """Base class for all package errors."""


class DomainError(TacempcError, ValueError):
    """A point lies outside the domain an operation is defined on."""


class ConfigError(TacempcError, ValueError):
    """Inconsistent or invalid configuration data."""


class InfeasibleError(TacempcError, RuntimeError):
    """No feasible point could be found.

    Carries the best constraint residual seen, when available.
    """

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual
