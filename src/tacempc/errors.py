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


def quoted(value) -> str:
    """repr(value) for an error message: past 40 characters, its first 40
    and its full length."""
    text = repr(value)
    if len(text) <= 40:
        return text
    return f"{text[:40]}... ({len(text)} characters)"
