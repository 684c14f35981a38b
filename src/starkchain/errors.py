"""Exception types shared across the package."""


class StarkchainError(Exception):
    """Base of every error the package raises on purpose."""


class DomainError(StarkchainError, ValueError):
    """An argument is outside the physical or numerical domain of an operation."""


class StateSpecError(StarkchainError, ValueError):
    """A product-state specification string could not be parsed."""


class ConfigError(StarkchainError, ValueError):
    """An experiment configuration is invalid; message carries the field path."""


class FitDomainError(StarkchainError, ValueError):
    """Fit input does not satisfy the preconditions of the fitting routine."""


class NoWavefrontError(StarkchainError, RuntimeError):
    """No wavefront peak could be detected in a time series."""


class NumericalConsistencyError(StarkchainError, RuntimeError):
    """A quantity violated a numerical sanity bound (imaginary residue, trace, positivity)."""
