"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the physical or numerical domain of an operation."""


class StateSpecError(ValueError):
    """A product-state specification string could not be parsed."""


class ConfigError(ValueError):
    """An experiment configuration is invalid; message carries the field path."""


class FitDomainError(ValueError):
    """Fit input does not satisfy the preconditions of the fitting routine."""


class NoWavefrontError(RuntimeError):
    """No wavefront peak could be detected in a time series."""


class NumericalConsistencyError(RuntimeError):
    """A quantity violated a numerical sanity bound (imaginary residue, trace, positivity)."""
