"""Exception types shared across the package.

Most invalid-argument problems raise plain ``ValueError``; the classes here
mark conditions callers are expected to distinguish programmatically.
"""


class SpectrumQueryError(RuntimeError):
    """The eigenvalue query on a curvature-pair store could not be completed.

    Raised when the small middle system of the compact representation is
    singular to working precision or an intermediate overflows.  Spectrum
    enforcement treats this as a bound violation rather than propagating
    the error.
    """


class ConfigurationError(ValueError):
    """A solver or experiment configuration is internally inconsistent."""


class RegistryError(LookupError):
    """An unknown problem or solver name was requested."""


class UnsupportedProblemError(ValueError):
    """The requested operation needs problem features that are absent."""


class SpecFileError(ValueError):
    """An experiment or theory input file could not be parsed or validated."""


class BudgetExhaustedError(RuntimeError):
    """The experiment orchestrator ran out of its own wall-clock budget."""
