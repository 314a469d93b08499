"""Exception hierarchy shared by all infoclosure modules."""


class InfoClosureError(Exception):
    """Base class for every error raised by this package."""


class DomainError(InfoClosureError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class AlphabetMismatchError(DomainError):
    """A symbol outside the alphabet, or two sizes that must agree differ.

    Raised by ``process.check_symbol`` and ``process.check_size`` only.
    """


class ResourceCapError(InfoClosureError, RuntimeError):
    """An enumeration or allocation would exceed its fixed size cap or budget.

    The message gives the size asked for and carries a remediation hint
    (typically: ask for a smaller t, or for fewer states or samples).
    """


class InternalConsistencyError(InfoClosureError, RuntimeError):
    """Two computations that must agree by theory disagreed numerically."""


class QuadratureError(InfoClosureError, RuntimeError):
    """Numerical integration did not reach the requested accuracy."""


class WitnessFailedError(InfoClosureError, RuntimeError):
    """A divergence witness could not be established for the given priors."""
