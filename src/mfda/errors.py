"""Exception hierarchy shared across the package.

Grouped by what the caller can do about them: input/usage problems,
model preconditions, and numerical failures. Each group has a base class,
and the CLI maps the bases to exit codes (2, 3, 4 respectively).
"""


class MfdaError(Exception):
    """Base class for all package errors."""


class InputError(MfdaError):
    """Bad input or usage: a file, parameter or data set the caller supplied."""


class PreconditionError(MfdaError):
    """Valid input that does not meet the model's requirements."""


class NumericalError(MfdaError):
    """A computation failed or is undefined on the given data."""


# -- input / usage ----------------------------------------------------------


class InvalidGridError(InputError, ValueError):
    """Grid points or quadrature weights violate their invariants."""


class GridMismatchError(InputError, ValueError):
    """Two curves (or a curve and a fit) do not share the same grid."""


class InvalidParameterError(InputError, ValueError):
    """A user-supplied parameter is out of its admissible range."""


def field_error(message: str, field: str, level: int | None = None) -> InvalidParameterError:
    """An InvalidParameterError marked with the container field at fault and,
    for a per-level field, the level, so a reader can name the file it came from."""
    error = InvalidParameterError(message)
    error.field, error.level = field, level
    return error


class MissingMeanError(InputError, KeyError):
    """A row's measure index has no supplied mean curve."""


class InvalidBasisError(InputError, ValueError):
    """A user-supplied basis is not orthonormal under the grid quadrature."""


class ParseError(InputError, ValueError):
    """A data or spec file could not be parsed; message carries the location."""


class DuplicateKeyError(InputError, ValueError):
    """Duplicate (subject, measure, replicate, channel, t) record in a file."""


class IncompleteCurveError(InputError, ValueError):
    """A curve group does not cover the shared grid."""


class EmptyDataError(InputError, ValueError):
    """An operation received an empty curve set or empty group."""


class ComponentMismatchError(InputError, ValueError):
    """Score matrices do not share the same component layout."""


# -- model preconditions ----------------------------------------------------


class InsufficientDataError(PreconditionError, ValueError):
    """Not enough rows, measures, or replicates for the requested fit."""


class UnbalancedDesignError(PreconditionError, ValueError):
    """The nested index set is not complete and rectangular."""


# -- numerical failures -----------------------------------------------------


class AsymmetricMatrixError(NumericalError, ValueError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class DegenerateSpectrumError(NumericalError, ValueError):
    """All eigenvalues are zero; no component can be selected."""


class SingularSystemError(NumericalError, ValueError):
    """A score system is singular (zero noise and collinear basis)."""


class UndefinedIccError(NumericalError, ValueError):
    """The ICC denominator vanishes."""


class UndefinedCorrelationError(NumericalError, ValueError):
    """A correlation is undefined (zero-variance input)."""
