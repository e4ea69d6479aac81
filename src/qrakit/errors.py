"""Exception hierarchy shared across the toolkit."""


class QraError(Exception):
    """Base class for all toolkit errors. ``exit_code`` is the CLI's exit
    status: 1 bad input data, 2 bad usage, 3 a computation that cannot go on."""

    exit_code = 3


class InvalidSampleSize(QraError):
    """Raised when an operation needs at least two values and got fewer."""


class ValueBelowScale(QraError):
    """Raised when a measured value lies below its measurand's scale minimum."""


class DegenerateMean(QraError):
    """Raised when the shifted mean is zero and CV is undefined."""


class NonFiniteResult(QraError):
    """A statistic falls outside the float range (values near its limits)."""


class InvalidProbability(QraError):
    pass


class InvalidDf(QraError):
    pass


class InvalidParameters(QraError):
    """A usage error: a bad CLI argument or ``--out`` file, or bad simulation
    parameters (n, sigma, trials, seed)."""

    exit_code = 2


class UnknownObject(QraError):
    exit_code = 1


class UnknownMeasurand(QraError):
    exit_code = 1


class EmptyGroup(QraError):
    """No measurements match the requested (object, measurand) pair."""

    exit_code = 1


class MixedGroup(QraError):
    """A measurement group spans more than one object or measurand."""


class ParseError(QraError):
    """Input file could not be parsed."""

    exit_code = 1


class EncodeError(QraError):
    """Text holds a character that cannot be written, such as a lone surrogate."""

    exit_code = 1


class SchemaError(QraError):
    """Input file is missing a required column or field."""

    exit_code = 1


class ValidationError(QraError):
    """Dataset validation produced blocking issues."""

    exit_code = 1

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__(
            "; ".join(f"{i.location}: {i.message}" for i in self.issues)
        )
