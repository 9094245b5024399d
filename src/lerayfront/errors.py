"""Structured errors shared across the package.

Every error carries an exit code used by the CLI so that failure modes are
distinguishable by scripts.  Codes are documented in the README.
"""


class LerayfrontError(Exception):
    exit_code = 18


class RingMismatchError(LerayfrontError):
    exit_code = 18


class UsageError(LerayfrontError):
    """A problem file lacks an entry, or an option or flag value does not parse."""

    exit_code = 2


class ExpressionSyntaxError(LerayfrontError):
    exit_code = 3

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownVariableError(LerayfrontError):
    exit_code = 4


class NegativeExponentError(LerayfrontError):
    exit_code = 4


class NoPositiveSolutionError(LerayfrontError):
    """The front polynomial admits no positive quasihomogeneous weights."""

    exit_code = 5


class AmbiguousWeightsError(LerayfrontError):
    """Weight solution space has dimension > 1; explicit weights required."""

    exit_code = 5


class HomogeneousOnlyError(LerayfrontError):
    """All weights forced equal: the front must not be homogeneous."""

    exit_code = 5


class InfiniteDimensionalError(LerayfrontError):
    exit_code = 6


class HyperbolicityError(LerayfrontError):
    exit_code = 7

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BoundViolationError(LerayfrontError):
    exit_code = 8


class NotIsolatedError(LerayfrontError):
    exit_code = 9

    def __init__(self, message, witness_variable=None):
        super().__init__(message)
        self.witness_variable = witness_variable


class CapExceededError(LerayfrontError):
    exit_code = 10

    def __init__(self, message, found=None, needed=None):
        super().__init__(message)
        self.found = found
        self.needed = needed


class ReductionNoSolutionError(LerayfrontError):
    exit_code = 11


class DegenerateSystemError(LerayfrontError):
    exit_code = 12


class ZeroAfterSubstitutionError(LerayfrontError):
    exit_code = 13


class ResourceLimitError(LerayfrontError):
    exit_code = 14

    def __init__(self, message, kind, limit):
        super().__init__(message)
        self.kind = kind
        self.limit = limit


class CurvatureNonzeroError(LerayfrontError):
    exit_code = 15

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class MismatchError(LerayfrontError):
    exit_code = 16

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ProblemFileError(LerayfrontError):
    """A file cannot be read or written, or the problem file is not JSON."""

    exit_code = 17


class NoSolutionError(LerayfrontError):
    """Exact linear system has no solution."""

    exit_code = 18


class NotApplicableError(LerayfrontError):
    exit_code = 19
