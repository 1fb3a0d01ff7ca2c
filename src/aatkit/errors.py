"""Exception types raised by the toolkit.

Every engine error is a subclass of AatkitError so the CLI can map any of
them to exit code 1 with a structured report; schema problems get their own
branch (exit code 2).
"""


class AatkitError(Exception):
    """Base class for all toolkit errors."""


# -- polynomial / scalar layer -------------------------------------------

class MissingVariable(AatkitError):
    """An evaluation assignment does not cover every variable."""


class DegreeZero(AatkitError):
    """Operation requires positive degree in the distinguished variable."""


class DegreeTooLow(AatkitError):
    """Discriminant needs degree >= 2 in the distinguished variable."""


class InexactDivision(AatkitError):
    """Exact polynomial division left a nonzero remainder."""


class DivisionByZeroScalar(AatkitError, ZeroDivisionError):
    """Division by an exact zero scalar.  It is also a ZeroDivisionError,
    so arithmetic code that catches that keeps working."""


class PolyDomainError(AatkitError):
    """A polynomial operation got an argument outside its domain: a bad
    exponent vector, a negative power, or a variable it cannot take, drop
    or rename."""


# -- series layer ---------------------------------------------------------

class SingularCenter(AatkitError):
    """Requested expansion center is a pole or branch point."""


class OutsideDisc(AatkitError):
    """Recentering target lies outside the estimated convergence disc."""


class TooFewCoefficients(AatkitError):
    """Radius estimation needs at least 8 nonzero coefficients."""


class CenterMismatch(AatkitError):
    """Series arithmetic requires identical centers."""


class DivisionByZeroSeries(AatkitError):
    """Divisor is identically zero to the available order."""


class NumericOverflow(AatkitError):
    """A value lies beyond the double range: a binary-scale series value,
    or a point of a monodromy loop."""


# -- elimination layer ----------------------------------------------------

class OrderExhausted(AatkitError):
    """A leading coefficient is indistinguishable from zero at the working
    order; the caller must raise the truncation order."""


class DegreeCollapse(AatkitError):
    """An intermediate resultant vanished identically (common factor)."""


# -- algebroid layer ------------------------------------------------------

class NotSquareFree(AatkitError):
    """Curve polynomial has a repeated factor in the dependent variable."""


class RootFindingFailure(AatkitError):
    """Numeric root finding failed; message carries the offending data."""


class NearSingular(AatkitError):
    """Continuation path violates the singularity clearance margin."""


class CorrectionDiverged(AatkitError):
    """Newton corrector failed to converge above the step floor."""


class AmbiguousMatching(AatkitError):
    """Two tracked branch values landed within matching tolerance."""


# -- addition-theorem layer -----------------------------------------------

class SingularBasePoint(AatkitError):
    """The chosen base point is not a regular point of the function."""


class OrderTooLowForDegree(AatkitError):
    """Series order must exceed the polynomial degree for verification."""


class OrderTooLow(AatkitError):
    """Series order too small for the requested degree bounds."""


class ChainCollapse(AatkitError):
    """An elimination step of the normalization chain returned zero."""


class PreconditionFailed(AatkitError):
    """The input relation does not hold, so the chain cannot start."""


class ShiftDegenerate(AatkitError):
    """A zero shift was supplied to the reduction, or a zero or non-finite
    period to its verification."""


# -- period layer ---------------------------------------------------------

class InsufficientRoots(AatkitError):
    """Fewer roots than requested even after maximal region growth."""


class DerivativeVanishes(AatkitError):
    """All Newton seeds hit a vanishing derivative."""


class NoEqualPair(AatkitError):
    """No equal pair among the shifted values after all retries."""


class AllPointsSingular(AatkitError):
    """No usable sample point found for period verification."""


# -- CLI layer ------------------------------------------------------------

class SchemaError(AatkitError):
    """Input file does not match any of the accepted JSON schemas."""


class InvariantViolation(AatkitError):
    """Parsed object violates a domain-type invariant (e.g. p0 == 0, or a
    complex value that must be finite is NaN or infinite)."""
