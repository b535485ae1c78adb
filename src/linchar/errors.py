"""Exception types shared across the package."""


class LincharError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedRank(LincharError, ValueError):
    """An operation that needs explicit root coordinates was asked for rank > 3."""


class InexactDivision(LincharError, ArithmeticError):
    """A division that must be exact left a remainder; signals a bug upstream."""


class SelfCheckFailed(LincharError, AssertionError):
    """An internal consistency check failed; signals a bug upstream."""


class NotAdmissible(LincharError, ValueError):
    """The requested residue class is not admissible for the averaging construction."""


class NonConvergence(LincharError, RuntimeError):
    """Root iteration did not converge; the message names the stop it hit."""


class OutOfDoubleRange(LincharError, ArithmeticError):
    """A polynomial's coefficients or roots leave the range of doubles, so
    its roots cannot be found in floating point."""


class OracleTooLarge(LincharError, ValueError):
    """The enumeration oracle was asked for more points than it will allocate."""


class QTooSmall(LincharError, ValueError):
    """The modulus q is not in the safe quasi-polynomial regime q > m*h."""
