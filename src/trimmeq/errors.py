"""Exception types shared across the package.

Gate failures inside the reduction pipelines ("No" answers) are signalled
by ``None`` returns, not exceptions; the classes here mark broken contracts
or malformed inputs.
"""


class TrimmeqError(Exception):
    """Base class for all package errors."""


class ModulusMismatch(TrimmeqError):
    """Two values from different prime fields were combined."""


class DivisionByZero(TrimmeqError, ZeroDivisionError):
    """Division or inversion of zero in a prime field."""


class NotPrime(TrimmeqError):
    """Modulus failed the probable-prime check."""


class ShapeMismatch(TrimmeqError):
    """Matrix/vector dimensions are incompatible."""


class Singular(TrimmeqError):
    """A matrix that must be invertible is singular."""


class ArityMismatch(TrimmeqError):
    """A blackbox was queried with the wrong number of coordinates."""


class SizeBound(TrimmeqError):
    """Symbolic determinant requested above the configured size bound."""


class NotAPerfectPower(TrimmeqError):
    """w-th root extraction verified that the input is not c*g^w."""


class CertificationFailed(TrimmeqError):
    """A randomized construction failed its identity-test certification."""


class StructureViolation(TrimmeqError):
    """A matrix expected to have Kronecker-product structure does not."""


class InputError(TrimmeqError):
    """Malformed user-supplied input (basis not independent, bad file, ...)."""


class NotClosed(TrimmeqError):
    """The given span is not closed under matrix multiplication."""


class Degenerate(TrimmeqError):
    """The constrained-tensor system admits only the zero polynomial."""
