"""Exception types shared across the package."""


class EclatError(Exception):
    """Base class for package-specific errors."""


class LengthMismatch(EclatError):
    """Vector length does not match the ambient dimension."""


class NotInAn(EclatError):
    """Vector coordinates do not sum to zero."""


class BadInput(EclatError, ValueError):
    """Input outside a documented domain: a curve prime that is not a prime above 3."""


class BadSize(EclatError):
    """Size parameter outside the range a construction supports."""


class BadShape(EclatError):
    """Group shape outside the range a construction supports."""


class SearchBoundExceeded(EclatError):
    """A lattice search refused: it would pass its node budget or the recursion limit."""


class CurveTooLarge(EclatError):
    """Curve prime exceeds the point-enumeration bound."""


class SingularCurve(EclatError):
    """Discriminant vanishes: the equation does not define an elliptic curve."""


class PointNotOnCurve(EclatError):
    """Point fails the curve equation."""


class InternalInconsistency(EclatError):
    """A structural invariant failed; indicates a bug, not bad input."""
