"""Exception types shared across the package."""


class PlaneError(Exception):
    """Base class for every failure raised by this package."""


class EmptyInputError(PlaneError):
    """An operation that needs at least one point received none."""


class NotSymmetricError(PlaneError):
    """Unit-ball polygon is not centrally symmetric."""


class NotConvexError(PlaneError):
    """Unit-ball polygon is not in strictly convex position."""


class OriginOutsideError(PlaneError):
    """Unit-ball polygon does not strictly contain the origin."""


class OddVertexCountError(PlaneError):
    """Unit-ball polygon has an odd number of vertices."""


class ZeroVectorError(PlaneError):
    """A direction query was made with the zero vector."""


class NotUnitFunctionalError(PlaneError):
    """A functional expected to have dual norm one does not."""


class InfeasibleError(PlaneError):
    """No selection of norming functionals sums to zero at this point."""


class EmptyIntersectionError(PlaneError):
    """A cone intersection came out empty, so the certificate is invalid."""


class CertificateError(PlaneError):
    """Solver self-check failed: a produced certificate does not verify."""


class WitnessFailedError(PlaneError):
    """A non-uniqueness witness did not solve to the promised region kind."""


class LambdaTooSmallError(PlaneError):
    """Regular-polygon plane parameter must be at least 2."""


class PreconditionViolatedError(PlaneError):
    """Input violates a documented precondition of the operation."""


class InputFormatError(PlaneError, ValueError):
    """A norm or points document, or a tolerance, is malformed or out of range.

    Also a ValueError, so callers that validate with ValueError still catch it.
    """
