"""Exception types shared across the package.

Two kinds of failure, split as the command line's exit codes split them:
bad input (exit 1) and a self-check that rejected the package's own answer
(exit 2). The message names the problem.
"""


class PlaneError(Exception):
    """Base class for every failure raised by this package."""


class InputError(PlaneError, ValueError):
    """The input is malformed or violates a precondition: a norm, a points
    document, a tolerance, a plane parameter, an empty point set, a zero
    direction or a triangle outside the operation's domain.

    Also a ValueError, so callers that validate with ValueError still catch it.
    """


class CertificateError(PlaneError):
    """Solver self-check failed: no certificate was found, a produced one does
    not verify, its cones do not meet, or a witness did not solve to the
    promised region kind."""
