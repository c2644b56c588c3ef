"""Exception taxonomy shared by the whole package."""


class CleanMatrixError(Exception):
    """Base class for every library error."""


class InvalidSpec(CleanMatrixError):
    """Ring parameters are malformed (composite p, s >= m, n < 1, ...)."""


class OwnerMismatch(CleanMatrixError):
    """Operands belong to different rings."""


class NotLocal(CleanMatrixError):
    """Operation needs a local ring and the owner is not one."""


class NotAUnit(CleanMatrixError):
    """Inversion of a non-unit was requested."""


class InfiniteRing(CleanMatrixError):
    """Enumeration or an exhaustive sweep was requested on an infinite ring."""


class NotInvertible(CleanMatrixError):
    """Matrix inversion of a singular matrix was requested."""


class NotApplicable(CleanMatrixError):
    """The reduction's trichotomy precondition fails for this input."""


class InternalContractViolation(CleanMatrixError):
    """A constructed object failed its own re-verification; a bug, not bad input."""


class TooLarge(CleanMatrixError):
    """A sweep, enumeration or table was requested beyond its size cap."""


class NoFactorization(CleanMatrixError):
    """No factorization of the requested shape exists; carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ParseError(CleanMatrixError):
    """Bad ring-spec, element, or matrix literal; carries the offset."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
