"""Exception types shared across the toolkit.

Every error that a caller can act on gets its own class; generic
ValueError/TypeError are reserved for outright programming mistakes.
"""


class TritileError(Exception):
    """Base class for all toolkit errors."""


class InvalidUniformity(TritileError):
    pass


class InvalidArity(TritileError):
    pass


class InvalidVertex(TritileError):
    pass


class TooFewVertices(TritileError):
    pass


class DivisibilityError(TritileError):
    pass


class InvalidDimension(TritileError):
    pass


class InvalidColoring(TritileError):
    pass


class InvalidFamily(TritileError):
    pass


class InvalidPartiteStructure(TritileError):
    pass


class InvalidEdgeProfile(TritileError):
    pass


class EmptyGraph(TritileError):
    pass


class FormatError(TritileError):
    """Malformed instance file."""


class GenerationFailed(TritileError):
    """A generator cannot build what was asked: a codegree target above
    n-k+1, or a blowup past its size guard."""


class BudgetExceeded(TritileError):
    """A search ran out of budget; the verdict is unknown, never "no".

    Carries whatever partial information the search certified before
    stopping (bounds for optimisation, partial counts for enumeration).
    """

    def __init__(self, message, *, lower=None, upper=None, partial_count=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.partial_count = partial_count
