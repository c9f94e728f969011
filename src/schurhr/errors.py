"""Exception types shared across the package.

All are ValueError subclasses so callers that only care about "bad input"
can catch the base class.  ``cli.main`` prints any of them that reaches it
as one ``error: <message>`` line and exits 1, whatever the subclass.
"""


class SpaceMismatchError(ValueError):
    """Operands live on different ambient spaces."""


class DegreeMismatchError(ValueError):
    """A class or polynomial has the wrong (co)homological degree."""


class PreconditionError(ValueError):
    """A documented precondition of a verifier was violated."""


class ExponentOverflowError(ValueError, OverflowError):
    """An exponent does not fit the bit field of a packed monomial key."""
