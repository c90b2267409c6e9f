"""Exception types shared across the kernel.

Every certified computation in this package either returns an exact answer
or raises one of these; nothing is silently approximated.
"""


class MicrodiffError(Exception):
    """Base class for kernel errors."""


class PrecisionExhausted(MicrodiffError):
    """Cancellation left zero certified digits in a finite-precision scalar."""


class DivisionByZero(MicrodiffError, ZeroDivisionError):
    """Inversion of an exact zero."""


class NotCertifiable(MicrodiffError):
    """A truncated series cannot certify the requested predicate or be an
    operator coefficient, or a coefficient would lose a monomial to the cap."""


class DegreeCapOverflow(NotCertifiable):
    """A coefficient would lose a monomial to the degree cap; ``needed`` is
    the cap to rerun with, a lower bound unless the message says it suffices."""

    def __init__(self, needed: int, cap: int, message: str = ""):
        message = message or (f"a coefficient of degree {needed} exceeds the degree cap {cap} "
                              f"({needed} is a lower bound: later products may reach further)")
        super().__init__(f"{message}: rerun with --deg-cap {needed} or larger")
        self.needed = needed


class InsufficientTruncation(MicrodiffError):
    """A tail certificate is too weak to certify a norm, order or verdict.

    Raised instead of guessing whenever discarded terms could change the
    answer.  Retry with a larger truncation of the operator.
    """


class WindowOverflow(MicrodiffError):
    """A product or inverse needs exponents outside the configured window.

    ``needed`` is the window to rerun with: by default the largest absolute
    exponent the refused product holds, a lower bound since later products
    of the same computation may reach further; a ``bound`` text replaces
    that wording where ``needed`` suffices.  ``reason`` is ``message``.
    """

    def __init__(self, message: str, needed: int, bound: str = ""):
        bound = bound or (f"it needs a window of at least {needed} (a lower bound: "
                          "later products may reach further)")
        super().__init__(f"{message}; {bound}: rerun with --window {needed} or larger")
        self.reason, self.needed = message, needed


class NotInvertible(MicrodiffError):
    """Explicit inversion requested for a non-unit at the given ring level."""


class UndecidableFiniteness(MicrodiffError):
    """Truncated data carries neither an exact support nor a witness that
    settles whether the operator is finite."""


class ZeroOperator(MicrodiffError):
    """Order or polygon of the zero operator requested."""


class ExprSyntaxError(MicrodiffError):
    """Malformed operator expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbol(MicrodiffError):
    """Unbound symbol in an operator expression."""
