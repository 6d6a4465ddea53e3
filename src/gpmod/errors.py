"""Exception hierarchy shared by all gpmod modules."""


class GpmodError(Exception):
    """Base class for every error raised by this package."""


class CycleError(GpmodError):
    """The reflexive-transitive closure of the input relation is not antisymmetric."""


class UnknownElement(GpmodError):
    """A reference to an element that does not belong to the poset."""


class EmptySetError(GpmodError):
    """An operation that needs a nonempty subset received an empty one."""


class TooLargeError(GpmodError):
    """The requested computation exceeds a hard size guard."""


class ShapeError(GpmodError):
    """A matrix does not have the shape required by the surrounding data."""


class FunctorialityError(GpmodError):
    """Two cover-path composites between the same pair of elements disagree."""

    def __init__(self, source, target, message=None):
        self.source = source
        self.target = target
        super().__init__(message or f"conflicting composites from {source!r} to {target!r}")


class NotComparable(GpmodError):
    """The two elements are not related in the poset."""


class NotAnInterval(GpmodError):
    """The subset is not closed under betweenness."""


class MismatchedBase(GpmodError):
    """Operands live over different posets or different fields."""


class NoSolution(GpmodError):
    """The linear system A X = B is inconsistent."""


class InternalError(GpmodError):
    """An invariant that should hold by construction was violated."""


class NotGenerated(GpmodError):
    pass


class NotPresented(GpmodError):
    pass


class NotDetermined(GpmodError):
    pass


class NotAGrid(GpmodError):
    pass


class NotUnital(GpmodError):
    pass


class ArityMismatch(GpmodError):
    pass


class ValidationError(GpmodError):
    """Constructed data violates a structural axiom."""


class ParseError(GpmodError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class InputTooLarge(ParseError, TooLargeError):
    """A text input exceeds a parse-time size guard at the given line."""
