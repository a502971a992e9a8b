"""Exception types shared across the package."""


class DiagramError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(DiagramError):
    """The complex is malformed (broken reference, slot conflict, ...)."""


class UnknownIdError(DiagramError):
    """An operation was given an id that does not exist in the complex."""


class OracleConflict(DiagramError):
    """Two triviality annotations give one fingerprint different verdicts."""


class NotExchangeableError(DiagramError):
    """A crossing change was requested along a non-exchangeable union."""

    def __init__(self, triple_id: str, message: str):
        super().__init__(message)
        self.triple_id = triple_id


class MoveRejected(DiagramError):
    """A move's structural precondition or postcondition failed.

    The rewrite is never partially applied: when this is raised the input
    complex is untouched and no output complex exists.
    """

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


class SequenceAborted(DiagramError):
    """A move sequence failed at some step; nothing past it was applied."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason


class EnumerationCapExceeded(DiagramError):
    """Subset enumeration would exceed the configured candidate cap."""

    def __init__(self, cap: int, message: str):
        super().__init__(message)
        self.cap = cap


class ParseError(DiagramError):
    """A text document failed to parse; carries all collected diagnostics.

    ``diagnostics`` is a tuple of ``(line, column, message)`` triples,
    1-based, in file order.
    """

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        lines = "; ".join(f"{ln}:{col}: {msg}" for ln, col, msg in self.diagnostics)
        super().__init__(lines or "parse error")
