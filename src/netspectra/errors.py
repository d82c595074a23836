"""Exception types shared across the package, one per way a caller handles
a failure. Bad arguments raise plain ``ValueError``."""

from __future__ import annotations


class NetspectraError(Exception):
    """Base class for every error raised by this package."""


class GraphError(NetspectraError, ValueError):
    """A graph operation or quantity that the graph as it stands does not
    allow: a self-loop, a duplicate or missing edge, a node out of range, or
    a statistic undefined on a graph without nodes or edges. The message
    says which."""


class EdgeListParseError(NetspectraError):
    """Malformed edge-list input. Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotConvergedError(NetspectraError):
    """Power iteration exhausted its iteration budget.

    ``result`` holds the best estimate reached before giving up.
    """

    def __init__(self, message: str, result=None) -> None:
        super().__init__(message)
        self.result = result
