"""Exception types shared across the package."""

from __future__ import annotations


class NetspectraError(Exception):
    """Base class for every error raised by this package."""


class SelfLoopError(NetspectraError):
    """An edge would connect a node to itself."""


class DuplicateEdgeError(NetspectraError):
    """The edge is already present."""


class MissingEdgeError(NetspectraError):
    """The edge to remove does not exist."""


class NodeOutOfRangeError(NetspectraError):
    """A node ID is outside the graph's current node range."""


class EmptyGraphError(NetspectraError):
    """The operation needs a graph with at least one node."""


class ZeroMeanDegreeError(NetspectraError):
    """The graph has no edges, so degree-normalized quantities are undefined."""


class TooFewNodesError(NetspectraError, ValueError):
    """The generator needs a larger node count.

    Also a ValueError: a node count is a parameter value, so callers that
    validate parameters catch it with the rest.
    """


class ZeroDegreeSumError(NetspectraError):
    """Every candidate has degree zero, so the attachment distribution is undefined."""


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


class LengthMismatchError(NetspectraError):
    """Paired series must have equal length of at least two."""


class ConstantSeriesError(NetspectraError):
    """Correlation is undefined when a series has zero variance."""


class StepMismatchError(NetspectraError):
    """Run time series do not share an identical step grid."""
