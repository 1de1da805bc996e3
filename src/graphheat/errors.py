"""Exception types shared across the package."""

from __future__ import annotations


class GraphHeatError(Exception):
    """Base class for every error raised by this package."""


class EdgeListError(GraphHeatError, ValueError):
    """Problem with an edge-list input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class ParseError(EdgeListError):
    """Malformed edge-list line."""


class SelfLoopError(EdgeListError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(EdgeListError):
    """The same undirected edge appears more than once."""


class WeightError(EdgeListError):
    """Edge weight is unparsable, not strictly positive, or not a positive finite float.

    Also raised for a weighted degree that is not a finite float.
    """


class UnknownVertexError(GraphHeatError):
    """A vertex label that the graph does not have."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"unknown vertex label {label!r}")


class UnreachableError(GraphHeatError):
    """The queried vertices lie in different connected components."""


class NoConvergence(GraphHeatError):
    """The distance estimator exhausted its refinement levels.

    ``exponent_trace`` holds the raw dyadic exponent estimates seen so far,
    which is usually enough to diagnose why stability was never reached.
    """

    def __init__(self, message: str, exponent_trace: tuple[float, ...] = ()):
        super().__init__(message)
        self.exponent_trace = tuple(exponent_trace)


class PositivityFloor(GraphHeatError):
    """Kernel samples fell below the positivity floor mid-refinement."""
