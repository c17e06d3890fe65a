"""Exception types shared across the pipeline."""

from __future__ import annotations


class IpRankError(Exception):
    """Base class for every error raised by this package."""


class UnparsableLine(IpRankError):
    """A line of an input file violates the declared record format."""

    def __init__(self, line_no: int, line: str, reason: str) -> None:
        super().__init__(f"line {line_no}: {reason}: {line!r}")
        self.line_no = line_no
        self.line = line
        self.reason = reason

    def __reduce__(self) -> tuple:
        # ``args`` holds only the message, so pickle the arguments themselves
        return type(self), (self.line_no, self.line, self.reason)


class EmptyInput(IpRankError):
    """An input stream produced no usable records."""


class NegativeCount(IpRankError):
    """A click count was negative."""


class EmptyGraph(IpRankError):
    """The graph has no arcs, so the score iteration is undefined."""


class DegenerateGraph(IpRankError):
    """A score vector collapsed to all zeros and cannot be normalized."""


class EmptyNodeSet(IpRankError):
    """The graph has no nodes at all."""


class InvalidParams(IpRankError):
    """Parameter values are outside their documented range."""


class NoData(IpRankError):
    """An aggregation received no usable data points."""


class InsufficientOverlap(IpRankError):
    """Two score vectors share fewer than two users."""


class ConfigInvalid(IpRankError):
    """A run configuration value is missing or out of range."""


class MissingInput(IpRankError):
    """A required input file was not supplied or does not exist."""
