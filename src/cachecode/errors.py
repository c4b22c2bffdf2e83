"""Exception types shared across the cachecode package."""

__all__ = [
    "CacheCodeError",
    "InstanceError",
    "RegimeError",
    "ScheduleError",
    "UnsupportedMemoryPoint",
    "SimulationMismatch",
]


class CacheCodeError(Exception):
    """Base class for all cachecode errors."""


class InstanceError(CacheCodeError):
    """System parameters, demands, or inputs are invalid for an operation."""


class RegimeError(CacheCodeError):
    """An operation was called outside the parameter regime it covers."""


class ScheduleError(CacheCodeError):
    """A generated schedule violated one of its structural guarantees."""


class UnsupportedMemoryPoint(CacheCodeError):
    """The multi-access memory point does not reduce to a K-subfile placement."""


class SimulationMismatch(CacheCodeError):
    """End-to-end simulation failed to reconstruct a demanded file."""
