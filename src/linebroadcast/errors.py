"""Exception types shared across the package."""


class LineBroadcastError(Exception):
    """Base class for every error raised by this package."""


class InvalidParams(LineBroadcastError):
    """Tree parameters outside the supported domain: k < 2, r < 1, or not ints."""


class Overflow(LineBroadcastError):
    """The vertex count does not fit the 64-bit id range."""


class OutOfRange(LineBroadcastError):
    """An index (level, offset, id, round, ...) is outside its valid range."""


class SameVertex(LineBroadcastError):
    """A path between a vertex and itself was requested."""


class TooLarge(LineBroadcastError):
    """The instance exceeds the exhaustive-search cap."""


class ScheduleFormatError(LineBroadcastError, ValueError):
    """A serialized schedule does not describe calls along tree paths."""
