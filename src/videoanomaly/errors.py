"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: argument-level problems
(ValueError, StreamTooShortError, CapabilityError) exit with 2, data-level
problems (FormatError and friends) exit with 3.
"""


class VideoAnomalyError(Exception):
    """Base class for all package-specific errors."""


class FormatError(VideoAnomalyError):
    """A file does not match its declared binary format."""


class TruncationError(FormatError):
    """A file is shorter (or longer) than its header declares."""


class DataError(VideoAnomalyError):
    """A file decoded cleanly but carries invalid payload values (NaN/Inf)."""


class OrderingError(VideoAnomalyError):
    """A frame-sequence directory has non-monotonic numeric naming."""


class AlignmentError(VideoAnomalyError):
    """Two per-frame sequences that must line up have different lengths."""


class StreamTooShortError(VideoAnomalyError):
    """The input has fewer frames than one full sliding window."""


class CapabilityError(VideoAnomalyError):
    """The requested computation needs inputs that were not provided."""
