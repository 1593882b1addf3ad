"""Exception types shared across the toolkit."""


class HybcError(Exception):
    """Base class for all errors raised by this package."""


class CodecFailure(HybcError):
    """An underlying encoder/decoder reported an environment or library fault."""


class CorruptStream(HybcError):
    """A decoder rejected its input: wrong codec, truncation, or damaged data."""


class ContainerError(HybcError):
    """Base class for container parsing problems."""


class TruncatedContainer(ContainerError):
    """Input ends before the fixed-size header is complete."""


class BadMagic(ContainerError):
    """Input does not start with the container magic bytes."""


class UnsupportedVersion(ContainerError):
    """Container version (or reserved field) is not one this build understands."""


class InvalidCodecByte(ContainerError):
    """A codec field holds a value outside the valid range, or first == second."""


class IntegrityMismatch(HybcError):
    """Decoded payload disagrees with the recorded length or CRC-32."""


class RoundTripMismatch(HybcError):
    """A timed measurement produced output that differs from its input."""


class MixedCohort(HybcError):
    """Rows to normalize are not one cohort: two datasets or texts, or a pipeline twice."""


class InvalidUtf8(HybcError):
    """A corpus file is not valid UTF-8; ``offset`` is the first bad byte."""

    def __init__(self, offset: int, message: str = ""):
        self.offset = offset
        super().__init__(message or f"invalid UTF-8 at byte offset {offset}")
