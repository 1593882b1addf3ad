"""One- and two-stage compression chains and the self-describing container.

A container is a fixed 20-byte header followed by the (possibly chained)
codec payload. The header records the codec chain, the original length, and
a CRC-32 of the original bytes, so decompression needs no out-of-band
knowledge and silent corruption cannot pass unnoticed.
"""
from __future__ import annotations

import io
import os
import stat
import struct
from typing import NamedTuple

from ._native import Pieces, crc32
# compress_one is not called here, but perfbench's tracer patches it on this module
from .codecs import PIECEWISE, CodecId, compress_one, decompress_one, encode, stream_bound
from .errors import (
    BadMagic,
    IntegrityMismatch,
    InvalidCodecByte,
    TruncatedContainer,
    UnsupportedVersion,
)

MAGIC = b"HYBC"
CONTAINER_VERSION = 1
HEADER_LEN = 20
FILE_EXTENSION = ".hybc"

# magic, version, first codec, second codec (0 = none), reserved,
# original length (u64 LE), original CRC-32 (u32 LE)
_HEADER = struct.Struct("<4sBBBBQI")
assert _HEADER.size == HEADER_LEN


class _Chain(NamedTuple):
    first: CodecId
    second: CodecId | None = None


class PipelineSpec(_Chain):
    """An ordered chain of one or two distinct codecs."""

    __slots__ = ()

    def __new__(cls, first: CodecId, second: CodecId | None = None):
        first = CodecId(first)
        if second is not None:
            second = CodecId(second)
            if second == first:
                raise ValueError("a hybrid must chain two distinct codecs")
        return super().__new__(cls, first, second)

    @property
    def is_hybrid(self) -> bool:
        return self.second is not None

    @property
    def display_name(self) -> str:
        if self.second is None:
            return self.first.canonical_name
        return f"{self.first.canonical_name} + {self.second.canonical_name}"

    @property
    def codecs(self) -> tuple[CodecId, ...]:
        return (self.first,) if self.second is None else (self.first, self.second)


_NAME_TO_CODEC = {c.canonical_name.lower(): c for c in CodecId}


def pipeline_from_name(name: str) -> PipelineSpec:
    """Parse "A" or "A+B" (case-insensitive, spaces around '+' ignored)."""
    parts = [p.strip().lower() for p in name.split("+")]
    if not 1 <= len(parts) <= 2 or not all(parts):
        raise ValueError(f"cannot parse pipeline name {name!r}")
    try:
        codecs = [_NAME_TO_CODEC[p] for p in parts]
    except KeyError as exc:
        raise ValueError(f"unknown codec {exc.args[0]!r} in {name!r}") from None
    try:
        return PipelineSpec(*codecs)
    except ValueError as exc:
        raise ValueError(f"pipeline {name!r}: {exc}") from None


def enumerate_pipelines() -> list[PipelineSpec]:
    """All 25 benchmarked chains: 5 singles, then the 20 ordered distinct
    pairs in lexicographic (first, second) order."""
    singles = [PipelineSpec(c) for c in CodecId]
    pairs = [
        PipelineSpec(a, b) for a in CodecId for b in CodecId if a != b
    ]
    return singles + pairs


class ContainerHeader(NamedTuple):
    first_codec: CodecId
    second_codec: CodecId | None
    original_len: int
    original_crc32: int


def serialize_header(header: ContainerHeader) -> bytes:
    return _HEADER.pack(
        MAGIC,
        CONTAINER_VERSION,
        int(header.first_codec),
        int(header.second_codec) if header.second_codec is not None else 0,
        0,
        header.original_len,
        header.original_crc32,
    )


def parse_header(buf: bytes) -> ContainerHeader:
    """Decode the fixed 20-byte header; the payload is never inspected."""
    if len(buf) < HEADER_LEN:
        raise TruncatedContainer(
            f"need {HEADER_LEN} header bytes, got {len(buf)}"
        )
    magic, version, first, second, reserved, length, crc = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise BadMagic(f"not a container (magic {magic!r})")
    if version != CONTAINER_VERSION or reserved != 0:
        raise UnsupportedVersion(f"container version {version} not supported")
    try:
        spec = PipelineSpec(first, second or None)
    except ValueError as exc:
        raise InvalidCodecByte(f"codec bytes {first}, {second}: {exc}") from None
    return ContainerHeader(spec.first, spec.second, length, crc)


def compress_pipeline(spec: PipelineSpec, data) -> bytes:
    """Apply the chain in order and frame the result as a container.

    data is a bytes-like object or a binary file open for reading. A regular
    file with bytes left, whose chain begins with a PIECEWISE codec (any but
    LZ4HC), goes to that codec as _native.Pieces of the length left, whose
    count and CRC-32 the header records; any other file is read whole.
    Either way the container is compress_pipeline(spec, file.read())'s.
    A Zstd first stage raises CodecFailure for a file whose bytes are not
    the length it had up front; the others encode what they read, up to
    what their stream's mapping holds.

    Each stage's encoder writes its stream once, into a mapping of its own,
    and returns a view of it, which a hybrid's second stage reads in place. A
    text read whole is let go once the first stage has encoded it, the first
    stage's view (and so its mapping) once the second has, and the last one
    once the container, the header and the last stream, is copied out. A
    Zstd stage that reads Pieces holds the text in one more mapping, whose
    pages it releases behind its window as it encodes and which goes before
    the stage returns."""
    if isinstance(data, io.IOBase):
        left = _bytes_left(data)
        data = Pieces(left, data) if left > 0 and spec.first in PIECEWISE else data.read()
    pieces = isinstance(data, Pieces)
    if not pieces:
        length, crc = len(data), crc32(data)
    stream = encode(spec.first, data)
    if pieces:
        length, crc = data.count, data.crc
    del data
    if spec.second is not None:
        with stream as first:
            stream = encode(spec.second, first)
    with stream:
        return serialize_header(ContainerHeader(spec.first, spec.second, length, crc)) + stream


def _bytes_left(file) -> int:
    """The bytes from a regular file's position to its end; 0 for a file
    that is not a regular one or has no descriptor."""
    try:
        status = os.fstat(file.fileno())
    except OSError:  # io.UnsupportedOperation
        return 0
    return status.st_size - file.tell() if stat.S_ISREG(status.st_mode) else 0


def decompress_pipeline(container, sink=None) -> bytearray | int:
    """Invert the recorded chain (second stage first) and verify integrity.

    container is a bytes-like object or a binary file open for reading,
    read from its position. The codec that reads the payload (a hybrid's
    second, else the only one) takes a regular file's bytes after the header
    as _native.Pieces; pipes and file objects without a descriptor are read
    whole. Either way a file decodes as its bytes do in memory, and a stream
    cut short, run on, capped by the header or of another text is refused
    alike. Zstd, Brotli, LZMA and Bzip2 read the Pieces as they decode, and
    LZ4HC reads its block into the end of the buffer it decodes to, where
    the block is the shorter (see _native).

    The header caps every stage before it allocates: the last stage may
    decode to at most original_len bytes, and the stream between two stages
    to at most what the first codec writes for original_len bytes. A payload
    in memory is read in place, a hybrid's stream between its stages is one
    buffer, and a hybrid's container, or its payload read whole, is let go
    once its second stage has decoded it.

    Without a sink, the last stage decodes into one buffer, which is verified
    and returned. With a sink, the last stage sends its output to sink(chunk)
    in chunks of at most _native.SINK_CHUNK bytes (an LZ4HC last stage sends
    its whole output once), never more than original_len bytes in all; the
    length and CRC-32 are checked once the last chunk is sent, and the count
    is returned. So the sink sees bytes before they are verified, and must
    drop them if this call raises. Each chunk is valid only during the call
    that passes it."""
    if isinstance(container, io.IOBase):
        left = _bytes_left(container) - HEADER_LEN
        header = parse_header(container.read(HEADER_LEN))
        payload = Pieces(left, container) if left > 0 else container.read()
    else:
        header = parse_header(container)
        payload = memoryview(container)[HEADER_LEN:]
    del container
    if header.second_codec is not None:
        payload = decompress_one(
            header.second_codec, payload, stream_bound(header.first_codec, header.original_len)
        )
    if sink is None:
        data = decompress_one(header.first_codec, payload, header.original_len)
        _verify(header, len(data), crc32(data))
        return data
    crc = 0

    def tally(chunk) -> None:
        nonlocal crc
        crc = crc32(chunk, crc)
        sink(chunk)

    sent = decompress_one(header.first_codec, payload, header.original_len, tally)
    _verify(header, sent, crc)
    return sent


def _verify(header: ContainerHeader, length: int, crc: int) -> None:
    if length != header.original_len:
        raise IntegrityMismatch(f"decoded {length} bytes, header says {header.original_len}")
    if crc != header.original_crc32:
        raise IntegrityMismatch("CRC-32 of decoded payload does not match header")
