"""Uniform compress/decompress adapters over the five codecs.

Every codec runs with one fixed, immutable configuration (level 6 style
presets, no dictionaries, single-threaded), so two calls with the same input
always produce the same bytes within one library version.
"""
from __future__ import annotations

import bz2
import enum
import lzma
import struct
import sys
from typing import NamedTuple

from . import _native
from .errors import CodecFailure, CorruptStream


class CodecId(enum.IntEnum):
    LZMA = 1
    ZSTD = 2
    BROTLI = 3
    BZIP2 = 4
    LZ4HC = 5

    @property
    def canonical_name(self) -> str:
        return _CANONICAL_NAMES[self]


_CANONICAL_NAMES = {
    CodecId.LZMA: "LZMA",
    CodecId.ZSTD: "Zstd",
    CodecId.BROTLI: "Brotli",
    CodecId.BZIP2: "Bzip2",
    CodecId.LZ4HC: "LZ4HC",
}


class CodecConfig(NamedTuple):
    """Fixed parameters for one codec; never user-tunable at runtime."""

    level: int | None = None
    window_log: int | None = None
    block_size_kb: int | None = None


_CONFIGS = {
    CodecId.LZMA: CodecConfig(level=6),
    CodecId.ZSTD: CodecConfig(level=6),
    CodecId.BROTLI: CodecConfig(level=6, window_log=22),
    CodecId.BZIP2: CodecConfig(block_size_kb=900),
    CodecId.LZ4HC: CodecConfig(level=6),
}

# Raw LZ4 blocks do not record their decoded size, so the LZ4HC stream format
# here is an 8-byte little-endian original length followed by one HC block.
_LZ4_PREFIX = struct.Struct("<Q")


def codec_params(codec: CodecId) -> CodecConfig:
    """Return the fixed configuration row for a codec."""
    return _CONFIGS[CodecId(codec)]


def library_versions() -> dict[str, str]:
    """Versions of the codec implementations actually in use."""
    py = "python-stdlib {}.{}.{}".format(*sys.version_info[:3])
    return {
        "lzma": py,
        "zstd": _native.zstd_version(),
        "brotli": _native.brotli_version(),
        "bzip2": py,
        "lz4": _native.lz4_version(),
        "crc32": _native.crc32_version(),
    }


# The codecs whose encoder takes its input as Pieces and writes the same
# stream however it is cut: all but LZ4HC, whose stream is one raw block that
# liblz4 encodes from the whole text.
PIECEWISE = frozenset(CodecId) - {CodecId.LZ4HC}


def encode(codec: CodecId, data) -> memoryview:
    """A single codec's stream of data, a bytes-like object or, for a
    PIECEWISE codec, _native.Pieces; in memory an encoder gets the whole text
    as one piece. The encoder maps stream_bound(codec, len(data)) bytes and
    returns a view of the stream at their start; releasing the view unmaps
    them."""
    codec = CodecId(codec)
    cfg = _CONFIGS[codec]
    try:
        if codec is CodecId.LZMA:
            comp = lzma.LZMACompressor(lzma.FORMAT_XZ, preset=cfg.level)
            return _stdlib_compress(comp, data, stream_bound(codec, len(data)))
        if codec is CodecId.ZSTD:
            return _native.zstd_compress(data, cfg.level)
        if codec is CodecId.BROTLI:
            return _native.brotli_compress(data, cfg.level, cfg.window_log)
        if codec is CodecId.BZIP2:
            comp = bz2.BZ2Compressor(cfg.block_size_kb // 100)
            return _stdlib_compress(comp, data, stream_bound(codec, len(data)))
        return _native.lz4hc_compress_block(data, cfg.level, _LZ4_PREFIX.pack(len(data)))
    except (CodecFailure, CorruptStream, OSError):
        # an OSError comes from reading the pieces, not from the encoder
        raise
    except Exception as exc:
        raise CodecFailure(f"{codec.canonical_name} encoder failed: {exc}") from exc


def compress_one(codec: CodecId, data) -> bytes:
    """encode(codec, data) as bytes; its mapping is gone when this returns."""
    with encode(codec, data) as stream:
        return bytes(stream)


def _stdlib_compress(comp, data, bound: int) -> memoryview:
    # What lzma.compress and bz2.compress do, one piece at a time, into a
    # mapping of bound bytes.
    out = _native.mapping(bound)
    for piece in data if isinstance(data, _native.Pieces) else (data,):
        out.write(comp.compress(piece))
    out.write(comp.flush())
    return memoryview(out)[:out.tell()]


def stream_bound(codec: CodecId, n: int) -> int:
    """The longest stream encode(codec, data) writes for n input bytes;
    decompress_pipeline caps the stream between two stages by it."""
    codec = CodecId(codec)
    if codec is CodecId.LZMA:
        # After liblzma's lzma_stream_buffer_bound: 48 bytes of stream header,
        # footer and index, 92 of block header and check, 3 of block padding
        # and the LZMA2 end marker. Each LZMA2 chunk adds at most a 6-byte
        # header; chunks end short of 64 KiB, so budget one per 32 KiB.
        return n + 6 * (n // 32768 + 1) + 144
    if codec is CodecId.ZSTD:
        return _native.zstd_bound(n)
    if codec is CodecId.BROTLI:
        return _native.brotli_bound(n)
    if codec is CodecId.BZIP2:
        return n + (n + 99) // 100 + 600  # the bzip2 manual: 1% plus 600 bytes
    return _LZ4_PREFIX.size + _native.lz4_bound(n)


def decompress_one(codec: CodecId, stream, cap: int = sys.maxsize, sink=None) -> bytearray | int:
    """Invert compress_one into one bytearray of at most cap bytes; raises
    CorruptStream when the input is not a stream of the claimed codec or
    decodes to more than cap bytes. The stream may be any bytes-like object.

    With a sink, the output goes to sink(chunk) instead, in chunks of at most
    _native.SINK_CHUNK bytes (LZ4HC, one raw block, sends its whole output
    once), and the count of bytes sent is returned. No chunk takes the count
    past cap."""
    codec = CodecId(codec)
    if codec is CodecId.LZMA:
        return _stdlib_decompress(
            lzma.LZMADecompressor(format=lzma.FORMAT_XZ), stream, cap, "lzma", sink
        )
    if codec is CodecId.ZSTD:
        return _native.zstd_decompress(stream, cap, sink)
    if codec is CodecId.BROTLI:
        return _native.brotli_decompress(stream, cap, sink)
    if codec is CodecId.BZIP2:
        return _stdlib_decompress(bz2.BZ2Decompressor(), stream, cap, "bzip2", sink)
    out = _lz4_decompress(stream, cap)
    if sink is None:
        return out
    sink(out)
    return len(out)


def _stdlib_decompress(decomp, stream, cap: int, name: str, sink) -> bytearray | int:
    # Steps of at most SINK_CHUNK bytes, into one bytearray or to a sink, each
    # asking for at most cap + 1 bytes in all: the extra byte shows the excess.
    out = bytearray()
    write = out.extend if sink is None else sink
    sent = 0
    while True:
        try:
            chunk = decomp.decompress(stream, min(cap + 1 - sent, _native.SINK_CHUNK))
        except Exception as exc:
            raise CorruptStream(f"{name}: {exc}") from exc
        stream = b""
        sent += len(chunk)
        if sent > cap:
            raise CorruptStream(f"{name}: stream decodes to more than the {cap} bytes allowed")
        write(chunk)
        if decomp.eof or decomp.needs_input:
            break
    if not decomp.eof:
        raise CorruptStream(f"{name}: truncated stream")
    if decomp.unused_data:
        raise CorruptStream(f"{name}: trailing bytes after stream end")
    return out if sink is None else sent


def _lz4_decompress(stream, cap: int) -> bytearray:
    if len(stream) < _LZ4_PREFIX.size:
        raise CorruptStream("lz4: stream shorter than its length prefix")
    (declared,) = _LZ4_PREFIX.unpack_from(stream)
    if declared > cap:
        raise CorruptStream(f"lz4: prefix declares {declared} bytes, more than the {cap} allowed")
    return _native.lz4_decompress_block(memoryview(stream)[_LZ4_PREFIX.size:], declared)
