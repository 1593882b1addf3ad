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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CodecConfig:
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
    }


def compress_one(codec: CodecId, data: bytes) -> bytes:
    """Run a single codec over an in-memory buffer and return its stream."""
    codec = CodecId(codec)
    cfg = _CONFIGS[codec]
    try:
        if codec is CodecId.LZMA:
            return lzma.compress(data, format=lzma.FORMAT_XZ, preset=cfg.level)
        if codec is CodecId.ZSTD:
            return _native.zstd_compress(data, cfg.level)
        if codec is CodecId.BROTLI:
            return _native.brotli_compress(data, cfg.level, cfg.window_log)
        if codec is CodecId.BZIP2:
            return bz2.compress(data, compresslevel=cfg.block_size_kb // 100)
        block = _native.lz4hc_compress_block(data, cfg.level)
        return _LZ4_PREFIX.pack(len(data)) + block
    except (CodecFailure, CorruptStream):
        raise
    except Exception as exc:
        raise CodecFailure(f"{codec.canonical_name} encoder failed: {exc}") from exc


def decompress_one(codec: CodecId, stream: bytes) -> bytes:
    """Invert compress_one; raises CorruptStream when the input is not a
    stream of the claimed codec."""
    codec = CodecId(codec)
    if codec is CodecId.LZMA:
        return _stdlib_decompress(
            lzma.LZMADecompressor(format=lzma.FORMAT_XZ), stream, "lzma"
        )
    if codec is CodecId.ZSTD:
        return _native.zstd_decompress(stream)
    if codec is CodecId.BROTLI:
        return _native.brotli_decompress(stream)
    if codec is CodecId.BZIP2:
        return _stdlib_decompress(bz2.BZ2Decompressor(), stream, "bzip2")
    return _lz4_decompress(stream)


def _stdlib_decompress(decomp, stream: bytes, name: str) -> bytes:
    try:
        out = decomp.decompress(stream)
    except Exception as exc:
        raise CorruptStream(f"{name}: {exc}") from exc
    if not decomp.eof:
        raise CorruptStream(f"{name}: truncated stream")
    if decomp.unused_data:
        raise CorruptStream(f"{name}: trailing bytes after stream end")
    return out


def _lz4_decompress(stream: bytes) -> bytes:
    if len(stream) < _LZ4_PREFIX.size:
        raise CorruptStream("lz4: stream shorter than its length prefix")
    (declared,) = _LZ4_PREFIX.unpack_from(stream)
    return _native.lz4_decompress_block(stream[_LZ4_PREFIX.size:], declared)
