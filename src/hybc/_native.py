"""ctypes bindings for the system zstd, brotli, and lz4 shared libraries.

Only the small one-shot surface this package needs is bound. Where a stream
declares its decoded size (the zstd frame header, the LZ4HC length prefix),
the size is checked against the largest expansion the format allows, one
buffer of exactly that size is allocated and the stream is decoded in one
call; a corrupted size claim therefore never triggers a huge allocation.
Brotli declares no size, so it is decoded in bounded chunks.
"""
from __future__ import annotations

import ctypes
import ctypes.util
from ctypes import (
    POINTER,
    byref,
    c_char_p,
    c_int,
    c_size_t,
    c_ubyte,
    c_uint,
    c_ulonglong,
    c_void_p,
    create_string_buffer,
)

from .errors import CodecFailure, CorruptStream

_OUT_CHUNK = 128 * 1024

# Upper bound on a single LZ4 block, from the block format (LZ4_MAX_INPUT_SIZE).
LZ4_MAX_INPUT_SIZE = 0x7E000000


def _load(*candidates: str) -> ctypes.CDLL:
    err: OSError | None = None
    for name in candidates:
        try:
            return ctypes.CDLL(name)
        except OSError as exc:
            err = exc
    stem = candidates[0].removeprefix("lib").split(".")[0]
    found = ctypes.util.find_library(stem)
    if found:
        return ctypes.CDLL(found)
    raise CodecFailure(f"cannot load shared library {candidates[0]!r}: {err}")


# ---------------------------------------------------------------------------
# zstd

_zstd = _load("libzstd.so.1", "libzstd.so", "libzstd.dylib")

_zstd.ZSTD_versionString.restype = c_char_p
_zstd.ZSTD_versionString.argtypes = []
_zstd.ZSTD_compressBound.restype = c_size_t
_zstd.ZSTD_compressBound.argtypes = [c_size_t]
_zstd.ZSTD_compress.restype = c_size_t
_zstd.ZSTD_compress.argtypes = [c_void_p, c_size_t, c_char_p, c_size_t, c_int]
_zstd.ZSTD_isError.restype = c_uint
_zstd.ZSTD_isError.argtypes = [c_size_t]
_zstd.ZSTD_getErrorName.restype = c_char_p
_zstd.ZSTD_getErrorName.argtypes = [c_size_t]
_zstd.ZSTD_getFrameContentSize.restype = c_ulonglong
_zstd.ZSTD_getFrameContentSize.argtypes = [c_char_p, c_size_t]
_zstd.ZSTD_findFrameCompressedSize.restype = c_size_t
_zstd.ZSTD_findFrameCompressedSize.argtypes = [c_char_p, c_size_t]
_zstd.ZSTD_decompress.restype = c_size_t
_zstd.ZSTD_decompress.argtypes = [c_void_p, c_size_t, c_char_p, c_size_t]

# ZSTD_CONTENTSIZE_ERROR; ZSTD_CONTENTSIZE_UNKNOWN is the one value above it.
_ZSTD_CONTENTSIZE_ERROR = 2**64 - 2


def _zstd_error(code: int) -> str:
    name = _zstd.ZSTD_getErrorName(c_size_t(code))
    return name.decode("ascii", "replace") if name else "unknown error"


def zstd_version() -> str:
    return _zstd.ZSTD_versionString().decode("ascii")


def zstd_compress(data: bytes, level: int) -> bytes:
    bound = _zstd.ZSTD_compressBound(len(data))
    dst = create_string_buffer(bound)
    code = _zstd.ZSTD_compress(dst, bound, data, len(data), level)
    if _zstd.ZSTD_isError(code):
        raise CodecFailure(f"zstd compress: {_zstd_error(code)}")
    return dst.raw[:code]


def zstd_decompress(data: bytes) -> bytes:
    """Decode data, which must be exactly one zstd frame declaring its size."""
    declared = _zstd.ZSTD_getFrameContentSize(data, len(data))
    if declared >= _ZSTD_CONTENTSIZE_ERROR:
        raise CorruptStream("zstd: no frame header declaring the decoded size")
    # A block decodes to at most 128 KiB and costs at least 4 bytes (an RLE
    # block: 3-byte header plus the repeated byte), so no frame expands further.
    if declared > 128 * 1024 // 4 * len(data):
        raise CorruptStream("zstd: declared size implausible for frame length")
    if _zstd.ZSTD_findFrameCompressedSize(data, len(data)) != len(data):
        raise CorruptStream("zstd: truncated frame or trailing bytes")
    out = create_string_buffer(max(declared, 1))
    n = _zstd.ZSTD_decompress(out, declared, data, len(data))
    if _zstd.ZSTD_isError(n):  # includes a frame decoding to other than declared
        raise CorruptStream(f"zstd: {_zstd_error(n)}")
    return out.raw[:n]


# ---------------------------------------------------------------------------
# brotli

_brenc = _load("libbrotlienc.so.1", "libbrotlienc.so", "libbrotlienc.dylib")
_brdec = _load("libbrotlidec.so.1", "libbrotlidec.so", "libbrotlidec.dylib")

_BROTLI_MODE_GENERIC = 0
_BROTLI_RESULT_ERROR = 0
_BROTLI_RESULT_SUCCESS = 1
_BROTLI_RESULT_NEEDS_MORE_INPUT = 2
_BROTLI_RESULT_NEEDS_MORE_OUTPUT = 3

_brenc.BrotliEncoderVersion.restype = c_uint
_brenc.BrotliEncoderVersion.argtypes = []
_brenc.BrotliEncoderMaxCompressedSize.restype = c_size_t
_brenc.BrotliEncoderMaxCompressedSize.argtypes = [c_size_t]
_brenc.BrotliEncoderCompress.restype = c_int
_brenc.BrotliEncoderCompress.argtypes = [
    c_int, c_int, c_int, c_size_t, c_char_p, POINTER(c_size_t), c_void_p,
]
_brdec.BrotliDecoderCreateInstance.restype = c_void_p
_brdec.BrotliDecoderCreateInstance.argtypes = [c_void_p, c_void_p, c_void_p]
_brdec.BrotliDecoderDestroyInstance.restype = None
_brdec.BrotliDecoderDestroyInstance.argtypes = [c_void_p]
_brdec.BrotliDecoderDecompressStream.restype = c_int
_brdec.BrotliDecoderDecompressStream.argtypes = [
    c_void_p,
    POINTER(c_size_t), POINTER(POINTER(c_ubyte)),
    POINTER(c_size_t), POINTER(POINTER(c_ubyte)),
    POINTER(c_size_t),
]


def brotli_version() -> str:
    v = _brenc.BrotliEncoderVersion()
    return f"{v >> 24}.{(v >> 12) & 0xFFF}.{v & 0xFFF}"


def brotli_compress(data: bytes, quality: int, window_log: int) -> bytes:
    bound = _brenc.BrotliEncoderMaxCompressedSize(len(data))
    if bound == 0:
        bound = len(data) + len(data) // 2 + 1024
    dst = create_string_buffer(bound)
    out_size = c_size_t(bound)
    ok = _brenc.BrotliEncoderCompress(
        quality, window_log, _BROTLI_MODE_GENERIC, len(data), data, byref(out_size), dst
    )
    if ok != 1:
        raise CodecFailure("brotli compress: encoder reported failure")
    return dst.raw[: out_size.value]


def brotli_decompress(data: bytes) -> bytes:
    handle = _brdec.BrotliDecoderCreateInstance(None, None, None)
    if not handle:
        raise CodecFailure("brotli: cannot allocate decoder")
    try:
        src = (c_ubyte * len(data)).from_buffer_copy(data) if data else (c_ubyte * 1)()
        next_in = ctypes.cast(src, POINTER(c_ubyte))
        avail_in = c_size_t(len(data))
        chunks: list[bytes] = []
        while True:
            out = (c_ubyte * _OUT_CHUNK)()
            next_out = ctypes.cast(out, POINTER(c_ubyte))
            avail_out = c_size_t(_OUT_CHUNK)
            total = c_size_t(0)
            res = _brdec.BrotliDecoderDecompressStream(
                handle,
                byref(avail_in), byref(next_in),
                byref(avail_out), byref(next_out),
                byref(total),
            )
            written = _OUT_CHUNK - avail_out.value
            if written:
                chunks.append(ctypes.string_at(out, written))
            if res == _BROTLI_RESULT_SUCCESS:
                if avail_in.value:
                    raise CorruptStream("brotli: trailing bytes after stream end")
                return b"".join(chunks)
            if res == _BROTLI_RESULT_NEEDS_MORE_INPUT:
                raise CorruptStream("brotli: truncated stream")
            if res != _BROTLI_RESULT_NEEDS_MORE_OUTPUT:
                raise CorruptStream("brotli: invalid stream")
    finally:
        _brdec.BrotliDecoderDestroyInstance(handle)


# ---------------------------------------------------------------------------
# lz4

_lz4 = _load("liblz4.so.1", "liblz4.so", "liblz4.dylib")

_lz4.LZ4_versionString.restype = c_char_p
_lz4.LZ4_versionString.argtypes = []
_lz4.LZ4_compressBound.restype = c_int
_lz4.LZ4_compressBound.argtypes = [c_int]
_lz4.LZ4_compress_HC.restype = c_int
_lz4.LZ4_compress_HC.argtypes = [c_char_p, c_void_p, c_int, c_int, c_int]
_lz4.LZ4_decompress_safe.restype = c_int
_lz4.LZ4_decompress_safe.argtypes = [c_char_p, c_void_p, c_int, c_int]


def lz4_version() -> str:
    return _lz4.LZ4_versionString().decode("ascii")


def lz4hc_compress_block(data: bytes, level: int) -> bytes:
    """Compress one raw LZ4 block (no framing; the caller records the size)."""
    if len(data) > LZ4_MAX_INPUT_SIZE:
        raise CodecFailure("lz4: input exceeds the single-block limit")
    bound = _lz4.LZ4_compressBound(len(data))
    if bound <= 0:
        raise CodecFailure("lz4: cannot size output buffer")
    dst = create_string_buffer(bound)
    n = _lz4.LZ4_compress_HC(data, dst, len(data), bound, level)
    if n <= 0:
        raise CodecFailure(f"lz4: LZ4_compress_HC returned {n}")
    return dst.raw[:n]


def lz4_decompress_block(block: bytes, decoded_size: int) -> bytes:
    """Decode one raw LZ4 block that must expand to exactly decoded_size bytes."""
    # A sequence cannot expand past ~255x, so a larger claim is corrupt.
    if not 0 <= decoded_size <= min(LZ4_MAX_INPUT_SIZE, 255 * len(block) + 64):
        raise CorruptStream("lz4: declared size implausible for block length")
    out = create_string_buffer(max(decoded_size, 1))
    n = _lz4.LZ4_decompress_safe(block, out, len(block), decoded_size)
    if n != decoded_size:
        raise CorruptStream(f"lz4: block decoded to {n} bytes, expected {decoded_size}")
    return out.raw[:decoded_size]
