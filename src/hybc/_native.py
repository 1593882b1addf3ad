"""ctypes bindings for the system zstd, brotli, lz4 and libdeflate libraries.

Each library is opened by the first of its listed sonames that loads and is
searched for nowhere else; where none loads, the import raises CodecFailure
(libdeflate alone is optional).

Only the small surface this package needs is bound. Buffers are passed to
the libraries in place, so inputs may be bytes, bytearray or a memoryview and
are never copied. An encoder writes its stream at the position of a mapping
the caller gives it (see mapping), which the kernel backs only where the
library writes, and moves the position past the stream; called without one,
it writes into a fresh mapping of the compress bound and copies out only the
bytes it wrote. A bound is 0 where no stream of that input length can exist.
ZSTD_compress and LZ4_compress_HC read their input whole. Brotli runs one
BrotliEncoderCompressStream loop, which takes a bytes-like input as one piece
and Pieces one at a time, with BrotliEncoderCompress's settings, so a text
gives that function's stream however it is cut.

A decoder takes an optional cap, the most bytes its output may hold. Where a
stream declares its decoded size (the zstd frame header, the LZ4HC length
prefix), it is checked against the largest expansion the format allows and
against the cap before anything is allocated, so a corrupted size claim never
triggers a huge allocation. The Zstd and Brotli decoders also take an
optional sink. Without one, a decoder writes into one bytearray and returns
it; with one, it calls sink(chunk) each time the library fills its buffer of
at most SINK_CHUNK bytes and returns the number of bytes sent. A chunk is a
view of that buffer, valid only during the call. No output buffer is
zero-filled: memory is touched only where the library writes, and a decoder
returns or sends only the bytes the library reports it wrote (a Zstd frame or
LZ4 block must decode to exactly its declared size; a Brotli buffer is cut to
the bytes written). Each codec has one decode loop, in which the sink decides
only where the output goes:

- Zstd runs one ZSTD_DCtx loop. Into memory, its buffer is the whole
  declared size, and libzstd decodes a frame that fits it in one call. To a
  sink, its buffer is one block, sent and then refilled. The window buffer
  libzstd then holds is bounded by the checked content size, not by the
  window the frame claims: libzstd sizes it to the smaller of the two
  (ZSTD_decodingBufferSize_min) and adds at most one 128 KiB block of input,
  so it stays within the in-memory output buffer plus 128 KiB. A frame whose
  window is over libzstd's default ZSTD_d_windowLogMax (2^27; hybc writes
  2^21) is refused there.
- Brotli declares no size, so its one loop grows its buffer into memory and
  flushes it to a sink. Into memory, the buffer starts at sixteen times the
  stream length plus 1 KiB and grows geometrically with the real output, up
  to the cap. The decoder never gets room past the cap.
- LZ4 decodes its one raw block whole, into a buffer of the declared size.

A decoder never sends more than the cap, or than a Zstd frame declares, and
checks the total at the end, so a sink sees bytes before they are known to
be right.

crc32 is libdeflate's libdeflate_crc32, which folds with carry-less multiplies,
or zlib.crc32 where no libdeflate loads; both compute the same CRC-32 and
take a running value to continue from.
"""
from __future__ import annotations

import ctypes
import mmap
import sys
import zlib
from ctypes import (
    POINTER,
    byref,
    c_char_p,
    c_int,
    c_size_t,
    c_ssize_t,
    c_uint,
    c_uint32,
    c_ulonglong,
    c_void_p,
)

from .errors import CodecFailure, CorruptStream

# Upper bound on a single LZ4 block, from the block format (LZ4_MAX_INPUT_SIZE).
LZ4_MAX_INPUT_SIZE = 0x7E000000


def _load(*sonames: str) -> ctypes.CDLL:
    # No search by library stem: on Linux ctypes' lookup answers with the name
    # in `ldconfig -p` or the library's recorded soname, the first one listed
    # here, so it could only retry a failed name (after importing subprocess)
    # or find another major version that the prototypes below do not fit.
    errors = []
    for name in sonames:
        try:
            return ctypes.CDLL(name)
        except OSError as exc:
            errors.append(exc)
    raise CodecFailure(f"cannot load shared library {' or '.join(sonames)}: {errors[0]}")


# ---------------------------------------------------------------------------
# buffers


class _PyBuffer(ctypes.Structure):
    """CPython's Py_buffer, as PyObject_GetBuffer fills it."""

    _fields_ = [
        ("buf", c_void_p), ("obj", c_void_p), ("len", c_ssize_t),
        ("itemsize", c_ssize_t), ("readonly", c_int), ("ndim", c_int),
        ("format", c_char_p), ("shape", c_void_p), ("strides", c_void_p),
        ("suboffsets", c_void_p), ("internal", c_void_p),
    ]


_get_buffer = ctypes.pythonapi.PyObject_GetBuffer
_get_buffer.restype = c_int
_get_buffer.argtypes = [ctypes.py_object, POINTER(_PyBuffer), c_int]
_release_buffer = ctypes.pythonapi.PyBuffer_Release
_release_buffer.restype = None
_release_buffer.argtypes = [POINTER(_PyBuffer)]
# _new_bytearray(None, n) and _resize(out, n): a bytearray of n bytes and
# resizing one to n bytes, neither writing the new bytes, which a decoder
# fills. A resize fails while a _Pinned block holds the bytearray.
_new_bytearray = ctypes.pythonapi.PyByteArray_FromStringAndSize
_new_bytearray.restype = ctypes.py_object
_new_bytearray.argtypes = [c_char_p, c_ssize_t]
_resize = ctypes.pythonapi.PyByteArray_Resize
_resize.restype = c_int
_resize.argtypes = [ctypes.py_object, c_ssize_t]


class _Pinned:
    """``with _Pinned(data) as (address, length)``: a contiguous bytes-like
    object's first byte and length, without copying it. Unlike
    ``c_char.from_buffer`` this takes read-only and empty buffers too, and it
    builds no ctypes array type (ctypes keeps each one forever). Until the
    block ends, the object cannot be resized."""

    __slots__ = ("_view", "_ref")

    def __init__(self, data):
        self._view = _PyBuffer()
        self._ref = byref(self._view)
        _get_buffer(data, self._ref, 0)  # PyBUF_SIMPLE; raises if not a buffer

    def __enter__(self) -> tuple[int | None, int]:
        return self._view.buf, self._view.len

    def __exit__(self, *exc) -> None:
        _release_buffer(self._ref)


class Pieces:
    """A text as an encoder that takes pieces reads it: its length up front,
    as len(), and an iterable of bytes-like pieces, read once."""

    __slots__ = ("length", "pieces")

    def __init__(self, length: int, pieces):
        self.length, self.pieces = length, pieces

    def __len__(self) -> int:
        return self.length


def mapping(size: int) -> mmap.mmap:
    """An anonymous mapping of size bytes for a stream to be written into at
    its position; the kernel backs only the pages written."""
    try:
        return mmap.mmap(-1, size)
    except (OSError, ValueError, OverflowError) as exc:
        raise CodecFailure(f"cannot map {size} bytes for a stream: {exc}") from exc


def encoded(size: int, fill) -> bytes:
    """The bytes fill(out) writes into a fresh mapping of size bytes."""
    with mapping(size) as out:
        fill(out)
        return out[:out.tell()]


# ---------------------------------------------------------------------------
# zstd

_zstd = _load("libzstd.so.1", "libzstd.so", "libzstd.dylib")

_zstd.ZSTD_versionString.restype = c_char_p
_zstd.ZSTD_versionString.argtypes = []
_zstd.ZSTD_compressBound.restype = c_size_t
_zstd.ZSTD_compressBound.argtypes = [c_size_t]
_zstd.ZSTD_compress.restype = c_size_t
_zstd.ZSTD_compress.argtypes = [c_void_p, c_size_t, c_void_p, c_size_t, c_int]
_zstd.ZSTD_isError.restype = c_uint
_zstd.ZSTD_isError.argtypes = [c_size_t]
_zstd.ZSTD_getErrorName.restype = c_char_p
_zstd.ZSTD_getErrorName.argtypes = [c_size_t]
_zstd.ZSTD_getFrameContentSize.restype = c_ulonglong
_zstd.ZSTD_getFrameContentSize.argtypes = [c_void_p, c_size_t]
_zstd.ZSTD_findFrameCompressedSize.restype = c_size_t
_zstd.ZSTD_findFrameCompressedSize.argtypes = [c_void_p, c_size_t]
_zstd.ZSTD_DStreamOutSize.restype = c_size_t
_zstd.ZSTD_DStreamOutSize.argtypes = []
_zstd.ZSTD_createDCtx.restype = c_void_p
_zstd.ZSTD_createDCtx.argtypes = []
_zstd.ZSTD_freeDCtx.restype = c_size_t
_zstd.ZSTD_freeDCtx.argtypes = [c_void_p]


class _ZstdBuffer(ctypes.Structure):
    """ZSTD_inBuffer and ZSTD_outBuffer, which share one layout."""

    _fields_ = [("ptr", c_void_p), ("size", c_size_t), ("pos", c_size_t)]


_zstd.ZSTD_decompressStream.restype = c_size_t
_zstd.ZSTD_decompressStream.argtypes = [c_void_p, POINTER(_ZstdBuffer), POINTER(_ZstdBuffer)]

# ZSTD_CONTENTSIZE_ERROR; ZSTD_CONTENTSIZE_UNKNOWN is the one value above it.
_ZSTD_CONTENTSIZE_ERROR = 2**64 - 2

# The largest chunk a decoder sends to a sink, the step of the LZMA and Bzip2
# decoders, and the piece in which a file is read for an encoder that takes
# pieces: ZSTD_DStreamOutSize(), one zstd block (128 KiB).
SINK_CHUNK = _zstd.ZSTD_DStreamOutSize()


def _zstd_error(code: int) -> str:
    name = _zstd.ZSTD_getErrorName(c_size_t(code))
    return name.decode("ascii", "replace") if name else "unknown error"


def zstd_version() -> str:
    return _zstd.ZSTD_versionString().decode("ascii")


def zstd_bound(n: int) -> int:
    """ZSTD_compressBound: the longest frame n input bytes compress to, or 0
    where n is too large for a frame (the library returns an error code)."""
    bound = _zstd.ZSTD_compressBound(n)
    return 0 if _zstd.ZSTD_isError(bound) else bound


def zstd_compress(data, level: int, out=None) -> bytes | None:
    """One zstd frame of data, which ZSTD_compress reads whole: written at
    out's position, which moves past it, or without out returned as bytes."""
    if out is None:
        return encoded(zstd_bound(len(data)), lambda out: zstd_compress(data, level, out))
    with _Pinned(data) as (src, n), _Pinned(out) as (dst, size):
        start = out.tell()
        code = _zstd.ZSTD_compress(dst + start, size - start, src, n, level)
    if _zstd.ZSTD_isError(code):
        raise CodecFailure(f"zstd compress: {_zstd_error(code)}")
    out.seek(start + code)


def zstd_decompress(data, cap: int = sys.maxsize, sink=None) -> bytearray | int:
    """Decode data, which must be exactly one zstd frame declaring its size,
    to at most cap bytes: into one bytearray, or, with a sink, in chunks
    of at most SINK_CHUNK bytes sent to sink, returning their count."""
    with _Pinned(data) as (src, n):
        declared = _zstd.ZSTD_getFrameContentSize(src, n)
        if declared >= _ZSTD_CONTENTSIZE_ERROR:
            raise CorruptStream("zstd: no frame header declaring the decoded size")
        # A block decodes to at most 128 KiB and costs at least 4 bytes (an RLE
        # block: 3-byte header plus the repeated byte), so no frame expands further.
        if declared > 128 * 1024 // 4 * n:
            raise CorruptStream("zstd: declared size implausible for frame length")
        if declared > cap:
            raise CorruptStream(f"zstd: frame declares {declared} bytes, more than the {cap} allowed")
        if _zstd.ZSTD_findFrameCompressedSize(src, n) != n:
            raise CorruptStream("zstd: truncated frame or trailing bytes")
        dctx = _zstd.ZSTD_createDCtx()
        if not dctx:
            raise CodecFailure("zstd: cannot allocate decoder")
        try:
            out = _new_bytearray(None, declared if sink is None else min(SINK_CHUNK, declared))
            with _Pinned(out) as (dst, size), memoryview(out) as view:
                inb, outb = _ZstdBuffer(src, n, 0), _ZstdBuffer(dst, size, 0)
                sent = 0
                # libzstd reports a call sequence that stops making progress as
                # an error, so the loop ends without a guard of its own.
                while True:
                    code = _zstd.ZSTD_decompressStream(dctx, byref(outb), byref(inb))
                    if _zstd.ZSTD_isError(code):
                        raise CorruptStream(f"zstd: {_zstd_error(code)}")
                    if sink is not None and outb.pos:
                        sent += outb.pos
                        if sent > declared:
                            raise CorruptStream(f"zstd: frame decodes past its declared {declared} bytes")
                        sink(view[:outb.pos])
                        outb.pos = 0
                    if code == 0:
                        break
        finally:
            _zstd.ZSTD_freeDCtx(dctx)
    got = outb.pos if sink is None else sent
    if got != declared:
        raise CorruptStream(f"zstd: frame decoded to {got} bytes, declared {declared}")
    return out if sink is None else got


# ---------------------------------------------------------------------------
# brotli

_brenc = _load("libbrotlienc.so.1", "libbrotlienc.so", "libbrotlienc.dylib")
_brdec = _load("libbrotlidec.so.1", "libbrotlidec.so", "libbrotlidec.dylib")

_BROTLI_MODE_GENERIC = 0
_BROTLI_PARAM_MODE = 0
_BROTLI_PARAM_QUALITY = 1
_BROTLI_PARAM_LGWIN = 2
_BROTLI_PARAM_SIZE_HINT = 5
_BROTLI_OPERATION_PROCESS = 0
_BROTLI_OPERATION_FINISH = 2
_BROTLI_RESULT_SUCCESS = 1
_BROTLI_RESULT_NEEDS_MORE_INPUT = 2
_BROTLI_RESULT_NEEDS_MORE_OUTPUT = 3

_brenc.BrotliEncoderVersion.restype = c_uint
_brenc.BrotliEncoderVersion.argtypes = []
_brenc.BrotliEncoderMaxCompressedSize.restype = c_size_t
_brenc.BrotliEncoderMaxCompressedSize.argtypes = [c_size_t]
_brenc.BrotliEncoderCreateInstance.restype = c_void_p
_brenc.BrotliEncoderCreateInstance.argtypes = [c_void_p, c_void_p, c_void_p]
_brenc.BrotliEncoderDestroyInstance.restype = None
_brenc.BrotliEncoderDestroyInstance.argtypes = [c_void_p]
_brenc.BrotliEncoderSetParameter.restype = c_int
_brenc.BrotliEncoderSetParameter.argtypes = [c_void_p, c_int, c_uint32]
_brenc.BrotliEncoderCompressStream.restype = c_int
_brenc.BrotliEncoderCompressStream.argtypes = [
    c_void_p, c_int,
    POINTER(c_size_t), POINTER(c_void_p),
    POINTER(c_size_t), POINTER(c_void_p),
    POINTER(c_size_t),
]
_brenc.BrotliEncoderIsFinished.restype = c_int
_brenc.BrotliEncoderIsFinished.argtypes = [c_void_p]
_brdec.BrotliDecoderCreateInstance.restype = c_void_p
_brdec.BrotliDecoderCreateInstance.argtypes = [c_void_p, c_void_p, c_void_p]
_brdec.BrotliDecoderDestroyInstance.restype = None
_brdec.BrotliDecoderDestroyInstance.argtypes = [c_void_p]
_brdec.BrotliDecoderDecompressStream.restype = c_int
_brdec.BrotliDecoderDecompressStream.argtypes = [
    c_void_p,
    POINTER(c_size_t), POINTER(c_void_p),
    POINTER(c_size_t), POINTER(c_void_p),
    POINTER(c_size_t),
]


def brotli_version() -> str:
    v = _brenc.BrotliEncoderVersion()
    return f"{v >> 24}.{(v >> 12) & 0xFFF}.{v & 0xFFF}"


def brotli_bound(n: int) -> int:
    """BrotliEncoderMaxCompressedSize: the longest stream n input bytes
    compress to (0 only where that size overflows size_t)."""
    return _brenc.BrotliEncoderMaxCompressedSize(n)


def brotli_compress(data, quality: int, window_log: int, out=None) -> bytes | None:
    """One brotli stream of data, a bytes-like object or Pieces, with
    BrotliEncoderCompress's settings: the given quality and window, generic
    mode, the text's length cut to 32 bits as the size hint, and the stream
    06 for an empty text (the encoder itself would write 3b). The last piece
    goes in with the finish operation, as BrotliEncoderCompress gives its
    one, so a metablock that ends the text (each 8 MiB ends one) is the last
    one, and the stream is the same however the text is cut. It is written at
    out's position, which moves past it, or without out returned as bytes;
    a stream that would pass the end of out raises CodecFailure where
    BrotliEncoderCompress would write an uncompressed one."""
    n = len(data)
    if out is None:
        return encoded(brotli_bound(n), lambda out: brotli_compress(data, quality, window_log, out))
    pieces = iter(data.pieces if isinstance(data, Pieces) else (data,))
    piece, following = next(pieces, b""), next(pieces, None)
    if following is None and not piece:
        out.write(b"\x06")
        return
    handle = _brenc.BrotliEncoderCreateInstance(None, None, None)
    if not handle:
        raise CodecFailure("brotli: cannot allocate encoder")
    try:
        for param, value in ((_BROTLI_PARAM_MODE, _BROTLI_MODE_GENERIC),
                             (_BROTLI_PARAM_QUALITY, quality),
                             (_BROTLI_PARAM_LGWIN, window_log),
                             (_BROTLI_PARAM_SIZE_HINT, n & 0xFFFFFFFF)):
            _brenc.BrotliEncoderSetParameter(handle, param, value)
        with _Pinned(out) as (dst, size):
            start = out.tell()
            next_out, avail_out = c_void_p(dst + start), c_size_t(size - start)
            while True:
                last = following is None
                op = _BROTLI_OPERATION_FINISH if last else _BROTLI_OPERATION_PROCESS
                with _Pinned(piece) as (src, k):
                    next_in, avail_in = c_void_p(src), c_size_t(k)
                    while avail_in.value or last and not _brenc.BrotliEncoderIsFinished(handle):
                        # what is left to do writes at least one more byte
                        if not avail_out.value:
                            raise CodecFailure("brotli compress: stream longer than its bound")
                        ok = _brenc.BrotliEncoderCompressStream(
                            handle, op, byref(avail_in), byref(next_in), byref(avail_out),
                            byref(next_out), None,
                        )
                        if ok != 1:
                            raise CodecFailure("brotli compress: encoder reported failure")
                if last:
                    break
                piece, following = following, next(pieces, None)
            end = next_out.value - dst
    finally:
        _brenc.BrotliEncoderDestroyInstance(handle)
    out.seek(end)


def brotli_decompress(data, cap: int = sys.maxsize, sink=None) -> bytearray | int:
    """Decode one brotli stream to at most cap bytes. Without a sink, the
    output buffer starts at sixteen times the stream length plus 1 KiB (text
    at quality 6 expands about 7-8x, so it seldom grows) and doubles while the
    decoder asks for more room, so its size follows the real output, not the
    cap. With a sink, a buffer of SINK_CHUNK bytes is sent to sink each time
    the decoder fills it, and the count of bytes sent is returned."""
    handle = _brdec.BrotliDecoderCreateInstance(None, None, None)
    if not handle:
        raise CodecFailure("brotli: cannot allocate decoder")
    try:
        with _Pinned(data) as (src, n):
            next_in, avail_in = c_void_p(src), c_size_t(n)
            out = _new_bytearray(None, min(16 * n + 1024 if sink is None else SINK_CHUNK, cap))
            written = sent = 0  # bytes in out, and bytes already sent from it
            while True:
                with _Pinned(out) as (dst, size):
                    room = min(size, cap - sent) - written
                    next_out, avail_out = c_void_p(dst + written), c_size_t(room)
                    res = _brdec.BrotliDecoderDecompressStream(
                        handle, byref(avail_in), byref(next_in), byref(avail_out), byref(next_out), None,
                    )
                if res == _BROTLI_RESULT_SUCCESS:
                    if avail_in.value:
                        raise CorruptStream("brotli: trailing bytes after stream end")
                elif res == _BROTLI_RESULT_NEEDS_MORE_INPUT:
                    raise CorruptStream("brotli: truncated stream")
                elif res != _BROTLI_RESULT_NEEDS_MORE_OUTPUT:
                    raise CorruptStream("brotli: invalid stream")
                written += room - avail_out.value
                if sink is not None and written:
                    sink(memoryview(out)[:written])
                    sent, written = sent + written, 0
                if res == _BROTLI_RESULT_SUCCESS:
                    if sink is not None:
                        return sent
                    del out[written:]
                    return out
                if sent + written >= cap:
                    raise CorruptStream(f"brotli: stream decodes to more than the {cap} bytes allowed")
                if sink is None:
                    _resize(out, min(2 * size, cap))
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
_lz4.LZ4_compress_HC.argtypes = [c_void_p, c_void_p, c_int, c_int, c_int]
_lz4.LZ4_decompress_safe.restype = c_int
_lz4.LZ4_decompress_safe.argtypes = [c_void_p, c_void_p, c_int, c_int]


def lz4_version() -> str:
    return _lz4.LZ4_versionString().decode("ascii")


def lz4_bound(n: int) -> int:
    """LZ4_compressBound: the longest block n input bytes compress to, or 0
    where n exceeds LZ4_MAX_INPUT_SIZE (checked here: the C int would wrap)."""
    return _lz4.LZ4_compressBound(n) if n <= LZ4_MAX_INPUT_SIZE else 0


def lz4hc_compress_block(data, level: int, out=None) -> bytes | None:
    """One raw LZ4 block of data (no framing; the caller records the size):
    written at out's position, which moves past it, or without out returned
    as bytes."""
    bound = lz4_bound(len(data))
    if not bound:
        raise CodecFailure("lz4: input exceeds the single-block limit")
    if out is None:
        return encoded(bound, lambda out: lz4hc_compress_block(data, level, out))
    with _Pinned(data) as (src, n), _Pinned(out) as (dst, size):
        start = out.tell()
        written = _lz4.LZ4_compress_HC(src, dst + start, n, size - start, level)
    if written <= 0:
        raise CodecFailure(f"lz4: LZ4_compress_HC returned {written}")
    out.seek(start + written)


def lz4_decompress_block(block, decoded_size: int) -> bytearray:
    """Decode one raw LZ4 block that must expand to exactly decoded_size bytes."""
    with _Pinned(block) as (src, n):
        # A sequence cannot expand past ~255x, so a larger claim is corrupt.
        if not 0 <= decoded_size <= min(LZ4_MAX_INPUT_SIZE, 255 * n + 64):
            raise CorruptStream("lz4: declared size implausible for block length")
        out = _new_bytearray(None, decoded_size)
        with _Pinned(out) as (dst, _):
            got = _lz4.LZ4_decompress_safe(src, dst, n, decoded_size)
    if got != decoded_size:
        raise CorruptStream(f"lz4: block decoded to {got} bytes, expected {decoded_size}")
    return out


# ---------------------------------------------------------------------------
# crc-32


try:
    _deflate = _load("libdeflate.so.0", "libdeflate.so", "libdeflate.dylib")
except CodecFailure:
    _deflate = None
else:
    _deflate.libdeflate_crc32.restype = c_uint32
    _deflate.libdeflate_crc32.argtypes = [c_uint32, c_void_p, c_size_t]


def _libdeflate_crc32(data, value: int = 0) -> int:
    with _Pinned(data) as (buf, n):
        return _deflate.libdeflate_crc32(value, buf, n)


# crc32(data, value=0): the CRC-32 of a bytes-like object, continued from a
# running value, as zlib.crc32(data, value) returns it.
crc32 = zlib.crc32 if _deflate is None else _libdeflate_crc32


def crc32_version() -> str:
    return f"zlib {zlib.ZLIB_RUNTIME_VERSION}" if _deflate is None else "libdeflate"
