"""ctypes bindings for the system zstd, brotli, lz4 and libdeflate libraries.

Each library is opened by the first of its listed sonames that loads and is
searched for nowhere else; where none loads, the import raises CodecFailure
(libdeflate alone is optional).

Only the small surface this package needs is bound. Buffers are passed to
the libraries in place, so inputs may be bytes, bytearray or a memoryview and
are never copied. An encoder maps its compress bound (see mapping), which the
kernel backs only where the library writes, writes its stream from the start
and returns a memoryview of the bytes it wrote; the mapping goes when that
view is released, or with the exception an encoder raises. A bound is 0
where no stream of that input length can exist.
A regular file is read as Pieces: compress_pipeline hands a codec in
codecs.PIECEWISE (any but LZ4HC) the text, and decompress_pipeline any
decoder the payload after the header. Pipes and file objects without a
descriptor, and LZ4HC's text, are read whole. Zstd and Brotli take Pieces
here, and a bytes-like input as one piece. Zstd runs one
ZSTD_compressStream2 loop over a stable input buffer, which is a bytes-like
input itself or a mapping that Pieces are read into, so a text gives
ZSTD_compress's frame however it is cut. Brotli runs one
BrotliEncoderCompressStream loop, which takes Pieces one at a time, with
BrotliEncoderCompress's settings, so a text gives that function's stream
however it is cut. Each decoder but LZ4's reads Pieces one at a time into
one buffer it reuses, so a stream costs its decoder's window, not its
length.

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
  A block in Pieces that is shorter than its output is read into the end of
  a buffer of the declared size plus 1/256 of it plus 32 bytes (lz4.h's
  LZ4_DECOMPRESS_INPLACE_BUFFER_SIZE, from liblz4 1.9.0) and decoded in
  place to its start, so the block costs no buffer of its own; any other
  block in Pieces, or any with an older liblz4, is read into one first.

A decoder never sends more than the cap, or than a Zstd frame declares, and
checks the total at the end, so a sink sees bytes before they are known to
be right. A bytes-like Zstd stream is checked to be exactly one frame before
it is decoded; Pieces that end inside a stream, or run past its end, are
refused with the same message once the decoder meets that end.

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
    """The bytes left in an open binary file, a text or a container's
    payload, as a codec that takes pieces reads them: their length up front,
    as len(), and readinto(buffer), which reads the next bytes into a
    writable buffer and returns their count, 0 once the file has ended.
    Pieces keeps the count and running CRC-32 of the bytes read, as count
    and crc, for the container's header. Iterating it reads the bytes once,
    through readinto, in pieces of at most SINK_CHUNK bytes, each in a
    buffer of its own."""

    __slots__ = ("length", "count", "crc", "_read")

    def __init__(self, length: int, file):
        self.length, self.count, self.crc, self._read = length, 0, 0, file.readinto

    def __len__(self) -> int:
        return self.length

    def readinto(self, buffer) -> int:
        got = self._read(buffer)
        self.count, self.crc = self.count + got, crc32(memoryview(buffer)[:got], self.crc)
        return got

    def fill(self, buffer) -> int:
        """readinto until buffer is full or the file has ended; the count read."""
        view, got = memoryview(buffer), 0
        while got < len(view) and (more := self.readinto(view[got:])):
            got += more
        return got

    def __iter__(self):
        while True:
            piece = _new_bytearray(None, SINK_CHUNK)
            got = self.readinto(piece)
            if not got:
                return
            yield memoryview(piece)[:got]


def mapping(size: int) -> mmap.mmap:
    """An anonymous private mapping of size bytes for an encoder to write
    into; the kernel backs only the pages written, and frees a page released
    with MADV_DONTNEED (a shared one would keep its bytes)."""
    try:
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    except (OSError, ValueError, OverflowError) as exc:
        raise CodecFailure(f"cannot map {size} bytes for a stream: {exc}") from exc


# ---------------------------------------------------------------------------
# zstd

_zstd = _load("libzstd.so.1", "libzstd.so", "libzstd.dylib")

_zstd.ZSTD_versionString.restype = c_char_p
_zstd.ZSTD_versionString.argtypes = []
_zstd.ZSTD_compressBound.restype = c_size_t
_zstd.ZSTD_compressBound.argtypes = [c_size_t]
_zstd.ZSTD_createCCtx.restype = c_void_p
_zstd.ZSTD_createCCtx.argtypes = []
_zstd.ZSTD_freeCCtx.restype = c_size_t
_zstd.ZSTD_freeCCtx.argtypes = [c_void_p]
_zstd.ZSTD_CCtx_setParameter.restype = c_size_t
_zstd.ZSTD_CCtx_setParameter.argtypes = [c_void_p, c_int, c_int]
_zstd.ZSTD_CCtx_setPledgedSrcSize.restype = c_size_t
_zstd.ZSTD_CCtx_setPledgedSrcSize.argtypes = [c_void_p, c_ulonglong]
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


class _ZstdCParams(ctypes.Structure):
    """ZSTD_compressionParameters."""

    _fields_ = [(name, c_uint) for name in (
        "windowLog", "chainLog", "hashLog", "searchLog", "minMatch", "targetLength", "strategy",
    )]


_zstd.ZSTD_compressStream2.restype = c_size_t
_zstd.ZSTD_compressStream2.argtypes = [c_void_p, POINTER(_ZstdBuffer), POINTER(_ZstdBuffer), c_int]
_zstd.ZSTD_getCParams.restype = _ZstdCParams
_zstd.ZSTD_getCParams.argtypes = [c_int, c_ulonglong, c_size_t]
_zstd.ZSTD_decompressStream.restype = c_size_t
_zstd.ZSTD_decompressStream.argtypes = [c_void_p, POINTER(_ZstdBuffer), POINTER(_ZstdBuffer)]

# ZSTD_cParameter values: ZSTD_c_compressionLevel, and the experimental
# ZSTD_c_stableInBuffer and ZSTD_c_stableOutBuffer; ZSTD_EndDirective values.
_ZSTD_C_COMPRESSION_LEVEL = 100
_ZSTD_C_STABLE_IN_BUFFER = 1006
_ZSTD_C_STABLE_OUT_BUFFER = 1007
_ZSTD_E_CONTINUE = 0
_ZSTD_E_END = 2

# ZSTD_CONTENTSIZE_ERROR; ZSTD_CONTENTSIZE_UNKNOWN is the one value above it.
_ZSTD_CONTENTSIZE_ERROR = 2**64 - 2
_ZSTD_NOT_ONE_FRAME = "zstd: truncated frame or trailing bytes"

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


def _zstd_window(level: int, n: int) -> int:
    """The window, in bytes, of libzstd's parameters for level and n input
    bytes: no match reaches further back."""
    return 1 << _zstd.ZSTD_getCParams(level, n, 0).windowLog


def _zstd_encoder_call(name: str, *args) -> int:
    code = getattr(_zstd, name)(*args)
    if _zstd.ZSTD_isError(code):
        raise CodecFailure(f"zstd compress: {_zstd_error(code)} ({name})")
    return code


def zstd_compress(data, level: int) -> memoryview:
    """One zstd frame of data, a bytes-like object or Pieces, with the bytes
    ZSTD_compress writes for the whole text, as a view of its mapping of
    zstd_bound(len(data)) bytes.

    One ZSTD_compressStream2 loop serves both. Its input is one stable
    buffer (ZSTD_c_stableInBuffer) of the pledged length, which libzstd
    reads in place as ZSTD_compress does; copied into a buffer of libzstd's
    own, the text would give other bytes. A bytes-like text is that buffer
    whole, finished at once. Pieces are read into an anonymous mapping, one
    SINK_CHUNK at a time; the buffer grows by each piece, libzstd encodes
    the whole blocks it holds, and the pages more than the frame's window
    and two blocks behind what libzstd has taken are released, since it
    reads nothing below its window. Pieces of other than their length raise
    CodecFailure."""
    n = len(data)
    pieces = isinstance(data, Pieces)
    out = mapping(zstd_bound(n))
    # one byte more than the text, so a read shows a text longer than n
    text = mapping(n + 1) if pieces else data
    cctx = _zstd.ZSTD_createCCtx()
    if not cctx:
        raise CodecFailure("zstd: cannot allocate encoder")
    try:
        for param, value in ((_ZSTD_C_COMPRESSION_LEVEL, level),
                             (_ZSTD_C_STABLE_IN_BUFFER, 1),
                             (_ZSTD_C_STABLE_OUT_BUFFER, 1)):
            _zstd_encoder_call("ZSTD_CCtx_setParameter", cctx, param, value)
        _zstd_encoder_call("ZSTD_CCtx_setPledgedSrcSize", cctx, n)
        keep = _zstd_window(level, n) + 2 * SINK_CHUNK
        released = 0
        with _Pinned(text) as (src, size), _Pinned(out) as (dst, room):
            inb, outb = _ZstdBuffer(src, 0 if pieces else size, 0), _ZstdBuffer(dst, room, 0)
            while pieces:
                got = data.readinto(memoryview(text)[inb.size:inb.size + SINK_CHUNK])
                inb.size += got
                if inb.size > n or not got and inb.size < n:
                    raise CodecFailure(f"zstd compress: text is not the {n} bytes pledged")
                if not got:
                    break
                # libzstd would encode a last whole block as one more to come,
                # so the text's last piece waits for ZSTD_e_end
                if inb.size < n:
                    _zstd_encoder_call("ZSTD_compressStream2", cctx, byref(outb), byref(inb),
                                       _ZSTD_E_CONTINUE)
                    cut = (inb.pos - keep) // mmap.PAGESIZE * mmap.PAGESIZE
                    if cut > released:
                        text.madvise(mmap.MADV_DONTNEED, released, cut - released)
                        released = cut
            # with a stable output buffer libzstd writes the frame's end in
            # this call, so nothing is left to flush
            if _zstd_encoder_call("ZSTD_compressStream2", cctx, byref(outb), byref(inb), _ZSTD_E_END):
                raise CodecFailure("zstd compress: frame not finished in one call")
    finally:
        _zstd.ZSTD_freeCCtx(cctx)
    return memoryview(out)[:outb.pos]


def zstd_decompress(data, cap: int = sys.maxsize, sink=None) -> bytearray | int:
    """Decode data, a bytes-like object or Pieces, which must be exactly one
    zstd frame declaring its size, to at most cap bytes: into one bytearray,
    or, with a sink, in chunks of at most SINK_CHUNK bytes sent to sink,
    returning their count."""
    n = len(data)
    pieces = isinstance(data, Pieces)
    piece = _new_bytearray(None, SINK_CHUNK) if pieces else data
    with _Pinned(piece) as (src, size):
        if pieces:
            size = data.readinto(piece)
        declared = _zstd.ZSTD_getFrameContentSize(src, size)
        if declared >= _ZSTD_CONTENTSIZE_ERROR:
            raise CorruptStream("zstd: no frame header declaring the decoded size")
        # A block decodes to at most 128 KiB and costs at least 4 bytes (an RLE
        # block: 3-byte header plus the repeated byte), so no frame expands further.
        if declared > 128 * 1024 // 4 * n:
            raise CorruptStream("zstd: declared size implausible for frame length")
        if declared > cap:
            raise CorruptStream(f"zstd: frame declares {declared} bytes, more than the {cap} allowed")
        if not pieces and _zstd.ZSTD_findFrameCompressedSize(src, n) != n:
            raise CorruptStream(_ZSTD_NOT_ONE_FRAME)
        dctx = _zstd.ZSTD_createDCtx()
        if not dctx:
            raise CodecFailure("zstd: cannot allocate decoder")
        try:
            out = _new_bytearray(None, declared if sink is None else min(SINK_CHUNK, declared))
            with _Pinned(out) as (dst, room), memoryview(out) as view:
                inb, outb = _ZstdBuffer(src, size, 0), _ZstdBuffer(dst, room, 0)
                sent = 0
                # libzstd reports a call sequence that stops making progress as
                # an error, so the loop ends without a guard of its own.
                while True:
                    code = _zstd.ZSTD_decompressStream(dctx, byref(outb), byref(inb))
                    if _zstd.ZSTD_isError(code):
                        raise CorruptStream(f"zstd: {_zstd_error(code)}")
                    full = outb.pos == outb.size
                    if sink is not None and outb.pos:
                        sent += outb.pos
                        if sent > declared:
                            raise CorruptStream(f"zstd: frame decodes past its declared {declared} bytes")
                        sink(view[:outb.pos])
                        outb.pos = 0
                    if code == 0:
                        break
                    # libzstd has taken the whole piece, and, with room left
                    # to write, waits for the next
                    if inb.pos == inb.size:
                        inb.pos, inb.size = 0, data.readinto(piece) if pieces else 0
                        if not inb.size and not full:
                            raise CorruptStream(_ZSTD_NOT_ONE_FRAME)
                if pieces and (inb.pos < inb.size or data.readinto(piece)):
                    raise CorruptStream(_ZSTD_NOT_ONE_FRAME)
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


def brotli_compress(data, quality: int, window_log: int) -> memoryview:
    """One brotli stream of data, a bytes-like object or Pieces, with
    BrotliEncoderCompress's settings: the given quality and window, generic
    mode, the text's length cut to 32 bits as the size hint, and the stream
    06 for an empty text (the encoder itself would write 3b). The last piece
    goes in with the finish operation, as BrotliEncoderCompress gives its
    one, so a metablock that ends the text (each 8 MiB ends one) is the last
    one, and the stream is the same however the text is cut. It is returned
    as a view of its mapping of brotli_bound(len(data)) bytes; a stream that
    would pass the end of the mapping raises CodecFailure where
    BrotliEncoderCompress would write an uncompressed one."""
    n = len(data)
    out = mapping(brotli_bound(n))
    pieces = iter(data if isinstance(data, Pieces) else (data,))
    piece, following = next(pieces, b""), next(pieces, None)
    if following is None and not piece:
        out.write(b"\x06")
        return memoryview(out)[:1]
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
            next_out, avail_out = c_void_p(dst), c_size_t(size)
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
    return memoryview(out)[:end]


def brotli_decompress(data, cap: int = sys.maxsize, sink=None) -> bytearray | int:
    """Decode one brotli stream, a bytes-like object or Pieces, to at most
    cap bytes. Without a sink, the output buffer starts at sixteen times the
    stream length plus 1 KiB (text at quality 6 expands about 7-8x, so it
    seldom grows) and doubles while the decoder asks for more room, so its
    size follows the real output, not the cap. With a sink, a buffer of
    SINK_CHUNK bytes is sent to sink each time the decoder fills it, and the
    count of bytes sent is returned."""
    n = len(data)
    pieces = isinstance(data, Pieces)
    piece = _new_bytearray(None, SINK_CHUNK) if pieces else data
    handle = _brdec.BrotliDecoderCreateInstance(None, None, None)
    if not handle:
        raise CodecFailure("brotli: cannot allocate decoder")
    try:
        with _Pinned(piece) as (src, k):
            next_in, avail_in = c_void_p(src), c_size_t(data.readinto(piece) if pieces else k)
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
                    if avail_in.value or pieces and data.readinto(piece):
                        raise CorruptStream("brotli: trailing bytes after stream end")
                elif res == _BROTLI_RESULT_NEEDS_MORE_INPUT:
                    avail_in.value = pieces and data.readinto(piece)
                    if not avail_in.value:
                        raise CorruptStream("brotli: truncated stream")
                    next_in.value = src
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
                if res == _BROTLI_RESULT_NEEDS_MORE_OUTPUT:
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


def lz4hc_compress_block(data, level: int, prefix=b"") -> memoryview:
    """One raw LZ4 block of data (no framing; the caller records the size)
    written after prefix into one mapping, as a view of prefix and block."""
    bound = lz4_bound(len(data))
    if not bound:
        raise CodecFailure("lz4: input exceeds the single-block limit")
    start = len(prefix)
    out = mapping(start + bound)
    out[:start] = prefix
    with _Pinned(data) as (src, n), _Pinned(out) as (dst, size):
        written = _lz4.LZ4_compress_HC(src, dst + start, n, size - start, level)
    if written <= 0:
        raise CodecFailure(f"lz4: LZ4_compress_HC returned {written}")
    return memoryview(out)[:start + written]


def _lz4_check_claim(decoded_size: int, n: int) -> None:
    # A sequence cannot expand past ~255x, so a larger claim is corrupt.
    if not 0 <= decoded_size <= min(LZ4_MAX_INPUT_SIZE, 255 * n + 64):
        raise CorruptStream("lz4: declared size implausible for block length")


def lz4_decompress_block(block, decoded_size: int) -> bytearray:
    """Decode one raw LZ4 block that must expand to exactly decoded_size
    bytes. block is a bytes-like object, or Pieces whose bytes left (their
    length less their count) are the block."""
    if isinstance(block, Pieces):
        return _lz4_decompress_pieces(block, decoded_size)
    with _Pinned(block) as (src, n):
        _lz4_check_claim(decoded_size, n)
        out = _new_bytearray(None, decoded_size)
        with _Pinned(out) as (dst, _):
            got = _lz4.LZ4_decompress_safe(src, dst, n, decoded_size)
    if got != decoded_size:
        raise CorruptStream(f"lz4: block decoded to {got} bytes, expected {decoded_size}")
    return out


def _lz4_decompress_pieces(pieces: Pieces, decoded_size: int) -> bytearray:
    # The block is read into the end of a buffer: the one it decodes to in
    # place, as lz4.h's "In-place compression and decompression" allows (see
    # the module docstring), or else one of its own. liblz4 reads and writes
    # nothing outside the two regions it is given, so a damaged block can only
    # overwrite its own unread bytes and decode to wrong ones, which the
    # checks after it refuse.
    n = len(pieces) - pieces.count
    _lz4_check_claim(decoded_size, n)
    in_place = n < decoded_size and tuple(map(int, lz4_version().split(".")[:2])) >= (1, 9)
    out = _new_bytearray(None, decoded_size + (decoded_size >> 8) + 32 if in_place else n)
    start = len(out) - n
    if pieces.fill(memoryview(out)[start:]) < n:
        raise CorruptStream("lz4: stream ends inside its block")
    if not in_place:
        return lz4_decompress_block(out, decoded_size)
    with _Pinned(out) as (dst, _):
        got = _lz4.LZ4_decompress_safe(dst + start, dst, n, decoded_size)
    if got != decoded_size:
        raise CorruptStream(f"lz4: block decoded to {got} bytes, expected {decoded_size}")
    del out[decoded_size:]
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
