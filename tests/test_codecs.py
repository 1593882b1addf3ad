import ctypes
import io
import lzma
import os
import random
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybc import _native
from hybc.codecs import (
    PIECEWISE,
    CodecId,
    codec_params,
    compress_one,
    decompress_one,
    library_versions,
    stream_bound,
)
from hybc.corpus import SizeClass, generate_synthetic
from hybc.errors import CodecFailure, CorruptStream
from hybc.pipeline import PipelineSpec, compress_pipeline, decompress_pipeline

ALL_CODECS = list(CodecId)

# 1024 three-byte characters
REPETITIVE = ("अ" * 1024).encode("utf-8")


def _zstd_frame_without_content_size(data: bytes) -> bytes:
    """A valid zstd frame whose header omits the decoded size, as streaming
    encoders write it; hybc's own encoder always records the size."""
    lib = ctypes.CDLL(_native._zstd._name)
    lib.ZSTD_createCCtx.restype = ctypes.c_void_p
    lib.ZSTD_CCtx_setParameter.argtypes = [ctypes.c_void_p, ctypes.c_int, ctypes.c_int]
    lib.ZSTD_compress2.restype = ctypes.c_size_t
    lib.ZSTD_compress2.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_char_p, ctypes.c_size_t,
    ]
    lib.ZSTD_freeCCtx.argtypes = [ctypes.c_void_p]
    cctx = lib.ZSTD_createCCtx()
    try:
        assert lib.ZSTD_CCtx_setParameter(cctx, 200, 0) == 0  # ZSTD_c_contentSizeFlag
        dst = ctypes.create_string_buffer(len(data) + 64)
        n = lib.ZSTD_compress2(cctx, dst, len(dst), data, len(data))
        assert n < len(dst)  # not an error code
        return dst.raw[:n]
    finally:
        lib.ZSTD_freeCCtx(cctx)


def _zstd_declared_window(frame: bytes) -> int:
    """The window a zstd frame's header declares, as ZSTD_getFrameHeader
    reads it."""

    class FrameHeader(ctypes.Structure):
        _fields_ = [("frameContentSize", ctypes.c_ulonglong), ("windowSize", ctypes.c_ulonglong)] + [
            (name, ctypes.c_uint) for name in ("blockSizeMax", "frameType", "headerSize", "dictID",
                                               "checksumFlag", "_reserved1", "_reserved2")
        ]

    lib = ctypes.CDLL(_native._zstd._name)
    lib.ZSTD_getFrameHeader.restype = ctypes.c_size_t
    lib.ZSTD_getFrameHeader.argtypes = [ctypes.POINTER(FrameHeader), ctypes.c_char_p, ctypes.c_size_t]
    header = FrameHeader()
    assert lib.ZSTD_getFrameHeader(ctypes.byref(header), frame, len(frame)) == 0
    return header.windowSize


def _pieces(text: bytes, cut: int, length: int | None = None) -> _native.Pieces:
    """text as Pieces of at most cut bytes each, claiming length bytes (by
    default the text's)."""
    source = io.BytesIO(text)
    file = SimpleNamespace(readinto=lambda buffer: source.readinto(memoryview(buffer)[:cut]))
    return _native.Pieces(len(text) if length is None else length, file)


def _zstd_frame_declaring(size: int) -> bytes:
    """hybc's frame of a short text with its declared size rewritten."""
    frame = compress_one(CodecId.ZSTD, b"small payload")
    assert frame[4] == 0x20  # single segment, 1-byte content size field
    return frame[:4] + bytes([0xE0]) + struct.pack("<Q", size) + frame[6:]


def test_exactly_five_codecs():
    assert len(ALL_CODECS) == 5
    assert {c.value for c in ALL_CODECS} == {1, 2, 3, 4, 5}
    assert [c.canonical_name for c in ALL_CODECS] == [
        "LZMA", "Zstd", "Brotli", "Bzip2", "LZ4HC",
    ]


@pytest.mark.parametrize("value", [0, 6, 7, 255, -1])
def test_invalid_codec_values_rejected(value):
    with pytest.raises(ValueError):
        CodecId(value)


def test_fixed_parameter_table():
    assert codec_params(CodecId.LZMA).level == 6
    assert codec_params(CodecId.ZSTD).level == 6
    assert codec_params(CodecId.BROTLI).level == 6
    assert codec_params(CodecId.BROTLI).window_log == 22
    assert codec_params(CodecId.BZIP2).block_size_kb == 900
    assert codec_params(CodecId.LZ4HC).level == 6


def test_codec_params_pure():
    for codec in ALL_CODECS:
        assert codec_params(codec) == codec_params(codec)
        assert codec_params(codec) is codec_params(codec)


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_empty_round_trip(codec):
    stream = compress_one(codec, b"")
    assert stream != b""
    assert decompress_one(codec, stream) == b""


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_repetitive_text_shrinks(codec):
    # observed stream sizes on the pinned library versions: lzma 92,
    # bzip2 47, zstd 20, brotli 23, lz4hc 32
    assert len(REPETITIVE) == 3072
    stream = compress_one(codec, REPETITIVE)
    assert len(stream) < len(REPETITIVE)
    assert decompress_one(codec, stream) == REPETITIVE


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_random_buffer_round_trip(codec, random_64k):
    stream = compress_one(codec, random_64k)
    restored = decompress_one(codec, stream)
    assert isinstance(restored, bytearray)  # every codec decodes into one bytearray
    assert restored == random_64k


@pytest.mark.parametrize("codec", [CodecId.ZSTD, CodecId.BROTLI, CodecId.LZ4HC,
                                   CodecId.LZMA, CodecId.BZIP2])
def test_encoder_holds_no_heap_scratch(codec, large_text):
    # the compress-bound scratch is an anonymous mapping, so the heap holds
    # only the stream copied out of it; a heap scratch of the bound would
    # alone exceed the limit. liblzma and libbz2 allocate their own state on
    # the traced heap (about 93 MiB and 7 MiB at these presets), whatever
    # the text's length, so that state, the peak for an empty text, is not
    # counted
    def traced_peak(text):
        tracemalloc.start()
        try:
            compress_one(codec, text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak = traced_peak(large_text) - traced_peak(b"")
    limit = stream_bound(codec, len(large_text)) // 2
    assert peak < limit, f"peak {peak} B, limit {limit} B"


@pytest.mark.parametrize("codec,n,bound", [
    # past LZ4_MAX_INPUT_SIZE no block exists: only the 8-byte length prefix
    (CodecId.LZ4HC, 2**40 + 5, 8),
    # too large for a zstd frame; the library returns an error code
    (CodecId.ZSTD, 2**64 - 1, 0),
    # the bound overflows size_t
    (CodecId.BROTLI, 2**64 - 1, 0),
])
def test_stream_bound_of_impossible_length(codec, n, bound):
    assert stream_bound(codec, n) == bound


@pytest.mark.parametrize("codec,stream", [
    *[pytest.param(c, bytes(range(16)), id=str(int(c))) for c in ALL_CODECS],
    # a zstd stream must declare its decoded size, and no more than 32,768x
    # its length, or it is rejected before anything is allocated
    pytest.param(CodecId.ZSTD, _zstd_frame_without_content_size(REPETITIVE),
                 id="zstd-no-content-size"),
    pytest.param(CodecId.ZSTD, _zstd_frame_declaring(1 << 62), id="zstd-declares-2^62"),
])
def test_garbage_input_rejected(codec, stream):
    with pytest.raises(CorruptStream):
        decompress_one(codec, stream)


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_empty_stream_rejected(codec):
    with pytest.raises(CorruptStream):
        decompress_one(codec, b"")


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_deterministic_within_process(codec, tiny_text):
    assert compress_one(codec, tiny_text) == compress_one(codec, tiny_text)


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_no_state_leak_between_calls(codec, tiny_text, random_64k):
    alone = compress_one(codec, tiny_text)
    compress_one(codec, random_64k)
    assert compress_one(codec, tiny_text) == alone


@pytest.mark.parametrize("codec,trailer", [
    *[pytest.param(c, b"\x00\x01\x02\x03", id=str(int(c))) for c in ALL_CODECS],
    # a second frame, even one decoding to nothing, is trailing bytes too
    pytest.param(CodecId.ZSTD, compress_one(CodecId.ZSTD, b""), id="zstd-two-frames"),
])
def test_trailing_bytes_rejected(codec, trailer, tiny_text):
    stream = compress_one(codec, tiny_text)
    with pytest.raises(CorruptStream):
        decompress_one(codec, stream + trailer)


@settings(max_examples=40, deadline=None)
@given(codec=st.sampled_from(ALL_CODECS), data=st.binary(max_size=2048))
def test_round_trip_property(codec, data):
    assert decompress_one(codec, compress_one(codec, data)) == data


def test_lz4_implausible_length_prefix_rejected():
    # corrupting the size prefix must fail fast, never allocate terabytes
    stream = compress_one(CodecId.LZ4HC, b"small payload")
    bogus = struct.pack("<Q", 1 << 60) + stream[8:]
    with pytest.raises(CorruptStream):
        decompress_one(CodecId.LZ4HC, bogus)


def test_lz4_wrong_declared_length_rejected():
    # a block that writes fewer bytes than its prefix declares must not return
    # the unwritten tail of the output buffer, nor send any of it
    stream = compress_one(CodecId.LZ4HC, b"x" * 500)
    (declared,) = struct.unpack_from("<Q", stream)
    assert declared == 500
    off_by_one = struct.pack("<Q", 501) + stream[8:]
    with pytest.raises(CorruptStream):
        decompress_one(CodecId.LZ4HC, off_by_one)
    sent = []
    with pytest.raises(CorruptStream):
        decompress_one(CodecId.LZ4HC, off_by_one, sink=sent.append)
    assert sent == []


def test_zstd_short_decode_rejected(monkeypatch):
    # a frame that writes fewer bytes than it declares must not return the
    # unwritten tail of the output buffer, nor count it as sent
    frame = compress_one(CodecId.ZSTD, b"x" * 500)

    def short(dctx, output, source):
        output._obj.pos = output._obj.size - 1  # one byte short, frame ended
        return 0

    monkeypatch.setattr(_native._zstd, "ZSTD_decompressStream", short)
    with pytest.raises(CorruptStream, match="decoded to 499 bytes, declared 500"):
        decompress_one(CodecId.ZSTD, frame)
    with pytest.raises(CorruptStream, match="decoded to 499 bytes, declared 500"):
        decompress_one(CodecId.ZSTD, frame, sink=lambda chunk: None)


def test_in_memory_zstd_decode_is_single_pass(monkeypatch, small_corpus):
    # into memory the output has room for the whole declared size, so libzstd
    # decodes the multi-block frame in one call; to a sink, the 128 KiB
    # output takes one call or more per block
    text = (small_corpus * 25)[: 3 << 20]
    frame = compress_one(CodecId.ZSTD, text)
    calls = []
    decode = _native._zstd.ZSTD_decompressStream

    def counting(*args):
        calls.append(1)
        return decode(*args)

    monkeypatch.setattr(_native._zstd, "ZSTD_decompressStream", counting)
    assert decompress_one(CodecId.ZSTD, frame) == text
    assert len(calls) == 1
    calls.clear()
    chunks = []
    assert decompress_one(CodecId.ZSTD, frame, sink=lambda chunk: chunks.append(bytes(chunk))) == len(text)
    assert b"".join(chunks) == text
    assert len(calls) >= -(-len(text) // (128 << 10))


def test_streamed_zstd_holds_a_frame_to_its_declared_size(small_corpus):
    # a 3 MiB frame (window 2 MiB, so not single-segment) whose header says
    # 2.5 MiB: libzstd checks the size only at the last block, so the decoder
    # stops the output at the declared size before it reaches the sink; a
    # header saying 3.5 MiB fails at that last block
    frame = compress_one(CodecId.ZSTD, (small_corpus * 25)[: 3 << 20])
    assert frame[4] == 0x80  # 4-byte content size after the window byte

    def declaring(size: int) -> bytes:
        return frame[:6] + struct.pack("<I", size) + frame[10:]

    sent = []
    with pytest.raises(CorruptStream, match=f"past its declared {5 << 19} bytes"):
        decompress_one(CodecId.ZSTD, declaring(5 << 19), sink=lambda chunk: sent.append(len(chunk)))
    assert sum(sent) <= 5 << 19
    with pytest.raises(CorruptStream, match="^zstd: Data corruption detected$"):
        decompress_one(CodecId.ZSTD, declaring(7 << 19), sink=lambda chunk: None)
    for size in (5 << 19, 7 << 19):
        with pytest.raises(CorruptStream):
            decompress_one(CodecId.ZSTD, declaring(size))


def test_streamed_zstd_decoder_allocation_failure(monkeypatch):
    frame = compress_one(CodecId.ZSTD, b"data")
    monkeypatch.setattr(_native._zstd, "ZSTD_createDCtx", lambda: None)
    with pytest.raises(CodecFailure, match="^zstd: cannot allocate decoder$"):
        decompress_one(CodecId.ZSTD, frame, sink=lambda chunk: None)


@pytest.mark.parametrize("cut", [4093, 1 << 16, 100_003])
@pytest.mark.parametrize("codec", sorted(PIECEWISE))
def test_piecewise_stream_does_not_depend_on_the_cut(codec, cut, small_corpus):
    # 3 x 64 KiB, so the last piece is a whole one for one cut, short for two
    text = small_corpus[: 3 << 16]
    assert compress_one(codec, _pieces(text, cut)) == compress_one(codec, text)


def test_brotli_text_ending_on_a_metablock_does_not_depend_on_the_cut(large_text):
    # Brotli ends a metablock at each 8 MiB of input, so a text of 8 MiB gets
    # other bytes unless its last piece goes in with the finish operation
    assert len(large_text) == 8 << 20
    assert compress_one(CodecId.BROTLI, _pieces(large_text, _native.SINK_CHUNK)) == (
        compress_one(CodecId.BROTLI, large_text))


@pytest.mark.parametrize("text", ["tiny_text", "random_64k"])
def test_native_encoders_write_compress_ones_streams(text, request):
    # the encoders perfbench times on their own give the streams of the
    # codecs' presets, an LZ4HC block the stream without its length prefix
    text = request.getfixturevalue(text)
    zstd, brotli, lz4 = (codec_params(c) for c in (CodecId.ZSTD, CodecId.BROTLI, CodecId.LZ4HC))
    cut = _native.SINK_CHUNK
    for data in (text, _pieces(text, cut)):
        assert bytes(_native.zstd_compress(data, zstd.level)) == compress_one(CodecId.ZSTD, text)
    for data in (text, _pieces(text, cut)):
        assert bytes(_native.brotli_compress(data, brotli.level, brotli.window_log)) == (
            compress_one(CodecId.BROTLI, text))
    stream = compress_one(CodecId.LZ4HC, text)
    assert bytes(_native.lz4hc_compress_block(text, lz4.level)) == stream[8:]
    prefix = struct.pack("<Q", len(text))
    assert bytes(_native.lz4hc_compress_block(text, lz4.level, prefix)) == stream


@pytest.mark.parametrize("cut", [1, 4095, _native.SINK_CHUNK - 1, _native.SINK_CHUNK, None])
def test_pieces_count_exactly_what_they_hand_out(cut, small_corpus):
    # the header records Pieces' count and CRC-32, so whether an encoder
    # reads them with readinto or by iterating, both cover every byte handed
    # out and no other; the text passes one SINK_CHUNK, but is short where it
    # is read a byte at a time
    text = small_corpus[: 10_000 if cut == 1 else _native.SINK_CHUNK + 4097]
    cut = cut or len(text)
    pieces = _pieces(text, cut)
    buffer = bytearray(_native.SINK_CHUNK)
    read = b"".join(bytes(buffer[:got]) for got in iter(lambda: pieces.readinto(buffer), 0))
    iterated = _pieces(text, cut)
    assert b"".join(iterated) == read == text
    for drained in (pieces, iterated):
        assert (drained.count, drained.crc) == (len(text), zlib.crc32(text))
    # a file shorter than the length given up front counts what was read
    short = _pieces(text[:1000], cut, length=len(text))
    assert b"".join(short) == text[:1000]
    assert (len(short), short.count, short.crc) == (len(text), 1000, zlib.crc32(text[:1000]))


@pytest.mark.parametrize("codec, message", [
    (CodecId.ZSTD, r"^zstd compress: text is not the 10 bytes pledged$"),
    (CodecId.BROTLI, r"^brotli compress: stream longer than its bound$"),
    (CodecId.LZMA, r"^LZMA encoder failed: data out of range$"),
    (CodecId.BZIP2, r"^Bzip2 encoder failed: data out of range$"),
])
def test_piecewise_stream_past_its_mapping_raises(codec, message, random_64k):
    # pieces longer than their declared length, as from a file that grew
    # while it was read, cannot write past the mapping sized by that length
    with pytest.raises(CodecFailure, match=message):
        compress_one(codec, _pieces(random_64k, 40_000, length=10))


@pytest.mark.parametrize("seed", [1, 42, 7])
@pytest.mark.parametrize("size_class", list(SizeClass))
def test_zstd_frame_does_not_depend_on_the_cut_or_the_source(size_class, seed, tmp_path):
    # one stable-input ZSTD_compressStream2 loop gives ZSTD_compress's frame
    # of the whole text, whether the text is in memory, cut into pieces or
    # read from a file
    text = generate_synthetic(size_class, seed)
    frame = compress_one(CodecId.ZSTD, text)
    for cut in (4095, _native.SINK_CHUNK, 1 << 20, len(text)):
        assert compress_one(CodecId.ZSTD, _pieces(text, cut)) == frame, cut
    path = tmp_path / "text"
    path.write_bytes(text)
    spec = PipelineSpec(CodecId.ZSTD)
    with open(path, "rb") as file:
        assert compress_pipeline(spec, file) == compress_pipeline(spec, text)


@pytest.mark.parametrize("length", [0, 1, 4095, _native.SINK_CHUNK, _native.SINK_CHUNK + 1,
                                    2 * _native.SINK_CHUNK])
def test_zstd_frame_of_short_pieces(length, small_corpus):
    # a text ending on a whole 128 KiB block ends the frame with that block,
    # as ZSTD_compress writes it, not with an empty one after it
    text = (small_corpus * 2)[:length]
    assert len(text) == length
    frame = compress_one(CodecId.ZSTD, text)
    for cut in (1, 4095, _native.SINK_CHUNK, max(length, 1)):
        assert compress_one(CodecId.ZSTD, _pieces(text, cut)) == frame, cut


@pytest.mark.parametrize("period", [(2 << 20) - 4096, (2 << 20) - 1, 2 << 20, (2 << 20) + 1])
def test_zstd_pieces_keep_the_window_in_reach(period):
    # a random burst recurs once a period, in zeros, so the frame is short
    # only where the burst's last copy is within the 2 MiB window; a page
    # released while still in reach would read as zeros and give another frame
    burst = random.Random(5).randbytes(256 << 10)
    text = (burst + bytes(period - len(burst))) * 4
    assert _native._zstd_window(codec_params(CodecId.ZSTD).level, len(text)) == 2 << 20
    frame = compress_one(CodecId.ZSTD, text)
    assert (len(frame) < 2 * len(burst)) == (period <= 2 << 20)
    for cut in (4095, _native.SINK_CHUNK, 1 << 20):
        assert compress_one(CodecId.ZSTD, _pieces(text, cut)) == frame, cut


def test_zstd_release_window_covers_the_declared_window():
    # the encoder releases the text's pages behind the window libzstd's
    # parameters give for the text's length, which must reach at least as far
    # back as the window the frame declares for it
    level = codec_params(CodecId.ZSTD).level
    lengths = {0, 1, 255, 256, 257} | {(1 << k) + d for k in range(10, 25) for d in (-1, 0, 1)}
    for n in sorted(lengths):
        frame = compress_one(CodecId.ZSTD, bytes(n))
        assert _native._zstd_window(level, n) >= _zstd_declared_window(frame), n


def test_unmappable_stream_bound_raises_codec_failure(monkeypatch):
    # a bound no mapping can take (0 where no frame of that length exists)
    monkeypatch.setattr(_native, "zstd_bound", lambda n: 0)
    with pytest.raises(CodecFailure, match=r"^cannot map 0 bytes for a stream: "):
        compress_one(CodecId.ZSTD, b"data")


def test_stdlib_encoder_fault_becomes_codec_failure(monkeypatch):
    class Failing:
        def __init__(self, *args, **kwargs):
            pass

        def compress(self, data):
            raise lzma.LZMAError("out of memory")

    monkeypatch.setattr(lzma, "LZMACompressor", Failing)
    with pytest.raises(CodecFailure, match="LZMA encoder failed: out of memory") as caught:
        compress_one(CodecId.LZMA, b"data")
    assert isinstance(caught.value.__cause__, lzma.LZMAError)


def test_native_codec_failure_passes_through_unwrapped(monkeypatch):
    failure = CodecFailure("ZSTD_compress: Allocation error : not enough memory")

    def fail(*args):
        raise failure

    monkeypatch.setattr(_native, "zstd_compress", fail)
    with pytest.raises(CodecFailure) as caught:
        compress_one(CodecId.ZSTD, b"data")
    assert caught.value is failure


# (size_t)-ZSTD_error_memory_allocation and (size_t)-ZSTD_error_parameter_unsupported:
# error codes, as ZSTD_isError sees them
_ZSTD_ALLOCATION_ERROR = 2**64 - 64
_ZSTD_UNSUPPORTED_PARAMETER = 2**64 - 40


@pytest.mark.parametrize("codec, decode, target, name, fake, message", [
    pytest.param(CodecId.ZSTD, False, _native._zstd, "ZSTD_compressStream2",
                 lambda *args: _ZSTD_ALLOCATION_ERROR,
                 r"^zstd compress: Allocation error", id="zstd-compress-error"),
    pytest.param(CodecId.ZSTD, False, _native._zstd, "ZSTD_createCCtx",
                 lambda: None,
                 r"^zstd: cannot allocate encoder$", id="zstd-encoder-null"),
    pytest.param(CodecId.ZSTD, False, _native._zstd, "ZSTD_CCtx_setParameter",
                 lambda *args: _ZSTD_UNSUPPORTED_PARAMETER,
                 r"^zstd compress: Unsupported parameter \(ZSTD_CCtx_setParameter\)$",
                 id="zstd-set-parameter-error"),
    pytest.param(CodecId.BROTLI, False, _native._brenc, "BrotliEncoderCompressStream",
                 lambda *args: 0,
                 r"^brotli compress: encoder reported failure$", id="brotli-compress-failure"),
    pytest.param(CodecId.BROTLI, False, _native._brenc, "BrotliEncoderCreateInstance",
                 lambda *args: None,
                 r"^brotli: cannot allocate encoder$", id="brotli-encoder-null"),
    pytest.param(CodecId.BROTLI, True, _native._brdec, "BrotliDecoderCreateInstance",
                 lambda *args: None,
                 r"^brotli: cannot allocate decoder$", id="brotli-decoder-null"),
    pytest.param(CodecId.LZ4HC, False, _native, "lz4_bound",
                 lambda n: 0,
                 r"^lz4: input exceeds the single-block limit$", id="lz4-bound-zero"),
    pytest.param(CodecId.LZ4HC, False, _native._lz4, "LZ4_compress_HC",
                 lambda *args: 0,
                 r"^lz4: LZ4_compress_HC returned 0$", id="lz4-compress-zero"),
])
def test_native_library_failure_names_the_library(monkeypatch, codec, decode, target, name,
                                                  fake, message):
    # a failure the library reports reaches the caller as the CodecFailure
    # that names it, not wrapped in the generic "<codec> encoder failed"
    stream = compress_one(codec, b"data")
    monkeypatch.setattr(target, name, fake)
    with pytest.raises(CodecFailure, match=message) as caught:
        decompress_one(codec, stream) if decode else compress_one(codec, b"data")
    assert caught.value.__cause__ is None


def test_load_takes_the_first_soname_that_loads():
    assert _native._load("libzstd.so.999", "libzstd.so.1").ZSTD_versionNumber() > 0
    # the message names every soname tried, then the first one's error
    with pytest.raises(CodecFailure, match=r"libhybc_missing\.so\.1 or libhybc_missing\.so: "
                                           r".*libhybc_missing\.so\.1"):
        _native._load("libhybc_missing.so.1", "libhybc_missing.so")


_WITHOUT_LIBRARY = """
import ctypes, sys
refused = sys.argv[1]

class Refuse(ctypes.CDLL):
    def __init__(self, name, *args, **kwargs):
        if name and refused in name:
            raise OSError(f"{name}: refused")
        super().__init__(name, *args, **kwargs)

ctypes.CDLL = Refuse
before = set(sys.modules)
try:
    import hybc
except Exception as exc:
    print(type(exc).__name__, exc)
added = set(sys.modules) - before
print("searched:", *sorted(added & {"subprocess", "ctypes.util"}))
"""


@pytest.mark.parametrize("library", ["zstd", "brotlienc", "brotlidec", "lz4"])
def test_missing_library_fails_import_with_codec_failure(library):
    """Where none of a required library's sonames loads, import hybc raises
    CodecFailure naming them, without running a library search."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_LIBRARY, library],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    failure, searched = proc.stdout.splitlines()
    first = f"lib{library}.so.1"
    assert failure.startswith(f"CodecFailure cannot load shared library {first} or ")
    assert failure.endswith(f": {first}: refused")
    assert searched == "searched:"


def test_library_versions_reported():
    versions = library_versions()
    assert set(versions) == {"lzma", "zstd", "brotli", "bzip2", "lz4", "crc32"}
    assert all(versions.values())
    assert versions["crc32"] in ("libdeflate", f"zlib {zlib.ZLIB_RUNTIME_VERSION}")


# 65,537 bytes: an odd length, long enough for libdeflate's folding loop
_ODD = random.Random(5).randbytes(65_537)


@pytest.mark.parametrize("data", [
    pytest.param(b"", id="empty"),
    pytest.param(b"\xa5", id="one-byte"),
    pytest.param(_ODD, id="odd-length"),
    pytest.param(memoryview(_ODD)[1:], id="unaligned-memoryview"),
    pytest.param(bytearray(_ODD), id="bytearray"),
])
def test_crc32_equals_zlib(data):
    assert _native.crc32(data) == zlib.crc32(data)


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=4096), cuts=st.lists(st.integers(0, 4096), max_size=8))
@pytest.mark.parametrize("crc32", [
    pytest.param(_native.crc32, id="native"),  # libdeflate's, where it loads
    pytest.param(zlib.crc32, id="zlib"),
])
def test_crc32_continues_a_running_value(crc32, data, cuts):
    # repeated cuts and cuts at either end give empty chunks
    bounds = sorted(min(cut, len(data)) for cut in cuts)
    value = 0
    for start, end in zip([0, *bounds], [*bounds, len(data)]):
        value = crc32(memoryview(data)[start:end], value)
    assert value == zlib.crc32(data)


def test_crc32_equals_zlib_on_large_tier():
    large = generate_synthetic(SizeClass.LARGE, 42)
    assert _native.crc32(large) == zlib.crc32(large)


_WITHOUT_LIBDEFLATE = """
import ctypes, sys, zlib

class RefuseDeflate(ctypes.CDLL):
    def __init__(self, name, *args, **kwargs):
        if name and "deflate" in name:
            raise OSError(f"{name}: refused")
        super().__init__(name, *args, **kwargs)

ctypes.CDLL = RefuseDeflate
before = set(sys.modules)
import hybc
from hybc import CodecId, IntegrityMismatch, PipelineSpec, _native
from hybc import compress_pipeline, decompress_pipeline, library_versions
assert "subprocess" not in set(sys.modules) - before
assert _native.crc32 is zlib.crc32
assert _native.crc32_version().startswith("zlib ")
assert library_versions()["crc32"] == "zlib " + zlib.ZLIB_RUNTIME_VERSION
from hybc.corpus import SizeClass, generate_synthetic
small = generate_synthetic(SizeClass.SMALL, 42)
packed = compress_pipeline(PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC), small)
assert decompress_pipeline(packed) == small
print(packed.hex())
text = "अक्षर text ".encode() * 300
container = bytearray(compress_pipeline(PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC), text))
assert decompress_pipeline(container) == text
container[16] ^= 0x01  # the first byte of the header's CRC-32
try:
    decompress_pipeline(container)
except IntegrityMismatch:
    print("rejected")
"""


def test_crc32_falls_back_to_zlib_without_libdeflate(small_corpus):
    """Where no libdeflate soname loads, hybc imports without a library
    search, takes zlib's CRC-32, writes the same Small container as this
    build, and still round-trips and rejects a container whose CRC-32 does
    not match."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_LIBDEFLATE],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    packed, verdict = proc.stdout.split()
    assert bytes.fromhex(packed) == compress_pipeline(
        PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC), small_corpus)
    assert verdict == "rejected"


def test_brotli_output_regrows_up_to_cap(monkeypatch):
    # 4 MiB of zeros compress to a few bytes, far past the sixteen-fold start
    # buffer, so the decoder asks for more room until the output fits; one
    # byte less room than the output needs is refused
    data = bytes(4 << 20)
    stream = compress_one(CodecId.BROTLI, data)
    results = []
    decode = _native._brdec.BrotliDecoderDecompressStream

    def recording(*args):
        results.append(decode(*args))
        return results[-1]

    monkeypatch.setattr(_native._brdec, "BrotliDecoderDecompressStream", recording)
    assert decompress_one(CodecId.BROTLI, stream, len(data)) == data
    assert _native._BROTLI_RESULT_NEEDS_MORE_OUTPUT in results
    assert results[-1] == _native._BROTLI_RESULT_SUCCESS
    with pytest.raises(CorruptStream, match="more than the"):
        decompress_one(CodecId.BROTLI, stream, len(data) - 1)


def test_brotli_regrown_output_holds_only_decoded_bytes():
    # a 256-byte cycle compresses far past the sixteen-fold start buffer, so
    # the output is resized (without zero-filling) several times; every byte
    # returned must be one the decoder wrote
    data = bytes(range(256)) * (16 << 10)
    stream = compress_one(CodecId.BROTLI, data)
    assert 16 * len(stream) + 1024 < len(data) // 4
    assert decompress_one(CodecId.BROTLI, stream, len(data)) == data


def test_lz4hc_then_brotli_round_trip_on_large_tier():
    # Brotli as the second stage barely expands the LZ4HC stream, so its start
    # buffer is sized at the cap, far beyond the bytes it decodes
    large = generate_synthetic(SizeClass.LARGE, 1)
    spec = PipelineSpec(CodecId.LZ4HC, CodecId.BROTLI)
    assert decompress_pipeline(compress_pipeline(spec, large)) == large
