import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybc.codecs import (
    CodecId,
    codec_params,
    compress_one,
    decompress_one,
    library_versions,
)
from hybc.errors import CorruptStream

ALL_CODECS = list(CodecId)

# 1024 three-byte characters
REPETITIVE = ("अ" * 1024).encode("utf-8")


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
    assert decompress_one(codec, stream) == random_64k


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_garbage_input_rejected(codec):
    with pytest.raises(CorruptStream):
        decompress_one(codec, bytes(range(16)))


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


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_trailing_bytes_rejected(codec, tiny_text):
    stream = compress_one(codec, tiny_text)
    with pytest.raises(CorruptStream):
        decompress_one(codec, stream + b"\x00\x01\x02\x03")


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
    stream = compress_one(CodecId.LZ4HC, b"x" * 500)
    (declared,) = struct.unpack_from("<Q", stream)
    assert declared == 500
    off_by_one = struct.pack("<Q", 501) + stream[8:]
    with pytest.raises(CorruptStream):
        decompress_one(CodecId.LZ4HC, off_by_one)


def test_library_versions_reported():
    versions = library_versions()
    assert set(versions) == {"lzma", "zstd", "brotli", "bzip2", "lz4"}
    assert all(versions.values())
