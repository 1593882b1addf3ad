import io
import os
import random
import struct
import subprocess
import sys
import tracemalloc
import weakref
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybc import _native
from hybc.codecs import CodecId, codec_params, compress_one, library_versions, stream_bound
from hybc.errors import (
    BadMagic,
    CodecFailure,
    CorruptStream,
    HybcError,
    IntegrityMismatch,
    InvalidCodecByte,
    TruncatedContainer,
    UnsupportedVersion,
)
from hybc.pipeline import (
    HEADER_LEN,
    MAGIC,
    ContainerHeader,
    PipelineSpec,
    compress_pipeline,
    decompress_pipeline,
    enumerate_pipelines,
    parse_header,
    pipeline_from_name,
    serialize_header,
)


def test_enumeration_counts():
    pipes = enumerate_pipelines()
    assert len(pipes) == 25
    assert sum(p.is_hybrid for p in pipes) == 20
    assert len({p.display_name for p in pipes}) == 25


def test_enumeration_order_deterministic():
    pipes = enumerate_pipelines()
    assert pipes == enumerate_pipelines()
    singles = pipes[:5]
    assert [p.first for p in singles] == list(CodecId)
    assert all(not p.is_hybrid for p in singles)
    pairs = [(p.first.value, p.second.value) for p in pipes[5:]]
    assert pairs == sorted(pairs)
    assert pipes[5].display_name == "LZMA + Zstd"


def test_no_self_pairs():
    assert all(p.second != p.first for p in enumerate_pipelines() if p.is_hybrid)


def test_self_pair_rejected():
    with pytest.raises(ValueError):
        PipelineSpec(CodecId.ZSTD, CodecId.ZSTD)


def test_display_names():
    assert PipelineSpec(CodecId.ZSTD).display_name == "Zstd"
    assert PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC).display_name == "Zstd + LZ4HC"
    assert PipelineSpec(CodecId.BZIP2, CodecId.BROTLI).display_name == "Bzip2 + Brotli"


_ZSTD_LZ4HC = PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC)


@pytest.mark.parametrize(
    "actual, expected",
    [
        pytest.param(PipelineSpec(2, 5), _ZSTD_LZ4HC, id="int-codes-equal-members"),
        pytest.param(hash(PipelineSpec(2, 5)), hash(_ZSTD_LZ4HC), id="int-codes-hash-alike"),
        # A frozen dataclass hashes the tuple of its fields; set and dict order
        # (and with them the golden report digests) rest on that value.
        pytest.param(hash(_ZSTD_LZ4HC), hash((CodecId.ZSTD, CodecId.LZ4HC)), id="field-tuple-hash"),
        pytest.param(
            (type(PipelineSpec(2, 5).first), type(PipelineSpec(2, 5).second)), (CodecId, CodecId),
            id="fields-are-codec-ids",
        ),
        pytest.param(
            repr(PipelineSpec(2, 5)),
            "PipelineSpec(first=<CodecId.ZSTD: 2>, second=<CodecId.LZ4HC: 5>)",
            id="spec-repr",
        ),
        pytest.param(
            repr(ContainerHeader(CodecId.ZSTD, None, 10, 7)),
            "ContainerHeader(first_codec=<CodecId.ZSTD: 2>, second_codec=None, original_len=10, "
            "original_crc32=7)",
            id="header-repr",
        ),
        pytest.param(
            repr(codec_params(CodecId.BROTLI)),
            "CodecConfig(level=6, window_log=22, block_size_kb=None)",
            id="brotli-params",
        ),
    ],
)
def test_record_contract(actual, expected):
    assert actual == expected


@pytest.mark.parametrize(
    "record, name",
    [
        (_ZSTD_LZ4HC, "first"),
        (_ZSTD_LZ4HC, "second"),
        (_ZSTD_LZ4HC, "label"),
        (ContainerHeader(CodecId.ZSTD, None, 10, 7), "original_len"),
        (codec_params(CodecId.BROTLI), "level"),
    ],
    ids=["spec-first", "spec-second", "spec-new-name", "header-field", "config-field"],
)
def test_records_are_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, CodecId.LZMA)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("Zstd+LZ4HC", PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC)),
        ("zstd + lz4hc", PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC)),
        ("  BROTLI  ", PipelineSpec(CodecId.BROTLI)),
        ("LZMA+brotli", PipelineSpec(CodecId.LZMA, CodecId.BROTLI)),
        ("bzip2", PipelineSpec(CodecId.BZIP2)),
    ],
)
def test_pipeline_from_name(name, expected):
    assert pipeline_from_name(name) == expected


@pytest.mark.parametrize("bad", ["", "gzip", "zstd+zstd", "a+b+c", "+zstd", "zstd+"])
def test_pipeline_from_name_rejects(bad):
    with pytest.raises(ValueError):
        pipeline_from_name(bad)


# ---------------------------------------------------------------------------
# header

def test_header_is_twenty_bytes():
    h = ContainerHeader(CodecId.BROTLI, CodecId.ZSTD, 1000, 0xDEADBEEF)
    assert len(serialize_header(h)) == HEADER_LEN == 20


def test_header_round_trip_example():
    h = ContainerHeader(CodecId.BROTLI, CodecId.ZSTD, 1000, 12345)
    parsed = parse_header(serialize_header(h))
    assert parsed == h
    assert parsed.first_codec == 3
    assert parsed.second_codec == 2
    assert parsed.original_len == 1000


@settings(max_examples=200, deadline=None)
@given(
    first=st.sampled_from(list(CodecId)),
    second=st.one_of(st.none(), st.sampled_from(list(CodecId))),
    length=st.integers(min_value=0, max_value=2**64 - 1),
    crc=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_header_serialize_parse_inverse(first, second, length, crc):
    if second == first:
        second = None
    h = ContainerHeader(first, second, length, crc)
    assert parse_header(serialize_header(h)) == h


def test_parse_truncated():
    with pytest.raises(TruncatedContainer):
        parse_header(b"HYBC\x01\x02\x00\x00\x00\x00")


def test_parse_bad_magic():
    buf = b"XXXX" + serialize_header(
        ContainerHeader(CodecId.ZSTD, None, 0, 0)
    )[4:]
    with pytest.raises(BadMagic):
        parse_header(buf)


def test_parse_unsupported_version():
    buf = bytearray(serialize_header(ContainerHeader(CodecId.ZSTD, None, 0, 0)))
    buf[4] = 2
    with pytest.raises(UnsupportedVersion):
        parse_header(bytes(buf))


def test_parse_nonzero_reserved_rejected():
    buf = bytearray(serialize_header(ContainerHeader(CodecId.ZSTD, None, 0, 0)))
    buf[7] = 1
    with pytest.raises(UnsupportedVersion):
        parse_header(bytes(buf))


@pytest.mark.parametrize("first,second", [(0, 0), (7, 0), (1, 7), (2, 2), (0, 3)])
def test_parse_invalid_codec_bytes(first, second):
    buf = struct.pack("<4sBBBBQI", MAGIC, 1, first, second, 0, 0, 0)
    with pytest.raises(InvalidCodecByte):
        parse_header(buf)


# ---------------------------------------------------------------------------
# compress / decompress

def test_single_stage_header_contract(tiny_text):
    container = compress_pipeline(PipelineSpec(CodecId.ZSTD), tiny_text)
    h = parse_header(container)
    assert h.first_codec == CodecId.ZSTD
    assert h.second_codec is None
    assert h.original_len == len(tiny_text)
    assert h.original_crc32 == zlib.crc32(tiny_text)


def test_container_is_header_plus_codec_stream(tiny_text):
    container = compress_pipeline(PipelineSpec(CodecId.ZSTD), tiny_text)
    assert container[HEADER_LEN:] == compress_one(CodecId.ZSTD, tiny_text)


@pytest.mark.parametrize("payload", ["words", "repetitive"])
def test_round_trip_all_pipelines(payload, tiny_text):
    data = tiny_text if payload == "words" else ("अ" * 1024).encode("utf-8")
    for spec in enumerate_pipelines():
        container = compress_pipeline(spec, data)
        restored = decompress_pipeline(container)
        assert isinstance(restored, bytearray), spec.display_name
        assert restored == data, spec.display_name


def test_hybrid_round_trip_example(tiny_text):
    spec = PipelineSpec(CodecId.LZMA, CodecId.BROTLI)
    assert decompress_pipeline(compress_pipeline(spec, tiny_text)) == tiny_text


def test_incompressible_input_expands_but_round_trips():
    # the caps decompress_pipeline derives from the header must never reject
    # a container compress_pipeline wrote, even where every stage expands;
    # length 0 matters because an empty buffer has no first byte to address
    for length in (0, 1, 65537, (1 << 20) + 1):
        noise = random.Random(511).randbytes(length)
        for codec in CodecId:
            assert len(compress_one(codec, noise)) <= stream_bound(codec, length), (codec, length)
        for spec in enumerate_pipelines():
            container = compress_pipeline(spec, noise)
            assert len(container) > len(noise)  # expansion is allowed, not an error
            assert decompress_pipeline(container) == noise, (spec.display_name, length)


@pytest.mark.parametrize("name", ["Zstd+LZ4HC", "Brotli+LZ4HC", "LZ4HC"])
def test_compress_holds_the_container_once(name, large_text):
    # every stage writes into an anonymous mapping, an LZ4HC stage its length
    # prefix before its block, and the container is copied out once, as the
    # header joined to the last stream; a hybrid's first stream stays in its
    # mapping
    tracemalloc.start()
    try:
        container = compress_pipeline(pipeline_from_name(name), large_text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decompress_pipeline(container) == large_text
    assert peak < 1.25 * len(container), f"peak {peak} B, container {len(container)} B"


@pytest.mark.parametrize("name", ["Zstd", "LZ4HC"])
def test_compress_lets_a_text_read_whole_go_early(name, tmp_path, large_text):
    # the text read from the file is let go once the first stage has encoded
    # it, so the text and the container are never held together (a Zstd
    # stage reads the file in pieces into a mapping, off the traced heap)
    path = tmp_path / "text"
    path.write_bytes(large_text[: 4 << 20])
    tracemalloc.start()
    try:
        with open(path, "rb") as text:
            container = compress_pipeline(pipeline_from_name(name), text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (4 << 20) + len(container) / 2, f"peak {peak} B, container {len(container)} B"


# Compresses the file at argv[1] with the chain named argv[2] and prints the
# container's length, then how far the peak RSS grew during the call, in KiB;
# it forks at once for the reason _REJECTED_DECODE_PEAK gives.
_COMPRESS_PEAK = """
import os, sys
pid = os.fork()
if pid:
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
import resource
from hybc.pipeline import compress_pipeline, pipeline_from_name
spec = pipeline_from_name(sys.argv[2])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with open(sys.argv[1], "rb") as text:
    container = compress_pipeline(spec, text)
print(len(container))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("name", ["Zstd", "Zstd+LZ4HC"])
def test_zstd_first_compress_holds_a_window_not_the_text(name, tmp_path, large_text):
    # a Zstd first stage reads a regular file in pieces into a mapping whose
    # pages it releases behind its window, so beyond the stream the peak RSS
    # grows by about as much for a 24 MiB text as for a 12 MiB one; reading
    # the text whole would add the 12 MiB between them
    src = str(Path(__file__).resolve().parents[1] / "src")
    beyond_stream = []
    for size in (12 << 20, 24 << 20):
        path = tmp_path / f"text{size}"
        path.write_bytes((large_text * 3)[:size])
        proc = subprocess.run(
            [sys.executable, "-c", _COMPRESS_PEAK, str(path), name],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        length, grown_kib = map(int, proc.stdout.split())
        beyond_stream.append((grown_kib << 10) - length)
    assert beyond_stream[1] - beyond_stream[0] < 2 << 20, f"beyond the stream: {beyond_stream} B"


@pytest.mark.parametrize("drift", [-1000, 1000])
@pytest.mark.parametrize("name", ["Zstd", "Zstd+LZ4HC"])
def test_zstd_first_compress_refuses_a_file_of_another_length(monkeypatch, tmp_path, small_corpus,
                                                              name, drift):
    # a file whose bytes are not the length it had up front, as one that
    # changes while it is read, gets no container whose header could
    # disagree with its stream
    import hybc.pipeline as pipeline_mod

    real = pipeline_mod._bytes_left
    monkeypatch.setattr(pipeline_mod, "_bytes_left", lambda file: real(file) + drift)
    path = tmp_path / "text"
    path.write_bytes(small_corpus)
    message = rf"^zstd compress: text is not the {len(small_corpus) + drift} bytes pledged$"
    with open(path, "rb") as file, pytest.raises(CodecFailure, match=message):
        compress_pipeline(pipeline_from_name(name), file)


@pytest.mark.parametrize("name", ["Brotli", "LZMA", "Bzip2"])
def test_other_piecewise_stages_encode_what_they_read(monkeypatch, tmp_path, small_corpus,
                                                      random_64k, name):
    # Brotli, LZMA and Bzip2 encode the bytes they read and the header counts
    # them, so a length up front that is off by a little gives the same
    # container; a file that grows far past it runs past the mapping that
    # length sized
    import hybc.pipeline as pipeline_mod

    spec = pipeline_from_name(name)
    real = pipeline_mod._bytes_left
    path = tmp_path / "text"
    path.write_bytes(small_corpus)
    for drift in (-1000, 1000):
        monkeypatch.setattr(pipeline_mod, "_bytes_left", lambda file: real(file) + drift)
        with open(path, "rb") as file:
            assert compress_pipeline(spec, file) == compress_pipeline(spec, small_corpus), drift
    path.write_bytes(random_64k)
    monkeypatch.setattr(pipeline_mod, "_bytes_left", lambda file: 10)
    with open(path, "rb") as file, pytest.raises(CodecFailure):
        compress_pipeline(spec, file)


@pytest.fixture
def mappings(monkeypatch):
    """A weak reference to each mapping _native.mapping makes from now on."""
    made, real = [], _native.mapping

    def recording(size):
        out = real(size)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(_native, "mapping", recording)
    return made


def test_compress_maps_once_per_stage_and_keeps_no_mapping(mappings, small_corpus, monkeypatch,
                                                           tmp_path):
    # every encoder maps its own stream through _native.mapping, and a Zstd
    # stage that reads a file in pieces one more for the text; the text's
    # mapping goes once its stage has encoded it, a hybrid's first mapping
    # once the second stage has, before the header is joined to the last
    # stream, and the last once it is joined
    import hybc.pipeline as pipeline_mod

    alive_at_header = []

    def header(fields):
        alive_at_header.append(sum(ref() is not None for ref in mappings))
        return serialize_header(fields)

    monkeypatch.setattr(pipeline_mod, "serialize_header", header)
    text = small_corpus[:20_000]
    path = tmp_path / "text"
    path.write_bytes(text)
    for spec in enumerate_pipelines():
        for from_file in (False, True):
            mappings.clear()
            alive_at_header.clear()
            if from_file:
                with open(path, "rb") as file:
                    container = compress_pipeline(spec, file)
            else:
                container = compress_pipeline(spec, text)
            made = len(spec.codecs) + (from_file and spec.first is CodecId.ZSTD)
            assert len(mappings) == made, (spec.display_name, from_file)
            assert alive_at_header == [1], (spec.display_name, from_file)
            assert [ref() for ref in mappings] == [None] * made, (spec.display_name, from_file)
            assert decompress_pipeline(container) == text


@pytest.mark.parametrize("codec", list(CodecId))
def test_compress_one_maps_once_and_keeps_no_mapping(codec, mappings, tiny_text):
    stream = compress_one(codec, tiny_text)
    assert len(mappings) == 1
    assert mappings[0]() is None
    assert isinstance(stream, bytes)


@pytest.mark.parametrize("name", ["Brotli", "Zstd+LZ4HC"])
def test_compress_reads_a_file_object_without_a_descriptor(name, tiny_text):
    # a file with no descriptor has no length up front, so it is read whole
    spec = pipeline_from_name(name)
    text = io.BytesIO(b"skipped" + tiny_text)
    text.seek(7)
    assert compress_pipeline(spec, text) == compress_pipeline(spec, tiny_text)


def test_decompress_rejects_bad_magic(tiny_text):
    container = compress_pipeline(PipelineSpec(CodecId.ZSTD), tiny_text)
    with pytest.raises(BadMagic):
        decompress_pipeline(b"XXXX" + container[4:])


def test_decompress_detects_wrong_original_len(tiny_text):
    container = bytearray(compress_pipeline(PipelineSpec(CodecId.ZSTD), tiny_text))
    struct.pack_into("<Q", container, 8, len(tiny_text) + 1)
    with pytest.raises((IntegrityMismatch, CorruptStream)):
        decompress_pipeline(bytes(container))


def test_decompress_detects_wrong_crc(tiny_text):
    container = bytearray(compress_pipeline(PipelineSpec(CodecId.ZSTD), tiny_text))
    struct.pack_into("<I", container, 16, zlib.crc32(tiny_text) ^ 0xFFFF)
    with pytest.raises(IntegrityMismatch):
        decompress_pipeline(bytes(container))


@pytest.mark.parametrize(
    "spec",
    [PipelineSpec(c) for c in CodecId] + [PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC)],
    ids=lambda s: s.display_name,
)
def test_payload_corruption_never_silent(spec, tiny_text):
    # a flip can land in bits the stream format ignores (bzip2 has a few),
    # in which case the decode must still return the exact original bytes;
    # returning anything else without an error is the failure mode
    container = compress_pipeline(spec, tiny_text)
    payload_len = len(container) - HEADER_LEN
    step = max(1, payload_len // 64)
    for offset in range(0, payload_len, step):
        damaged = bytearray(container)
        damaged[HEADER_LEN + offset] ^= 0x5A
        try:
            restored = decompress_pipeline(bytes(damaged))
        except (CorruptStream, IntegrityMismatch):
            continue
        assert restored == tiny_text, f"wrong bytes returned (offset {offset})"


# Every single-codec chain plus three hybrids over a short text: Zstd + LZ4HC,
# and two whose outer stage decodes stepwise (LZMA, Bzip2).
_FUZZ_CONTAINERS = [
    compress_pipeline(spec, "अक्षर text ".encode() * 30)
    for spec in [PipelineSpec(c) for c in CodecId] + [
        PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC),
        PipelineSpec(CodecId.ZSTD, CodecId.LZMA),
        PipelineSpec(CodecId.BROTLI, CodecId.BZIP2),
    ]
]


@st.composite
def _damaged_containers(draw) -> bytes:
    container = draw(st.sampled_from(_FUZZ_CONTAINERS))
    damage = draw(st.sampled_from(["mutate", "truncate", "payload"]))
    if damage == "truncate":
        return container[: draw(st.integers(0, len(container) - 1))]
    if damage == "payload":  # random bytes behind a valid header
        return container[:HEADER_LEN] + draw(st.binary(max_size=512))
    buf = bytearray(container)
    for _ in range(draw(st.integers(1, 4))):
        buf[draw(st.integers(0, len(buf) - 1))] = draw(st.integers(0, 255))
    return bytes(buf)


@settings(max_examples=1000, deadline=None)
@given(blob=_damaged_containers())
def test_damaged_container_raises_only_hybc_errors(blob):
    # whatever the bytes, decoding either succeeds or fails with HybcError;
    # any other exception escaping (MemoryError, ValueError, ...) is a bug
    try:
        decompress_pipeline(blob)
    except HybcError:
        pass


@settings(max_examples=300, deadline=None)
@given(blob=_damaged_containers())
def test_damaged_container_streamed_raises_only_hybc_errors(blob):
    # the same damage met with a sink: only HybcError escapes, the sink never
    # receives more than the header records, and a decode that succeeds sends
    # what the in-memory decode returns
    chunks, sink = _collecting_sink()
    try:
        sent = decompress_pipeline(blob, sink)
    except HybcError:
        sent = None
    if chunks:
        assert sum(map(len, chunks)) <= parse_header(blob).original_len
    if sent is not None:
        assert b"".join(chunks) == decompress_pipeline(blob)


_SINGLES = [PipelineSpec(c) for c in CodecId]


def _relabelled(container: bytes, original_len: int, crc: int) -> bytes:
    """container with the header's original length and CRC-32 replaced."""
    buf = bytearray(container)
    struct.pack_into("<QI", buf, 8, original_len, crc)
    return bytes(buf)


def _decode_peak(container: bytes) -> tuple[int, HybcError | None]:
    """tracemalloc peak of decompress_pipeline(container), and its HybcError."""
    tracemalloc.start()
    try:
        decompress_pipeline(container)
        error = None
    except HybcError as exc:
        error = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, error


@pytest.mark.parametrize(
    "spec",
    _SINGLES + [PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC), PipelineSpec(CodecId.LZ4HC, CodecId.BZIP2)],
    ids=lambda s: s.display_name,
)
def test_understated_header_allocates_nothing_big(spec):
    # a header saying 10 bytes in front of a stream of 8 MiB of zeros: every
    # stage is capped by the header, so the decode fails before the output
    # grows; the baseline is a valid 10-byte container of the same chain,
    # whose decode holds the codec's own state (LZMA's 8 MiB dictionary)
    baseline, error = _decode_peak(compress_pipeline(spec, bytes(10)))
    assert error is None
    bomb = _relabelled(compress_pipeline(spec, bytes(8 << 20)), 10, zlib.crc32(bytes(10)))
    peak, error = _decode_peak(bomb)
    assert isinstance(error, HybcError)
    assert peak < baseline + (1 << 20), f"peak {peak} B, baseline {baseline} B"


@pytest.mark.parametrize(
    "spec",
    _SINGLES + [PipelineSpec(CodecId.ZSTD, CodecId.BROTLI), PipelineSpec(CodecId.LZ4HC, CodecId.BROTLI)],
    ids=lambda s: s.display_name,
)
def test_overstated_header_raises_only_hybc_errors(spec):
    # a valid payload behind a header claiming 2^40 bytes: a buffer sized
    # from the header alone would raise MemoryError; sizes must also be
    # bounded by what the stream itself proves
    text = "अक्षर text ".encode() * 30
    valid = compress_pipeline(spec, text)
    baseline, error = _decode_peak(valid)
    assert error is None
    peak, error = _decode_peak(_relabelled(valid, 1 << 40, zlib.crc32(text)))
    assert isinstance(error, HybcError)
    assert peak < baseline + (1 << 20), f"peak {peak} B, baseline {baseline} B"


# Decodes the container at argv[1] in memory and prints the HybcError it
# raises, then how far the peak RSS grew during the decode, in KiB. Linux
# keeps in ru_maxrss the peak of the memory an exec replaced, which for a
# child of the test run is the run's own, so the child forks at once and
# the fork, whose ru_maxrss starts from the child's, does the rest.
_REJECTED_DECODE_PEAK = """
import os, sys
pid = os.fork()
if pid:
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
import resource
from hybc.errors import HybcError
from hybc.pipeline import decompress_pipeline
with open(sys.argv[1], "rb") as f:
    container = f.read()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    decompress_pipeline(container)
except HybcError as exc:
    print(f"{type(exc).__name__}: {exc}")
else:
    print("decoded")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def _flipped_in_first_zstd_block(container: bytes) -> bytes:
    frame = bytearray(container)
    # magic, descriptor, window byte and a 4-byte content size, then the
    # 3-byte block header: offset 13 is the first byte of the first block
    assert frame[HEADER_LEN + 4] == 0x80
    frame[HEADER_LEN + 13] ^= 0xFF
    return bytes(frame)


def _lz4_block_cut_to_a_tenth(container: bytes) -> bytes:
    # a 2% cut would fail the 255x plausibility check before any allocation
    start = HEADER_LEN + 8
    return container[:start + (len(container) - start) // 10]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("codec, damage, error", [
    (CodecId.ZSTD, _flipped_in_first_zstd_block, "CorruptStream: zstd: Data corruption detected"),
    (CodecId.LZ4HC, _lz4_block_cut_to_a_tenth, "CorruptStream: lz4: block decoded to -"),
], ids=["Zstd flipped in its first block", "LZ4HC cut to a tenth"])
def test_rejected_decode_touches_only_what_the_library_wrote(codec, damage, error, tmp_path, large_text):
    # the in-memory output buffer has the whole declared 8 MiB, but none of it
    # is zero-filled, so a stream rejected early costs only the bytes decoded
    # before its fault; the peak RSS is read in a child of its own
    path = tmp_path / "damaged.hybc"
    path.write_bytes(damage(compress_pipeline(PipelineSpec(codec), large_text)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _REJECTED_DECODE_PEAK, str(path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    verdict, grown_kib = proc.stdout.splitlines()
    assert verdict.startswith(error)
    assert int(grown_kib) << 10 < len(large_text) // 4, f"peak RSS grew by {grown_kib} KiB"


@pytest.mark.parametrize("codec", [CodecId.LZMA, CodecId.BZIP2])
def test_stepwise_decode_holds_output_once(codec, small_corpus):
    # LZMA and Bzip2 decode in steps into one bytearray; joining the output
    # blocks at the end would hold the text twice at the peak. The baseline is
    # a valid 10-byte container of the same codec (LZMA's 8 MiB dictionary).
    text = small_corpus * ((8 << 20) // len(small_corpus) + 1)
    small = compress_pipeline(PipelineSpec(codec), bytes(10))
    large = compress_pipeline(PipelineSpec(codec), text)
    baseline, error = _decode_peak(small)
    assert error is None
    peak, error = _decode_peak(large)
    assert error is None
    assert peak - baseline < 1.5 * len(text), f"peak {peak} B, baseline {baseline} B"


def _collecting_sink():
    """(chunks, sink): a sink that appends a copy of each chunk to chunks,
    since a chunk is valid only during the call that passes it."""
    chunks: list[bytes] = []
    return chunks, lambda chunk: chunks.append(bytes(chunk))


# The last stages that decode in pieces; LZ4HC sends its one block whole.
_STREAMED = (CodecId.ZSTD, CodecId.BROTLI, CodecId.LZMA, CodecId.BZIP2)


@settings(max_examples=6, deadline=None)
@given(text=st.one_of(
    st.binary(max_size=3),
    st.builds(lambda piece, reps: piece * reps, st.binary(min_size=1, max_size=40),
              st.integers(1, 4000)),
))
@example(text=b"")
@example(text=b"\xa5")
@example(text=random.Random(11).randbytes(600) * 300)  # 180,000 bytes: two chunks
def test_streamed_decode_agrees_with_in_memory(text):
    for spec in enumerate_pipelines():
        container = compress_pipeline(spec, text)
        chunks, sink = _collecting_sink()
        sent = decompress_pipeline(container, sink)
        assert sent == len(text), spec.display_name
        assert b"".join(chunks) == decompress_pipeline(container) == text, spec.display_name
        if spec.first in _STREAMED:
            assert all(len(c) <= _native.SINK_CHUNK for c in chunks), spec.display_name


@pytest.mark.parametrize("recorded", [10, 200_000])  # less and more than one chunk
@pytest.mark.parametrize("spec", _SINGLES, ids=lambda s: s.display_name)
def test_streamed_decode_never_sends_past_the_header_length(spec, recorded):
    # the understated-header bomb: whatever the codec, the sink receives at
    # most the bytes the header records before the decode is refused
    bomb = _relabelled(compress_pipeline(spec, bytes(8 << 20)), recorded,
                       zlib.crc32(bytes(recorded)))
    chunks, sink = _collecting_sink()
    with pytest.raises(HybcError):
        decompress_pipeline(bomb, sink)
    assert sum(map(len, chunks)) <= recorded


def test_streamed_zstd_decode_holds_a_window_not_the_text(small_corpus):
    # the in-memory decode holds the whole 8 MiB text; the streamed one only
    # its chunk buffer in Python-tracked memory (libzstd's window is its own)
    text = (small_corpus * ((8 << 20) // len(small_corpus) + 1))[: 8 << 20]
    container = compress_pipeline(PipelineSpec(CodecId.ZSTD), text)
    crc = 0

    def running_crc(chunk):
        nonlocal crc
        crc = zlib.crc32(chunk, crc)

    tracemalloc.start()
    try:
        sent = decompress_pipeline(container, running_crc)
        streamed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        restored = decompress_pipeline(container)
        in_memory = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sent == len(text) and crc == zlib.crc32(text)
    assert restored == text
    assert streamed < 1 << 20, f"streamed peak {streamed} B"
    assert in_memory >= 8 << 20, f"in-memory peak {in_memory} B"


class _Container(bytearray):
    """A container that can be weakly referenced, which bytes cannot."""


_LET_GO = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 the caller's value stack keeps a call's argument alive until it returns",
)


def _first_decode_probe(monkeypatch, spec, data):
    """make() builds spec's container of data and keeps only a weak reference
    to it; `alive` records, at each decode by the chain's first codec, whether
    that container still lives."""
    import hybc.pipeline as pipeline_mod

    container = compress_pipeline(spec, data)
    ref, alive = None, []
    real = pipeline_mod.decompress_one

    def make():
        nonlocal ref
        made = _Container(container)
        ref = weakref.ref(made)
        return made

    def probing(codec, stream, cap, *sink):
        if codec == spec.first:
            alive.append(ref() is not None)
        return real(codec, stream, cap, *sink)

    monkeypatch.setattr(pipeline_mod, "decompress_one", probing)
    return make, alive


@_LET_GO
@pytest.mark.parametrize("spec", [PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC),
                                  PipelineSpec(CodecId.ZSTD)])
def test_hybrid_container_let_go_before_its_first_codec_decodes(monkeypatch, tiny_text, spec):
    # a one-codec container is the payload its only decode reads, so it lives on
    make, alive = _first_decode_probe(monkeypatch, spec, tiny_text)
    # called outside the assert, whose rewriting would keep the argument
    restored = decompress_pipeline(make())
    assert restored == tiny_text
    assert alive == [not spec.is_hybrid]


@_LET_GO
def test_cli_decompress_keeps_no_reference_to_the_container(monkeypatch, tmp_path, tiny_text):
    import hybc.cli as cli_mod

    make, alive = _first_decode_probe(monkeypatch, PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC),
                                      tiny_text)
    monkeypatch.setattr(cli_mod, "_read_bytes", lambda path: make())
    out = tmp_path / "restored"
    cli_mod.main(["decompress", "in.hybc", str(out)], standalone_mode=False)
    assert out.read_bytes() == tiny_text
    assert alive == [False]


# Zstd + LZ4HC container of generate_synthetic(SMALL, 42), written by
# compress_pipeline under these (zstd, lz4) library versions.
GOLDEN_CONTAINER = Path(__file__).parent / "data" / "small_seed42_zstd_lz4hc.hybc"
GOLDEN_VERSIONS = ("1.5.4", "1.9.4")

# Container length of that call per (zstd, lz4) version pair. A new pair gets
# a row only after its stream is cross-checked against the reference CLIs:
# the Zstd stage equals `zstd -q -6 --no-check`, and the LZ4 block decoded by
# liblz4 alone then decodes to the corpus with `zstd -d`.
CONTAINER_LEN = {
    ("1.5.4", "1.9.4"): 23985,
    ("1.5.7", "1.9.4"): 23981,
}


def test_small_corpus_container_regression(small_corpus):
    # pins the chained stream against accidental codec or framing drift;
    # codecs promise identical bytes only within one library version, so the
    # exact bytes and the length are pinned per recorded version pair, and a
    # container written under another version must still decode
    container = compress_pipeline(
        PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC), small_corpus
    )
    assert len(container) < len(small_corpus)

    golden = GOLDEN_CONTAINER.read_bytes()
    assert decompress_pipeline(golden) == small_corpus
    assert container[:HEADER_LEN] == golden[:HEADER_LEN]

    versions = library_versions()
    pair = (versions["zstd"], versions["lz4"])
    if pair == GOLDEN_VERSIONS:
        assert container == golden
    assert pair in CONTAINER_LEN, (
        f"no pinned length for zstd {pair[0]} / lz4 {pair[1]} (this build "
        f"gives {len(container)}); cross-check it and add a CONTAINER_LEN row"
    )
    assert len(container) == CONTAINER_LEN[pair]
