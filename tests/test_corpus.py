import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybc.codecs import CodecId
from hybc.corpus import (
    SizeClass,
    classify_size,
    generate_synthetic,
    load_dataset,
)
from hybc.errors import InvalidUtf8
from hybc.pipeline import PipelineSpec, compress_pipeline


@pytest.mark.parametrize(
    "byte_len,expected",
    [
        (148_480, SizeClass.SMALL),
        (1_638_400, SizeClass.MEDIUM),
        (13_312_000, SizeClass.LARGE),
        (0, SizeClass.SMALL),
        (512 * 1024 - 1, SizeClass.SMALL),
        (512 * 1024, SizeClass.MEDIUM),
        (4 * 1024 * 1024 - 1, SizeClass.MEDIUM),
        (4 * 1024 * 1024, SizeClass.LARGE),
    ],
)
def test_classify_size(byte_len, expected):
    assert classify_size(byte_len) is expected


def test_classify_rejects_negative():
    with pytest.raises(ValueError):
        classify_size(-1)


_ORDER = [SizeClass.SMALL, SizeClass.MEDIUM, SizeClass.LARGE]


@settings(max_examples=200)
@given(st.integers(0, 1 << 40), st.integers(0, 1 << 40))
def test_classify_monotone(a, b):
    lo, hi = sorted((a, b))
    assert _ORDER.index(classify_size(lo)) <= _ORDER.index(classify_size(hi))


def test_generate_deterministic():
    assert generate_synthetic(SizeClass.SMALL, 42) == generate_synthetic(
        SizeClass.SMALL, 42
    )


def test_generate_seed_changes_output():
    assert generate_synthetic(SizeClass.SMALL, 1) != generate_synthetic(
        SizeClass.SMALL, 2
    )


@pytest.mark.parametrize("size_class", [SizeClass.SMALL, SizeClass.MEDIUM])
def test_generate_hits_target_size(size_class):
    data = generate_synthetic(size_class, 42)
    target = size_class.target_bytes
    assert abs(len(data) - target) / target < 0.01
    assert classify_size(len(data)) is size_class


def test_generate_valid_utf8_and_mostly_devanagari():
    text = generate_synthetic(SizeClass.MEDIUM, 7).decode("utf-8", errors="strict")
    devanagari = sum(1 for ch in text if 0x0900 <= ord(ch) <= 0x097F)
    assert devanagari / len(text) > 0.8


def test_generated_text_compresses_under_every_codec(small_corpus):
    for codec in CodecId:
        container = compress_pipeline(PipelineSpec(codec), small_corpus)
        assert len(small_corpus) / len(container) > 1.0, codec.name


def test_load_dataset(tmp_path, small_corpus):
    path = tmp_path / "sample.txt"
    path.write_bytes(small_corpus)
    assert load_dataset(path) == small_corpus


def test_load_dataset_reports_invalid_utf8_offset(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ab\xffcd")
    with pytest.raises(InvalidUtf8) as excinfo:
        load_dataset(path)
    assert excinfo.value.offset == 2


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_dataset(tmp_path / "absent.txt")


def test_load_dataset_pure_ascii(tmp_path):
    path = tmp_path / "ascii.txt"
    path.write_bytes(b"hello world\n" * 10)
    assert load_dataset(path) == b"hello world\n" * 10
