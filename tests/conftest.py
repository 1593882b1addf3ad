"""Shared fixtures: deterministic corpora reused across the suite."""
import random

import pytest

from hybc.corpus import SizeClass, generate_synthetic


@pytest.fixture(scope="session")
def small_corpus() -> bytes:
    return generate_synthetic(SizeClass.SMALL, 42)


@pytest.fixture(scope="session")
def large_text() -> bytes:
    return generate_synthetic(SizeClass.LARGE, 42)[: 8 << 20]


@pytest.fixture(scope="session")
def random_64k() -> bytes:
    return random.Random(0xC0FFEE).randbytes(64 * 1024)


@pytest.fixture(scope="session")
def tiny_text() -> bytes:
    # a few KB of word-structured Devanagari, enough for every codec to bite
    words = ["नमस्ते", "संसार", "परीक्षण", "आँकड़े", "पाठ", "लेख", "भाषा"]
    rng = random.Random(99)
    body = " ".join(rng.choice(words) for _ in range(400)) + "।\n"
    return body.encode("utf-8")
