"""Corpus loading, size-tier classification, and synthetic Devanagari text.

Input corpora are plain UTF-8 text files. The synthetic generator exists so
tests and demos never depend on external datasets: it emits deterministic,
word-structured Devanagari with Zipf-like repetition, which compresses the
way natural text does.
"""
from __future__ import annotations

import enum
import itertools
import random
from pathlib import Path

from .errors import InvalidUtf8

_KB = 1024

SMALL_LIMIT = 512 * _KB
MEDIUM_LIMIT = 4 * 1024 * _KB


class SizeClass(enum.Enum):
    SMALL = "Small"
    MEDIUM = "Medium"
    LARGE = "Large"

    @property
    def target_bytes(self) -> int:
        return _TARGET_BYTES[self]


# Anchor sizes of the three corpus tiers (KB = 1024 bytes): 145 KB / 1600 KB / 13000 KB.
_TARGET_BYTES = {
    SizeClass.SMALL: 145 * _KB,
    SizeClass.MEDIUM: 1600 * _KB,
    SizeClass.LARGE: 13000 * _KB,
}


def classify_size(byte_len: int) -> SizeClass:
    """Map a byte length onto the Small/Medium/Large tiers."""
    if byte_len < 0:
        raise ValueError("byte_len must be >= 0")
    if byte_len < SMALL_LIMIT:
        return SizeClass.SMALL
    if byte_len < MEDIUM_LIMIT:
        return SizeClass.MEDIUM
    return SizeClass.LARGE


def load_dataset(path: str | Path) -> bytes:
    """Read a corpus file and validate strict UTF-8; the bytes are returned
    exactly as the file holds them."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        raw.decode("utf-8", errors="strict")
    except UnicodeDecodeError as exc:
        raise InvalidUtf8(exc.start, f"{path}: invalid UTF-8 at byte {exc.start}") from exc
    return raw


# ---------------------------------------------------------------------------
# Synthetic corpus generation

_CONSONANTS = [chr(c) for c in range(0x0915, 0x093A)]        # क .. ह
_VOWELS = [chr(c) for c in range(0x0905, 0x0915)]            # अ .. औ
_MATRAS = [chr(c) for c in range(0x093E, 0x094D)]            # ा .. ौ
_VIRAMA = "्"
_ANUSVARA = "ं"
_DANDA = "।"

_LEXICON_SIZE = 5000
_ZIPF_EXPONENT = 1.1


def _make_word(rng: random.Random) -> str:
    parts = []
    if rng.random() < 0.15:
        parts.append(rng.choice(_VOWELS))
    for _ in range(rng.randint(2, 5)):
        syllable = rng.choice(_CONSONANTS)
        if rng.random() < 0.12:
            syllable += _VIRAMA + rng.choice(_CONSONANTS)
        if rng.random() < 0.70:
            syllable += rng.choice(_MATRAS)
        if rng.random() < 0.08:
            syllable += _ANUSVARA
        parts.append(syllable)
    return "".join(parts)


def generate_synthetic(size_class: SizeClass, seed: int) -> bytes:
    """Deterministic Devanagari text close to the tier's anchor size (within 1%).

    Words are drawn from a fixed lexicon with Zipf-like weights and grouped
    into danda-terminated sentences, so every codec finds natural-language
    style redundancy.
    """
    size_class = SizeClass(size_class)
    salt = {SizeClass.SMALL: 1, SizeClass.MEDIUM: 2, SizeClass.LARGE: 3}[size_class]
    rng = random.Random(0x5EED ^ (seed * 2654435761) ^ salt)

    lexicon = [_make_word(rng) for _ in range(_LEXICON_SIZE)]
    word_bytes = [len(w.encode("utf-8")) for w in lexicon]
    cum_weights = list(
        itertools.accumulate(1.0 / (i + 1) ** _ZIPF_EXPONENT for i in range(_LEXICON_SIZE))
    )
    indices = range(_LEXICON_SIZE)

    target = size_class.target_bytes
    pieces: list[str] = []
    total = 0
    while total < target:
        n_words = rng.randint(6, 14)
        picked = rng.choices(indices, cum_weights=cum_weights, k=n_words)
        sentence = " ".join(lexicon[i] for i in picked) + _DANDA
        sep = "\n" if rng.random() < 0.15 else " "
        pieces.append(sentence)
        pieces.append(sep)
        # words + single-byte spaces between them + 3-byte danda + separator
        total += sum(word_bytes[i] for i in picked) + (n_words - 1) + 3 + len(sep)
    return "".join(pieces).encode("utf-8")
