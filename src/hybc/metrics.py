"""Timed pipeline runs and the three raw performance metrics.

Speeds use MB = 2^20 bytes throughout. Decompression speed defaults to the
compressed-size basis; a switch selects the original-size basis instead, and
reports label whichever was used.
"""
from __future__ import annotations

import enum
import math
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .errors import RoundTripMismatch
from .pipeline import HEADER_LEN, PipelineSpec, compress_pipeline, decompress_pipeline

MB = 1 << 20

# Floor for a measured duration; perf_counter is ns-resolution, so this only
# guards the degenerate case of a clock that did not advance.
_MIN_SECONDS = 1e-9

# Timing is only meaningful when nothing else is being timed in-process.
_MEASUREMENT_LOCK = threading.Lock()


class DsBasis(enum.Enum):
    """Which size the decompression-speed numerator uses."""

    COMPRESSED = "compressed"
    ORIGINAL = "original"


@dataclass(frozen=True)
class Measurement:
    """Raw sizes and median timings for one pipeline on one dataset."""

    pipeline: PipelineSpec
    dataset: str
    original_bytes: int
    compressed_bytes: int
    compress_seconds: float
    decompress_seconds: float
    repetitions: int

    def __post_init__(self):
        if self.original_bytes < 0:
            raise ValueError("original_bytes must be >= 0")
        if self.compressed_bytes < HEADER_LEN:
            raise ValueError(f"compressed_bytes must be >= {HEADER_LEN} (header)")
        for seconds in (self.compress_seconds, self.decompress_seconds):
            if not (math.isfinite(seconds) and seconds > 0):
                raise ValueError("timings must be finite and strictly positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


def measure(
    spec: PipelineSpec,
    data: bytes,
    repetitions: int,
    *,
    dataset: str = "data",
    clock: Callable[[], float] = time.perf_counter,
) -> Measurement:
    """Time compress/decompress over in-memory buffers.

    Runs one untimed warm-up, then `repetitions` timed rounds of each phase,
    verifying the round trip every time; reports the median wall time per
    phase. Serialized process-wide so concurrent callers cannot pollute each
    other's timings.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if not data:
        raise ValueError("cannot measure an empty buffer")
    with _MEASUREMENT_LOCK:
        container = compress_pipeline(spec, data)
        if decompress_pipeline(container) != data:
            raise RoundTripMismatch(spec.display_name)
        compress_times = []
        decompress_times = []
        for _ in range(repetitions):
            t0 = clock()
            container = compress_pipeline(spec, data)
            t1 = clock()
            compress_times.append(max(t1 - t0, _MIN_SECONDS))
            t0 = clock()
            restored = decompress_pipeline(container)
            t1 = clock()
            decompress_times.append(max(t1 - t0, _MIN_SECONDS))
            if restored != data:
                raise RoundTripMismatch(spec.display_name)
    return Measurement(
        pipeline=spec,
        dataset=dataset,
        original_bytes=len(data),
        compressed_bytes=len(container),
        compress_seconds=statistics.median(compress_times),
        decompress_seconds=statistics.median(decompress_times),
        repetitions=repetitions,
    )


def compression_ratio(m: Measurement) -> float:
    """Original size over compressed size (unit-free)."""
    return m.original_bytes / m.compressed_bytes


def compression_speed(m: Measurement) -> float:
    """Original data volume per compression second, in MB/s."""
    return m.original_bytes / MB / m.compress_seconds


def decompression_speed(m: Measurement, basis: DsBasis = DsBasis.COMPRESSED) -> float:
    """Data volume per decompression second, in MB/s, on the chosen basis."""
    size = m.compressed_bytes if basis is DsBasis.COMPRESSED else m.original_bytes
    return size / MB / m.decompress_seconds
