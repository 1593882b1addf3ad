"""Timed pipeline runs and the three raw performance metrics.

Speeds use MB = 2^20 bytes throughout. Decompression speed defaults to the
compressed-size basis; a switch selects the original-size basis instead, and
reports label whichever was used.
"""
from __future__ import annotations

import enum
import gc
import math
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .codecs import CodecId, compress_one, decompress_one, stream_bound
from .errors import RoundTripMismatch
from .pipeline import (
    HEADER_LEN, PipelineSpec, compress_pipeline, decompress_pipeline, parse_header, serialize_header,
)

MB = 1 << 20

# Timing is only meaningful when nothing else is being timed in-process.
_MEASUREMENT_LOCK = threading.Lock()


class DsBasis(enum.Enum):
    """Which size the decompression-speed numerator uses."""

    COMPRESSED = "compressed"
    ORIGINAL = "original"


@dataclass(frozen=True)
class Measurement:
    """Raw sizes and median timings for one pipeline on one non-empty text."""

    pipeline: PipelineSpec
    dataset: str
    original_bytes: int
    compressed_bytes: int
    compress_seconds: float
    decompress_seconds: float
    repetitions: int

    def __post_init__(self):
        _check_measurable(self.original_bytes, self.repetitions)
        if type(self.compressed_bytes) is not int or self.compressed_bytes < HEADER_LEN:
            raise ValueError(f"compressed_bytes must be an int >= {HEADER_LEN} (header)")
        for seconds in (self.compress_seconds, self.decompress_seconds):
            if type(seconds) not in (int, float) or not (math.isfinite(seconds) and seconds > 0):
                raise ValueError("timings must be finite and strictly positive numbers")


def _check_measurable(original_bytes, repetitions) -> None:
    """Refuse a text or repetition count no row may have; measure asks first."""
    if type(original_bytes) is not int or original_bytes < 0:
        raise ValueError("original_bytes must be an int >= 0")
    if original_bytes == 0:
        raise ValueError("cannot measure an empty buffer")
    if type(repetitions) is not int or repetitions < 1:
        raise ValueError("repetitions must be an int >= 1")


@dataclass(frozen=True)
class Stage:
    """One codec step timed on its input: the last round's output, and one
    compress and one decompress sample per repetition. A first stage's output
    is the one-codec container, so its samples include the framing."""

    output: bytes
    compress: list[float]
    decompress: list[float]


def measure(
    spec: PipelineSpec,
    data: bytes,
    repetitions: int,
    *,
    dataset: str = "data",
    clock: Callable[[], float] = time.perf_counter,
    stages: dict[tuple[CodecId, int], Stage] | None = None,
) -> Measurement:
    """Time compress/decompress over in-memory buffers.

    The unit timed is a stage: the first codec on the data, timed as
    compress_pipeline and as decompress_pipeline into memory on its
    one-codec container (framing included), then the second codec, if any,
    on the first one's output. `hybc decompress` makes that call with a sink,
    which runs the same decoder per codec. Each stage runs one untimed
    warm-up, then `repetitions` rounds reading `clock` 4 times each, with the
    cyclic garbage collector off as in timeit; each decode is checked against
    the stage's input. Chain sample i is the sum of its stages' samples i; the
    median of those sums per phase must be > 0, so a stalled clock fails.

    `stages` holds the first stages already timed on `data`, keyed by codec
    and repetition count; a missing one is timed with `clock` and added, so
    chains that share a first stage and a count time it once.
    A one-codec chain's container is its first stage's output, a hybrid's is
    that container's header, naming the second codec, and the second's output;
    either must decode back to `data`. Serialized process-wide so concurrent
    callers cannot pollute each other's timings."""
    _check_measurable(len(data), repetitions)
    stages = {} if stages is None else stages
    name = spec.display_name
    with _MEASUREMENT_LOCK:
        first = stages.get((spec.first, repetitions))
        if first is None:
            alone = PipelineSpec(spec.first)
            first = stages[spec.first, repetitions] = _time_stage(
                lambda: compress_pipeline(alone, data),
                decompress_pipeline, data, repetitions, clock, name,
            )
        timed = [first]
        container = first.output
        if spec.second is not None:
            stream = memoryview(first.output)[HEADER_LEN:]
            cap = stream_bound(spec.first, len(data))
            second = _time_stage(
                lambda: compress_one(spec.second, stream),
                lambda out: decompress_one(spec.second, out, cap),
                stream, repetitions, clock, name,
            )
            timed.append(second)
            header = parse_header(first.output)._replace(second_codec=spec.second)
            container = serialize_header(header) + second.output
        if decompress_pipeline(container) != data:
            raise RoundTripMismatch(name)
    return Measurement(
        pipeline=spec,
        dataset=dataset,
        original_bytes=len(data),
        compressed_bytes=len(container),
        compress_seconds=statistics.median([sum(s) for s in zip(*(t.compress for t in timed))]),
        decompress_seconds=statistics.median([sum(s) for s in zip(*(t.decompress for t in timed))]),
        repetitions=repetitions,
    )


def _time_stage(encode: Callable[[], bytes], decode: Callable[[bytes], bytearray], source,
                repetitions: int, clock: Callable[[], float], name: str) -> Stage:
    """One untimed warm-up, then `repetitions` timed rounds of encode and
    decode with the cyclic collector off; each timed decode must give back `source`. A round's
    buffers are freed before the next round's first clock read, none between its own reads."""
    decode(encode())
    compress_times = []
    decompress_times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repetitions):
            output = restored = None
            t0 = clock()
            output = encode()
            t1 = clock()
            compress_times.append(t1 - t0)
            t0 = clock()
            restored = decode(output)
            t1 = clock()
            decompress_times.append(t1 - t0)
            if restored != source:
                raise RoundTripMismatch(name)
    finally:
        if collecting:
            gc.enable()
    return Stage(output, compress_times, decompress_times)


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
