import gc
import statistics

import pytest

from hybc.codecs import CodecId
from hybc.corpus import SizeClass, generate_synthetic
from hybc.errors import HybcError, RoundTripMismatch
from hybc.metrics import (
    MB,
    DsBasis,
    Measurement,
    compression_ratio,
    compression_speed,
    decompression_speed,
    measure,
)
from hybc.pipeline import PipelineSpec, compress_pipeline, enumerate_pipelines


def _measurement(original, compressed, tc=1.0, td=1.0, reps=1):
    return Measurement(
        pipeline=PipelineSpec(CodecId.ZSTD),
        dataset="d",
        original_bytes=original,
        compressed_bytes=compressed,
        compress_seconds=tc,
        decompress_seconds=td,
        repetitions=reps,
    )


class ScriptedClock:
    """Fake monotonic clock: each call advances by the next scripted delta."""

    def __init__(self, deltas):
        self._now = 0.0
        self._deltas = iter(deltas)

    def __call__(self):
        self._now += next(self._deltas)
        return self._now


def test_measure_basic_contract():
    data = (b"namaste duniya " * 70000)[: 1 << 20]
    m = measure(PipelineSpec(CodecId.ZSTD), data, 5, dataset="mib")
    assert m.repetitions == 5
    assert m.dataset == "mib"
    assert m.original_bytes == len(data)
    assert m.compressed_bytes >= 20
    assert m.compress_seconds > 0
    assert m.decompress_seconds > 0


def test_measure_rejects_zero_repetitions(tiny_text):
    with pytest.raises(ValueError):
        measure(PipelineSpec(CodecId.ZSTD), tiny_text, 0)


def test_measure_rejects_empty_input():
    with pytest.raises(ValueError):
        measure(PipelineSpec(CodecId.ZSTD), b"", 3)


def test_measure_aborts_on_round_trip_mismatch(tiny_text, monkeypatch):
    monkeypatch.setattr("hybc.metrics.decompress_pipeline", lambda container: b"wrong")
    with pytest.raises(RoundTripMismatch):
        measure(PipelineSpec(CodecId.ZSTD), tiny_text, 1)


def test_measurement_lock_held_while_timing(tiny_text):
    import hybc.metrics as metrics_mod

    seen = []

    def probing_clock():
        seen.append(metrics_mod._MEASUREMENT_LOCK.locked())
        return len(seen) * 0.001

    measure(PipelineSpec(CodecId.ZSTD), tiny_text, 1, clock=probing_clock)
    assert seen and all(seen)


@pytest.mark.parametrize("collecting", [True, False])
def test_collector_off_while_timing_and_restored(tiny_text, monkeypatch, collecting):
    seen = []

    def probing_clock():
        seen.append(gc.isenabled())
        return len(seen) * 0.001

    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        measure(PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC), tiny_text, 2, clock=probing_clock)
        assert len(seen) == 16 and not any(seen)
        assert gc.isenabled() is collecting
        # a round that raises restores the collector too
        seen.clear()
        monkeypatch.setattr("hybc.metrics.decompress_pipeline", lambda container: b"wrong")
        with pytest.raises(RoundTripMismatch):
            measure(PipelineSpec(CodecId.ZSTD), tiny_text, 2, clock=probing_clock)
        assert len(seen) == 4 and not any(seen)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("spec", [PipelineSpec(CodecId.ZSTD),
                                  PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC)])
def test_stalled_clock_fails(tiny_text, spec):
    with pytest.raises(ValueError, match="strictly positive"):
        measure(spec, tiny_text, 3, clock=lambda: 0.0)


@pytest.mark.parametrize("reps", [1, 3])
def test_clock_read_four_times_per_stage_and_round(tiny_text, monkeypatch, reps):
    """The read pattern perfbench's sample recorder parses: per stage an
    untimed warm-up encode and decode, then per round a read before and after
    the encode and the decode; the chain's container is checked once at the end."""
    import hybc.metrics as metrics_mod

    events = []
    for name, tag in [("compress_pipeline", "enc"), ("compress_one", "enc"),
                      ("decompress_pipeline", "dec"), ("decompress_one", "dec")]:
        real = getattr(metrics_mod, name)
        monkeypatch.setattr(metrics_mod, name,
                            lambda *args, real=real, tag=tag: events.append(tag) or real(*args))

    def clock():
        events.append("t")
        return len(events) * 0.001

    stage = ["enc", "dec"] + ["t", "enc", "t", "t", "dec", "t"] * reps
    zstd, hybrid = PipelineSpec(CodecId.ZSTD), PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC)
    measure(zstd, tiny_text, reps, clock=clock)
    assert events == stage + ["dec"] and events.count("t") == 4 * reps
    events.clear()
    measure(hybrid, tiny_text, reps, clock=clock)
    assert events == stage * 2 + ["dec"] and events.count("t") == 8 * reps
    stages = {}
    measure(zstd, tiny_text, reps, stages=stages)
    events.clear()
    measure(hybrid, tiny_text, reps, clock=clock, stages=stages)
    assert events == stage + ["dec"] and events.count("t") == 4 * reps


@pytest.mark.parametrize("reps", [1, 3])
def test_no_round_buffer_outlives_its_round_or_dies_while_timed(reps):
    """Buffers are numbered as they are made: the warm-up's encode and decode
    are 0 and 1, round r's are 2 + 2r and 3 + 2r. Each records, when it dies,
    how many clock reads had happened; round r reads the clock for the
    (4r + 1)th to the (4r + 4)th time."""
    from hybc.metrics import _time_stage

    reads = 0
    made = 0
    died = {}

    class Buffer(bytearray):
        def __del__(self):
            died[self.index] = reads

    def buffer(content):
        nonlocal made
        buf = Buffer(content)
        buf.index, made = made, made + 1
        return buf

    def clock():
        nonlocal reads
        reads += 1
        return reads * 0.001

    source = b"source"
    stage = _time_stage(lambda: buffer(b"stream"), lambda stream: buffer(source),
                        source, reps, clock, "fake")
    assert made == 2 + 2 * reps
    for r in range(reps):
        # every buffer made before round r is dead at its first clock read
        assert all(died[i] <= 4 * r for i in range(2 + 2 * r)), (r, died)
    # none dies between the reads around an encode or a decode
    assert not [d for d in died.values() if d % 4 in (1, 3)], died
    # the last round's encode result is the stage output, the only one alive
    assert stage.output.index == 2 * reps and set(died) == set(range(made)) - {2 * reps}
    del stage
    assert 2 * reps in died


def test_median_ignores_one_slow_repetition(tiny_text):
    # clock reads per repetition: compress start/stop, decompress start/stop
    gap = 0.001
    compress_durations = [0.010, 0.010, 9.000, 0.010, 0.010]
    decompress_durations = [0.005] * 5
    deltas = []
    for c, d in zip(compress_durations, decompress_durations):
        deltas += [gap, c, gap, d]
    m = measure(
        PipelineSpec(CodecId.ZSTD), tiny_text, 5, clock=ScriptedClock(deltas)
    )
    assert m.compress_seconds == pytest.approx(0.010)
    assert m.decompress_seconds == pytest.approx(0.005)
    assert m.compress_seconds == pytest.approx(
        statistics.median(compress_durations[:2] + compress_durations[3:] + [0.010])
    )


def _stage_deltas(compress, decompress, gap=0.001):
    """Scripted clock deltas for one stage: per repetition, compress start and
    stop, then decompress start and stop."""
    deltas = []
    for c, d in zip(compress, decompress):
        deltas += [gap, c, gap, d]
    return deltas


def test_hybrid_sample_is_sum_of_its_stages_samples(tiny_text):
    zstd, hybrid = PipelineSpec(CodecId.ZSTD), PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC)
    first_c, first_d = [0.010, 0.050, 0.030], [0.004, 0.001, 0.002]
    second_c, second_d = [0.050, 0.010, 0.020], [0.001, 0.004, 0.003]
    stages = {}
    alone = measure(zstd, tiny_text, 3, clock=ScriptedClock(_stage_deltas(first_c, first_d)),
                    stages=stages)
    assert alone.compress_seconds == pytest.approx(0.030)
    # the first stage is cached, so this clock times the second stage only
    m = measure(hybrid, tiny_text, 3, clock=ScriptedClock(_stage_deltas(second_c, second_d)),
                stages=stages)
    # paired sums 0.060, 0.060, 0.050 and 0.005, 0.005, 0.005: not the sums
    # of the stage medians (0.050 and 0.005)
    assert m.compress_seconds == pytest.approx(0.060)
    assert m.decompress_seconds == pytest.approx(0.005)
    # without a cache the one clock times both stages, first stage first
    fresh = measure(hybrid, tiny_text, 3, clock=ScriptedClock(
        _stage_deltas(first_c, first_d) + _stage_deltas(second_c, second_d)))
    assert (fresh.compress_seconds, fresh.decompress_seconds) == (
        pytest.approx(0.060), pytest.approx(0.005))


def test_one_codec_chain_reuses_its_cached_first_stage(tiny_text):
    zstd, hybrid = PipelineSpec(CodecId.ZSTD), PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC)
    first_c, first_d = [0.010, 0.050, 0.030], [0.004, 0.001, 0.002]
    second_c, second_d = [0.050, 0.010, 0.020], [0.001, 0.004, 0.003]
    stages = {}
    measure(hybrid, tiny_text, 3, stages=stages, clock=ScriptedClock(
        _stage_deltas(first_c, first_d) + _stage_deltas(second_c, second_d)))
    # the first stage is cached, so the one-codec chain reads the clock no more
    m = measure(zstd, tiny_text, 3, stages=stages, clock=ScriptedClock([]))
    cached = stages[CodecId.ZSTD, 3]
    assert (m.compress_seconds, m.decompress_seconds) == (
        statistics.median(cached.compress), statistics.median(cached.decompress))
    assert (m.compress_seconds, m.decompress_seconds) == (
        pytest.approx(0.030), pytest.approx(0.002))
    assert m.compressed_bytes == len(compress_pipeline(zstd, tiny_text))


@pytest.mark.parametrize("spec", [PipelineSpec(CodecId.ZSTD),
                                  PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC)])
def test_stage_cache_built_on_other_data_is_rejected(tiny_text, spec):
    stages = {}
    measure(PipelineSpec(CodecId.ZSTD), tiny_text[::-1], 1, stages=stages)
    with pytest.raises(HybcError):
        measure(spec, tiny_text, 1, stages=stages)


@pytest.mark.parametrize("cached, asked, spec", [
    (2, 5, PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC)), (5, 2, PipelineSpec(CodecId.ZSTD))])
def test_stage_cache_keeps_one_entry_per_repetition_count(tiny_text, cached, asked, spec):
    stages = {}
    measure(PipelineSpec(CodecId.ZSTD), tiny_text, cached, stages=stages)
    m = measure(spec, tiny_text, asked, stages=stages)
    assert {key: len(stage.compress) for key, stage in stages.items()} == {
        (CodecId.ZSTD, cached): cached, (CodecId.ZSTD, asked): asked}
    assert m.repetitions == asked


def test_measured_container_is_the_real_container(monkeypatch):
    import hybc.metrics as metrics_mod

    data = generate_synthetic(SizeClass.SMALL, 42)
    verified = []
    real_decompress = metrics_mod.decompress_pipeline

    def recording_decompress(container):
        verified.append(bytes(container))
        return real_decompress(container)

    monkeypatch.setattr(metrics_mod, "decompress_pipeline", recording_decompress)
    stages = {}
    for spec in enumerate_pipelines():
        m = measure(spec, data, 1, stages=stages)
        assert verified[-1] == compress_pipeline(spec, data), spec.display_name
        assert m.compressed_bytes == len(verified[-1])
    # each first stage's warm-up and timed decode go through decompress_pipeline
    # too, before the one check of each chain's container above
    assert len(verified) == 5 * (1 + 1) + 25


def test_compression_ratio_examples():
    assert compression_ratio(_measurement(102400, 51200)) == 2.0
    assert compression_ratio(_measurement(4096, 4096)) == 1.0
    assert compression_ratio(_measurement(13_312_000, 140_882)) == pytest.approx(
        94.49, rel=1e-4
    )


def test_compression_speed_examples():
    m = _measurement(13 * MB, 1000, tc=0.5)
    assert compression_speed(m) == 26.0
    m = _measurement(5_000_000, 1000, tc=1.0)
    assert compression_speed(m) == 5_000_000 / MB


def test_decompression_speed_examples():
    m = _measurement(4 * MB, MB, td=0.25)
    assert decompression_speed(m) == 4.0
    assert decompression_speed(m, DsBasis.ORIGINAL) == 16.0


def test_decompression_speed_default_basis_is_compressed():
    m = _measurement(10 * MB, 2 * MB, td=1.0)
    assert decompression_speed(m) == 2.0


def test_ratio_scale_covariant():
    base = compression_ratio(_measurement(1_000_001, 333_333))
    doubled = compression_ratio(_measurement(2_000_002, 666_666))
    assert base == doubled


def test_metrics_strictly_positive():
    m = _measurement(1, 20, tc=1e-6, td=1e-6)
    assert compression_ratio(m) > 0
    assert compression_speed(m) > 0
    assert decompression_speed(m) > 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"original": -1, "compressed": 20},
        {"original": 10, "compressed": 19},
        {"original": 10, "compressed": 20, "tc": 0.0},
        {"original": 10, "compressed": 20, "td": -1.0},
        {"original": 10, "compressed": 20, "reps": 0},
        {"original": 10.0, "compressed": 20},
        {"original": 10, "compressed": "20"},
        {"original": 10, "compressed": 20, "tc": True},
        {"original": 10, "compressed": 20, "td": "1.0"},
        {"original": 10, "compressed": 20, "reps": True},
        {"original": 0, "compressed": 20},
    ],
)
def test_measurement_validation(kwargs):
    with pytest.raises(ValueError):
        _measurement(**kwargs)
