"""The traced run: per-layer numbers for ``run.py --trace 1``.

Two kinds of measurement, both from outside the program:

* Direct timings of each layer's public functions on the Medium corpus:
  the benchmark's own one-shot ctypes floor call, then ``hybc._native``,
  ``compress_one``/``decompress_one`` and ``compress_pipeline``/
  ``decompress_pipeline``.
* Spans. ``Tracer.installed`` swaps span-recording wrappers onto the names
  each layer uses to call the next (``hybc.cli.run_bench``,
  ``hybc.bench.measure``, ``hybc.pipeline.decompress_one``, the functions of
  ``hybc._native`` and so on), runs ``hybc bench`` and the cli-large
  sequence in-process through ``hybc.cli.main``, and restores the originals.
  A layer's self time is its span's duration minus its child spans.

Spans stay in memory and are written to one JSON file when the run ends.
"""
from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import io
import itertools
import json
import statistics
import time
import zlib
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import click

from hybc import (
    CodecId, HybcError, _native, bench, cli, codec_params, compress_one,
    compress_pipeline, decompress_one, decompress_pipeline, metrics, pipeline,
    pipeline_from_name,
)

import plan

clock = time.perf_counter

BENCH_PASSES = 3
NATIVE_FUNCS = (
    "zstd_compress", "zstd_decompress", "brotli_compress", "brotli_decompress",
    "lz4hc_compress_block", "lz4_decompress_block",
)
# Which single-codec chain each native library's floor is compared against.
LIBRARY_CODEC = {"zstd": CodecId.ZSTD, "brotli": CodecId.BROTLI, "lz4": CodecId.LZ4HC}
# Encodes slower than about 0.1 s on Medium get fewer repetitions.
SLOW_ENCODE = (CodecId.LZMA, CodecId.BZIP2)


def timed(fn: Callable, reps: int, warmup: bool = True):
    """Median wall time of ``reps`` calls, and the last call's result."""
    out = fn() if warmup else None
    times = []
    for _ in range(reps):
        t0 = clock()
        out = fn()
        times.append(clock() - t0)
    return statistics.median(times), out


def iqr_rel(samples: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2


# ---------------------------------------------------------------------------
# Floor: one-shot library decode into a preallocated buffer


def _cdll(soname: str, stem: str) -> ctypes.CDLL:
    try:
        return ctypes.CDLL(soname)
    except OSError:
        found = ctypes.util.find_library(stem)
        if not found:
            raise
        return ctypes.CDLL(found)


class Floor:
    """The codec-only base: ZSTD_decompress, BrotliDecoderDecompress and
    LZ4_decompress_safe, each writing into a buffer allocated once."""

    def __init__(self, decoded_len: int):
        self.n = decoded_len
        self.dst = ctypes.create_string_buffer(decoded_len)
        zstd = _cdll("libzstd.so.1", "zstd")
        zstd.ZSTD_decompress.restype = ctypes.c_size_t
        zstd.ZSTD_decompress.argtypes = [
            ctypes.c_void_p, ctypes.c_size_t, ctypes.c_char_p, ctypes.c_size_t,
        ]
        zstd.ZSTD_isError.restype = ctypes.c_uint
        zstd.ZSTD_isError.argtypes = [ctypes.c_size_t]
        brotli = _cdll("libbrotlidec.so.1", "brotlidec")
        brotli.BrotliDecoderDecompress.restype = ctypes.c_int
        brotli.BrotliDecoderDecompress.argtypes = [
            ctypes.c_size_t, ctypes.c_char_p, ctypes.POINTER(ctypes.c_size_t), ctypes.c_void_p,
        ]
        lz4 = _cdll("liblz4.so.1", "lz4")
        lz4.LZ4_decompress_safe.restype = ctypes.c_int
        lz4.LZ4_decompress_safe.argtypes = [
            ctypes.c_char_p, ctypes.c_void_p, ctypes.c_int, ctypes.c_int,
        ]
        self._zstd, self._brotli, self._lz4 = zstd, brotli, lz4
        self._brotli_size = ctypes.c_size_t()

    def zstd(self, stream: bytes) -> None:
        got = self._zstd.ZSTD_decompress(self.dst, self.n, stream, len(stream))
        if self._zstd.ZSTD_isError(got) or got != self.n:
            raise RuntimeError(f"ZSTD_decompress returned {got}")

    def brotli(self, stream: bytes) -> None:
        self._brotli_size.value = self.n
        ok = self._brotli.BrotliDecoderDecompress(
            len(stream), stream, ctypes.byref(self._brotli_size), self.dst
        )
        if ok != 1 or self._brotli_size.value != self.n:
            raise RuntimeError(f"BrotliDecoderDecompress returned {ok}")

    def lz4(self, block: bytes) -> None:
        got = self._lz4.LZ4_decompress_safe(block, self.dst, len(block), self.n)
        if got != self.n:
            raise RuntimeError(f"LZ4_decompress_safe returned {got}")

    def output(self) -> bytes:
        return ctypes.string_at(self.dst, self.n)


# ---------------------------------------------------------------------------
# Direct layer timings


def layer_timings(medium: bytes, hostile: dict[str, bytes], check: Callable) -> dict:
    out: dict[str, float] = {}
    streams: dict[CodecId, bytes] = {}
    for codec in CodecId:
        name = codec.canonical_name
        slow = codec in SLOW_ENCODE
        out[f"codecs.{name}.encode_s"], streams[codec] = timed(
            lambda: compress_one(codec, medium), 3 if slow else 7, warmup=not slow
        )
        out[f"codecs.{name}.decode_s"], restored = timed(
            lambda: decompress_one(codec, streams[codec]), 5 if slow else 21
        )
        check(restored == medium, f"decompress_one {name}")

    zstd, brotli, lz4 = streams[CodecId.ZSTD], streams[CodecId.BROTLI], streams[CodecId.LZ4HC]
    lz4_block = lz4[8:]  # hybc's LZ4HC stream: 8-byte length prefix, then one raw block
    zstd_level = codec_params(CodecId.ZSTD).level
    brotli_cfg = codec_params(CodecId.BROTLI)
    lz4_level = codec_params(CodecId.LZ4HC).level
    native = {
        "zstd": (lambda: _native.zstd_compress(medium, zstd_level),
                 lambda: _native.zstd_decompress(zstd)),
        "brotli": (lambda: _native.brotli_compress(medium, brotli_cfg.level, brotli_cfg.window_log),
                   lambda: _native.brotli_decompress(brotli)),
        "lz4": (lambda: _native.lz4hc_compress_block(medium, lz4_level),
                lambda: _native.lz4_decompress_block(lz4_block, len(medium))),
    }
    floor = Floor(len(medium))
    floor_calls = {
        "zstd": lambda: floor.zstd(zstd),
        "brotli": lambda: floor.brotli(brotli),
        "lz4": lambda: floor.lz4(lz4_block),
    }
    for lib, (encode, decode) in native.items():
        out[f"native.{lib}.encode_s"], _ = timed(encode, 7)
        out[f"native.{lib}.decode_s"], restored = timed(decode, 21)
        check(restored == medium, f"_native {lib} decode")
        floor.dst.raw = bytes(len(medium))
        out[f"native.{lib}.floor_decode_s"], _ = timed(floor_calls[lib], 21)
        check(floor.output() == medium, f"floor {lib} decode")

    for name in plan.API_PIPELINES:
        spec = pipeline_from_name(name)
        key = f"pipeline.{name.replace('+', '-')}"
        out[f"{key}.encode_s"], container = timed(lambda: compress_pipeline(spec, medium), 5)
        out[f"{key}.decode_s"], restored = timed(lambda: decompress_pipeline(container), 21)
        check(restored == medium, f"decompress_pipeline {name}")
    out["pipeline.crc32_s"], _ = timed(lambda: zlib.crc32(medium), 51)
    for lib, codec in LIBRARY_CODEC.items():
        single = out[f"pipeline.{codec.canonical_name}.decode_s"]
        out[f"pipeline.decode_overhead.{lib}"] = single / out[f"native.{lib}.floor_decode_s"] - 1

    def reject(blob: bytes) -> str:
        try:
            decompress_pipeline(blob)
        except HybcError as exc:
            return type(exc).__name__
        return "accepted"

    for kind, blob in hostile.items():
        out[f"pipeline.reject_s.{kind}"], verdict = timed(lambda: reject(blob), 5)
        check(verdict != "accepted", f"hostile {kind} container accepted")
    return out


# ---------------------------------------------------------------------------
# Spans


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder. Spans opened while another is open become its
    children; every span carries the ID of the operation it belongs to."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._op = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self._op)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                self._open.pop()
        return traced

    def operation(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn as the root span of a new operation."""
        self._op += 1
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self, targets: list[tuple[object, str, str, Callable | None]]):
        """Replace module attributes with traced versions for the duration."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        try:
            for mod, attr, name, replacement in targets:
                setattr(mod, attr, self.wrap(name, replacement or getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child_time)]

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


class SampleRecorder:
    """Stands in for ``hybc.bench.measure`` and passes a recording ``clock=``
    into the real ``measure()``, so every per-rep sample is kept."""

    def __init__(self):
        self.cells: list[tuple[str, list[float]]] = []

    def measure(self, spec, data, repetitions, **kwargs):
        readings: list[float] = []

        def recording_clock() -> float:
            t = clock()
            readings.append(t)
            return t

        self.cells.append((spec.display_name, readings))
        return metrics.measure(spec, data, repetitions, clock=recording_clock, **kwargs)


def span_targets(recorder: SampleRecorder) -> list[tuple[object, str, str, Callable | None]]:
    targets = [
        (cli, "run_bench", "bench.run_bench", None),
        (cli, "write_reports", "bench.write_reports", None),
        (cli, "compress_pipeline", "pipeline.compress_pipeline", None),
        (cli, "decompress_pipeline", "pipeline.decompress_pipeline", None),
        (bench, "load_dataset", "corpus.load_dataset", None),
        (bench, "measure", "metrics.measure", recorder.measure),
        (bench, "rank_pipelines", "scoring.rank_pipelines", None),
        (metrics, "compress_pipeline", "pipeline.compress_pipeline", None),
        (metrics, "decompress_pipeline", "pipeline.decompress_pipeline", None),
        (pipeline, "compress_one", "codecs.compress_one", None),
        (pipeline, "decompress_one", "codecs.decompress_one", None),
    ]
    targets += [(bench, f, f"report.{f}", None) for f in dir(bench) if f.startswith("emit_")]
    targets += [(_native, f, f"_native.{f}", None) for f in NATIVE_FUNCS]
    return targets


def run_main(argv: list[str]) -> None:
    """``hybc ARGV`` in-process, with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main([str(a) for a in argv], standalone_mode=False)


def kendall_tau(a: list[str], b: list[str]) -> float:
    pos = {name: i for i, name in enumerate(b)}
    score = 0
    for x, y in itertools.combinations(a, 2):
        score += 1 if pos[x] < pos[y] else -1
    return score / (len(a) * (len(a) - 1) / 2)


def bench_passes(tracer: Tracer, recorder: SampleRecorder, small: Path, work: Path,
                 check: Callable) -> tuple[dict, dict]:
    per_pass = defaultdict(list)
    rankings: list[list[tuple[str, float]]] = []
    noisy: list[tuple[float, str, str]] = []
    timed_total = measure_total = lzma_total = 0.0
    for k in range(BENCH_PASSES):
        outdir = work / f"trace-bench-{k}"
        recorder.cells.clear()
        first = len(tracer.spans)
        try:
            tracer.operation("cli.main", run_main, ["bench", small, "--out", outdir])
        except (click.ClickException, HybcError) as exc:
            check(False, f"traced bench pass {k}: {exc}")
            continue
        spans = tracer.spans[first:]
        selfs = tracer.self_times()[first:]
        by_name = defaultdict(list)
        for span, self_s in zip(spans, selfs):
            by_name[span.name].append((span, self_s))
        (run, run_self), = by_name["bench.run_bench"]
        cells = [span for span, _ in by_name["metrics.measure"]]
        per_pass["bench.run_s"].append(run.duration)
        per_pass["bench.self_s"].append(run_self)
        per_pass["bench.cells"].append(len(cells))
        per_pass["bench.cells_failed"].append(sum(1 for c in cells if c.error))
        per_pass["metrics.measure_s"].append(sum(c.duration for c in cells))
        per_pass["corpus.load_s"].append(sum(s.duration for s, _ in by_name["corpus.load_dataset"]))
        per_pass["scoring.rank_s"].append(sum(s.duration for s, _ in by_name["scoring.rank_pipelines"]))
        per_pass["report.write_s"].append(sum(s.duration for s, _ in by_name["bench.write_reports"]))
        files = [p for p in outdir.iterdir() if p.is_file()]
        per_pass["report.files"].append(len(files))
        per_pass["report.bytes"].append(sum(p.stat().st_size for p in files))

        for cell, (name, readings) in zip(cells, recorder.cells):
            compress = [b - a for a, b in zip(readings[0::4], readings[1::4])]
            decompress = [b - a for a, b in zip(readings[2::4], readings[3::4])]
            timed_total += sum(compress) + sum(decompress)
            measure_total += cell.duration
            if "LZMA" in name:
                lzma_total += cell.duration
            if len(compress) >= 2:
                noisy.append((iqr_rel(compress), "compress", name))
                noisy.append((iqr_rel(decompress), "decompress", name))

        ranking = plan.read_ranking(outdir / f"ranking_{small.stem}.csv")
        check(ranking is not None, f"traced bench pass {k}: ranking CSV malformed")
        if ranking:
            rankings.append(ranking)

    out = {name: statistics.median(values) for name, values in per_pass.items()}
    out["bench.cells_failed"] = sum(per_pass["bench.cells_failed"])
    out["metrics.timed_share"] = timed_total / measure_total
    out["metrics.lzma_share"] = lzma_total / measure_total
    for phase in ("compress", "decompress"):
        out[f"metrics.sample_iqr_rel.{phase}"] = max(v for v, p, _ in noisy if p == phase)
    orders = [[name for name, _ in r] for r in rankings]
    pairs = list(itertools.combinations(range(len(orders)), 2))
    out["scoring.rank_tau"] = statistics.mean(kendall_tau(orders[i], orders[j]) for i, j in pairs)
    out["scoring.top3_agree"] = statistics.mean(
        float(set(orders[i][:3]) == set(orders[j][:3])) for i, j in pairs
    )
    out["scoring.min_top10_gap"] = min(
        min(a[1] - b[1] for a, b in zip(r[:10], r[1:10])) for r in rankings
    )
    details = {
        "top3_per_pass": [o[:3] for o in orders],
        "noisiest_cells": [
            {"iqr_rel": v, "phase": p, "pipeline": n} for v, p, n in sorted(noisy, reverse=True)[:5]
        ],
    }
    return out, details


def cli_sequence(work: Path) -> list[tuple[str, list, str | None]]:
    """The cli-large operations in order, (kind, argv, hostile kind), on the
    inputs in work."""
    ops: list[tuple[str, list, str | None]] = []
    large = work / "large.txt"
    for i, name in enumerate(plan.CLI_PIPELINES):
        container = work / f"trace-cli-{i}.hybc"
        ops.append(("compress", ["compress", "-p", name, large, container], None))
        ops.append(("decompress", ["decompress", container, work / "trace-restored.txt"], None))
        if i < len(plan.HOSTILE):
            kind = plan.HOSTILE[i]
            ops.append(("reject", ["decompress", work / f"{kind}.hybc", work / "trace-junk"], kind))
    return ops


def run_cli(ops, large: bytes, restored: Path, check: Callable,
            tracer: Tracer | None = None) -> list[float]:
    """Run the sequence in-process and return the wall time of each op."""
    times = []
    for kind, argv, hostile in ops:
        t0 = clock()
        try:
            if tracer is None:
                run_main(argv)
            else:
                tracer.operation("cli.main", run_main, argv)
            error = None
        except click.ClickException as exc:
            error = exc
        times.append(clock() - t0)
        if kind == "reject":
            check(error is not None and error.exit_code == 1, f"hostile {hostile} not rejected")
        else:
            check(error is None, f"cli {argv[:3]}: {error}")
            if kind == "decompress":
                check(restored.read_bytes() == large, "cli decompress: bytes differ")
    return times


def api_decode_seconds(containers: list[bytes], reps: int) -> float:
    t0 = clock()
    for container in containers:
        for _ in range(reps):
            decompress_pipeline(container)
    return clock() - t0


def traced_run(inputs: Path, spans_path: Path, import_s: float) -> dict:
    ledger = plan.Ledger()
    check = ledger.check
    medium = (inputs / "medium.txt").read_bytes()
    large = (inputs / "large.txt").read_bytes()
    hostile = {kind: (inputs / f"{kind}.hybc").read_bytes() for kind in plan.HOSTILE}
    result = layer_timings(medium, hostile, check)
    result["cli.import_s"] = import_s

    tracer = Tracer()
    recorder = SampleRecorder()
    targets = span_targets(recorder)
    with tracer.installed(targets):
        bench_metrics, details = bench_passes(tracer, recorder, inputs / "small.txt", inputs, check)
    result.update(bench_metrics)

    ops = cli_sequence(inputs)
    restored = inputs / "trace-restored.txt"
    run_cli(ops, large, restored, check)  # warm-up: creates every output file
    first = len(tracer.spans)
    with tracer.installed(targets):
        traced = run_cli(ops, large, restored, check, tracer)
    untraced = run_cli(ops, large, restored, check)
    selfs = tracer.self_times()
    result["cli.self_s"] = statistics.median(
        selfs[i] for i in range(first, len(tracer.spans))
        if tracer.spans[i].parent is None and not tracer.spans[i].error
    )
    result["trace.overhead.cli"] = sum(traced) / sum(untraced) - 1

    containers = [compress_pipeline(pipeline_from_name(n), medium) for n in plan.API_PIPELINES]
    reps = plan.API_DECODES_PER_ROUND
    api_decode_seconds(containers, reps)
    plain = [api_decode_seconds(containers, reps)]
    with tracer.installed(targets):
        with_spans = [api_decode_seconds(containers, reps)]
    plain.append(api_decode_seconds(containers, reps))
    with tracer.installed(targets):
        with_spans.append(api_decode_seconds(containers, reps))
    result["trace.overhead.api_decode"] = sum(with_spans) / sum(plain) - 1

    tracer.dump(spans_path)
    details["spans"] = len(tracer.spans)
    ledger.errors = ledger.errors[:20]
    return {**vars(ledger), "metrics": result, "details": details}
