"""Benchmark orchestration: measure every input x pipeline cell, rank each
dataset's cohort, and write the report files.

A failing cell never aborts the run; it becomes an error row and the overall
result is marked unsuccessful. Measurements are serialized by the metrics
lock, so a bench is single-flight by construction.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .codecs import CodecId
from .corpus import DatasetDescriptor, load_dataset
from .errors import HybcError
from .metrics import (
    DsBasis,
    Measurement,
    compression_ratio,
    compression_speed,
    decompression_speed,
    measure,
)
from .pipeline import PipelineSpec, enumerate_pipelines, pipeline_from_name
from .report import (
    FORMATS,
    Table,
    balance_report,
    environment_metadata,
    frequency_report,
    ranking_report,
    render,
)
from .scoring import (
    DEFAULT_WEIGHTS,
    EfficiencyRow,
    Weights,
    balance_table,
    component_frequency,
    rank_pipelines,
)

FREQUENCY_TOP_K = 10

_DEFAULT_HEAD_TO_HEAD = PipelineSpec(CodecId.ZSTD, CodecId.LZ4HC)

# Dataset names become parts of report file names, so they are restricted to
# these characters.
_DATASET_CHARS = "A-Za-z0-9._-"


@dataclass
class BenchConfig:
    inputs: Sequence[Path]
    pipelines: Sequence[PipelineSpec] | None = None  # None means all 25
    repetitions: int = 5
    weights: Weights = DEFAULT_WEIGHTS
    ds_basis: DsBasis = DsBasis.COMPRESSED
    output_dir: Path = Path("hybc-reports")
    formats: Sequence[str] = FORMATS
    head_to_head: PipelineSpec | None = _DEFAULT_HEAD_TO_HEAD

    def validate(self) -> None:
        if not self.inputs:
            raise ValueError("at least one input file is required")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.formats:
            raise ValueError("at least one report format is required")
        unknown = set(self.formats) - set(FORMATS)
        if unknown:
            raise ValueError(f"unknown formats: {', '.join(sorted(unknown))}")


@dataclass
class BenchRow:
    dataset: str
    pipeline: PipelineSpec
    descriptor: DatasetDescriptor | None = None
    measurement: Measurement | None = None
    error: str | None = None


@dataclass
class BenchResult:
    rows: list[BenchRow] = field(default_factory=list)
    rankings: dict[str, list[EfficiencyRow]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(row.error is None for row in self.rows)

    @property
    def failed_rows(self) -> list[BenchRow]:
        return [row for row in self.rows if row.error is not None]


def _dataset_names(paths: Sequence[Path]) -> list[str]:
    names: list[str] = []
    for path in paths:
        base = re.sub(f"[^{_DATASET_CHARS}]", "_", Path(path).stem) or "dataset"
        name = base
        i = 2
        while name in names:
            name = f"{base}_{i}"
            i += 1
        names.append(name)
    return names


def run_bench(
    config: BenchConfig,
    progress: Callable[[BenchRow], None] | None = None,
) -> BenchResult:
    """Measure every input x pipeline combination and rank per dataset."""
    config.validate()
    specs = list(config.pipelines) if config.pipelines else enumerate_pipelines()
    result = BenchResult()

    def add(row: BenchRow) -> None:
        result.rows.append(row)
        if progress:
            progress(row)

    for name, path in zip(_dataset_names(config.inputs), config.inputs):
        try:
            descriptor, data = load_dataset(path)
        except (OSError, HybcError) as exc:
            for spec in specs:
                add(BenchRow(dataset=name, pipeline=spec, error=str(exc)))
            continue
        for spec in specs:
            row = BenchRow(dataset=name, pipeline=spec, descriptor=descriptor)
            try:
                row.measurement = measure(spec, data, config.repetitions, dataset=name)
            except (HybcError, ValueError) as exc:
                row.error = str(exc)
            add(row)
    ok = [row.measurement for row in result.rows if row.measurement is not None]
    result.rankings = rank_by_dataset(ok, config.weights, config.ds_basis)
    return result


def rank_by_dataset(
    measurements: Sequence[Measurement], weights: Weights, ds_basis: DsBasis
) -> dict[str, list[EfficiencyRow]]:
    """Rank each dataset's cohort; a dataset with fewer than 2 rows is skipped."""
    by_dataset: dict[str, list[Measurement]] = {}
    for m in measurements:
        by_dataset.setdefault(m.dataset, []).append(m)
    return {name: rank_pipelines(rows, weights, ds_basis)
            for name, rows in by_dataset.items() if len(rows) >= 2}


# ---------------------------------------------------------------------------
# The measurements file: one record per input x pipeline cell, errors kept

MEASUREMENT_COLUMNS = [
    "dataset", "size_class", "pipeline", "status",
    "original_bytes", "compressed_bytes",
    "compress_seconds", "decompress_seconds", "repetitions",
    "cr", "cs_mb_s", "ds_mb_s", "error",
]


def measurements_report(rows: Sequence[BenchRow], ds_basis: DsBasis) -> Table:
    """Every bench row, failed cells blank but kept; CSV and JSON only."""
    records = []
    for row in rows:
        m = row.measurement
        measured = [""] * 8 if m is None else [
            m.original_bytes, m.compressed_bytes, m.compress_seconds, m.decompress_seconds,
            m.repetitions, compression_ratio(m), compression_speed(m),
            decompression_speed(m, ds_basis),
        ]
        records.append([row.dataset, row.descriptor.size_class.label if row.descriptor else "",
                        row.pipeline.display_name, "ok" if row.error is None else "error",
                        *measured, row.error or ""])
    return Table(MEASUREMENT_COLUMNS, records)


def read_measurements(doc: dict) -> list[Measurement]:
    """The successful rows of a measurements JSON document. The document comes
    from outside, so a malformed row raises ValueError, KeyError or TypeError."""
    measurements = []
    for row in doc["rows"]:
        if not isinstance(row, dict):
            raise TypeError(f"row {row!r} is not an object")
        if row.get("status") != "ok":
            continue
        if not isinstance(row["pipeline"], str):
            raise TypeError(f"pipeline {row['pipeline']!r} is not a string")
        if not re.fullmatch(f"[{_DATASET_CHARS}]+", row["dataset"]):
            raise ValueError(f"dataset name {row['dataset']!r} is not made of {_DATASET_CHARS}")
        measurements.append(Measurement(
            pipeline=pipeline_from_name(row["pipeline"]),
            dataset=row["dataset"],
            original_bytes=int(row["original_bytes"]),
            compressed_bytes=int(row["compressed_bytes"]),
            compress_seconds=float(row["compress_seconds"]),
            decompress_seconds=float(row["decompress_seconds"]),
            repetitions=int(row["repetitions"]),
        ))
    return measurements


# ---------------------------------------------------------------------------
# Report writing

def write_reports(result: BenchResult, config: BenchConfig) -> list[Path]:
    """Write measurement tables plus all analysis reports; returns the paths."""
    outdir = Path(config.output_dir)
    metadata = environment_metadata(
        repetitions=config.repetitions, ds_basis=config.ds_basis, weights=config.weights
    )
    written = _write(outdir, "measurements", measurements_report(result.rows, config.ds_basis),
                     [fmt for fmt in ("csv", "json") if fmt in config.formats], metadata)
    return written + write_analysis_reports(
        result.rankings, outdir, config.formats, config.weights, config.head_to_head, metadata
    )


def write_analysis_reports(
    rankings: dict[str, list[EfficiencyRow]], outdir: Path, formats: Sequence[str],
    weights: Weights, head_to_head: PipelineSpec | None, metadata: dict,
) -> list[Path]:
    """Ranking, head-to-head, balance, and frequency files per requested format."""
    tables: list[tuple[str, Table]] = []
    for dataset, rows in rankings.items():
        tables.append((f"ranking_{dataset}", ranking_report(rows, weights)))
        duel = _head_to_head_rows(rows, head_to_head)
        if duel:
            tables.append((f"head_to_head_{dataset}", ranking_report(duel, weights)))
        tables.append((f"balance_{dataset}", balance_report(balance_table(rows))))
    if rankings:
        all_rows = [row for rows in rankings.values() for row in rows]
        counts = component_frequency(all_rows, k=FREQUENCY_TOP_K)
        total = sum(min(FREQUENCY_TOP_K, len(rows)) for rows in rankings.values())
        tables.append(("frequency", frequency_report(counts, total)))
    return [path for stem, table in tables
            for path in _write(outdir, stem, table, formats, metadata)]


def _write(outdir: Path, stem: str, table: Table, formats: Sequence[str],
           metadata: dict) -> list[Path]:
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / f"{stem}.{fmt}" for fmt in formats]
    for path, fmt in zip(paths, formats):
        path.write_bytes(render(table, fmt, metadata=metadata))
    return paths


def _head_to_head_rows(
    rows: Sequence[EfficiencyRow], challenger: PipelineSpec | None
) -> list[EfficiencyRow]:
    """The challenger plus every standalone codec, in ranking order."""
    if challenger is None:
        return []
    keep = {challenger.display_name} | {c.canonical_name for c in CodecId}
    return [r for r in rows if r.pipeline.display_name in keep]
