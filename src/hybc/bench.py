"""Benchmark orchestration: measure every input x pipeline cell, rank each
dataset's cohort, and write the report files.

A failing cell never aborts the run; it becomes an error row. Measurements
are serialized by the metrics lock, so a bench is single-flight by
construction.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .corpus import SizeClass, classify_size, load_dataset
from .errors import HybcError
from .metrics import (
    DsBasis,
    Measurement,
    compression_ratio,
    compression_speed,
    decompression_speed,
    measure,
)
from .pipeline import PipelineSpec, pipeline_from_name
from .report import (
    Table,
    balance_report,
    environment_metadata,
    frequency_report,
    ranking_report,
    render,
    run_settings,
)
from .scoring import EfficiencyRow, Weights, rank_pipelines

FREQUENCY_TOP_K = 10

# Dataset names become parts of report file names, so they are restricted to
# these characters.
_DATASET_CHARS = "A-Za-z0-9._-"


@dataclass
class BenchRow:
    dataset: str
    pipeline: PipelineSpec
    size_class: SizeClass | None = None  # None when the input could not be read
    measurement: Measurement | None = None
    error: str | None = None


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
    inputs: Sequence[Path],
    specs: Sequence[PipelineSpec],
    repetitions: int,
    progress: Callable[[BenchRow], None] | None = None,
) -> list[BenchRow]:
    """Measure every input x pipeline combination, one row per cell. Chains
    on one input that start with the same codec share that first stage,
    timed once."""
    rows: list[BenchRow] = []

    def add(row: BenchRow) -> None:
        rows.append(row)
        if progress:
            progress(row)

    for name, path in zip(_dataset_names(inputs), inputs):
        try:
            data = load_dataset(path)
        except (OSError, HybcError) as exc:
            for spec in specs:
                add(BenchRow(dataset=name, pipeline=spec, error=str(exc)))
            continue
        size_class = classify_size(len(data))
        stages: dict = {}
        for spec in specs:
            row = BenchRow(dataset=name, pipeline=spec, size_class=size_class)
            try:
                row.measurement = measure(spec, data, repetitions, dataset=name, stages=stages)
            except (HybcError, ValueError) as exc:
                row.error = str(exc)
            add(row)
    return rows


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

# The Measurement fields a row records, in column order; the three derived
# figures follow them.
_MEASURED_FIELDS = ("original_bytes", "compressed_bytes", "compress_seconds",
                    "decompress_seconds", "repetitions")
MEASUREMENT_COLUMNS = ["dataset", "size_class", "pipeline", "status", *_MEASURED_FIELDS,
                       "cr", "cs_mb_s", "ds_mb_s", "error"]


def measurements_report(rows: Sequence[BenchRow], ds_basis: DsBasis) -> Table:
    """Every bench row, failed cells blank but kept; CSV and JSON only."""
    records = []
    for row in rows:
        m = row.measurement
        measured = [""] * (len(_MEASURED_FIELDS) + 3) if m is None else [
            *(getattr(m, field) for field in _MEASURED_FIELDS),
            compression_ratio(m), compression_speed(m), decompression_speed(m, ds_basis),
        ]
        records.append([row.dataset, row.size_class.value if row.size_class else "",
                        row.pipeline.display_name, "ok" if row.error is None else "error",
                        *measured, row.error or ""])
    return Table(MEASUREMENT_COLUMNS, records)


def read_measurements(raw: bytes) -> tuple[list[Measurement], dict]:
    """The ok rows and the environment block of a measurements JSON file, only
    parsed: rank_pipelines judges the cohort. A malformed file or row, ok or
    error, raises ValueError, KeyError, TypeError or RecursionError."""
    doc = json.loads(raw)
    measurements: list[Measurement] = []
    for row in doc["rows"]:
        if not isinstance(row, dict):
            raise TypeError(f"row {row!r} is not an object")
        if not isinstance(row["pipeline"], str):
            raise TypeError(f"pipeline {row['pipeline']!r} is not a string")
        pipeline = pipeline_from_name(row["pipeline"])
        if not re.fullmatch(f"[{_DATASET_CHARS}]+", row["dataset"]):
            raise ValueError(f"dataset name {row['dataset']!r} is not made of {_DATASET_CHARS}")
        if row.get("status") == "error":
            continue
        if row.get("status") != "ok":
            raise ValueError(f"status {row.get('status')!r} is neither 'ok' nor 'error'")
        measurements.append(Measurement(pipeline=pipeline, dataset=row["dataset"],
                                        **{field: row[field] for field in _MEASURED_FIELDS}))
    # after the rows, so a non-object document fails on doc["rows"], not with an AttributeError
    environment = doc.get("environment", {})
    if not isinstance(environment, dict):
        raise TypeError(f"environment {environment!r} is not an object")
    return measurements, environment


# ---------------------------------------------------------------------------
# Report writing

def write_reports(
    rows: Sequence[BenchRow], outdir: Path, formats: Sequence[str], weights: Weights,
    ds_basis: DsBasis, head_to_head: PipelineSpec, repetitions: int,
) -> list[Path]:
    """Write the measurements plus every analysis report; returns the paths."""
    metadata = {**environment_metadata(repetitions=repetitions), **run_settings(ds_basis, weights)}
    written = _write(outdir, "measurements", measurements_report(rows, ds_basis),
                     [fmt for fmt in ("csv", "json") if fmt in formats], metadata)
    ok = [row.measurement for row in rows if row.measurement is not None]
    return written + write_analysis_reports(
        rank_by_dataset(ok, weights, ds_basis), outdir, formats, weights, head_to_head, metadata
    )


def write_analysis_reports(
    rankings: dict[str, list[EfficiencyRow]], outdir: Path, formats: Sequence[str],
    weights: Weights, head_to_head: PipelineSpec, metadata: dict,
) -> list[Path]:
    """Ranking, head-to-head, balance, and frequency files per requested format.
    The frequency file counts the codecs of each dataset's first
    FREQUENCY_TOP_K ranked rows; this is the only place that cut is made."""
    tables: list[tuple[str, Table]] = []
    for dataset, rows in rankings.items():
        tables.append((f"ranking_{dataset}", ranking_report(rows, weights)))
        duel = _head_to_head_rows(rows, head_to_head)
        if duel:
            tables.append((f"head_to_head_{dataset}", ranking_report(duel, weights)))
        tables.append((f"balance_{dataset}", balance_report(rows)))
    if rankings:
        top = [row for rows in rankings.values() for row in rows[:FREQUENCY_TOP_K]]
        tables.append(("frequency", frequency_report(top)))
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
    rows: Sequence[EfficiencyRow], challenger: PipelineSpec
) -> list[EfficiencyRow]:
    """The challenger plus every standalone codec, in ranking order; none when
    the challenger was not ranked."""
    if not any(r.pipeline == challenger for r in rows):
        return []
    return [r for r in rows if r.pipeline == challenger or not r.pipeline.is_hybrid]
