"""Command-line interface: compress, decompress, bench, report.

Exit codes: 0 on success, 1 for runtime/IO/integrity failures, 2 for usage
errors (click's convention, kept deliberately).
"""
from __future__ import annotations

import json
from pathlib import Path

import click

from . import __version__
from .bench import (
    BenchConfig,
    BenchRow,
    rank_by_dataset,
    read_measurements,
    run_bench,
    write_analysis_reports,
    write_reports,
)
from .errors import HybcError
from .metrics import DsBasis, compression_ratio
from .pipeline import (
    FILE_EXTENSION,
    PipelineSpec,
    compress_pipeline,
    decompress_pipeline,
    pipeline_from_name,
)
from .report import FORMATS, environment_metadata
from .scoring import Weights


def _parse_pipeline(name: str) -> PipelineSpec:
    try:
        return pipeline_from_name(name)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _parse_weights(text: str) -> Weights:
    parts = text.split(",")
    if len(parts) != 3:
        raise click.UsageError('weights must be three comma-separated numbers, e.g. "0.4,0.3,0.3"')
    try:
        return Weights(*(float(p) for p in parts))
    except ValueError as exc:
        raise click.UsageError(f"bad weights {text!r}: {exc}") from exc


def _parse_formats(text: str) -> tuple[str, ...]:
    formats = tuple(p.strip().lower() for p in text.split(",") if p.strip())
    unknown = set(formats) - set(FORMATS)
    if not formats or unknown:
        raise click.UsageError(
            f"--format takes a comma-separated subset of {', '.join(FORMATS)}"
        )
    return formats


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise click.ClickException(f"cannot read {path}: {exc}") from exc


def _write_bytes(path: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc}") from exc


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="hybc")
def main() -> None:
    """Chained lossless compression with a self-describing container, plus a
    benchmark harness that ranks all 25 codec pipelines."""


@main.command()
@click.argument("input_path", metavar="INPUT")
@click.argument("output_path", metavar="OUTPUT")
@click.option(
    "--pipeline", "-p", "pipeline_name", required=True,
    help='Codec chain to apply, e.g. "Zstd+LZ4HC" or "LZMA".',
)
def compress(input_path: str, output_path: str, pipeline_name: str) -> None:
    """Compress INPUT into a self-describing container at OUTPUT."""
    spec = _parse_pipeline(pipeline_name)
    data = _read_bytes(input_path)
    try:
        container = compress_pipeline(spec, data)
    except HybcError as exc:
        raise click.ClickException(str(exc)) from exc
    _write_bytes(output_path, container)
    ratio = len(data) / len(container)
    click.echo(f"pipeline:   {spec.display_name}")
    click.echo(f"original:   {len(data)} bytes")
    click.echo(f"compressed: {len(container)} bytes ({FILE_EXTENSION} container)")
    click.echo(f"ratio:      {ratio:.4f}")


@main.command()
@click.argument("input_path", metavar="INPUT")
@click.argument("output_path", metavar="OUTPUT")
def decompress(input_path: str, output_path: str) -> None:
    """Restore the original bytes from a container; the header alone names
    the codec chain, so no pipeline argument is needed."""
    container = _read_bytes(input_path)
    try:
        data = decompress_pipeline(container)
    except HybcError as exc:
        raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc
    _write_bytes(output_path, data)
    click.echo(f"restored {len(data)} bytes (integrity verified)")


def _echo_row(row: BenchRow) -> None:
    if row.error is not None:
        click.echo(f"  {row.dataset} | {row.pipeline.display_name}: ERROR {row.error}")
    else:
        m = row.measurement
        click.echo(
            f"  {row.dataset} | {row.pipeline.display_name}: "
            f"CR {compression_ratio(m):.2f}, "
            f"{m.compress_seconds * 1000:.1f} ms compress (median of {m.repetitions})"
        )


def _parsed(parse):
    return lambda ctx, param, value: parse(value)


def _report_options(command):
    """The options shared by `bench` and `report`, passed in parsed form."""
    options = [
        click.option("--weights", callback=_parsed(_parse_weights), default="0.4,0.3,0.3",
                     show_default=True, help="Efficiency weights as cr,cs,ds (must sum to 1)."),
        click.option("--ds-basis", type=click.Choice([b.value for b in DsBasis]),
                     callback=_parsed(DsBasis), default=DsBasis.COMPRESSED.value,
                     show_default=True, help="Size basis for decompression speed."),
        click.option("--out", "out_dir", default="hybc-reports", show_default=True,
                     help="Directory for report files."),
        click.option("--format", "formats", callback=_parsed(_parse_formats),
                     default="csv,json,md,svg", show_default=True,
                     help="Report formats to write."),
        click.option("--head-to-head", callback=_parsed(_parse_pipeline),
                     default="Zstd+LZ4HC", show_default=True,
                     help="Pipeline compared against the five standalone codecs."),
    ]
    for option in reversed(options):
        command = option(command)
    return command


@main.command()
@click.argument("inputs", metavar="INPUTS...", nargs=-1, required=True)
@click.option("--pipelines", default="all", show_default=True,
              help='Comma-separated chains to run, or "all" for the full 25.')
@click.option("--reps", default=5, show_default=True, help="Timed repetitions per phase.")
@_report_options
def bench(inputs, pipelines, reps, weights, ds_basis, out_dir, formats, head_to_head) -> None:
    """Benchmark every input x pipeline cell and write ranked reports."""
    specs = None
    if pipelines.strip().lower() != "all":
        specs = [_parse_pipeline(p) for p in pipelines.split(",") if p.strip()]
        if not specs:
            raise click.UsageError("--pipelines received an empty list")
    config = BenchConfig(
        inputs=[Path(p) for p in inputs],
        pipelines=specs,
        repetitions=reps,
        weights=weights,
        ds_basis=ds_basis,
        output_dir=Path(out_dir),
        formats=formats,
        head_to_head=head_to_head,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.ClickException(f"cannot create {out_dir}: {exc}") from exc
    click.echo(f"benchmarking {len(inputs)} input(s), reps={reps}")
    result = run_bench(config, progress=_echo_row)
    try:
        written = write_reports(result, config)
    except OSError as exc:
        raise click.ClickException(f"cannot write reports: {exc}") from exc
    click.echo(f"wrote {len(written)} report file(s) to {config.output_dir}")
    failed = result.failed_rows
    if failed:
        raise click.ClickException(f"{len(failed)} of {len(result.rows)} runs failed")


@main.command()
@click.argument("measurements_file", metavar="MEASUREMENTS_JSON")
@_report_options
def report(measurements_file, weights, ds_basis, out_dir, formats, head_to_head) -> None:
    """Re-rank saved measurements and re-emit analysis reports, optionally
    with different weights or speed basis, without re-benchmarking."""
    raw = _read_bytes(measurements_file)
    try:
        measurements = read_measurements(json.loads(raw))
        rankings = rank_by_dataset(measurements, weights, ds_basis)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise click.ClickException(f"bad measurements file: {exc}") from exc
    if not measurements:
        raise click.ClickException("measurements file holds no successful rows")
    if not rankings:
        raise click.ClickException("no dataset has the 2+ rows needed for ranking")
    metadata = environment_metadata(ds_basis=ds_basis, weights=weights)
    try:
        written = write_analysis_reports(
            rankings, Path(out_dir), formats, weights, head_to_head, metadata
        )
    except OSError as exc:
        raise click.ClickException(f"cannot write reports: {exc}") from exc
    click.echo(f"wrote {len(written)} report file(s) to {out_dir}")


if __name__ == "__main__":
    main()
