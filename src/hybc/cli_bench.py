"""The `bench` and `report` commands. hybc.cli's group imports this module
only when one of them is looked up, and this module imports the bench stack
at the top, so that lookup is where the stack loads. `bench` calls run_bench
and write_reports as attributes of hybc.cli, so that a name replaced there is
the one it runs.
"""
from __future__ import annotations

from dataclasses import astuple
from pathlib import Path

import click

from . import bench as bench_module
from . import cli
from .cli import _parse_pipeline, _read_bytes
from .errors import MixedCohort
from .metrics import DsBasis, compression_ratio
from .pipeline import enumerate_pipelines
from .report import FORMATS
from .scoring import DEFAULT_WEIGHTS, Weights


def _parse_weights(text: str) -> Weights:
    parts = text.split(",")
    if len(parts) != 3:
        raise click.UsageError('weights must be three comma-separated numbers, e.g. "0.4,0.3,0.3"')
    try:
        return Weights(*(float(p) for p in parts))
    except ValueError as exc:
        raise click.UsageError(f"bad weights {text!r}: {exc}") from exc


def _parse_formats(text: str) -> tuple[str, ...]:
    formats = tuple(dict.fromkeys(p.strip().lower() for p in text.split(",") if p.strip()))
    unknown = set(formats) - set(FORMATS)
    if not formats or unknown:
        raise click.UsageError(
            f"--format takes a comma-separated subset of {', '.join(FORMATS)}"
        )
    return formats


def _echo_row(row: bench_module.BenchRow) -> None:
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
        click.option("--weights", callback=_parsed(_parse_weights),
                     default=",".join(map(str, astuple(DEFAULT_WEIGHTS))), show_default=True,
                     help="Efficiency weights as cr,cs,ds (must sum to 1)."),
        click.option("--ds-basis", type=click.Choice([b.value for b in DsBasis]),
                     callback=_parsed(DsBasis), default=DsBasis.COMPRESSED.value,
                     show_default=True, help="Size basis for decompression speed."),
        click.option("--out", "out_dir", default="hybc-reports", show_default=True,
                     help="Directory for report files."),
        click.option("--format", "formats", callback=_parsed(_parse_formats),
                     default=",".join(FORMATS), show_default=True,
                     help="Report formats to write."),
        click.option("--head-to-head", callback=_parsed(_parse_pipeline),
                     default="Zstd+LZ4HC", show_default=True,
                     help="Pipeline compared against the five standalone codecs."),
    ]
    for option in reversed(options):
        command = option(command)
    return command


@click.command()
@click.argument("inputs", metavar="INPUTS...", nargs=-1, required=True)
@click.option("--pipelines", default="all", show_default=True,
              help='Comma-separated chains to run, or "all" for the full 25.')
@click.option("--reps", default=5, show_default=True, help="Timed repetitions per phase.")
@_report_options
def bench(inputs, pipelines, reps, weights, ds_basis, out_dir, formats, head_to_head) -> None:
    """Benchmark every input x pipeline cell and write ranked reports."""
    specs = enumerate_pipelines()
    if pipelines.strip().lower() != "all":
        specs = [_parse_pipeline(p) for p in pipelines.split(",") if p.strip()]
        if not specs:
            raise click.UsageError("--pipelines received an empty list")
        for i, spec in enumerate(specs):
            if spec in specs[:i]:
                raise click.UsageError(f"--pipelines names {spec.display_name} twice")
    if reps < 1:
        raise click.UsageError("repetitions must be >= 1")
    outdir = Path(out_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.ClickException(f"cannot create {out_dir}: {exc}") from exc
    click.echo(f"benchmarking {len(inputs)} input(s), reps={reps}")
    rows = cli.run_bench([Path(p) for p in inputs], specs, reps, progress=_echo_row)
    try:
        written = cli.write_reports(rows, outdir, formats, weights, ds_basis, head_to_head, reps)
    except OSError as exc:
        raise click.ClickException(f"cannot write reports: {exc}") from exc
    click.echo(f"wrote {len(written)} report file(s) to {outdir}")
    failed = [row for row in rows if row.error is not None]
    if failed:
        raise click.ClickException(f"{len(failed)} of {len(rows)} runs failed")


@click.command()
@click.argument("measurements_file", metavar="MEASUREMENTS_JSON")
@_report_options
def report(measurements_file, weights, ds_basis, out_dir, formats, head_to_head) -> None:
    """Re-rank saved measurements and re-emit analysis reports, optionally
    with different weights or speed basis, without re-benchmarking."""
    raw = _read_bytes(measurements_file)
    try:
        measurements, environment = bench_module.read_measurements(raw)
        rankings = bench_module.rank_by_dataset(measurements, weights, ds_basis)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError, MixedCohort) as exc:
        raise click.ClickException(f"bad measurements file: {exc}") from exc
    if not measurements:
        raise click.ClickException("measurements file holds no successful rows")
    if not rankings:
        raise click.ClickException("no dataset has the 2+ rows needed for ranking")
    metadata = {**environment, **bench_module.run_settings(ds_basis, weights)}
    try:
        written = bench_module.write_analysis_reports(
            rankings, Path(out_dir), formats, weights, head_to_head, metadata
        )
    except OSError as exc:
        raise click.ClickException(f"cannot write reports: {exc}") from exc
    click.echo(f"wrote {len(written)} report file(s) to {out_dir}")
