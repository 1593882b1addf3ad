"""Command-line interface: compress, decompress, bench, report.

Exit codes: 0 on success, 1 for runtime/IO/integrity failures, 2 for usage
errors (click's convention, kept deliberately).

`compress`, `decompress` and `--version` load only click, the codec and
container modules (`codecs`, `pipeline`) and this one. The `bench` and
`report` commands live in `hybc.cli_bench`, which the group imports when one
of them is looked up, and which loads the timing, bench, report and scoring
modules (and json, csv and statistics) with it.
"""
from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import click

from . import __version__
from .errors import HybcError
from .pipeline import (
    FILE_EXTENSION,
    PipelineSpec,
    compress_pipeline,
    decompress_pipeline,
    parse_header,
    pipeline_from_name,
)


def run_bench(*args, **kwargs) -> list:
    from .bench import run_bench

    return run_bench(*args, **kwargs)


def write_reports(*args, **kwargs) -> list[Path]:
    from .bench import write_reports

    return write_reports(*args, **kwargs)


def _parse_pipeline(name: str) -> PipelineSpec:
    try:
        return pipeline_from_name(name)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


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


class _Group(click.Group):
    """The top-level group; `bench` and `report` load with hybc.cli_bench."""

    _BENCH_COMMANDS = ("bench", "report")

    def list_commands(self, ctx: click.Context) -> list[str]:
        return sorted([*super().list_commands(ctx), *self._BENCH_COMMANDS])

    def get_command(self, ctx: click.Context, name: str) -> click.Command | None:
        if name in self._BENCH_COMMANDS:
            from . import cli_bench

            return getattr(cli_bench, name)
        return super().get_command(ctx, name)


@click.group(cls=_Group, context_settings={"help_option_names": ["-h", "--help"]})
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
    # INPUT is closed, and OUTPUT opened, only once the container is complete,
    # so INPUT may be OUTPUT and a failure before then leaves OUTPUT as it was.
    try:
        with open(input_path, "rb") as text:
            container = compress_pipeline(spec, text)
    except OSError as exc:
        raise click.ClickException(f"cannot read {input_path}: {exc}") from exc
    except HybcError as exc:
        raise click.ClickException(str(exc)) from exc
    _write_bytes(output_path, container)
    original = parse_header(container).original_len
    click.echo(f"pipeline:   {spec.display_name}")
    click.echo(f"original:   {original} bytes")
    click.echo(f"compressed: {len(container)} bytes ({FILE_EXTENSION} container)")
    click.echo(f"ratio:      {original / len(container):.4f}")


@main.command()
@click.argument("input_path", metavar="INPUT")
@click.argument("output_path", metavar="OUTPUT")
def decompress(input_path: str, output_path: str) -> None:
    """Restore the original bytes from a container; the header alone names
    the codec chain, so no pipeline argument is needed."""
    # The text is staged in an unnamed file beside OUTPUT, so only the codec's
    # window is held in memory, and copied into OUTPUT once it is verified, so
    # a failure before then leaves OUTPUT as it was (a failed copy, partial).
    try:
        with tempfile.TemporaryFile(dir=Path(output_path).parent) as staged:
            try:
                restored = decompress_pipeline(_read_bytes(input_path), staged.write)
            except HybcError as exc:
                raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc
            staged.seek(0)
            with open(output_path, "wb") as out:
                shutil.copyfileobj(staged, out)
    except OSError as exc:
        raise click.ClickException(f"cannot write {output_path}: {exc}") from exc
    click.echo(f"restored {restored} bytes (integrity verified)")


if __name__ == "__main__":
    main()
