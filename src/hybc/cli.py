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

import os
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


def _writer(file, path: str):
    """file.write, whose failure is reported as path's."""

    def write(chunk) -> None:
        try:
            file.write(chunk)
        except OSError as exc:
            raise click.ClickException(f"cannot write {path}: {exc}") from exc

    return write


class _Staged:
    """A file with no name, open "w+b" as `file`, whose bytes put() makes
    path's. Where the system and path's directory take one (Linux's
    O_TMPFILE), the file is made in that directory and put() links a new path
    in, so it appears whole or not at all, with the mode open(path, "wb")
    gives; elsewhere it is a tempfile.TemporaryFile in the system's temporary
    directory. put() copies into an existing path in place, and into a new
    one it cannot link. A missing directory fails when the file is made,
    where the system has O_TMPFILE and O_PATH."""

    def __init__(self, path: str):
        self._path = path
        # A path ending in a separator has no basename, and so is never linked.
        self._name = os.path.basename(path)
        self._dir = None
        self.file = None
        unnamed, dir_path = getattr(os, "O_TMPFILE", None), getattr(os, "O_PATH", None)
        if unnamed is not None and dir_path is not None:
            self._dir = os.open(Path(path).parent, dir_path | os.O_DIRECTORY)
            try:
                self.file = open(os.open(".", unnamed | os.O_RDWR, 0o666, dir_fd=self._dir), "w+b")
            except OSError:
                os.close(self._dir)
                self._dir = None
        if self.file is None:
            self.file = tempfile.TemporaryFile()

    def __enter__(self) -> _Staged:
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.file.close()
        finally:
            if self._dir is not None:
                os.close(self._dir)

    def put(self) -> None:
        """Link the file in as path; where it cannot be, as where path exists,
        copy it into path in place (a failed copy leaves path partial)."""
        self.file.flush()
        if self._dir is not None:
            try:
                # linkat(2) with AT_SYMLINK_FOLLOW, which a dir fd makes os.link
                # use: link(2) refuses /proc's link to the file with EXDEV.
                os.link(f"/proc/self/fd/{self.file.fileno()}", self._name, dst_dir_fd=self._dir)
                return
            except OSError:
                pass  # path exists, or the link cannot be made: copy
        self.file.seek(0)
        with open(self._path, "wb") as out:
            shutil.copyfileobj(self.file, out)


def _run(input_path: str, output_path: str, pipeline, describe):
    """Both commands' body: pipeline(INPUT open, a write into a _Staged file
    for OUTPUT), whose result it returns once the staged bytes are put at
    OUTPUT. INPUT stays open until then, so INPUT may be OUTPUT, and a failure
    before then leaves OUTPUT as it was. A failed read is INPUT's, a failed
    write OUTPUT's, and a HybcError is reported as describe(exc)."""
    try:
        source = open(input_path, "rb")
    except OSError as exc:
        raise click.ClickException(f"cannot read {input_path}: {exc}") from exc
    with source:
        try:
            with _Staged(output_path) as staged:
                try:
                    result = pipeline(source, _writer(staged.file, output_path))
                except OSError as exc:
                    raise click.ClickException(f"cannot read {input_path}: {exc}") from exc
                except HybcError as exc:
                    raise click.ClickException(describe(exc)) from exc
                staged.put()
        except OSError as exc:
            raise click.ClickException(f"cannot write {output_path}: {exc}") from exc
    return result


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

    def encode(text, write) -> bytes:
        container = compress_pipeline(spec, text)
        write(container)
        return container

    container = _run(input_path, output_path, encode, str)
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
    # The text is staged as the payload is read and decoded, so only the
    # codecs' windows are held in memory.
    restored = _run(input_path, output_path, decompress_pipeline,
                    lambda exc: f"{type(exc).__name__}: {exc}")
    click.echo(f"restored {restored} bytes (integrity verified)")


if __name__ == "__main__":  # python -m hybc.cli, the older spelling of python -m hybc
    from .__main__ import run

    run()
