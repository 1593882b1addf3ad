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
    """A file with no name in the directory of path, open "w+b" as `file`.
    Where the system and file system take one (Linux's O_TMPFILE), link()
    names it path, so a new path appears whole or not at all; elsewhere
    `file` is a tempfile.TemporaryFile, which link() never names, or, with
    fallback false, None. Its mode is 0o666 less the umask, as
    open(path, "wb") gives."""

    def __init__(self, path: str, fallback: bool = True):
        directory = Path(path).parent
        # A path ending in a separator has no basename, and so is never linked.
        self._name = os.path.basename(path)
        self._dir = None
        self.file = None
        unnamed, dir_path = getattr(os, "O_TMPFILE", None), getattr(os, "O_PATH", None)
        if unnamed is not None and dir_path is not None:
            self._dir = os.open(directory, dir_path | os.O_DIRECTORY)
            try:
                self.file = open(os.open(".", unnamed | os.O_RDWR, 0o666, dir_fd=self._dir), "w+b")
            except OSError:
                os.close(self._dir)
                self._dir = None
        if self.file is None and fallback:
            self.file = tempfile.TemporaryFile(dir=directory)

    def __enter__(self) -> _Staged:
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if self.file is not None:
                self.file.close()
        finally:
            if self._dir is not None:
                os.close(self._dir)

    def link(self) -> bool:
        """Name the file path; False where it cannot be, as where path exists."""
        if self._dir is None:
            return False
        self.file.flush()
        try:
            # linkat(2) with AT_SYMLINK_FOLLOW, which a dir fd makes os.link
            # use: link(2) refuses /proc's link to the file with EXDEV.
            os.link(f"/proc/self/fd/{self.file.fileno()}", self._name, dst_dir_fd=self._dir)
        except OSError:
            return False
        return True


def _write_new(path: str, data: bytes) -> bool:
    """Write data to a file with no name and link it in as path; False, with
    nothing written, where the directory takes no such file, and False where
    path exists by the time of the link."""
    try:
        staged = _Staged(path, fallback=False)
    except OSError:
        return False
    with staged:
        if staged.file is None:
            return False
        staged.file.write(data)
        return staged.link()


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
    # INPUT is closed, and OUTPUT written, only once the container is complete,
    # so INPUT may be OUTPUT and a failure before then leaves OUTPUT as it was.
    # A new OUTPUT is linked in whole; an existing one is written in place.
    try:
        with open(input_path, "rb") as text:
            container = compress_pipeline(spec, text)
    except OSError as exc:
        raise click.ClickException(f"cannot read {input_path}: {exc}") from exc
    except HybcError as exc:
        raise click.ClickException(str(exc)) from exc
    try:
        if os.path.lexists(output_path) or not _write_new(output_path, container):
            Path(output_path).write_bytes(container)
    except OSError as exc:
        raise click.ClickException(f"cannot write {output_path}: {exc}") from exc
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
    # INPUT is read as its payload is decoded, and the text staged in an
    # unnamed file beside OUTPUT, so only the codecs' windows are held in
    # memory. The text is put at OUTPUT once it is verified and INPUT is read
    # to its end, so INPUT may be OUTPUT and a failure before then leaves
    # OUTPUT as it was: a new OUTPUT is the staged file linked in, an existing
    # one is copied into (a failed copy, partial). A failed read is INPUT's,
    # a failed write OUTPUT's.
    try:
        container = open(input_path, "rb")
    except OSError as exc:
        raise click.ClickException(f"cannot read {input_path}: {exc}") from exc
    with container:
        try:
            with _Staged(output_path) as staged:
                try:
                    restored = decompress_pipeline(container, _writer(staged.file, output_path))
                except OSError as exc:
                    raise click.ClickException(f"cannot read {input_path}: {exc}") from exc
                except HybcError as exc:
                    raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc
                if not staged.link():
                    staged.file.seek(0)
                    with open(output_path, "wb") as out:
                        shutil.copyfileobj(staged.file, out)
        except OSError as exc:
            raise click.ClickException(f"cannot write {output_path}: {exc}") from exc
    click.echo(f"restored {restored} bytes (integrity verified)")


if __name__ == "__main__":  # python -m hybc.cli, the older spelling of python -m hybc
    from .__main__ import run

    run()
