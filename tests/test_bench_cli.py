import ast
import errno
import importlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import hybc.bench as bench_mod
import hybc.cli as cli_mod
import hybc.report as report_mod
from hybc._native import SINK_CHUNK
from hybc.bench import rank_by_dataset, run_bench, write_reports
from hybc.cli import main
from hybc.codecs import CodecId, compress_one, decompress_one, encode
from hybc.errors import CodecFailure, CorruptStream
from hybc.metrics import DsBasis
from hybc.pipeline import (
    HEADER_LEN, ContainerHeader, PipelineSpec, compress_pipeline, enumerate_pipelines,
    pipeline_from_name, serialize_header,
)
from hybc.scoring import DEFAULT_WEIGHTS


@pytest.fixture()
def three_corpora(tmp_path, tiny_text):
    paths = []
    for i in range(3):
        path = tmp_path / f"corpus_{i}.txt"
        path.write_bytes(tiny_text + f"प्रति {i}\n".encode("utf-8"))
        paths.append(path)
    return paths


@pytest.fixture()
def runner():
    return CliRunner()


def _specs(*names):
    return [pipeline_from_name(name) for name in names]


def _rankings(rows):
    ok = [row.measurement for row in rows if row.measurement is not None]
    return rank_by_dataset(ok, DEFAULT_WEIGHTS, DsBasis.COMPRESSED)


# ---------------------------------------------------------------------------
# run_bench

def test_bench_full_matrix_row_count(three_corpora, tmp_path):
    rows = run_bench(three_corpora, enumerate_pipelines(), 1)
    assert len(rows) == 75
    assert all(row.error is None for row in rows)
    assert {len(ranked) for ranked in _rankings(rows).values()} == {25}
    written = write_reports(rows, tmp_path / "out", ("csv", "json"), DEFAULT_WEIGHTS,
                            DsBasis.COMPRESSED, pipeline_from_name("Zstd+LZ4HC"), 1)
    csv_path = next(p for p in written if p.name == "measurements.csv")
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 76  # header + one row per input x pipeline


def test_bench_pipeline_filter(three_corpora):
    rows = run_bench(three_corpora[:1], _specs("Zstd"), 1)
    assert len(rows) == 1
    assert rows[0].pipeline.display_name == "Zstd"
    assert _rankings(rows) == {}  # a single row cannot form a cohort


def test_bench_error_rows_for_unloadable_input(three_corpora, tmp_path):
    bad = tmp_path / "broken.txt"
    bad.write_bytes(b"\xff\xfe not utf8")
    rows = run_bench([three_corpora[0], bad], _specs("Zstd", "LZ4HC"), 1)
    assert len(rows) == 4  # 2 inputs x 2 pipelines, error rows included
    errors = [r for r in rows if r.error is not None]
    assert len(errors) == 2
    assert all(r.dataset == "broken" for r in errors)


def test_bench_records_pipeline_failure_and_continues(three_corpora, monkeypatch):
    real_measure = bench_mod.measure

    def flaky_measure(spec, data, repetitions, *, dataset="data", **kwargs):
        if spec.display_name == "LZ4HC":
            raise CodecFailure("injected fault")
        return real_measure(spec, data, repetitions, dataset=dataset, **kwargs)

    monkeypatch.setattr(bench_mod, "measure", flaky_measure)
    rows = run_bench(three_corpora[:1], _specs("Zstd", "LZ4HC", "Bzip2"), 1)
    assert len(rows) == 3
    failed = [r for r in rows if r.error is not None]
    assert [r.pipeline.display_name for r in failed] == ["LZ4HC"]
    assert "injected fault" in failed[0].error
    # the surviving two rows still form a cohort
    assert len(_rankings(rows)["corpus_0"]) == 2


def _count_encodes(monkeypatch, fail=lambda codec, data: False):
    """Route every encode of a bench, compress_one in hybc.metrics and encode
    in hybc.pipeline, through one counter keyed by (codec, input); `fail`
    picks calls to fail with CodecFailure."""
    import hybc.metrics as metrics_mod
    import hybc.pipeline as pipeline_mod

    calls = {}

    def counting(real):
        def call(codec, data):
            key = (CodecId(codec), bytes(data))
            calls[key] = calls.get(key, 0) + 1
            if fail(*key):
                raise CodecFailure("injected fault")
            return real(codec, data)
        return call

    monkeypatch.setattr(metrics_mod, "compress_one", counting(compress_one))
    monkeypatch.setattr(pipeline_mod, "encode", counting(encode))
    return calls


def test_bench_times_each_stage_once_per_repetition(tmp_path, tiny_text, monkeypatch):
    import hybc.metrics as metrics_mod

    corpus = tmp_path / "t.txt"
    corpus.write_bytes(tiny_text)
    calls = _count_encodes(monkeypatch)
    verified = []
    real_decompress = metrics_mod.decompress_pipeline

    def counting_decompress(container):
        verified.append(bytes(container))
        return real_decompress(container)

    monkeypatch.setattr(metrics_mod, "decompress_pipeline", counting_decompress)
    reps = 3
    rows = run_bench([corpus], enumerate_pipelines(), reps)
    assert all(row.error is None for row in rows)
    # each codec encodes the text once per repetition plus its warm-up, and
    # each of the 20 second stages encodes its first stage's stream as often
    assert {codec: calls[codec, tiny_text] for codec in CodecId} == {c: reps + 1 for c in CodecId}
    second = {key: n for key, n in calls.items() if key[1] != tiny_text}
    assert len(second) == 20
    assert set(second.values()) == {reps + 1}
    # decompress_pipeline is each first stage's timed decode (warm-up plus one
    # per repetition) and the one check of each chain's real container
    assert len(verified) == 5 * (reps + 1) + 25
    assert {compress_pipeline(spec, tiny_text) for spec in enumerate_pipelines()} <= set(verified)


def test_bench_hybrid_never_faster_than_its_first_stage(tmp_path, tiny_text):
    corpus = tmp_path / "t.txt"
    corpus.write_bytes(tiny_text)
    rows = run_bench([corpus], enumerate_pipelines(), 3)
    by_spec = {row.pipeline: row.measurement for row in rows}
    for spec, m in by_spec.items():
        if spec.is_hybrid:
            alone = by_spec[PipelineSpec(spec.first)]
            assert m.compress_seconds > alone.compress_seconds, spec.display_name
            assert m.decompress_seconds > alone.decompress_seconds, spec.display_name


def test_bench_failing_first_stage_fails_only_its_chains(tmp_path, tiny_text, monkeypatch):
    corpus = tmp_path / "t.txt"
    corpus.write_bytes(tiny_text)
    _count_encodes(monkeypatch, lambda codec, data: codec is CodecId.BZIP2 and data == tiny_text)
    rows = run_bench([corpus], enumerate_pipelines(), 1)
    failed = {row.pipeline for row in rows if row.error is not None}
    assert failed == {spec for spec in enumerate_pipelines() if spec.first is CodecId.BZIP2}
    assert all("injected fault" in row.error for row in rows if row.error is not None)
    assert PipelineSpec(CodecId.ZSTD, CodecId.BZIP2) not in failed
    assert len(_rankings(rows)["t"]) == 20


def test_cli_bench_empty_input_is_an_error_row_per_chain(runner, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    out = tmp_path / "reports"
    result = runner.invoke(main, ["bench", str(empty), "--reps", "1", "--format", "csv",
                                  "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert "25 of 25 runs failed" in result.output
    rows = (out / "measurements.csv").read_text().splitlines()[1:]
    assert len(rows) == 25
    assert all(row.endswith(",error,,,,,,,,,cannot measure an empty buffer") for row in rows)


def test_bench_encodes_nothing_for_an_empty_input(tmp_path, monkeypatch):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    calls = _count_encodes(monkeypatch)
    rows = run_bench([empty], enumerate_pipelines(), 3)
    assert calls == {}
    assert [row.error for row in rows] == ["cannot measure an empty buffer"] * 25


def test_bench_rerun_reproduces_size_columns(three_corpora):
    # sizes (and so CR) are deterministic across reruns; timings may differ
    specs = _specs("Zstd", "LZMA", "Zstd+LZ4HC")

    def sizes(rows):
        return [(r.pipeline.display_name, r.measurement.compressed_bytes) for r in rows]

    first = run_bench(three_corpora[:1], specs, 1)
    second = run_bench(three_corpora[:1], specs, 1)
    assert sizes(first) == sizes(second)


def test_bench_duplicate_stems_get_distinct_names(tmp_path, tiny_text):
    a = tmp_path / "a" / "data.txt"
    b = tmp_path / "b" / "data.txt"
    a.parent.mkdir()
    b.parent.mkdir()
    a.write_bytes(tiny_text)
    b.write_bytes(tiny_text)
    rows = run_bench([a, b], _specs("Zstd"), 1)
    assert {r.dataset for r in rows} == {"data", "data_2"}


@pytest.fixture()
def layers(monkeypatch):
    """perfbench/layers.py, the traced benchmark run, which calls hybc directly."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("layers")


def test_traced_run_targets_resolve(layers):
    """Every name the traced benchmark run patches still exists and is callable."""
    targets = layers.span_targets(layers.SampleRecorder())
    assert targets
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_run_layer_calls_succeed(layers, small_corpus):
    """The traced run's direct calls into _native, codecs and pipeline still
    work with the names and arguments it uses, and every result checks out."""
    ledger = layers.plan.Ledger()
    layers.layer_timings(small_corpus[:8192], {}, ledger.check)
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.errors


# ---------------------------------------------------------------------------
# CLI

def _child(code: str, *args) -> str:
    """Run code in a fresh interpreter with this checkout's src/ on the path;
    its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LIST_NEW_MODULES = """
import importlib, sys
before = set(sys.modules)
importlib.import_module(sys.argv[1])
print("\\n".join(sorted(set(sys.modules) - before)))
"""

# What only the bench and report commands run: their own module, the timing
# layer with the statistics module for its medians, and dataclasses, which the
# container path's record types do without.
_BENCH_STACK = ("hybc.bench", "hybc.report", "hybc.scoring", "hybc.corpus", "hybc.metrics",
                "hybc.cli_bench", "dataclasses", "json", "csv", "statistics")


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("hybc.cli", ("xml", "urllib.request", "http.client", "ssl", "email", "subprocess",
                      "ctypes.util", "statistics", "fractions", "decimal", *_BENCH_STACK)),
        ("hybc", ("subprocess", "ctypes.util", "statistics", "fractions", "decimal",
                  "hybc.codecs", "hybc.pipeline", "hybc.cli", *_BENCH_STACK)),
    ],
)
def test_import_loads_no_unused_stdlib(module, forbidden):
    """Start-up imports nothing hybc does not run: no XML escaping that drags in
    urllib, http, ssl and email, no ctypes.util or subprocess for a library
    lookup, and no statistics module (with fractions and decimal) for a
    median. `import hybc` loads no submodule but errors and _native, and the
    CLI leaves the timing, benchmark and report stack, and the `bench` and
    `report` commands themselves, to the commands that run them."""
    added = _child(_LIST_NEW_MODULES, module).split()
    assert module in added
    loaded = [m for m in added for f in forbidden if m == f or m.startswith(f + ".")]
    assert not loaded, loaded


def test_cli_import_loads_the_container_path():
    """What compress and decompress run loads with the CLI module itself."""
    added = _child(_LIST_NEW_MODULES, "hybc.cli").split()
    assert {"hybc.codecs", "hybc.pipeline"} <= set(added)


# The only imports made inside a function: hybc.cli's forwarders to the bench
# stack and its group's lookup of hybc.cli_bench.
_DEFERRED_IMPORTS = {("cli.py", "run_bench"), ("cli.py", "write_reports"),
                     ("cli.py", "get_command")}


def test_imports_stay_at_module_top():
    """No module imports under TYPE_CHECKING, and none defers an import to a
    function call except at hybc.cli's boundary to the bench stack."""
    found = set()
    for path in sorted(Path(cli_mod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
                found.add((path.name, "if TYPE_CHECKING"))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.name, node.name) for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))}
    assert found <= _DEFERRED_IMPORTS, sorted(found - _DEFERRED_IMPORTS)


# The names imported in src/hybc that their module never refers to, each with
# why it is imported.
_UNREFERENCED_IMPORTS = {
    ("__init__.py", "_native"): "importing hybc loads the shared libraries",
    ("__init__.py", "errors"): "the package's exceptions load with it, as its docstring says",
    ("pipeline.py", "compress_one"): "perfbench's tracer patches hybc.pipeline.compress_one",
}


def test_every_imported_name_is_referenced():
    """A name imported in a module and never referenced there costs each CLI
    process its import, so only the listed ones are kept."""
    found = set()
    for path in sorted(Path(cli_mod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found |= {(path.name, name) for name in imported - referenced}
    assert found == set(_UNREFERENCED_IMPORTS), sorted(found ^ set(_UNREFERENCED_IMPORTS))


_RUN_MAIN = """
import sys
from hybc.cli import main
main(sys.argv[1:], standalone_mode=False)
print(*sorted(set(sys.modules) & {stack}))
"""


@pytest.mark.parametrize("command", ["compress", "decompress", "--version", "bench"])
def test_cli_command_loads_the_bench_stack_only_for_bench(command, tmp_path, tiny_text):
    text = tmp_path / "in.txt"
    text.write_bytes(tiny_text)
    container = tmp_path / "in.hybc"
    container.write_bytes(compress_pipeline(pipeline_from_name("Zstd"), tiny_text))
    argv = {
        "compress": ["compress", "-p", "Zstd", text, tmp_path / "out.hybc"],
        "decompress": ["decompress", container, tmp_path / "out.txt"],
        "--version": ["--version"],
        "bench": ["bench", text, "--pipelines", "Zstd", "--reps", "1", "--out", tmp_path / "r"],
    }[command]
    out = _child(_RUN_MAIN.format(stack=set(_BENCH_STACK)), *argv)
    loaded = out.splitlines()[-1].split()
    assert loaded == (sorted(_BENCH_STACK) if command == "bench" else [])


_PATCH_THROUGH = """
import sys
import hybc.cli as cli

assert "hybc.bench" not in sys.modules and "hybc.report" not in sys.modules
calls = []

def recorder(name, result):
    def record(*args, **kwargs):
        calls.append(name)
        return result
    return record

for name in sys.argv[1].split(","):
    setattr(cli, name, recorder(name, {"run_bench": [], "write_reports": []}[name]))
cli.main(sys.argv[2:], standalone_mode=False)
print(*calls)
"""


@pytest.mark.parametrize("command, patched", [
    ("bench", "run_bench,write_reports"),
])
def test_cli_runs_the_names_patched_on_it(command, patched, tmp_path):
    """A name set on hybc.cli before hybc.bench and hybc.report are first
    imported is the one the command calls, as the traced benchmark run
    relies on."""
    out = _child(_PATCH_THROUGH, patched, command, "x.txt", "--out", tmp_path / "r")
    assert out.splitlines()[-1].split() == patched.split(",")


_PLAIN_GLOBALS = """
import sys
import hybc.cli as cli

assert {"run_bench", "write_reports"} <= set(vars(cli)), sorted(vars(cli))
assert "__getattr__" not in vars(cli)
assert "hybc.bench" not in sys.modules and "hybc.report" not in sys.modules
print("ok")
"""


def test_cli_bench_stack_names_are_plain_globals():
    """The names the bench and report commands call are functions defined on
    hybc.cli itself, not attributes resolved on first access, and defining
    them imports neither hybc.bench nor hybc.report."""
    assert _child(_PLAIN_GLOBALS) == "ok\n"


_LAZY_NAMESPACE = """
import importlib, sys
import hybc

namespace = {}
exec("from hybc import *", namespace)
assert set(hybc.__all__) <= set(namespace), set(hybc.__all__) - set(namespace)
assert set(hybc.__all__) <= set(dir(hybc))
for name in hybc.__all__:
    home = importlib.import_module(f"hybc.{hybc._SUBMODULE[name]}")
    assert getattr(hybc, name) is getattr(home, name) is namespace[name], name
try:
    hybc.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("hybc.no_such_name resolved")
from hybc import bench, cli, metrics, pipeline, _native
assert [m.__name__ for m in (bench, cli, metrics, pipeline, _native)] == [
    "hybc.bench", "hybc.cli", "hybc.metrics", "hybc.pipeline", "hybc._native"]
print("ok")
"""


_ENVIRONMENT = """
import platform, sys
from hybc.report import environment_metadata
recorded = environment_metadata(repetitions=1)["platform"]
assert "subprocess" not in sys.modules, "recording the environment started a process"
print(recorded)
print(platform.platform())
"""


def test_environment_metadata_starts_no_process():
    """The platform string is read without running `uname -p`, which
    platform.platform() and platform.processor() do through subprocess; on
    Linux it is spelled as platform.platform() spells it."""
    recorded, expected = _child(_ENVIRONMENT).splitlines()
    if sys.platform == "linux":
        assert recorded == expected


def test_lazy_namespace_binds_every_public_name():
    """Each name in hybc.__all__ is its submodule's object, through attribute
    access, `from hybc import *` and dir(); submodules still import by name."""
    assert _child(_LAZY_NAMESPACE) == "ok\n"


def test_cli_compress_decompress_round_trip(runner, tmp_path, tiny_text):
    src = tmp_path / "in.txt"
    src.write_bytes(tiny_text)
    packed = tmp_path / "out.hybc"
    restored = tmp_path / "back.txt"

    result = runner.invoke(
        main, ["compress", "--pipeline", "Zstd+LZ4HC", str(src), str(packed)]
    )
    assert result.exit_code == 0, result.output
    assert f"original:   {len(tiny_text)} bytes" in result.output
    assert "ratio:" in result.output
    assert packed.exists()

    result = runner.invoke(main, ["decompress", str(packed), str(restored)])
    assert result.exit_code == 0, result.output
    assert restored.read_bytes() == tiny_text


def test_cli_decompress_needs_no_pipeline_flag(runner, tmp_path, tiny_text):
    src = tmp_path / "in.txt"
    src.write_bytes(tiny_text)
    for name in ("LZMA", "Bzip2", "Brotli+Zstd", "LZ4HC+LZMA", "Zstd"):
        packed = tmp_path / "x.hybc"
        out = tmp_path / "x.txt"
        assert runner.invoke(
            main, ["compress", "-p", name, str(src), str(packed)]
        ).exit_code == 0
        result = runner.invoke(main, ["decompress", str(packed), str(out)])
        assert result.exit_code == 0, (name, result.output)
        assert out.read_bytes() == tiny_text


def test_cli_compress_unknown_pipeline_is_usage_error(runner, tmp_path):
    src = tmp_path / "in.txt"
    src.write_bytes(b"data")
    result = runner.invoke(
        main, ["compress", "--pipeline", "Snappy", str(src), str(tmp_path / "o")]
    )
    assert result.exit_code == 2
    assert "unknown codec" in result.output


def test_cli_compress_unreadable_input_is_runtime_error(runner, tmp_path):
    result = runner.invoke(
        main,
        ["compress", "--pipeline", "Zstd", str(tmp_path / "missing.txt"),
         str(tmp_path / "o")],
    )
    assert result.exit_code == 1
    assert "cannot read" in result.output
    assert result.output.startswith(f"Error: cannot read {tmp_path / 'missing.txt'}: ")
    assert len(result.output.splitlines()) == 1


def test_cli_decompress_unreadable_input_is_runtime_error(runner, tmp_path):
    missing = tmp_path / "missing.hybc"
    result = runner.invoke(main, ["decompress", str(missing), str(tmp_path / "o")])
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: cannot read {missing}: ")
    assert len(result.output.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_cli_compress_read_failure_midway_is_runtime_error(monkeypatch, runner, tmp_path,
                                                           small_corpus):
    # a Brotli or Zstd chain reads INPUT in pieces as it encodes; a read that
    # fails after the first piece is reported as INPUT's, not as the encoder's
    class FailingAfterFirstPiece(io.FileIO):
        def readinto(self, buffer):
            if self.tell():
                raise OSError(errno.EIO, "Input/output error")
            return super().readinto(buffer)

    monkeypatch.setattr(cli_mod, "open", lambda path, mode: FailingAfterFirstPiece(path),
                        raising=False)
    src = tmp_path / "in.txt"
    src.write_bytes(small_corpus)
    for name in ("Brotli", "Zstd"):
        result = runner.invoke(main, ["compress", "-p", name, str(src), str(tmp_path / "o")])
        assert result.exit_code == 1, name
        assert result.output == f"Error: cannot read {src}: [Errno 5] Input/output error\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("length", [0, 1, SINK_CHUNK - 1, SINK_CHUNK, SINK_CHUNK + 1, 300_001])
def test_cli_compress_writes_the_in_memory_container(runner, tmp_path, small_corpus, length):
    # every first stage but LZ4HC reads INPUT in SINK_CHUNK pieces, LZ4HC
    # reads it whole; every chain writes compress_pipeline's bytes
    text = (small_corpus * 3)[:length]
    src, out = tmp_path / "in.txt", tmp_path / "out.hybc"
    src.write_bytes(text)
    for spec in enumerate_pipelines():
        result = runner.invoke(main, ["compress", "-p", spec.display_name, str(src), str(out)])
        assert result.exit_code == 0, (spec.display_name, result.output)
        assert out.read_bytes() == compress_pipeline(spec, text), spec.display_name
        if not length and spec == PipelineSpec(CodecId.BROTLI):
            assert out.read_bytes()[HEADER_LEN:] == b"\x06"  # BrotliEncoderCompress's empty stream


def test_cli_compress_reads_a_pipe_whole(runner, tmp_path, small_corpus):
    # a pipe has no length up front, so it is read whole, with the same bytes
    fifo, out = tmp_path / "fifo", tmp_path / "out.hybc"
    os.mkfifo(fifo)
    for text in (b"", small_corpus[: SINK_CHUNK + 1]):
        for spec in enumerate_pipelines():
            writer = threading.Thread(target=fifo.write_bytes, args=(text,), daemon=True)
            writer.start()
            result = runner.invoke(main, ["compress", "-p", spec.display_name, str(fifo), str(out)])
            writer.join(timeout=30)
            assert not writer.is_alive()
            assert result.exit_code == 0, (spec.display_name, result.output)
            assert out.read_bytes() == compress_pipeline(spec, text), spec.display_name


def test_cli_compress_holds_no_piecewise_text(runner, tmp_path, small_corpus):
    # a Brotli chain reads INPUT in 128 KiB pieces, so the 4 MiB text is never
    # one Python object; reading it whole would alone pass the limit
    text = (small_corpus * 30)[: 4 << 20]
    src, out = tmp_path / "in.txt", tmp_path / "out.hybc"
    src.write_bytes(text)
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["compress", "-p", "Brotli", str(src), str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == compress_pipeline(PipelineSpec(CodecId.BROTLI), text)
    assert peak < len(text) // 4, f"peak {peak} B"


@pytest.mark.parametrize("drift", [-1000, 1000])
def test_cli_compress_zstd_input_of_another_length_fails_cleanly(monkeypatch, runner, tmp_path,
                                                                small_corpus, drift):
    # a Zstd chain refuses INPUT whose bytes are not its length up front, as
    # when the file changes while it is read, and OUTPUT is left as it was
    import hybc.pipeline as pipeline_mod

    real = pipeline_mod._bytes_left
    monkeypatch.setattr(pipeline_mod, "_bytes_left", lambda file: real(file) + drift)
    src, out = tmp_path / "in.txt", tmp_path / "out.hybc"
    src.write_bytes(small_corpus)
    out.write_bytes(b"kept")
    result = runner.invoke(main, ["compress", "-p", "Zstd+LZ4HC", str(src), str(out)])
    assert result.exit_code == 1
    assert result.output == (
        f"Error: zstd compress: text is not the {len(small_corpus) + drift} bytes pledged\n")
    assert out.read_bytes() == b"kept"


@pytest.mark.parametrize("name", ["Brotli+LZ4HC", "Zstd"])
def test_cli_compress_input_may_be_output(runner, tmp_path, small_corpus, name):
    # INPUT is read to its end and closed before OUTPUT is opened
    path = tmp_path / "in.txt"
    path.write_bytes(small_corpus)
    result = runner.invoke(main, ["compress", "-p", name, str(path), str(path)])
    assert result.exit_code == 0, result.output
    assert path.read_bytes() == compress_pipeline(pipeline_from_name(name), small_corpus)


def test_cli_compress_closes_what_it_opens(tmp_path, small_corpus):
    """Under -X dev with ResourceWarning an error, a streamed compress exits 0
    and one whose OUTPUT is a directory exits 1, and neither leaves a
    warning: INPUT and the mappings are closed on both paths."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    text = tmp_path / "in.txt"
    text.write_bytes(small_corpus)
    codes = []
    for output in (tmp_path / "o.hybc", tmp_path):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "hybc", "compress", "-p", "Brotli+LZ4HC", str(text), str(output)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert "Warning" not in proc.stderr, proc.stderr
        codes.append(proc.returncode)
    assert codes == [0, 1]
    assert (tmp_path / "o.hybc").read_bytes() == compress_pipeline(
        pipeline_from_name("Brotli+LZ4HC"), small_corpus)


def test_cli_decompress_truncated_container(runner, tmp_path, tiny_text):
    src = tmp_path / "in.txt"
    src.write_bytes(tiny_text)
    packed = tmp_path / "out.hybc"
    runner.invoke(main, ["compress", "-p", "Zstd", str(src), str(packed)])
    packed.write_bytes(packed.read_bytes()[:25])
    result = runner.invoke(main, ["decompress", str(packed), str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "CorruptStream" in result.output


def test_cli_decompress_not_a_container(runner, tmp_path):
    bogus = tmp_path / "bogus.hybc"
    bogus.write_bytes(b"XXXX" + b"\x00" * 40)
    result = runner.invoke(main, ["decompress", str(bogus), str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "BadMagic" in result.output


def test_cli_decompress_bomb_fails_in_one_line(runner, tmp_path):
    # a header saying 10 bytes in front of a zstd frame of 8 MiB of zeros is
    # refused by the header's cap, before the frame is decoded
    header = ContainerHeader(CodecId.ZSTD, None, 10, zlib.crc32(bytes(10)))
    bomb = tmp_path / "bomb.hybc"
    bomb.write_bytes(serialize_header(header) + compress_one(CodecId.ZSTD, bytes(8 << 20)))
    result = runner.invoke(main, ["decompress", str(bomb), str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert len(result.output.splitlines()) == 1
    assert "CorruptStream" in result.output and "more than the 10 allowed" in result.output
    assert not (tmp_path / "o").exists()


def _bomb(valid: bytes) -> bytes:
    header = ContainerHeader(CodecId.ZSTD, None, 10, zlib.crc32(bytes(10)))
    return serialize_header(header) + compress_one(CodecId.ZSTD, bytes(8 << 20))


def _crc_flipped(valid: bytes) -> bytes:
    flipped = bytearray(valid)
    flipped[HEADER_LEN - 1] ^= 0xFF  # the last byte of the header's CRC-32
    return bytes(flipped)


def _payload_flipped(valid: bytes) -> bytes:
    """valid, a Zstd container, with one payload bit flipped where the frame
    still decodes, to other bytes: only the CRC-32 can catch it."""
    text = decompress_one(CodecId.ZSTD, valid[HEADER_LEN:])
    for i in range(len(valid) - 1, HEADER_LEN, -1):
        flipped = bytearray(valid)
        flipped[i] ^= 0x01
        try:
            if decompress_one(CodecId.ZSTD, flipped[HEADER_LEN:]) != text:
                return bytes(flipped)
        except CorruptStream:
            pass
    raise AssertionError("no payload flip decodes to other bytes")


_ZSTD = PipelineSpec(CodecId.ZSTD)


@pytest.mark.parametrize(
    "spec, hostile, error",
    [
        (_ZSTD, _bomb, "CorruptStream"),
        (_ZSTD, lambda valid: valid[:25], "CorruptStream"),
        (_ZSTD, lambda valid: b"XXXX" + valid[4:], "BadMagic"),
        (_ZSTD, _crc_flipped, "IntegrityMismatch"),
        (PipelineSpec(CodecId.BROTLI, CodecId.LZ4HC), _crc_flipped, "IntegrityMismatch"),
        (_ZSTD, _payload_flipped, "IntegrityMismatch"),
    ],
    ids=["bomb", "truncated", "bad-magic", "crc-flip", "brotli-lz4hc-crc-flip",
         "zstd-payload-flip"],
)
def test_cli_decompress_failure_leaves_existing_output(runner, tmp_path, tiny_text,
                                                        spec, hostile, error):
    """A rejected container never writes OUTPUT: the file already there keeps
    its bytes, because the text is staged beside it and copied in only once
    verified; the staged file leaves no name behind, on failure or success."""
    valid = compress_pipeline(spec, tiny_text)
    container = tmp_path / "in.hybc"
    container.write_bytes(hostile(valid))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    output = out_dir / "o"
    output.write_bytes(b"keep")
    result = runner.invoke(main, ["decompress", str(container), str(output)])
    assert result.exit_code == 1
    assert len(result.output.splitlines()) == 1
    assert error in result.output
    assert output.read_bytes() == b"keep"
    assert list(out_dir.iterdir()) == [output]
    container.write_bytes(valid)
    result = runner.invoke(main, ["decompress", str(container), str(output)])
    assert result.exit_code == 0, result.output
    assert output.read_bytes() == tiny_text
    assert list(out_dir.iterdir()) == [output]


def test_cli_decompress_closes_what_it_opens(tmp_path, tiny_text):
    """Under -X dev with ResourceWarning an error, a verified decode exits 0
    and a CRC-flipped one exits 1, and neither leaves a warning: the staged
    file and the decoders are closed on both paths."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    valid = compress_pipeline(PipelineSpec(CodecId.ZSTD), tiny_text)
    output = tmp_path / "o"
    codes = []
    for blob in (valid, _crc_flipped(valid)):
        container = tmp_path / "in.hybc"
        container.write_bytes(blob)
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "hybc", "decompress", str(container), str(output)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert "Warning" not in proc.stderr, proc.stderr
        codes.append(proc.returncode)
    assert codes == [0, 1]
    assert output.read_bytes() == tiny_text


def test_cli_decompress_output_directory_must_take_a_new_file(monkeypatch, runner, tmp_path,
                                                           tiny_text):
    # the text is staged in OUTPUT's directory, so a directory that takes no
    # new file fails the command before anything is decoded
    decodes = []
    monkeypatch.setattr(cli_mod, "decompress_pipeline", lambda *args: decodes.append(args))
    container = tmp_path / "in.hybc"
    container.write_bytes(compress_pipeline(PipelineSpec(CodecId.ZSTD), tiny_text))
    output = tmp_path / "missing" / "o"
    result = runner.invoke(main, ["decompress", str(container), str(output)])
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: cannot write {output}: ")
    assert len(result.output.splitlines()) == 1
    assert decodes == []


def test_cli_bench_writes_reports(runner, three_corpora, tmp_path):
    out = tmp_path / "reports"
    result = runner.invoke(
        main,
        ["bench", *map(str, three_corpora[:2]),
         "--pipelines", "Zstd,LZ4HC,Zstd+LZ4HC",
         "--reps", "1", "--format", "csv,json", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = (out / "measurements.csv").read_text().splitlines()
    assert len(lines) == 7  # header + 2 inputs x 3 pipelines
    assert (out / "ranking_corpus_0.csv").exists()
    assert (out / "head_to_head_corpus_1.json").exists()
    assert (out / "frequency.csv").exists()
    assert (out / "balance_corpus_0.csv").exists()


def test_cli_bench_repeated_format_writes_each_file_once(runner, tmp_path, tiny_text):
    corpus = tmp_path / "small.txt"
    corpus.write_bytes(tiny_text)
    out = tmp_path / "reports"
    result = runner.invoke(
        main,
        ["bench", str(corpus), "--pipelines", "Zstd,LZ4HC", "--reps", "1",
         "--format", "csv,CSV", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    files = sorted(p.name for p in out.iterdir())
    assert f"wrote {len(files)} report file(s)" in result.output
    assert all(name.endswith(".csv") for name in files)


def test_cli_bench_partial_failure_exits_nonzero(runner, tmp_path, tiny_text):
    good = tmp_path / "good.txt"
    good.write_bytes(tiny_text)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xff")
    out = tmp_path / "reports"
    result = runner.invoke(
        main,
        ["bench", str(good), str(bad), "--pipelines", "Zstd,LZ4HC",
         "--reps", "1", "--format", "csv,json", "--out", str(out)],
    )
    assert result.exit_code == 1
    assert "2 of 4 runs failed" in result.output
    # reports still written for the rows that succeeded
    lines = (out / "measurements.csv").read_text().splitlines()
    assert len(lines) == 5
    # and the file with its error rows re-ranks
    reranked = tmp_path / "reranked"
    result = runner.invoke(main, ["report", str(out / "measurements.json"), "--format", "csv",
                                  "--out", str(reranked)])
    assert result.exit_code == 0, result.output
    assert (reranked / "ranking_good.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["bench", "x.txt", "--weights", "0.5,0.5"],
        ["bench", "x.txt", "--weights", "0.5,0.4,0.3"],
        ["bench", "x.txt", "--pipelines", "Zstd+Snappy"],
        ["bench", "x.txt", "--format", "csv,pdf"],
        ["bench", "x.txt", "--ds-basis", "both"],
        ["bench", "x.txt", "--pipelines", "Zstd,LZ4HC,zstd"],
    ],
)
def test_cli_bench_usage_errors(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output


def _option(command: str, name: str):
    group = click.Context(main)
    return next(p for p in main.get_command(group, command).params if p.name == name)


@pytest.mark.parametrize("command", ["bench", "report"])
def test_cli_ds_basis_choices_are_the_enum_values(command):
    """--ds-basis offers DsBasis's values, with COMPRESSED as the default."""
    option = _option(command, "ds_basis")
    assert list(option.type.choices) == [b.value for b in DsBasis]
    assert option.default == DsBasis.COMPRESSED.value


@pytest.mark.parametrize("argv, expected", [
    ([], DsBasis.COMPRESSED),
    (["--ds-basis", "original"], DsBasis.ORIGINAL),
])
def test_cli_report_ranks_with_a_ds_basis_member(runner, tmp_path, monkeypatch, argv, expected):
    received = []
    monkeypatch.setattr(bench_mod, "read_measurements", lambda raw: ([], {}))
    monkeypatch.setattr(bench_mod, "rank_by_dataset",
                        lambda measurements, weights, basis: received.append(basis) or {})
    measurements = tmp_path / "measurements.json"
    measurements.write_text("{}")
    result = runner.invoke(main, ["report", str(measurements), *argv])
    assert result.exit_code == 1, result.output
    assert "holds no successful rows" in result.output
    assert [type(b) for b in received] == [DsBasis]
    assert received == [expected]


_HELP = {
    ("--help",): """\
Usage: hybc [OPTIONS] COMMAND [ARGS]...

  Chained lossless compression with a self-describing container, plus a
  benchmark harness that ranks all 25 codec pipelines.

Options:
  --version   Show the version and exit.
  -h, --help  Show this message and exit.

Commands:
  bench       Benchmark every input x pipeline cell and write ranked reports.
  compress    Compress INPUT into a self-describing container at OUTPUT.
  decompress  Restore the original bytes from a container; the header alone...
  report      Re-rank saved measurements and re-emit analysis reports,...
""",
    ("bench", "-h"): """\
Usage: hybc bench [OPTIONS] INPUTS...

  Benchmark every input x pipeline cell and write ranked reports.

Options:
  --pipelines TEXT                Comma-separated chains to run, or "all" for
                                  the full 25.  [default: all]
  --reps INTEGER                  Timed repetitions per phase.  [default: 5]
  --weights TEXT                  Efficiency weights as cr,cs,ds (must sum to
                                  1).  [default: 0.4,0.3,0.3]
  --ds-basis [compressed|original]
                                  Size basis for decompression speed.  [default:
                                  compressed]
  --out TEXT                      Directory for report files.  [default: hybc-
                                  reports]
  --format TEXT                   Report formats to write.  [default:
                                  csv,json,md,svg]
  --head-to-head TEXT             Pipeline compared against the five standalone
                                  codecs.  [default: Zstd+LZ4HC]
  -h, --help                      Show this message and exit.
""",
    ("report", "-h"): """\
Usage: hybc report [OPTIONS] MEASUREMENTS_JSON

  Re-rank saved measurements and re-emit analysis reports, optionally with
  different weights or speed basis, without re-benchmarking.

Options:
  --weights TEXT                  Efficiency weights as cr,cs,ds (must sum to
                                  1).  [default: 0.4,0.3,0.3]
  --ds-basis [compressed|original]
                                  Size basis for decompression speed.  [default:
                                  compressed]
  --out TEXT                      Directory for report files.  [default: hybc-
                                  reports]
  --format TEXT                   Report formats to write.  [default:
                                  csv,json,md,svg]
  --head-to-head TEXT             Pipeline compared against the five standalone
                                  codecs.  [default: Zstd+LZ4HC]
  -h, --help                      Show this message and exit.
""",
}


@pytest.mark.parametrize("argv", list(_HELP), ids=" ".join)
def test_cli_help_text_is_pinned(runner, argv):
    """Listing `bench` and `report` from their own module leaves every help
    text as it was, down to the short help in the command list."""
    result = runner.invoke(main, list(argv), prog_name="hybc", terminal_width=80)
    assert result.exit_code == 0, result.output
    assert result.output == _HELP[argv]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"inputs": []},
        {"inputs": ["x.txt"], "reps": "0"},
        {"inputs": ["x.txt"], "format": ","},
        {"inputs": ["x.txt"], "format": "csv,pdf"},
    ],
)
def test_bench_config_validation(runner, kwargs):
    """hybc bench rejects a run with no inputs, no repetitions or no valid format."""
    args = ["bench", *kwargs["inputs"]]
    for option, value in kwargs.items():
        if option != "inputs":
            args += [f"--{option}", value]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output


def test_cli_bench_repeated_pipeline_names_it(runner):
    result = runner.invoke(main, ["bench", "x.txt", "--pipelines", "Zstd+LZ4HC,LZMA,zstd+lz4hc"])
    assert result.exit_code == 2
    assert "--pipelines names Zstd + LZ4HC twice" in result.output


def test_cli_report_reemits_from_measurements(runner, three_corpora, tmp_path):
    out = tmp_path / "reports"
    assert runner.invoke(
        main,
        ["bench", str(three_corpora[0]), "--pipelines", "Zstd,LZ4HC,LZMA",
         "--reps", "1", "--format", "json", "--out", str(out)],
    ).exit_code == 0
    out2 = tmp_path / "reports2"
    result = runner.invoke(
        main,
        ["report", str(out / "measurements.json"),
         "--weights", "0.8,0.1,0.1", "--format", "csv,md", "--out", str(out2)],
    )
    assert result.exit_code == 0, result.output
    ranking = (out2 / "ranking_corpus_0.csv").read_text().splitlines()
    assert len(ranking) == 4
    doc = json.loads((out / "measurements.json").read_text())
    assert len(doc["rows"]) == 3


@pytest.mark.parametrize("settings", [[], ["--weights", "0.5,0.25,0.25", "--ds-basis", "original"]],
                         ids=["defaults", "custom"])
def test_cli_report_rewrites_the_benchs_analysis_files(runner, tmp_path, tiny_text, settings):
    """`hybc report` with the bench's own settings writes every analysis file
    byte for byte as `hybc bench` did."""
    corpus = tmp_path / "small.txt"
    corpus.write_bytes(tiny_text)
    out, out2 = tmp_path / "bench", tmp_path / "report"
    result = runner.invoke(main, ["bench", str(corpus), "--reps", "1", "--out", str(out),
                                  *settings])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["report", str(out / "measurements.json"), "--out", str(out2),
                                  *settings])
    assert result.exit_code == 0, result.output
    written = sorted(path.name for path in out2.iterdir())
    assert len(written) == 16  # ranking, head-to-head, balance, frequency x 4 formats
    assert all((out2 / name).read_bytes() == (out / name).read_bytes() for name in written)


_OK_ROW = {
    "dataset": "d", "pipeline": "Zstd", "status": "ok", "original_bytes": 1000,
    "compressed_bytes": 400, "compress_seconds": 0.01, "decompress_seconds": 0.002,
    "repetitions": 1,
}


def _measurements_doc(*changes: dict) -> bytes:
    return json.dumps({"rows": [_OK_ROW | change for change in changes]}).encode()


def test_cli_head_to_head_needs_its_challenger_ranked(runner, tiny_text, tmp_path):
    """Neither command writes a head-to-head file for a dataset on which the
    challenger was not ranked; the standalone codecs alone are no duel."""
    corpus = tmp_path / "small.txt"
    corpus.write_bytes(tiny_text)
    out = tmp_path / "bench"
    result = runner.invoke(main, ["bench", str(corpus), "--pipelines", "Zstd,LZ4HC",
                                  "--reps", "1", "--format", "csv,json", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "ranking_small.csv").exists()
    assert not list(out.glob("head_to_head_*"))

    def report(head_to_head: str) -> Path:
        out2 = tmp_path / head_to_head
        result = runner.invoke(main, ["report", str(out / "measurements.json"), "--format",
                                      "csv", "--head-to-head", head_to_head, "--out", str(out2)])
        assert result.exit_code == 0, result.output
        return out2

    assert not list(report("Brotli+LZ4HC").glob("head_to_head_*"))
    duel = (report("LZ4HC") / "head_to_head_small.csv").read_text().splitlines()
    assert len(duel) == 3  # header, LZ4HC, Zstd


def test_cli_report_rejects_bad_file(runner, tmp_path):
    hostile = [
        b"{this is not json",
        b'{"rows": [1]}',
        b"[]",
        b'"rows"',
        b"null",
        _measurements_doc({"compress_seconds": float("nan")}, {"pipeline": "LZMA"}),
        _measurements_doc({"dataset": "x/y"}, {"dataset": "x/y", "pipeline": "LZMA"}),
        _measurements_doc({"original_bytes": float("inf")}, {"pipeline": "LZMA"}),
        _measurements_doc({"pipeline": 5}, {"pipeline": "LZMA"}),
        _measurements_doc({}, {"pipeline": "zstd", "compress_seconds": 0.02}),
        json.dumps({"rows": [_OK_ROW, _OK_ROW | {"pipeline": "LZMA"}],
                    "environment": ["not", "an", "object"]}).encode(),
        b"[" * 200_000,
        _measurements_doc({}, {"pipeline": "LZMA"}, {"pipeline": "Brotli", "status": "OK"}),
        _measurements_doc({}, {"pipeline": "LZMA"}, {"pipeline": "Brotli", "status": None}),
        # one dataset measured on two texts: its rows are not one cohort
        _measurements_doc({"original_bytes": 10}, {"pipeline": "LZ4HC"}, {"pipeline": "LZMA"}),
        # no text was measured: every row of an empty one is refused, not ranked
        _measurements_doc({"original_bytes": 0}, {"pipeline": "LZ4HC", "original_bytes": 0}),
        # an error row is skipped only once its pipeline and dataset check out
        *(json.dumps({"rows": [_OK_ROW, _OK_ROW | {"pipeline": "LZMA"}, row]}).encode()
          for row in ({"status": "error", "pipeline": 5}, {"status": "error"},
                      _OK_ROW | {"status": "error", "dataset": "x/y"})),
    ]
    # numbers of the wrong JSON type are rejected, not cast: counts must be
    # integers and timings numbers, and a boolean is neither
    mistyped = {"original_bytes": [1000.9, "1000", True], "compressed_bytes": [400.0, "300", True],
                "repetitions": [1.0, "1", True], "compress_seconds": ["0.01", True],
                "decompress_seconds": ["0.002", True]}
    hostile += [_measurements_doc({field: value}, {"pipeline": "LZMA"})
                for field, values in mistyped.items() for value in values]
    bad = tmp_path / "bad.json"
    for payload in hostile:
        bad.write_bytes(payload)
        result = runner.invoke(main, ["report", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, payload
        assert isinstance(result.exception, SystemExit), payload  # no traceback
        assert result.output.startswith("Error: bad measurements file: "), payload
        assert len(result.output.splitlines()) == 1, payload
        assert not (tmp_path / "o").exists(), payload


def test_cli_report_keeps_the_measuring_environment(runner, three_corpora, tmp_path, monkeypatch):
    out = tmp_path / "bench"
    assert runner.invoke(
        main,
        ["bench", str(three_corpora[0]), "--pipelines", "Zstd,LZ4HC", "--reps", "1",
         "--format", "json", "--out", str(out)],
    ).exit_code == 0
    measurements = out / "measurements.json"
    doc = json.loads(measurements.read_text())
    doc["environment"]["codec_library_versions"] = {"zstd": "0.0.1-measuring-host"}
    doc["environment"]["repetitions"] = 7
    measurements.write_text(json.dumps(doc))

    def no_environment_here(**kwargs):
        raise RuntimeError("report read the machine it runs on")

    monkeypatch.setattr(report_mod, "environment_metadata", no_environment_here)

    def reranked_environment(name: str) -> dict:
        result = runner.invoke(
            main,
            ["report", str(measurements), "--weights", "0.8,0.1,0.1", "--ds-basis", "original",
             "--format", "json", "--out", str(tmp_path / name)],
        )
        assert result.exit_code == 0, result.output
        return json.loads((tmp_path / name / "ranking_corpus_0.json").read_text())["environment"]

    settings = {"ds_basis": "original", "weights": {"cr": 0.8, "cs": 0.1, "ds": 0.1}}
    env = reranked_environment("kept")
    assert env["codec_library_versions"] == {"zstd": "0.0.1-measuring-host"}
    assert env["repetitions"] == 7
    assert env == doc["environment"] | settings

    del doc["environment"]
    measurements.write_text(json.dumps(doc))
    assert reranked_environment("absent") == settings


def test_cli_out_naming_a_file_fails_cleanly(runner, tmp_path, tiny_text, monkeypatch):
    cells = []
    monkeypatch.setattr(bench_mod, "measure", lambda *args, **kwargs: cells.append(args))
    src = tmp_path / "in.txt"
    src.write_bytes(tiny_text)
    taken = tmp_path / "taken"
    taken.write_bytes(b"")
    result = runner.invoke(main, ["bench", str(src), "--out", str(taken)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith("Error: cannot create")
    assert len(result.output.strip().splitlines()) == 1
    assert cells == []  # failed before measuring anything

    measurements = tmp_path / "m.json"
    measurements.write_bytes(_measurements_doc({}, {"pipeline": "LZMA"}))
    result = runner.invoke(main, ["report", str(measurements), "--out", str(taken)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: cannot write reports")


def test_cli_bench_empty_pipeline_list_is_usage_error(runner):
    result = runner.invoke(main, ["bench", "x.txt", "--pipelines", ","])
    assert result.exit_code == 2
    assert "--pipelines received an empty list" in result.output


@pytest.mark.parametrize("rows, message", [
    ([_OK_ROW | {"status": "error"}], "measurements file holds no successful rows"),
    ([_OK_ROW, _OK_ROW | {"dataset": "e"}], "no dataset has the 2+ rows needed for ranking"),
])
def test_cli_report_with_nothing_to_rank_fails(runner, tmp_path, rows, message):
    measurements = tmp_path / "m.json"
    measurements.write_text(json.dumps({"rows": rows}))
    result = runner.invoke(main, ["report", str(measurements), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["compress", "decompress"])
def test_cli_output_naming_a_directory_fails_cleanly(runner, tmp_path, tiny_text, command):
    compressing = command == "compress"
    src = tmp_path / "in"
    packed = compress_pipeline(PipelineSpec(CodecId.ZSTD), tiny_text)
    src.write_bytes(tiny_text if compressing else packed)
    options = ["-p", "Zstd"] if compressing else []
    result = runner.invoke(main, [command, *options, str(src), str(tmp_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"Error: cannot write {tmp_path}: ")
    assert len(result.output.splitlines()) == 1


def test_cli_bench_unwritable_measurements_file_fails_cleanly(runner, tmp_path, tiny_text):
    src = tmp_path / "in.txt"
    src.write_bytes(tiny_text)
    out = tmp_path / "reports"
    (out / "measurements.csv").mkdir(parents=True)
    result = runner.invoke(
        main, ["bench", str(src), "--pipelines", "Zstd", "--reps", "1", "--format", "csv",
               "--out", str(out)],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines()[-1].startswith("Error: cannot write reports: ")


def test_cli_compress_codec_failure_fails_in_one_line(runner, tmp_path, tiny_text, monkeypatch):
    def fail(spec, data):
        raise CodecFailure("Zstd encoder failed: out of memory")

    monkeypatch.setattr(cli_mod, "compress_pipeline", fail)
    src = tmp_path / "in.txt"
    src.write_bytes(tiny_text)
    result = runner.invoke(main, ["compress", "-p", "Zstd", str(src), str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == "Error: Zstd encoder failed: out of memory\n"
    assert not (tmp_path / "o").exists()
