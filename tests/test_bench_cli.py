import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import hybc.bench as bench_mod
from hybc.bench import BenchConfig, run_bench, write_reports
from hybc.cli import main
from hybc.errors import CodecFailure
from hybc.pipeline import pipeline_from_name


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


# ---------------------------------------------------------------------------
# run_bench

def test_bench_full_matrix_row_count(three_corpora, tmp_path):
    config = BenchConfig(
        inputs=three_corpora,
        repetitions=1,
        output_dir=tmp_path / "out",
        formats=("csv", "json"),
    )
    result = run_bench(config)
    assert len(result.rows) == 75
    assert result.ok
    assert {len(rows) for rows in result.rankings.values()} == {25}
    written = write_reports(result, config)
    csv_path = next(p for p in written if p.name == "measurements.csv")
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 76  # header + one row per input x pipeline


def test_bench_pipeline_filter(three_corpora, tmp_path):
    config = BenchConfig(
        inputs=three_corpora[:1],
        pipelines=[pipeline_from_name("Zstd")],
        repetitions=1,
        output_dir=tmp_path / "out",
        formats=("csv",),
    )
    result = run_bench(config)
    assert len(result.rows) == 1
    assert result.rows[0].pipeline.display_name == "Zstd"
    assert result.rankings == {}  # a single row cannot form a cohort


def test_bench_error_rows_for_unloadable_input(three_corpora, tmp_path):
    bad = tmp_path / "broken.txt"
    bad.write_bytes(b"\xff\xfe not utf8")
    config = BenchConfig(
        inputs=[three_corpora[0], bad],
        pipelines=[pipeline_from_name("Zstd"), pipeline_from_name("LZ4HC")],
        repetitions=1,
        output_dir=tmp_path / "out",
        formats=("csv",),
    )
    result = run_bench(config)
    assert len(result.rows) == 4  # 2 inputs x 2 pipelines, error rows included
    assert not result.ok
    errors = [r for r in result.rows if r.error is not None]
    assert len(errors) == 2
    assert all(r.dataset == "broken" for r in errors)


def test_bench_records_pipeline_failure_and_continues(three_corpora, tmp_path, monkeypatch):
    real_measure = bench_mod.measure

    def flaky_measure(spec, data, repetitions, *, dataset="data", **kwargs):
        if spec.display_name == "LZ4HC":
            raise CodecFailure("injected fault")
        return real_measure(spec, data, repetitions, dataset=dataset, **kwargs)

    monkeypatch.setattr(bench_mod, "measure", flaky_measure)
    config = BenchConfig(
        inputs=three_corpora[:1],
        pipelines=[pipeline_from_name("Zstd"), pipeline_from_name("LZ4HC"),
                   pipeline_from_name("Bzip2")],
        repetitions=1,
        output_dir=tmp_path / "out",
        formats=("csv",),
    )
    result = run_bench(config)
    assert len(result.rows) == 3
    failed = result.failed_rows
    assert [r.pipeline.display_name for r in failed] == ["LZ4HC"]
    assert "injected fault" in failed[0].error
    # the surviving two rows still form a cohort
    assert len(result.rankings["corpus_0"]) == 2


def test_bench_rerun_reproduces_size_columns(three_corpora, tmp_path):
    # sizes (and so CR) are deterministic across reruns; timings may differ
    config = BenchConfig(
        inputs=three_corpora[:1],
        pipelines=[pipeline_from_name(n) for n in ("Zstd", "LZMA", "Zstd+LZ4HC")],
        repetitions=1,
        output_dir=tmp_path / "out",
        formats=("csv",),
    )
    def sizes(res):
        return [
            (r.pipeline.display_name, r.measurement.compressed_bytes)
            for r in res.rows
        ]

    first = run_bench(config)
    second = run_bench(config)
    assert sizes(first) == sizes(second)


def test_bench_duplicate_stems_get_distinct_names(tmp_path, tiny_text):
    a = tmp_path / "a" / "data.txt"
    b = tmp_path / "b" / "data.txt"
    a.parent.mkdir()
    b.parent.mkdir()
    a.write_bytes(tiny_text)
    b.write_bytes(tiny_text)
    config = BenchConfig(
        inputs=[a, b],
        pipelines=[pipeline_from_name("Zstd")],
        repetitions=1,
        output_dir=tmp_path / "out",
        formats=("csv",),
    )
    result = run_bench(config)
    assert {r.dataset for r in result.rows} == {"data", "data_2"}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"inputs": []},
        {"inputs": [Path("x")], "repetitions": 0},
        {"inputs": [Path("x")], "formats": ()},
        {"inputs": [Path("x")], "formats": ("csv", "pdf")},
    ],
)
def test_bench_config_validation(kwargs):
    with pytest.raises(ValueError):
        BenchConfig(**kwargs).validate()


# ---------------------------------------------------------------------------
# CLI

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


def test_cli_bench_partial_failure_exits_nonzero(runner, tmp_path, tiny_text):
    good = tmp_path / "good.txt"
    good.write_bytes(tiny_text)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xff")
    out = tmp_path / "reports"
    result = runner.invoke(
        main,
        ["bench", str(good), str(bad), "--pipelines", "Zstd,LZ4HC",
         "--reps", "1", "--format", "csv", "--out", str(out)],
    )
    assert result.exit_code == 1
    assert "2 of 4 runs failed" in result.output
    # reports still written for the rows that succeeded
    lines = (out / "measurements.csv").read_text().splitlines()
    assert len(lines) == 5


@pytest.mark.parametrize(
    "args",
    [
        ["bench", "x.txt", "--weights", "0.5,0.5"],
        ["bench", "x.txt", "--weights", "0.5,0.4,0.3"],
        ["bench", "x.txt", "--pipelines", "Zstd+Snappy"],
        ["bench", "x.txt", "--format", "csv,pdf"],
        ["bench", "x.txt", "--ds-basis", "both"],
    ],
)
def test_cli_bench_usage_errors(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output


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


_OK_ROW = {
    "dataset": "d", "pipeline": "Zstd", "status": "ok", "original_bytes": 1000,
    "compressed_bytes": 400, "compress_seconds": 0.01, "decompress_seconds": 0.002,
    "repetitions": 1,
}


def _measurements_doc(*changes: dict) -> bytes:
    return json.dumps({"rows": [_OK_ROW | change for change in changes]}).encode()


def test_cli_report_rejects_bad_file(runner, tmp_path):
    hostile = [
        b"{this is not json",
        b'{"rows": [1]}',
        _measurements_doc({"compress_seconds": float("nan")}, {"pipeline": "LZMA"}),
        _measurements_doc({"dataset": "x/y"}, {"dataset": "x/y", "pipeline": "LZMA"}),
        _measurements_doc({"original_bytes": float("inf")}, {"pipeline": "LZMA"}),
        _measurements_doc({"pipeline": 5}, {"pipeline": "LZMA"}),
    ]
    bad = tmp_path / "bad.json"
    for payload in hostile:
        bad.write_bytes(payload)
        result = runner.invoke(main, ["report", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, payload
        assert isinstance(result.exception, SystemExit), payload  # no traceback
        assert "bad measurements file: " in result.output, payload


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
