import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from click.testing import CliRunner

import hybc.bench as bench_mod
import hybc.cli as cli_mod
from hybc.bench import MEASUREMENT_COLUMNS, BenchRow, measurements_report
from hybc.codecs import CodecId
from hybc.corpus import DatasetDescriptor, classify_size
from hybc.errors import CodecFailure, InvalidUtf8
from hybc.metrics import DsBasis, Measurement
from hybc.pipeline import pipeline_from_name
from hybc.report import (
    RANKING_CSV_COLUMNS,
    balance_report,
    environment_metadata,
    frequency_report,
    ranking_report,
    render,
)
from hybc.scoring import DEFAULT_WEIGHTS, EfficiencyRow

_SVG_NS = "{http://www.w3.org/2000/svg}"


def _rows():
    return [
        EfficiencyRow(
            pipeline=pipeline_from_name("Zstd + LZ4HC"),
            dataset="large", size_class="Large",
            cr=94.82, cs=1055.69, ds=663.78,
            cr_norm=0.6590645815233129, cs_norm=1.0, ds_norm=1.0,
            efficiency=0.8597,
        ),
        EfficiencyRow(
            pipeline=pipeline_from_name("Zstd"),
            dataset="large", size_class="Large",
            cr=94.49, cs=546.22, ds=593.79,
            cr_norm=0.6566753548, cs_norm=0.5146656, ds_norm=0.8937775,
            efficiency=0.685203,
        ),
    ]


def test_csv_header_matches_declared_schema():
    payload = render(ranking_report(_rows()), "csv").decode()
    assert payload.splitlines()[0] == ",".join(RANKING_CSV_COLUMNS)


def test_csv_shape_and_content():
    lines = render(ranking_report(_rows()), "csv").decode().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("1,Zstd + LZ4HC,large,Large,94.82,")
    assert lines[2].startswith("2,Zstd,")


def test_csv_byte_identical_across_calls():
    rows = _rows()
    assert render(ranking_report(rows), "csv") == render(ranking_report(rows), "csv")


def test_md_renders_scores_to_four_decimals():
    text = render(ranking_report(_rows()), "md").decode()
    assert "| 0.8597 |" in text
    assert "Zstd + LZ4HC" in text
    assert text.splitlines()[0].startswith("| Rank |")


def test_svg_well_formed_one_group_per_row():
    root = ET.fromstring(render(ranking_report(_rows()), "svg").decode())
    assert root.tag == f"{_SVG_NS}svg"
    groups = [g for g in root.iter(f"{_SVG_NS}g") if g.get("class") == "pipeline-bar"]
    assert len(groups) == 2
    # each bar stacks three weighted segments
    assert all(len(g.findall(f"{_SVG_NS}rect")) == 3 for g in groups)


def test_json_full_precision_and_metadata():
    meta = environment_metadata()
    doc = json.loads(render(ranking_report(_rows()), "json", metadata=meta))
    assert doc["rows"][0]["cr_norm"] == 0.6590645815233129
    assert doc["rows"][0]["rank"] == 1
    assert doc["environment"]["ds_basis"] == "compressed"
    assert doc["environment"]["weights"] == {"cr": 0.4, "cs": 0.3, "ds": 0.3}


def test_json_without_metadata_has_no_environment():
    doc = json.loads(render(ranking_report(_rows()), "json"))
    assert "environment" not in doc


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render(ranking_report(_rows()), "pdf")


def test_balance_emitters():
    pairs = [
        (pipeline_from_name("LZMA + Brotli"), 141.59, 6.09),
        (pipeline_from_name("Zstd + Brotli"), 94.49, 1071.57),
    ]
    lines = render(balance_report(pairs), "csv").decode().splitlines()
    assert lines[0] == "pipeline,cr,cs_mb_s"
    assert lines[1] == "LZMA + Brotli,141.59,6.09"
    md = render(balance_report(pairs), "md").decode()
    assert "141.59" in md and "1071.57" in md
    doc = json.loads(render(balance_report(pairs), "json"))
    assert doc["rows"][0]["pipeline"] == "LZMA + Brotli"
    root = ET.fromstring(render(balance_report(pairs), "svg").decode())
    points = [g for g in root.iter(f"{_SVG_NS}g") if g.get("class") == "point"]
    assert len(points) == 2


def test_frequency_emitters():
    counts = {
        CodecId.ZSTD: 15, CodecId.BROTLI: 11, CodecId.BZIP2: 10,
        CodecId.LZ4HC: 8, CodecId.LZMA: 3,
    }
    table = frequency_report(counts, 30)
    lines = render(table, "csv").decode().splitlines()
    assert lines[0] == "codec,count"
    assert lines[1] == "Zstd,15"
    assert lines[-1] == "LZMA,3"
    md = render(table, "md").decode()
    assert "50.0%" in md
    doc = json.loads(render(table, "json"))
    assert doc["counts"]["Zstd"] == 15
    assert doc["rows_counted"] == 30
    root = ET.fromstring(render(table, "svg").decode())
    bars = [g for g in root.iter(f"{_SVG_NS}g") if g.get("class") == "bar"]
    assert len(bars) == 5


def test_measurements_emitter():
    zstd, lzma = pipeline_from_name("Zstd"), pipeline_from_name("LZMA")
    rows = [
        BenchRow("d", zstd, measurement=Measurement(zstd, "d", 1000, 400, 0.01, 0.002, 3)),
        BenchRow("d", lzma, error="boom"),
    ]
    table = measurements_report(rows, DsBasis.COMPRESSED)
    lines = render(table, "csv").decode().splitlines()
    assert lines[0] == ",".join(MEASUREMENT_COLUMNS)
    assert len(lines) == 3
    doc = json.loads(render(table, "json"))
    assert doc["rows"][0]["cr"] == 2.5
    assert doc["rows"][1]["error"] == "boom"
    with pytest.raises(ValueError):
        render(table, "md")


def test_environment_metadata_contents():
    meta = environment_metadata(repetitions=5)
    assert set(meta["codec_library_versions"]) == {
        "lzma", "zstd", "brotli", "bzip2", "lz4",
    }
    assert meta["clock"]["monotonic"] is True
    assert meta["clock"]["resolution_seconds"] > 0
    assert meta["repetitions"] == 5
    assert meta["mb_bytes"] == 1 << 20
    assert meta["container_header_bytes"] == 20
    assert meta["compressed_size_includes_container_header"] is True


# ---------------------------------------------------------------------------
# Golden bytes of every report file written by `hybc bench` and `hybc report`

# dataset -> original bytes, and per pipeline (compressed bytes, compress s,
# decompress s); None makes that cell fail. "gamma" cannot be loaded at all.
_GOLDEN_SIZES = {"alpha": 148_480, "beta": 1_638_400}
_GOLDEN_CELLS = {
    "alpha": {
        "Zstd": (40_000, 0.0021, 0.00052),
        "LZ4HC": (52_000, 0.0042, 0.00021),
        "LZMA": (33_000, 0.1150, 0.0061),
        "Brotli": (35_500, 0.0095, 0.00088),
        "Bzip2": None,
        "Zstd + LZ4HC": (39_800, 0.0030, 0.00061),
        "LZMA + Zstd": (33_100, 0.1190, 0.0064),
    },
    "beta": {
        "Zstd": (410_000, 0.0210, 0.0043),
        "LZ4HC": (530_000, 0.0400, 0.0019),
        "LZMA": (330_000, 1.2200, 0.0590),
        "Brotli": (352_000, 0.0980, 0.0085),
        "Bzip2": (380_000, 0.1400, 0.0610),
        "Zstd + LZ4HC": (405_000, 0.0290, 0.0050),
        "LZMA + Zstd": (331_000, 1.2500, 0.0620),
    },
}

_GOLDEN_DIGESTS = {
    "bench": {
        "balance_alpha.csv": "077deb5eb80c030e005d18f6cc5204599ce1a9c563a3dac2d27f0670df4c4f39",
        "balance_alpha.json": "21f390ea62532d95bc25680772a7ae2ae7e38b3ed46862b55183bf6fe4392803",
        "balance_alpha.md": "bd0ea82146b94c0ec62502382a2294e0855a1aeb353e1c3f969ba54f16570579",
        "balance_alpha.svg": "1d84b0c79b1b2f8b609fd231346fb8efecb3df936f4a7506b7b6e5c43f38ccdc",
        "balance_beta.csv": "7203cfb3f2e43f64ac0d35fac2b1c4f6cb5e398d3f076b47dbd555079dc1dfb8",
        "balance_beta.json": "cc287374290f95b3536da4379157b9476430b611bb58aa3bc39df55846b0a1b9",
        "balance_beta.md": "fc5e62e4bc092dc870a2a51086ab8cf023664f5c1930963003b1f44fd079c210",
        "balance_beta.svg": "f085e7a0c567ce51d19539671daab06a2c8a38810483ed2018c72b139dd65f64",
        "frequency.csv": "8ab39ecdad32f8a64ca8ecc8f6cc794c1c3eb3b1cfe93017cd39b08320895acf",
        "frequency.json": "f843c569a16b19085e10e7291bc306fa4b29885b99c907b7f23d781628db2ba4",
        "frequency.md": "91403b089c0dd4c5817ba939e91201e2f594089a3039fa8cf94ebb3572f44a32",
        "frequency.svg": "82b89a8b29c7fc4888edacc7330c41cc54851999635182021f4fa2dc243cfacd",
        "head_to_head_alpha.csv": "508421fba226773da24df7b13fd9c988e1c67742f1f21453930eb45c5d4eceb8",
        "head_to_head_alpha.json": "6e4a0f225f5538c48b699aedfdab3f2f7cc097f9c5533aacc5d6b2958de80414",
        "head_to_head_alpha.md": "4f25e5cbfa3e2b486ebf3ab2b88ad01dbf0d69f5bb7face0f252c2fb0dc5aa3e",
        "head_to_head_alpha.svg": "b89abb047bb48cc76e8798d10d45c700fa92e67efaceade99cc39f08e9bca5b6",
        "head_to_head_beta.csv": "8e746003854583d943bf022f38d8a8e8dd7689b6e04563769e7bd253e195447b",
        "head_to_head_beta.json": "925d989fb58b3933ac92f642608f7e6e5cf0ee53cc1c250419c2bc859b09c3a8",
        "head_to_head_beta.md": "33491523cac446e5512222252873db89a55affb50d6e21777eb8ed474ac10e39",
        "head_to_head_beta.svg": "8367fa5ba852f10617507fd5f81ab9f2a8b75ad8490081863e36837b0d3acf48",
        "measurements.csv": "57d0503b52eb1e89cae3bb5e2e57ec1993aa61da4c6f579899cfb76849895d6b",
        "measurements.json": "251ad919c616f628c94ca58867440ecd8a96e69e3bcbb105876e4619083f6d36",
        "ranking_alpha.csv": "1d227049a4208b6c87480a9e1b81543ead79c9c257a3b1a6bde7a88d891d9133",
        "ranking_alpha.json": "29bc05ca0372f927cb5c32f13aa84ba779099c9bc7ebc3f8298aaed58e30a81e",
        "ranking_alpha.md": "3aae377d4dbdd2fd3b926356401e45acd366fc48289ffad6d7fa2ac85c98bc64",
        "ranking_alpha.svg": "7d20018d429cf4e38ae9f4c1bcbf3e95a5657348ba709b87ddd7a0ceaaf0ec5a",
        "ranking_beta.csv": "c1efc4d5de6f0f06078358c941b76961c3a898fba62309cfd4833395d4c6e33e",
        "ranking_beta.json": "50c214c4328b907eb8248fa65982060feff4bac3861cf416c1a8c8ac79df903b",
        "ranking_beta.md": "2ffca08897798c5399b948d7e479d1a4c6e5ca7fdfeabe2a7b7ce2f752c84aa9",
        "ranking_beta.svg": "60ec199b8a96716840b52e992efbbedff8fbd36735beb15a1ce5ad7697c93e2a",
    },
    "report-default": {
        "balance_alpha.csv": "077deb5eb80c030e005d18f6cc5204599ce1a9c563a3dac2d27f0670df4c4f39",
        "balance_alpha.json": "4e7e4cbe0a5f7a85cabdf2d795080c888e53bc861eab387172deb75c85e77bc8",
        "balance_alpha.md": "bd0ea82146b94c0ec62502382a2294e0855a1aeb353e1c3f969ba54f16570579",
        "balance_alpha.svg": "1d84b0c79b1b2f8b609fd231346fb8efecb3df936f4a7506b7b6e5c43f38ccdc",
        "balance_beta.csv": "7203cfb3f2e43f64ac0d35fac2b1c4f6cb5e398d3f076b47dbd555079dc1dfb8",
        "balance_beta.json": "d33c9f88dd0188e30d79e4b7556fe3df3486050883eee21384dd36ae35fc6cc2",
        "balance_beta.md": "fc5e62e4bc092dc870a2a51086ab8cf023664f5c1930963003b1f44fd079c210",
        "balance_beta.svg": "f085e7a0c567ce51d19539671daab06a2c8a38810483ed2018c72b139dd65f64",
        "frequency.csv": "8ab39ecdad32f8a64ca8ecc8f6cc794c1c3eb3b1cfe93017cd39b08320895acf",
        "frequency.json": "2faccb6813db0d201f85c4e96d119c5e429e35cd4eb20550a3a966fa59d2a1ad",
        "frequency.md": "91403b089c0dd4c5817ba939e91201e2f594089a3039fa8cf94ebb3572f44a32",
        "frequency.svg": "82b89a8b29c7fc4888edacc7330c41cc54851999635182021f4fa2dc243cfacd",
        "head_to_head_alpha.csv": "508421fba226773da24df7b13fd9c988e1c67742f1f21453930eb45c5d4eceb8",
        "head_to_head_alpha.json": "a268594d0f9f85eb7aff07eebd62f9567701f58a10bc4a681a0a292ae91be938",
        "head_to_head_alpha.md": "4f25e5cbfa3e2b486ebf3ab2b88ad01dbf0d69f5bb7face0f252c2fb0dc5aa3e",
        "head_to_head_alpha.svg": "b89abb047bb48cc76e8798d10d45c700fa92e67efaceade99cc39f08e9bca5b6",
        "head_to_head_beta.csv": "8e746003854583d943bf022f38d8a8e8dd7689b6e04563769e7bd253e195447b",
        "head_to_head_beta.json": "db89a56e01fc80d89ff67890d67794953a26f364da5195ad8d2b42325d7f832d",
        "head_to_head_beta.md": "33491523cac446e5512222252873db89a55affb50d6e21777eb8ed474ac10e39",
        "head_to_head_beta.svg": "8367fa5ba852f10617507fd5f81ab9f2a8b75ad8490081863e36837b0d3acf48",
        "ranking_alpha.csv": "1d227049a4208b6c87480a9e1b81543ead79c9c257a3b1a6bde7a88d891d9133",
        "ranking_alpha.json": "ab2a01d5915b5a5fd3d765f2f87865f67e517c4e2e08fb159ed372d2060ba4d0",
        "ranking_alpha.md": "3aae377d4dbdd2fd3b926356401e45acd366fc48289ffad6d7fa2ac85c98bc64",
        "ranking_alpha.svg": "7d20018d429cf4e38ae9f4c1bcbf3e95a5657348ba709b87ddd7a0ceaaf0ec5a",
        "ranking_beta.csv": "c1efc4d5de6f0f06078358c941b76961c3a898fba62309cfd4833395d4c6e33e",
        "ranking_beta.json": "b2131f2fdf533d52f5ae48d62d71e92638e2a8e9d48d8d2fa337ebc18c5ffffd",
        "ranking_beta.md": "2ffca08897798c5399b948d7e479d1a4c6e5ca7fdfeabe2a7b7ce2f752c84aa9",
        "ranking_beta.svg": "60ec199b8a96716840b52e992efbbedff8fbd36735beb15a1ce5ad7697c93e2a",
    },
    "report-options": {
        "balance_alpha.csv": "077deb5eb80c030e005d18f6cc5204599ce1a9c563a3dac2d27f0670df4c4f39",
        "balance_alpha.md": "bd0ea82146b94c0ec62502382a2294e0855a1aeb353e1c3f969ba54f16570579",
        "balance_beta.csv": "7203cfb3f2e43f64ac0d35fac2b1c4f6cb5e398d3f076b47dbd555079dc1dfb8",
        "balance_beta.md": "fc5e62e4bc092dc870a2a51086ab8cf023664f5c1930963003b1f44fd079c210",
        "frequency.csv": "8ab39ecdad32f8a64ca8ecc8f6cc794c1c3eb3b1cfe93017cd39b08320895acf",
        "frequency.md": "91403b089c0dd4c5817ba939e91201e2f594089a3039fa8cf94ebb3572f44a32",
        "head_to_head_alpha.csv": "8187b39c48178afcf07cd0e6206724857ff6c7212e1f43f85c8a2944594b7b67",
        "head_to_head_alpha.md": "ab9502fa69f440b5b6d6ad772b2f5a63fdb75f1594008cdef281e8d75dd01668",
        "head_to_head_beta.csv": "1e7454697776a48df4cc6896284fe82c72b907bd755ce05fa93f3cc909c9b3f2",
        "head_to_head_beta.md": "c9ac64280b560a647117f18a438400d1617cb296145172aeb904ebe959b5994f",
        "ranking_alpha.csv": "9c9ec9097829554b353bccf83e411b3b611a2482a8fa8ced08a9b0d6d4bec931",
        "ranking_alpha.md": "9310d02da15604c74629941ce68588214bbaf7914a5fd4c5660b0c06df7f4182",
        "ranking_beta.csv": "b7c29b67cd8300678ceef41087653a347c4110899cf0437d627b97e0d1a27137",
        "ranking_beta.md": "73aa3cf0bd2d1c8816dda227d486b24b1820ae0013ff47c0b4da9b1162080c96",
    },
}


@pytest.fixture()
def golden_bench(monkeypatch):
    """Replace loading, timing and machine facts with fixed values."""

    def load_dataset(path):
        name = Path(path).stem
        if name not in _GOLDEN_SIZES:
            raise InvalidUtf8(3, f"{name}: invalid UTF-8 at byte 3")
        n = _GOLDEN_SIZES[name]
        return DatasetDescriptor(name, classify_size(n), n, 1.0), bytes(n)

    def measure(spec, data, repetitions, *, dataset="data", **kwargs):
        cell = _GOLDEN_CELLS[dataset][spec.display_name]
        if cell is None:
            raise CodecFailure("injected fault")
        compressed, cs, ds = cell
        return Measurement(spec, dataset, len(data), compressed, cs, ds, repetitions)

    def environment(*, repetitions=None, ds_basis=DsBasis.COMPRESSED,
                    weights=DEFAULT_WEIGHTS):
        return {
            "fixture": "golden",
            "repetitions": repetitions,
            "ds_basis": ds_basis.value,
            "weights": [weights.w_cr, weights.w_cs, weights.w_ds],
        }

    monkeypatch.setattr(bench_mod, "load_dataset", load_dataset)
    monkeypatch.setattr(bench_mod, "measure", measure)
    monkeypatch.setattr(bench_mod, "environment_metadata", environment)
    monkeypatch.setattr(cli_mod, "environment_metadata", environment)


def _digests(outdir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
    }


def test_report_files_byte_identical_to_golden(golden_bench, tmp_path):
    runner = CliRunner()
    inputs = [str(tmp_path / f"{name}.txt") for name in ("alpha", "beta", "gamma")]
    pipelines = ",".join(_GOLDEN_CELLS["alpha"])
    bench_out = tmp_path / "bench"
    result = runner.invoke(
        cli_mod.main,
        ["bench", *inputs, "--pipelines", pipelines, "--reps", "3",
         "--out", str(bench_out)],
    )
    assert result.exit_code == 1, result.output
    assert "8 of 21 runs failed" in result.output
    measurements = str(bench_out / "measurements.json")
    report_default = tmp_path / "report-default"
    result = runner.invoke(
        cli_mod.main, ["report", measurements, "--out", str(report_default)]
    )
    assert result.exit_code == 0, result.output
    report_options = tmp_path / "report-options"
    result = runner.invoke(
        cli_mod.main,
        ["report", measurements, "--weights", "0.6,0.2,0.2",
         "--ds-basis", "original", "--format", "csv,md",
         "--head-to-head", "lzma+zstd", "--out", str(report_options)],
    )
    assert result.exit_code == 0, result.output
    got = {
        "bench": _digests(bench_out),
        "report-default": _digests(report_default),
        "report-options": _digests(report_options),
    }
    assert got == _GOLDEN_DIGESTS
