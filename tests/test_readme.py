"""The README's "Library use" block runs as written against the public API,
and its shaped-text ranking is what the committed measurements file gives."""
import ast
import re
from pathlib import Path

import pytest

import hybc
from hybc.bench import rank_by_dataset, read_measurements
from hybc.metrics import DsBasis
from hybc.scoring import DEFAULT_WEIGHTS

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SHAPED_MEASUREMENTS = ROOT / "docs" / "shaped_seed42_measurements.json"


def _library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_block_runs(capsys):
    code = _library_use_block()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "hybc"
        for alias in node.names
    }
    assert imported and imported <= set(hybc.__all__)
    exec(compile(code, str(README), "exec"), {})
    assert "Zstd + LZ4HC" in capsys.readouterr().out


@pytest.mark.parametrize("basis", DsBasis)
def test_readme_shaped_text_ranking_is_the_committed_files(basis):
    assert SHAPED_MEASUREMENTS.relative_to(ROOT).as_posix() in README.read_text(encoding="utf-8")
    measurements, _ = read_measurements(SHAPED_MEASUREMENTS.read_bytes())
    assert len(measurements) == 25
    rows = rank_by_dataset(measurements, DEFAULT_WEIGHTS, basis)["shaped"]
    assert [row.pipeline.display_name for row in rows[:3]] == ["Zstd", "Zstd + Brotli", "Zstd + LZ4HC"]
