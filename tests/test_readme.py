"""The README's "Library use" block runs as written against the public API."""
import ast
import re
from pathlib import Path

import hybc

README = Path(__file__).resolve().parents[1] / "README.md"


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
