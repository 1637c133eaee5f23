"""The top level exports exactly what the demos and the README import from it.

A name joins ``vtcompress.__all__`` only together with a demo or README line
that imports it; everything else is imported from its submodule.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import vtcompress

ROOT = Path(__file__).resolve().parents[1]
# every submodule but the CLI (an entry point) and the private compiled kernel
LIBRARY_MODULES = ["formats", "heuristic", "numeric", "report", "textsampler", "training", "vision"]


def names_imported_from_vtcompress(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "vtcompress"
        for alias in node.names
    }


def documented_names() -> set[str]:
    names = set()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        names |= names_imported_from_vtcompress(demo.read_text())
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        names |= names_imported_from_vtcompress(block)
    return names


def test_top_level_exports_what_demos_and_readme_import():
    assert len(set(vtcompress.__all__)) == len(vtcompress.__all__)
    assert set(vtcompress.__all__) == documented_names()


def test_top_level_names_resolve():
    assert [name for name in vtcompress.__all__ if not hasattr(vtcompress, name)] == []


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_submodule_names_resolve(module):
    mod = importlib.import_module(f"vtcompress.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
