"""Every ``python`` code block in README.md runs as written, and every
name in its library table exists in the module the table puts it in."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
# (module, contents) of each row of the library table
TABLE = re.findall(r"^\| `(phode\.\w+)` \| (.*) \|$", README.read_text(), re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_library_table_has_a_row_per_module():
    package = README.parent / "src" / "phode"
    modules = {f"phode.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"}
    assert sorted(m for m, _ in TABLE) == sorted(modules)


@pytest.mark.parametrize("module, contents", TABLE, ids=[m for m, _ in TABLE])
def test_library_table_names_exist(module, contents):
    names = re.findall(r"`(\w+)`", contents)
    assert names
    assert [n for n in names if not hasattr(importlib.import_module(module), n)] == []
