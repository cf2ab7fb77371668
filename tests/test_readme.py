"""Every ``python`` code block in README.md runs as written, every name in
its library table exists in the module the table puts it in, and its
command synopsis names exactly the long options of each command."""

import importlib
import re
from pathlib import Path

import pytest

from phode.cli import COMMANDS, build_parser

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


# the lines "phode <command> ..." of the synopsis under "## Command line"
SYNOPSIS = re.findall(r"^phode (\w+) +(.*)$", re.search(
    r"^## Command line\n.*?^```\n(.*?)^```", README.read_text(), re.M | re.S)[1], re.M)


def test_synopsis_has_a_line_per_command():
    assert [name for name, _ in SYNOPSIS] == list(COMMANDS)


@pytest.mark.parametrize("name, line", SYNOPSIS, ids=[name for name, _ in SYNOPSIS])
def test_synopsis_names_the_long_options(name, line):
    # "-o OUT" stands for --output; --help is left aside
    named = set(re.findall(r"--[\w-]+", line.split("#")[0].replace("-o OUT", "--output")))
    options = {o for action in build_parser(name)._actions for o in action.option_strings
               if o.startswith("--") and o != "--help"}
    assert named == options
