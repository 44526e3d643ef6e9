"""Every lrpovm name the demos, the README and ``__all__`` use exists,
and every command line the README shows parses.

Nothing runs the demos in the test suite, so a renamed or deleted public
name or flag would otherwise break them silently.
"""
import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from lrpovm import cli

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme,
                                         re.S)):
        yield f"README-python-{k}", block


SOURCES = dict(_sources())


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_lrpovm_imports_resolve(name):
    imported, missing = 0, []
    for node in ast.walk(ast.parse(SOURCES[name])):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "lrpovm":
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported += 1
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
    assert imported > 0
    assert not missing


def test_all_exports_exist():
    """``from lrpovm import *`` needs every name of ``__all__`` to exist."""
    lrpovm = importlib.import_module("lrpovm")
    assert [n for n in lrpovm.__all__ if not hasattr(lrpovm, n)] == []


COMMAND_LINES = [line for line in (ROOT / "README.md").read_text().splitlines()
                 if line.startswith("lrpovm ")]


def test_readme_has_command_lines():
    assert len(COMMAND_LINES) >= 6


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_readme_command_line_parses(line):
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    if args.command in ("bell", "steer"):
        cli._model_config(args)
