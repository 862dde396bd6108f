"""Every name that a module of the package imports is used there.

A name kept on purpose (one that ``perfbench/tracing.py`` patches under
that module, say) carries ``# noqa: F401`` on its line.  ``__init__.py``
imports to export, so it is not read.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nhoc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names imported by the Python ``source`` that it never reads,
    except those whose line carries ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_name_is_found():
    source = ("import os\nfrom math import pi, tau  # noqa: F401\n"
              "from numpy import (array,\n    zeros)\nprint(array)\n")
    assert unused_imports(source) == ["os (line 1)", "zeros (line 4)"]
