"""Every name that a module of the package imports is used there.

A name kept on purpose is one that ``perfbench/tracing.py`` patches under
that module (its ``SPANS``); such a line carries ``# noqa: F401`` for
linters, and only those names on it are exempt.  ``__init__.py`` imports
to export, so it is not read.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nhoc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source, kept=frozenset()):
    """The names imported by the Python ``source`` that it never reads,
    except those in ``kept``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in kept)


def patched_names(module):
    """The names that the tracer's ``SPANS`` patches on the nhoc module
    named ``module``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return {attr for owner, attr, _, _ in tracing.SPANS
            if getattr(owner, "__name__", None) == f"nhoc.{module}"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8"), patched_names(path.stem)) == []


def test_an_unused_name_is_found():
    source = ("import os\nfrom math import pi, tau  # noqa: F401\n"
              "from numpy import (array,\n    zeros)\nprint(array)\n")
    assert unused_imports(source) == ["os (line 1)", "pi (line 2)", "tau (line 2)",
                                      "zeros (line 4)"]
    # only the kept names are exempt, not the rest of their line
    assert unused_imports(source, {"pi"}) == ["os (line 1)", "tau (line 2)", "zeros (line 4)"]
