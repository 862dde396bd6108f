"""``tools/line_counts.py``, which measures the code-line and public-name
budgets of the package."""

import importlib.util
from pathlib import Path

import nhoc

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("line_counts", _ROOT / "tools" / "line_counts.py")
line_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_counts)

FIXTURE = '''"""Module docstring,
two lines."""

import os


class Box:
    """One-line class docstring."""

    def size(self):
        """Method docstring
        on two lines."""
        text = """not a docstring"""
        return len(text)


async def wait():
    """Async docstring."""
    return os.sep
'''


def test_docstrings_and_code_are_counted_apart():
    # 19 lines: 2 + 1 + 2 + 1 docstring lines, the other 13 are code
    assert line_counts.count(FIXTURE) == (19, 6)


def test_public_names_count_the_package_all():
    source = (_ROOT / "src" / "nhoc" / "__init__.py").read_text(encoding="utf-8")
    assert line_counts.public_names(source) == len(nhoc.__all__)
    assert line_counts.public_names("x = 1\n") == 0


def test_every_public_name_resolves_once():
    assert len(set(nhoc.__all__)) == len(nhoc.__all__)
    for name in nhoc.__all__:
        assert getattr(nhoc, name) is not None


def test_the_tool_prints_each_module_and_the_total(capsys):
    assert line_counts.main([str(_ROOT)]) == 0
    out = capsys.readouterr().out.splitlines()
    modules = sorted(p.name for p in (_ROOT / "src" / "nhoc").glob("*.py"))
    assert [line.split()[0] for line in out[1:-2]] == modules
    assert out[-2].split()[0] == "total"
    assert out[-1] == f"public names (nhoc.__all__): {len(nhoc.__all__)}"
