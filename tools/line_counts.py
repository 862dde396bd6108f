#!/usr/bin/env python3
"""Code lines and docstring lines of the package, counted apart.

    python3 tools/line_counts.py [ROOT]

ROOT is the root of a checkout (default: this one).  For every module of
ROOT/src/nhoc, and in total, prints its lines, the lines of its docstrings
(module, class and function docstrings, found with ``ast``) and the rest,
its code lines, which include blank lines and comments.  So a change that
meets a line budget by trimming prose shows it in the docstring column.
Last it prints the number of public names, the entries of ``__all__`` in
ROOT/src/nhoc/__init__.py, also read with ``ast``.  Standard library only.
"""

import argparse
import ast
import sys
from pathlib import Path


def count(source):
    """(lines, docstring lines) of the Python ``source`` text."""
    tree = ast.parse(source)
    doc_lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc_lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(source.splitlines()), len(doc_lines)


def public_names(source):
    """The number of entries of the ``__all__`` list in the Python ``source``."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return len(node.value.elts)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, nargs="?", default=Path(__file__).resolve().parents[1],
                        help="root of a checkout")
    args = parser.parse_args(argv)
    package = args.root / "src" / "nhoc"
    rows = [(path.name, *count(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<20} {'lines':>6} {'docstring':>9} {'code':>6}")
    for name, lines, doc in rows:
        print(f"{name:<20} {lines:>6} {doc:>9} {lines - doc:>6}")
    print(f"public names (nhoc.__all__): "
          f"{public_names((package / '__init__.py').read_text(encoding='utf-8'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
