#!/usr/bin/env python3
"""Code lines and docstring lines of the package, counted apart.

    python3 tools/line_counts.py [ROOT]

ROOT is the root of a checkout (default: this one).  For every module of
ROOT/src/nhoc, and in total, prints its lines, the lines of its docstrings
(module, class and function docstrings, found with ``ast``) and the rest,
its code lines, which include blank lines and comments.  So a change that
meets a line budget by trimming prose shows it in the docstring column.
Standard library only.
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, nargs="?", default=Path(__file__).resolve().parents[1],
                        help="root of a checkout")
    args = parser.parse_args(argv)
    rows = [(path.name, *count(path.read_text(encoding="utf-8")))
            for path in sorted((args.root / "src" / "nhoc").glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<20} {'lines':>6} {'docstring':>9} {'code':>6}")
    for name, lines, doc in rows:
        print(f"{name:<20} {lines:>6} {doc:>9} {lines - doc:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
