"""Line counts of the package source, split into code, docstrings, comments and blanks.

Parses each src/**/*.py file with ast and sorts every line into one of four
columns: docstring (the lines of a module, class or function docstring),
blank and comment-only (outside a docstring, a line that is empty or
starts with #, by its text alone, so also inside another string), and
code (every other line). The four add up to the file's line count, as
wc -l counts it. Prints one row per module and a total row.

    python3 tools/src_lines.py                # this checkout
    python3 tools/src_lines.py --repo OTHER   # another checkout
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

COLUMNS = ("code", "doc", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers (1-based) of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_lines(text: str) -> dict:
    """The four columns of one module's source text."""
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["doc"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_repo = Path(__file__).resolve().parents[1]
    parser.add_argument("--repo", type=Path, default=default_repo, help="checkout to count")
    args = parser.parse_args(argv)
    paths = sorted((args.repo / "src").rglob("*.py"))
    rows = {str(p.relative_to(args.repo)): count_lines(p.read_text()) for p in paths}
    rows["total"] = {c: sum(row[c] for row in rows.values()) for c in COLUMNS}
    width = max(map(len, rows))
    print(f"{'module':<{width}} " + " ".join(f"{c:>7}" for c in (*COLUMNS, "lines")))
    for name, row in rows.items():
        values = [row[c] for c in COLUMNS]
        print(f"{name:<{width}} " + " ".join(f"{v:>7}" for v in (*values, sum(values))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
