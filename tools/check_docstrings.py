#!/usr/bin/env python
"""Docstring-coverage gate.

Walks Python sources with :mod:`ast` (no imports, no third-party
dependencies) and reports the fraction of public definitions — modules,
classes, and functions/methods not prefixed with ``_`` — that carry a
docstring. ``--fail-under`` turns the report into a gate.

Usage::

    python tools/check_docstrings.py --fail-under 100 src/repro/obs
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple


def iter_sources(paths: Iterable[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def public_definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield (qualified name, node) for the module and every public
    class/function definition, at any nesting level."""
    yield "<module>", tree
    stack: List[Tuple[str, ast.AST]] = [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}{child.name}"
                stack.append((f"{name}.", child))
                if not child.name.startswith("_"):
                    yield name, child


def check_file(path: Path) -> Tuple[int, int, List[str]]:
    """Return ``(documented, total, missing-names)`` for one source."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    documented = total = 0
    missing: List[str] = []
    for name, node in public_definitions(tree):
        total += 1
        if ast.get_docstring(node):
            documented += 1
        else:
            missing.append(name)
    return documented, total, missing


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument("--fail-under", type=float, default=0.0,
                        help="minimum coverage percentage (default 0)")
    args = parser.parse_args(argv)

    documented = total = 0
    for path in iter_sources(args.paths):
        file_documented, file_total, missing = check_file(path)
        documented += file_documented
        total += file_total
        for name in missing:
            print(f"{path}: missing docstring: {name}")

    coverage = 100.0 * documented / total if total else 100.0
    print(f"docstring coverage: {documented}/{total} = {coverage:.1f}% "
          f"(threshold {args.fail_under:.1f}%)")
    return 0 if coverage >= args.fail_under else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
