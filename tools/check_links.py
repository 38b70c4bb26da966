#!/usr/bin/env python
"""Relative-link checker for the repo's markdown docs.

Scans markdown files for inline links/images (``[text](target)``) and
reference definitions (``[ref]: target``), and verifies that every
*relative* target resolves to an existing file or directory. External
schemes (http/https/mailto) are skipped — CI must not depend on the
network — and pure-anchor links (``#section``) are checked only for
non-emptiness.

Usage::

    python tools/check_links.py README.md docs

Directories are walked recursively for ``*.md``. Exits non-zero and
prints one line per broken link.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple

#: Inline links/images; the target stops at the first closing paren or
#: whitespace (titles like ``(url "Title")`` are tolerated).
_INLINE = re.compile(r"!?\[[^\]]*\]\(\s*(<[^>]*>|[^)\s]+)")
#: Reference-style definitions at line start: ``[name]: target``
_REFDEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
_SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://", "data:")


def iter_markdown(paths: Iterable[str]) -> Iterator[Path]:
    """Yield every markdown file under the given files/directories."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.md"))
        else:
            yield path


def extract_links(text: str) -> List[str]:
    """All link targets (inline and reference-style) in ``text``."""
    targets = [m.group(1).strip("<>") for m in _INLINE.finditer(text)]
    targets += [m.group(1) for m in _REFDEF.finditer(text)]
    return targets


def check_file(path: Path) -> List[Tuple[Path, str, str]]:
    """Broken links in one file as ``(file, target, reason)`` tuples."""
    problems: List[Tuple[Path, str, str]] = []
    text = path.read_text(encoding="utf-8")
    for target in extract_links(text):
        if target.lower().startswith(_SKIP_SCHEMES):
            continue
        base, _, anchor = target.partition("#")
        if not base:
            if not anchor:
                problems.append((path, target, "empty link target"))
            continue
        resolved = (path.parent / base).resolve()
        if not resolved.exists():
            problems.append((path, target, f"missing file {base}"))
    return problems


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: check_links.py FILE_OR_DIR [...]", file=sys.stderr)
        return 2
    files = list(iter_markdown(argv))
    problems: List[Tuple[Path, str, str]] = []
    for path in files:
        if not path.exists():
            problems.append((path, "-", "file does not exist"))
            continue
        problems.extend(check_file(path))
    for path, target, reason in problems:
        print(f"{path}: broken link {target!r}: {reason}")
    print(f"checked {len(files)} files: "
          f"{'OK' if not problems else f'{len(problems)} broken links'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
