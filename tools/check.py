#!/usr/bin/env python
"""Consolidated repository checks: lint, typing, links, docstrings.

One entry point for everything CI gates beyond the test suite::

    python tools/check.py                 # run every check
    python tools/check.py --only lint
    python tools/check.py --require-mypy  # CI: missing mypy is a failure

Checks:

* **lint** — ``repro.analysis`` over ``src/repro``: the nine rules
  that guard results and cache keys (wall clock, seeding, timestamp
  equality, mutable defaults, counter names, dead config knobs, set
  order, swallowed harness exceptions, time units);
* **typing** — the pinned strict mypy gate (``mypy.ini``) over the four
  core packages; when mypy is not installed (the dev container ships
  without it) a stdlib AST fallback enforces the annotation-completeness
  subset of the gate so the check never silently vanishes;
* **links** — relative-link check over the markdown docs
  (:mod:`check_links`);
* **docstrings** — 100% public docstring coverage on ``repro.obs``,
  ``repro.memory``, ``repro.dram``, ``repro.sim``,
  ``repro.stats``, ``repro.core``, the cache path's
  ``controller``/``request``/``metrics``/``tagstore`` modules,
  and ``repro.experiments`` (:mod:`check_docstrings`).

Exit code is non-zero if any selected check fails.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, List, Tuple

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
SRC = ROOT / "src"
for entry in (str(TOOLS), str(SRC)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import check_docstrings  # noqa: E402 - path set up above
import check_links  # noqa: E402

#: Directories under the strict typing gate (keep in sync with mypy.ini).
TYPED_PACKAGES = ("src/repro/sim", "src/repro/dram", "src/repro/cache",
                  "src/repro/config")
#: Markdown roots for the link check.
LINK_PATHS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs")
#: Packages gated at 100% public docstring coverage.
DOCSTRING_PATHS = ("src/repro/obs", "src/repro/memory",
                   "src/repro/dram", "src/repro/sim", "src/repro/stats",
                   "src/repro/core",
                   "src/repro/cache/controller.py",
                   "src/repro/cache/request.py",
                   "src/repro/cache/metrics.py",
                   "src/repro/cache/tagstore.py",
                   "src/repro/experiments")


def run_lint() -> Tuple[bool, str]:
    """Static analysis over src/repro."""
    from repro.analysis.cli import main as lint_main

    return lint_main(["src/repro"]) == 0, "repro.analysis over src/repro"


def _annotation_gaps(package: Path) -> List[str]:
    """Functions missing parameter or return annotations (mypy
    ``disallow_untyped_defs``/``disallow_incomplete_defs`` subset)."""
    gaps: List[str] = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            missing = [a.arg for a in params
                       if a.annotation is None and a.arg not in ("self", "cls")]
            for star in (args.vararg, args.kwarg):
                if star is not None and star.annotation is None:
                    missing.append(star.arg)
            if node.returns is None or missing:
                what = f"params {missing}" if missing else "return type"
                gaps.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                            f"{node.name}() missing {what} annotation")
    return gaps


def run_typing(require_mypy: bool = False) -> Tuple[bool, str]:
    """Strict mypy gate, or the stdlib fallback when mypy is absent."""
    if importlib.util.find_spec("mypy") is not None:
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file",
             str(ROOT / "mypy.ini")],
            cwd=ROOT, capture_output=True, text=True)
        output = (proc.stdout + proc.stderr).strip()
        if output:
            print(output)
        return proc.returncode == 0, "mypy --config-file mypy.ini"
    if require_mypy:
        print("mypy is required (--require-mypy) but not installed")
        return False, "mypy missing"
    gaps: List[str] = []
    for package in TYPED_PACKAGES:
        gaps.extend(_annotation_gaps(ROOT / package))
    for gap in gaps:
        print(gap)
    return not gaps, ("stdlib annotation gate (mypy not installed; "
                      "install mypy for the full check)")


def run_links() -> Tuple[bool, str]:
    """Relative markdown links resolve to real files."""
    paths = [str(ROOT / p) for p in LINK_PATHS]
    return check_links.main(paths) == 0, "markdown link check"


def run_docstrings() -> Tuple[bool, str]:
    """100% public docstring coverage on the gated packages."""
    ok = True
    for package in DOCSTRING_PATHS:
        code = check_docstrings.main([str(ROOT / package),
                                      "--fail-under", "100"])
        ok = ok and code == 0
    return ok, f"100% coverage on {', '.join(DOCSTRING_PATHS)}"


def main(argv: List[str] | None = None) -> int:
    """Run the selected checks and report a one-line verdict each."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=None,
                        help="comma-separated subset: lint,typing,links,"
                             "docstrings")
    parser.add_argument("--require-mypy", action="store_true",
                        help="fail the typing check if mypy is missing "
                             "instead of falling back to the stdlib gate")
    args = parser.parse_args(argv)

    checks: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
        ("lint", run_lint),
        ("typing", lambda: run_typing(require_mypy=args.require_mypy)),
        ("links", run_links),
        ("docstrings", run_docstrings),
    ]
    if args.only:
        wanted = {name.strip() for name in args.only.split(",")}
        unknown = wanted - {name for name, _ in checks}
        if unknown:
            parser.error(f"unknown checks: {sorted(unknown)}")
        checks = [(name, fn) for name, fn in checks if name in wanted]

    failures = 0
    os.chdir(ROOT)  # lint paths are repo-relative
    for name, fn in checks:
        print(f"== {name} ==")
        ok, detail = fn()
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
