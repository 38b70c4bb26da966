"""Command-line front end for the lint engine.

Installed two ways::

    python -m repro.analysis src/repro          # module form
    tdram-repro lint src/repro --json           # CLI subcommand

Output is one editor-clickable line per finding, or the JSON report
with ``--json``. Exit codes: 0 clean, 1 findings, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.engine import Analyzer, all_rules
from repro.errors import ConfigError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdram-repro lint",
        description="Simulator-aware static analysis (catalogue in "
                    "docs/static-analysis.md).",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories (default src/repro)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule ids to run (default all)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def _render_rules() -> str:
    lines = []
    for rule in all_rules():
        kind = "cross-file" if rule.cross_file else "per-file"
        lines.append(f"{rule.id}  {rule.title}  [{kind}]")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.analysis`` / ``tdram-repro lint``."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(_render_rules())
        return 0
    select = args.select.split(",") if args.select else None
    try:
        report = Analyzer(select=select).run(args.paths)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
