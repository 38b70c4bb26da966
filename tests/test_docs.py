"""Documentation health: links, docstring coverage and the docs index.

Runs the stdlib link checker over the README, DESIGN, EXPERIMENTS and
the docs tree, holds every path in ``DOCSTRING_PATHS`` to 100 % public
docstring coverage, and asserts the docs index indexes every docs page.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TOOLS = REPO / "tools"
sys.path.insert(0, str(TOOLS))

import check_docstrings  # noqa: E402
import check_links  # noqa: E402

#: Packages and modules held to 100 % public docstring coverage.
DOCSTRING_PATHS = ("src/repro/obs", "src/repro/memory",
                   "src/repro/dram", "src/repro/sim", "src/repro/stats",
                   "src/repro/core",
                   "src/repro/cache/controller.py",
                   "src/repro/cache/request.py",
                   "src/repro/cache/metrics.py",
                   "src/repro/cache/tagstore.py",
                   "src/repro/experiments")


def test_no_broken_relative_links(capsys):
    targets = [str(REPO / name)
               for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                            "docs")]
    code = check_links.main(targets)
    assert code == 0, capsys.readouterr().out


@pytest.mark.parametrize("path", DOCSTRING_PATHS)
def test_docstring_coverage_is_total(capsys, path):
    code = check_docstrings.main(["--fail-under", "100", str(REPO / path)])
    assert code == 0, capsys.readouterr().out


def test_link_checker_catches_breakage(tmp_path, capsys):
    page = tmp_path / "page.md"
    page.write_text("see [missing](nowhere.md) and [ok](page.md)\n",
                    encoding="utf-8")
    assert check_links.main([str(page)]) == 1
    assert "nowhere.md" in capsys.readouterr().out


def test_docstring_checker_catches_missing(tmp_path, capsys):
    src = tmp_path / "mod.py"
    src.write_text('"""Module."""\n\ndef documented():\n    """Yes."""\n\n'
                   "def naked():\n    pass\n", encoding="utf-8")
    assert check_docstrings.main(["--fail-under", "100", str(src)]) == 1
    assert "naked" in capsys.readouterr().out


def test_index_links_every_docs_page():
    docs = REPO / "docs"
    index = (docs / "index.md").read_text(encoding="utf-8")
    linked = set(re.findall(r"\]\(([\w.-]+\.md)\)", index))
    pages = {path.name for path in docs.glob("*.md")} - {"index.md"}
    assert pages <= linked, f"index.md misses {sorted(pages - linked)}"


@pytest.mark.parametrize("page", ["metrics.md", "campaign.md", "faq.md",
                                  "architecture.md"])
def test_tracing_is_cross_linked(page):
    text = (REPO / "docs" / page).read_text(encoding="utf-8")
    assert "tracing" in text, f"{page} should point at the tracing docs"
