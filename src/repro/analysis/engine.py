"""Lint engine: rule registry, one parse pass, inline suppressions.

The engine is deliberately simulator-agnostic — it knows how to parse
sources, run per-file and cross-file rules, and honour inline
``# tdram: noqa[RULE] -- reason`` suppressions. Everything
TDRAM-specific lives in :mod:`repro.analysis.rules` and
:mod:`repro.analysis.units`.

A run parses every file once. Per-file rules then see one
:class:`SourceFile` at a time; cross-file rules see the list of every
parsed file in the same run. Suppressions are folded in last.

Suppression grammar (one per physical line, applies to findings on
that line)::

    x = host_clock()  # tdram: noqa[SIM001] -- host-side ETA, not sim state
    y = f(a, b)       # tdram: noqa[SIM004,SIM008] -- reason text

A suppression must name explicit rules *and* carry a reason; a bare
``# tdram: noqa`` (or one without ``-- reason``) is itself reported as
``LNT000`` so blanket switch-offs cannot accumulate silently. A file
that does not parse is reported as ``LNT001``.
"""

from __future__ import annotations

import ast
import functools
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: ``# tdram: noqa[SIM001,SIM002] -- reason`` (rules and reason optional
#: in the grammar so LNT000 can diagnose incomplete forms).
_NOQA = re.compile(
    r"#\s*tdram:\s*noqa"
    r"(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)

#: Meta-rule ids emitted by the engine itself (not suppressible).
META_BAD_NOQA = "LNT000"
META_SYNTAX = "LNT001"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """One ``path:line:col: RULE message`` line (editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> Dict[str, object]:
        """JSON-ready representation for ``--json`` output."""
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}


class SourceFile:
    """A parsed source file plus the metadata rules need to scope on."""

    def __init__(self, display: str, text: str) -> None:
        #: repo-relative posix path used in findings
        self.display = display
        self.tree: ast.Module = ast.Module(body=[], type_ignores=[])
        self.syntax_error: Optional[str] = None
        try:
            self.tree = ast.parse(text, filename=display)
        except SyntaxError as exc:
            self.syntax_error = f"{exc.msg} (line {exc.lineno})"
        #: line -> rule ids suppressed on it by a well-formed noqa
        self.suppressions: Dict[int, Tuple[str, ...]] = {}
        #: lines carrying a noqa without rules or reason (LNT000)
        self.bad_noqa: List[int] = []
        self._parse_noqa(text)
        self.module = self._module_name()
        self.basename = Path(display).stem

    def _parse_noqa(self, text: str) -> None:
        # Tokenize so the pattern is only recognised in real comments —
        # docstrings *describing* the grammar must not parse as noqa.
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA.search(token.string)
            if match is None:
                continue
            lineno = token.start[0]
            rules = match.group("rules")
            if not rules or not match.group("reason"):
                self.bad_noqa.append(lineno)
                continue
            self.suppressions[lineno] = tuple(
                r.strip() for r in rules.split(",") if r.strip())

    def _module_name(self) -> Optional[str]:
        """Dotted module path anchored at the ``repro`` package, if any."""
        parts = list(Path(self.display).with_suffix("").parts)
        if "repro" not in parts:
            return None
        dotted = parts[parts.index("repro"):]
        if dotted[-1] == "__init__":
            dotted = dotted[:-1]
        return ".".join(dotted)

    @functools.cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree in ``ast.walk`` order, walked once and
        shared by the rules."""
        return list(ast.walk(self.tree))

    def suppressed(self, finding: Finding) -> bool:
        """Whether an inline noqa on the finding's line covers its rule."""
        return finding.rule in self.suppressions.get(finding.line, ())

    def in_module(self, *prefixes: str) -> bool:
        """Whether this file's module matches any dotted prefix."""
        if self.module is None:
            return False
        return any(self.module == p or self.module.startswith(p + ".")
                   for p in prefixes)


class Rule:
    """Base class for lint rules; subclasses register via :func:`register`.

    Per-file rules override :meth:`check`; cross-file rules set
    ``cross_file = True`` and override :meth:`check_project`, which
    sees every file parsed in the run. ``exempt`` carves out module
    subtrees or basenames a per-file invariant does not apply to —
    exemptions that are *policy* (CLI modules may read the host clock)
    belong there, exemptions that are *judgement calls* belong in
    inline noqa comments at the use site.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    cross_file: bool = False

    def exempt(self, source: SourceFile) -> bool:
        """Whether the rule is out of scope for this file entirely."""
        return False

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Yield findings for one file (per-file rules)."""
        return iter(())

    def check_project(self, sources: Sequence[SourceFile]) -> Iterator[Finding]:
        """Yield findings needing every file at once (cross-file rules)."""
        return iter(())

    def finding(self, source: SourceFile, node: ast.AST, message: str) -> Finding:
        """Construct a finding anchored at an AST node."""
        return Finding(rule=self.id, path=source.display,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0), message=message)


_REGISTRY: Dict[str, type] = {}


def register(cls: type) -> type:
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    if not cls.id:
        raise ConfigError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ConfigError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, ordered by id."""
    # Importing the rule modules populates the registry.
    import repro.analysis.rules  # noqa: F401
    import repro.analysis.units  # noqa: F401

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


@dataclass
class Report:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        """Human output: one line per finding plus a summary."""
        lines = [f.render() for f in self.findings]
        suffix = f" ({len(self.suppressed)} suppressed)" \
            if self.suppressed else ""
        verdict = "OK" if self.ok else f"{len(self.findings)} findings"
        lines.append(f"checked {self.files} files: {verdict}{suffix}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine output for ``--json``."""
        return json.dumps({
            "files": self.files,
            "findings": [f.to_json() for f in self.findings],
            "suppressed": [f.to_json() for f in self.suppressed],
        }, indent=1, sort_keys=True)


def _iter_sources(paths: Iterable[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def _display_path(path: Path) -> str:
    """Stable repo-relative path when possible, else as given."""
    rel = os.path.relpath(path)
    return Path(rel if not rel.startswith("..") else path).as_posix()


def _sort_key(finding: Finding) -> Tuple[str, int, str]:
    return (finding.path, finding.line, finding.rule)


class Analyzer:
    """Runs a rule set over a file tree and folds in suppressions."""

    def __init__(self, select: Optional[Iterable[str]] = None) -> None:
        self.rules = all_rules()
        if select is not None:
            wanted = set(select)
            unknown = wanted - {rule.id for rule in self.rules}
            if unknown:
                raise ConfigError(f"unknown rule ids: {sorted(unknown)}")
            self.rules = [r for r in self.rules if r.id in wanted]

    def run(self, paths: Iterable[str]) -> Report:
        """Analyze a tree: per-file rules, cross-file rules, meta checks."""
        sources = [SourceFile(_display_path(path),
                              path.read_text(encoding="utf-8"))
                   for path in _iter_sources(paths)]
        report = Report(files=len(sources))
        parsed = []
        raw: List[Finding] = []
        for src in sources:
            if src.syntax_error is not None:
                report.findings.append(Finding(
                    rule=META_SYNTAX, path=src.display, line=1, col=0,
                    message=f"file does not parse: {src.syntax_error}"))
                continue
            for lineno in src.bad_noqa:
                report.findings.append(Finding(
                    rule=META_BAD_NOQA, path=src.display, line=lineno, col=0,
                    message="tdram noqa must name rules and a reason: "
                            "# tdram: noqa[SIM001] -- why"))
            parsed.append(src)
            for rule in self.rules:
                if not rule.cross_file and not rule.exempt(src):
                    raw.extend(rule.check(src))
        for rule in self.rules:
            if rule.cross_file:
                raw.extend(rule.check_project(parsed))
        by_display = {src.display: src for src in parsed}
        for finding in sorted(raw, key=_sort_key):
            src = by_display.get(finding.path)
            if src is not None and src.suppressed(finding):
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
        report.findings.sort(key=_sort_key)
        return report
