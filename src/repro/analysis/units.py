"""Time-unit dimension checking (SIM015).

The kernel clock is integer picoseconds; timing tables carry
nanosecond floats (``t_rcd_ns``), bus rates carry ``_gbps``/``_ghz``,
and the only sanctioned bridges are the kernel's conversion helpers
listed in :data:`DEFAULT_TIME_UNIT_HELPERS` (``ns()`` going ns→ps,
``to_ns()`` going ps→ns). A unit slip — adding ``sim.now`` to a
``*_ns`` value, comparing a picosecond deadline against a nanosecond
latency — produces plausible-looking numbers that corrupt every
derived figure, which is why the checker treats units as dimensions:

* a value's unit is inferred from its name suffix (``_ps``, ``_ns``,
  ``_us``, ``_ms``, ``_gbps``, ``_ghz``), from ``sim.now`` (ps by
  kernel contract), or from the declared return unit of a conversion
  helper;
* units propagate through local assignments, ``min``/``max``/``abs``
  and ternaries, statement by statement inside each function;
* additive arithmetic (``+``/``-``) and ordering/equality comparisons
  between two *known, different* units are findings, as is calling a
  conversion helper with the wrong input unit or binding a
  unit-suffixed name to a value of another unit. Multiplicative
  arithmetic is exempt — it legitimately changes dimension.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.engine import Finding, Rule, SourceFile, register
from repro.analysis.rules import terminal

#: Identifier suffix -> unit dimension.
UNIT_SUFFIXES: Dict[str, str] = {
    "_ps": "ps", "_ns": "ns", "_us": "us", "_ms": "ms",
    "_gbps": "gbps", "_ghz": "ghz",
}

#: The conversion helpers: callee name -> (input unit, output unit).
DEFAULT_TIME_UNIT_HELPERS: Dict[str, Tuple[str, str]] = {
    "ns": ("ns", "ps"),
    "to_ns": ("ps", "ns"),
}

#: Builtins that return one of their arguments unchanged (unit-wise).
_PASSTHROUGH = {"abs", "int", "float", "round"}
_CHOICE = {"min", "max"}


def _suffix_unit(name: Optional[str]) -> Optional[str]:
    if name is None:
        return None
    for suffix, unit in UNIT_SUFFIXES.items():
        if name.endswith(suffix) and name != suffix.lstrip("_"):
            return unit
    return None


#: One unit diagnostic: (line, col, message).
Diagnostic = Tuple[int, int, str]


class _FunctionUnits:
    """Statement-ordered unit inference over one function body."""

    def __init__(self, found: Dict[Diagnostic, None]) -> None:
        #: diagnostics in discovery order (a dict as an ordered set: the
        #: statement walker and binding inference evaluate the same
        #: expression, and one diagnostic per site is enough)
        self.found = found
        self.env: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def _diag(self, node: ast.AST, message: str) -> None:
        self.found[(getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0), message)] = None

    def unit_of(self, node: ast.AST) -> Optional[str]:
        """Infer the dimension of an expression, or None if unknown."""
        if isinstance(node, ast.Constant):
            return None  # literals are unitless and combine with anything
        if isinstance(node, ast.Name):
            return self.env.get(node.id) or _suffix_unit(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr == "now" and terminal(node.value) == "sim":
                return "ps"  # kernel contract: sim.now is integer ps
            return _suffix_unit(node.attr)
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand)
        if isinstance(node, ast.IfExp):
            body, orelse = self.unit_of(node.body), self.unit_of(node.orelse)
            return body if body == orelse else None
        if isinstance(node, ast.BinOp):
            return self._binop_unit(node)
        if isinstance(node, ast.Call):
            return self._call_unit(node)
        return None

    def _binop_unit(self, node: ast.BinOp) -> Optional[str]:
        left, right = self.unit_of(node.left), self.unit_of(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left is not None and right is not None and left != right:
                self._diag(
                    node,
                    f"mixed-unit arithmetic: {left} "
                    f"{'+' if isinstance(node.op, ast.Add) else '-'} "
                    f"{right} (convert through the declared helpers "
                    "before combining)")
                return None
            return left or right
        # *, /, //, % legitimately change dimension — no propagation.
        return None

    def _call_unit(self, node: ast.Call) -> Optional[str]:
        callee = terminal(node.func)
        if callee in DEFAULT_TIME_UNIT_HELPERS:
            expected, produced = DEFAULT_TIME_UNIT_HELPERS[callee]
            if node.args:
                actual = self.unit_of(node.args[0])
                if actual is not None and actual != expected:
                    self._diag(
                        node,
                        f"conversion helper {callee}() expects {expected} "
                        f"but is given a {actual} value")
            return produced
        if callee in _PASSTHROUGH and len(node.args) == 1:
            return self.unit_of(node.args[0])
        if callee in _CHOICE and node.args:
            units = {u for u in (self.unit_of(a) for a in node.args)
                     if u is not None}
            if len(units) > 1:
                self._diag(
                    node,
                    f"{callee}() over mixed units "
                    f"({', '.join(sorted(units))}) compares "
                    "incommensurable quantities")
                return None
            return next(iter(units), None)
        return _suffix_unit(callee)  # e.g. a local now_ns()/elapsed_us()

    # ------------------------------------------------------------------
    def check_compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        units = [self.unit_of(o) for o in operands]
        for left, right, lu, ru in zip(operands, operands[1:],
                                       units, units[1:]):
            if lu is not None and ru is not None and lu != ru:
                self._diag(
                    node,
                    f"comparison between {lu} and {ru} values; convert "
                    "to a common unit first")

    def bind(self, name: str, node: ast.AST, value: ast.AST) -> None:
        unit = self.unit_of(value)
        declared = _suffix_unit(name)
        if declared is not None and unit is not None and declared != unit:
            self._diag(
                node,
                f"'{name}' declares {declared} by suffix but is assigned "
                f"a {unit} value")
        if unit is not None:
            self.env[name] = unit
        elif declared is not None:
            self.env.setdefault(name, declared)

    # ------------------------------------------------------------------
    def run(self, fn: ast.FunctionDef) -> None:
        args = fn.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            unit = _suffix_unit(arg.arg)
            if unit is not None:
                self.env[arg.arg] = unit
        self.walk(fn.body)

    def walk(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes get their own walker
        if isinstance(stmt, ast.Assign):
            self._expression(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.bind(target.id, stmt, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._expression(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.bind(stmt.target.id, stmt, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._expression(stmt.value)
            if isinstance(stmt.target, ast.Name) and \
                    isinstance(stmt.op, (ast.Add, ast.Sub)):
                left = self.env.get(stmt.target.id) or \
                    _suffix_unit(stmt.target.id)
                right = self.unit_of(stmt.value)
                if left is not None and right is not None and left != right:
                    self._diag(
                        stmt,
                        f"mixed-unit arithmetic: {left} "
                        f"{'+' if isinstance(stmt.op, ast.Add) else '-'}= "
                        f"{right}")
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._statement(child)
                elif isinstance(child, ast.expr):
                    self._expression(child)

    def _expression(self, node: ast.expr) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Compare):
                self.check_compare(sub)
            elif isinstance(sub, ast.BinOp):
                self.unit_of(sub)  # runs the mixed-arith check
            elif isinstance(sub, ast.Call):
                self._call_unit(sub)  # runs the helper-arg check


def unit_diagnostics(source: SourceFile) -> List[Diagnostic]:
    """Run the unit checker over every function in a parsed module."""
    found: Dict[Diagnostic, None] = {}
    for node in source.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _FunctionUnits(found).run(node)
    # Module-level statements run through a walker of their own.
    _FunctionUnits(found).walk([s for s in source.tree.body
                                if not isinstance(s, (ast.FunctionDef,
                                                      ast.AsyncFunctionDef,
                                                      ast.ClassDef))])
    return list(found)


@register
class TimeUnitSoundness(Rule):
    """SIM015 — no mixed-unit time arithmetic or comparisons."""

    id = "SIM015"
    title = "time-unit dimension checking"
    rationale = (
        "The kernel clock is integer picoseconds; timing tables are "
        "nanosecond floats; bus rates are _gbps/_ghz. Units are "
        "inferred from name suffixes, sim.now, and the kernel's "
        "conversion helpers (ns() goes ns->ps, to_ns() goes ps->ns) and "
        "propagated through local assignments. Adding or comparing two "
        "values of different known units — or feeding a helper the "
        "wrong input unit — silently corrupts every latency and "
        "bandwidth figure derived from the run, so it is a finding, not "
        "a warning.")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for line, col, message in unit_diagnostics(source):
            yield Finding(rule=self.id, path=source.display, line=line,
                          col=col, message=message)
