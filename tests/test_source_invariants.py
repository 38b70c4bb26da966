"""Source invariants that results and cache keys rest on.

The result cache and the golden digests are sound only if every run is
a pure function of (design, workload, config, seed). Ordinary linters
do not know what breaks that here: a host-clock read in a simulated
component, an unseeded draw, float equality on a timestamp, a mutable
default shared across runs, a counter read under a name nothing
counts, a config knob nothing reads, set order leaking into output, a
swallowed harness failure, or picoseconds added to nanoseconds.

Each check below is a plain function of a module's dotted name and its
tree; the two cross-module checks take every tree. ``src/repro`` is
parsed once, and one test per check asserts that it is clean. The
fixture cases at the end feed each check the defect it must catch and
the look-alikes it must leave alone. docs/static-analysis.md lists the
checks with the rule ids they replace.
"""

from __future__ import annotations

import ast
import configparser
from collections import Counter
from pathlib import Path
from textwrap import dedent
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Parsed modules by dotted name.
Trees = Dict[str, ast.Module]
#: What a per-module check reports: (line, message).
Finding = Tuple[int, str]


def parse_modules(root: Path, base: Path) -> Trees:
    """Every module under ``root`` parsed, keyed by its dotted name
    relative to ``base`` (a package's ``__init__`` takes its name). A
    file that does not parse fails here, in ``ast.parse``."""
    trees = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(base).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        trees[".".join(parts)] = ast.parse(path.read_text(encoding="utf-8"),
                                           filename=str(path))
    return trees


@pytest.fixture(scope="module")
def repro_trees() -> Trees:
    """``src/repro``, parsed once for every test in this module."""
    return parse_modules(SRC / "repro", SRC)


# ----------------------------------------------------------------------
# Name resolution
# ----------------------------------------------------------------------
def in_module(module: str, *prefixes: str) -> bool:
    """Whether ``module`` is one of ``prefixes`` or inside one."""
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def import_map(tree: ast.Module) -> Dict[str, str]:
    """Local names to the dotted names they import: ``import numpy as
    np`` maps ``np`` to ``numpy``, ``from time import perf_counter_ns
    as pc`` maps ``pc`` to ``time.perf_counter_ns``."""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and \
                not node.level:
            for alias in node.names:
                table[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return table


def dotted(node: ast.AST) -> Optional[str]:
    """The dotted name of a Name/Attribute chain, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def canonical(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """The dotted name with its head resolved through ``imports``."""
    name = dotted(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = imports.get(head, head)
    return f"{origin}.{rest}" if rest else origin


def terminal(node: ast.AST) -> Optional[str]:
    """The last name of a Name/Attribute chain (``a.b.c`` gives ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def str_literals(nodes: Iterable[ast.AST]) -> List[ast.Constant]:
    """The string constants among ``nodes``."""
    return [n for n in nodes
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
#: Host clocks (SIM001).
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Host-clock reads allowed in simulated components, by (module, callee),
#: with their count. The kernel profiler times each callback when a
#: profiler is attached; the readings feed only the profiler, never
#: simulated state.
WALL_CLOCK_ALLOWED = {("repro.sim.kernel", "time.perf_counter_ns"): 2}


def wall_clock_reads(module: str, tree: ast.Module) -> List[Finding]:
    """SIM001: host-clock calls, reported by callee. Host-side
    orchestration (``repro.experiments``) and the ``cli``/``__main__``
    entry points may read the host clock."""
    if in_module(module, "repro.experiments") or \
            module.rpartition(".")[2] in ("cli", "__main__"):
        return []
    imports = import_map(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = canonical(node.func, imports)
            if name in WALL_CLOCK_CALLS:
                found.append((node.lineno, name))
    return found


#: The seeding constructors: allowed, but only with a seed (SIM002).
SEEDED_CONSTRUCTORS = {
    "random.Random", "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
    "numpy.random.Philox", "numpy.random.MT19937",
}


def unseeded_randomness(module: str, tree: ast.Module) -> List[Finding]:
    """SIM002: module-level ``random``/``numpy.random`` draws, and
    seeding constructors called without a seed."""
    imports = import_map(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = canonical(node.func, imports)
        if name is None or not name.startswith(("random.", "numpy.random.")):
            continue
        if name not in SEEDED_CONSTRUCTORS:
            found.append((node.lineno, f"unseeded module-level draw {name}()"))
        elif not (node.args or node.keywords):
            found.append((node.lineno,
                          f"{name}() constructed without an explicit seed"))
    return found


def _float_time(node: ast.AST) -> bool:
    """Whether ``node`` is a float time: a ``*_ns``/``*_us``/``*_ms``
    name or a ``to_ns(...)`` result."""
    name = terminal(node)
    if name is not None:
        return name == "to_ns" or name.endswith(("_ns", "_us", "_ms"))
    return isinstance(node, ast.Call) and terminal(node.func) == "to_ns"


def float_time_equality(module: str, tree: ast.Module) -> List[Finding]:
    """SIM003: ``==``/``!=`` with a float time on either side."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            culprit = next((o for o in (left, right) if _float_time(o)), None)
            if isinstance(op, (ast.Eq, ast.NotEq)) and culprit is not None:
                found.append((node.lineno, "float equality on timestamp "
                                           f"'{ast.unparse(culprit)}'"))
    return found


_MUTABLE_FACTORIES = {"list", "dict", "set", "defaultdict", "deque",
                      "bytearray", "OrderedDict", "Counter"}


def _mutable(node: ast.AST) -> bool:
    """Whether a default value builds a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and \
        terminal(node.func) in _MUTABLE_FACTORIES


def mutable_defaults(module: str, tree: ast.Module) -> List[Finding]:
    """SIM004: mutable default arguments, positional or keyword-only."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if default is not None and _mutable(default):
                    found.append((default.lineno,
                                  f"mutable default in {node.name}()"))
    return found


#: Receivers that hold a CounterSet by convention: a literal subscript
#: on one is a counter read (SIM006).
COUNTER_RECEIVERS = {"outcomes", "events", "counters", "counts", "ops"}
#: ALL-CAPS constants with these suffixes declare the counter names in
#: them (names the code builds with f-strings).
DECLARING_SUFFIXES = ("_CATEGORIES", "_COUNTERS")


def _with_counter_scope(node: ast.AST, imports: Dict[str, str],
                        inside: bool = False
                        ) -> Iterator[Tuple[ast.AST, bool]]:
    """Every node under ``node``, paired with whether it sits in a counter
    class (one whose name or a base's name contains ``Counter``); there
    ``self[...]`` and ``self.total(...)`` are counter reads too."""
    for child in ast.iter_child_nodes(node):
        child_inside = inside
        if isinstance(child, ast.ClassDef):
            names = [child.name] + [
                (canonical(base, imports) or "").rsplit(".", 1)[-1]
                for base in child.bases]
            child_inside = inside or any("Counter" in n for n in names)
        yield child, child_inside
        yield from _with_counter_scope(child, imports, child_inside)


def _is_counter(receiver: ast.AST, inside: bool) -> bool:
    """Whether ``receiver`` holds a CounterSet: a conventional receiver
    name, or ``self`` inside a counter class."""
    name = terminal(receiver)
    return name in COUNTER_RECEIVERS or (name == "self" and inside)


def undeclared_counter_reads(trees: Trees) -> List[Tuple[str, int, str]]:
    """SIM006: literal counter reads, as (module, line, message), whose
    name no module declares. A name is declared by the first argument
    of an ``.add("x")``, any argument of ``.declare(...)``, or a string
    in a ``*_CATEGORIES``/``*_COUNTERS`` constant. A read is a literal
    subscript or ``.total(("x", ...))`` on a counter receiver, or on
    ``self`` in a counter class."""
    declared: Set[str] = set()
    reads: List[Tuple[str, ast.Constant]] = []
    for module, tree in trees.items():
        for node, inside in _with_counter_scope(tree, import_map(tree)):
            if isinstance(node, ast.Assign):
                if any(isinstance(t, ast.Name) and t.id.isupper()
                       and t.id.endswith(DECLARING_SUFFIXES)
                       for t in node.targets):
                    declared.update(c.value for c in
                                    str_literals(ast.walk(node.value)))
            elif isinstance(node, ast.Subscript) and \
                    _is_counter(node.value, inside):
                reads.extend((module, c) for c in str_literals([node.slice]))
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if method == "add":
                    declared.update(c.value for c in
                                    str_literals(node.args[:1]))
                elif method == "declare":
                    declared.update(c.value for c in str_literals(node.args))
                elif method == "total" and _is_counter(node.func.value,
                                                       inside):
                    reads.extend((module, c) for arg in node.args
                                 if isinstance(arg, (ast.Tuple, ast.List))
                                 for c in str_literals(arg.elts))
    return [(module, c.lineno, f"counter '{c.value}' is read but never "
                               "added or declared (it reads 0 forever)")
            for module, c in reads if c.value not in declared]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(terminal(d.func if isinstance(d, ast.Call) else d)
               == "dataclass" for d in node.decorator_list)


def dead_config_fields(trees: Trees) -> List[Tuple[str, int, str]]:
    """SIM007: public fields of config dataclasses, as (module, line,
    message), that no attribute access anywhere reads. Config
    dataclasses are every dataclass in ``repro.config`` and every
    ``*Config`` dataclass elsewhere; ``ClassVar`` entries are not
    fields."""
    consumed = {node.attr for tree in trees.values()
                for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                    and (in_module(module, "repro.config")
                         or node.name.endswith("Config"))):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name) and \
                        not stmt.target.id.startswith("_") and \
                        "ClassVar" not in ast.unparse(stmt.annotation) and \
                        stmt.target.id not in consumed:
                    found.append((module, stmt.lineno,
                                  f"config field {node.name}.{stmt.target.id}"
                                  " is never read"))
    return found


def _set_like(node: ast.AST) -> bool:
    """Whether ``node`` builds a set: a literal, a comprehension, a
    ``set``/``frozenset`` call, or set algebra on one."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and \
            dotted(node.func) in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and \
            isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _set_like(node.left) or _set_like(node.right)
    return False


def set_iteration(module: str, tree: ast.Module) -> List[Finding]:
    """SIM008: a set iterated in order: by ``for``, a comprehension,
    ``list``/``tuple``/``enumerate``/``iter`` or ``str.join``."""
    found = []
    for node in ast.walk(tree):
        iters: List[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call) and node.args and (
                dotted(node.func) in ("list", "tuple", "enumerate", "iter")
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"):
            iters.append(node.args[0])
        found.extend((it.lineno, "iteration over a set: wrap it in sorted()")
                     for it in iters if _set_like(it))
    return found


def _broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return any(terminal(n) in ("Exception", "BaseException") for n in names)


def _swallows(handler: ast.ExceptHandler) -> bool:
    return all(isinstance(stmt, (ast.Pass, ast.Continue)) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is Ellipsis) for stmt in handler.body)


def swallowed_exceptions(module: str, tree: ast.Module) -> List[Finding]:
    """SIM012: in harness code (``repro.experiments``), a bare or broad
    ``except`` whose body only passes, continues or is ``...``."""
    if not in_module(module, "repro.experiments"):
        return []
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and _broad(node) and \
                _swallows(node):
            caught = "bare except" if node.type is None else \
                f"except {ast.unparse(node.type)}"
            found.append((node.lineno, f"{caught} silently swallowed"))
    return found


#: Identifier suffix to unit (SIM015).
UNIT_SUFFIXES = {"_ps": "ps", "_ns": "ns", "_us": "us", "_ms": "ms",
                 "_gbps": "gbps", "_ghz": "ghz"}
#: The kernel's conversion helpers: callee to (input unit, output unit).
TIME_UNIT_HELPERS = {"ns": ("ns", "ps"), "to_ns": ("ps", "ns")}
#: Calls whose result has their single argument's unit.
_PASSTHROUGH = {"abs", "int", "float", "round"}


def _suffix_unit(name: Optional[str]) -> Optional[str]:
    if name is None:
        return None
    for suffix, unit in UNIT_SUFFIXES.items():
        if name.endswith(suffix) and name != suffix.lstrip("_"):
            return unit
    return None


class _Units:
    """Statement-ordered unit inference over one function body (or the
    module's top-level statements). A value's unit comes from its name
    suffix, from ``sim.now`` (ps), or from a conversion helper's output,
    and flows through local assignments, ``min``/``max``, the
    pass-through calls and ternaries. ``*``, ``/``, ``//`` and ``%``
    change dimension, so their result has no unit."""

    def __init__(self, found: Dict[Tuple[int, int, str], None]) -> None:
        #: diagnostics keyed (line, col, message), kept in order; the
        #: statement walk and the binding both evaluate one expression,
        #: and a site reports once
        self.found = found
        self.env: Dict[str, str] = {}

    def report(self, node: ast.AST, message: str) -> None:
        self.found[(node.lineno, node.col_offset, message)] = None

    def unit_of(self, node: ast.AST) -> Optional[str]:
        """The unit of an expression, or None if it has none known."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id) or _suffix_unit(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr == "now" and terminal(node.value) == "sim":
                return "ps"
            return _suffix_unit(node.attr)
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand)
        if isinstance(node, ast.IfExp):
            body, orelse = self.unit_of(node.body), self.unit_of(node.orelse)
            return body if body == orelse else None
        if isinstance(node, ast.BinOp):
            left, right = self.unit_of(node.left), self.unit_of(node.right)
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                return None
            if left is not None and right is not None and left != right:
                sign = "+" if isinstance(node.op, ast.Add) else "-"
                self.report(node, f"mixed-unit arithmetic: {left} {sign} "
                                  f"{right} (convert through the helpers)")
                return None
            return left or right
        if isinstance(node, ast.Call):
            return self.call_unit(node)
        return None  # constants are unitless and combine with anything

    def call_unit(self, node: ast.Call) -> Optional[str]:
        callee = terminal(node.func)
        if callee in TIME_UNIT_HELPERS:
            expected, produced = TIME_UNIT_HELPERS[callee]
            actual = self.unit_of(node.args[0]) if node.args else None
            if actual is not None and actual != expected:
                self.report(node, f"conversion helper {callee}() expects "
                                  f"{expected} but is given a {actual} value")
            return produced
        if callee in _PASSTHROUGH and len(node.args) == 1:
            return self.unit_of(node.args[0])
        if callee in ("min", "max") and node.args:
            units = {u for u in map(self.unit_of, node.args) if u is not None}
            if len(units) > 1:
                self.report(node, f"{callee}() over mixed units "
                                  f"({', '.join(sorted(units))})")
                return None
            return next(iter(units), None)
        return _suffix_unit(callee)  # e.g. a local elapsed_us()

    def compare(self, node: ast.Compare) -> None:
        units = [self.unit_of(o) for o in [node.left, *node.comparators]]
        for left, right in zip(units, units[1:]):
            if left is not None and right is not None and left != right:
                self.report(node, f"comparison between {left} and {right} "
                                  "values; convert to one unit first")

    def bind(self, name: str, stmt: ast.stmt, value: ast.AST) -> None:
        unit, declared = self.unit_of(value), _suffix_unit(name)
        if declared is not None and unit is not None and declared != unit:
            self.report(stmt, f"'{name}' declares {declared} by suffix but "
                              f"is assigned a {unit} value")
        if unit is not None:
            self.env[name] = unit
        elif declared is not None:
            self.env.setdefault(name, declared)

    def function(self, fn: ast.FunctionDef) -> None:
        args = fn.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            unit = _suffix_unit(arg.arg)
            if unit is not None:
                self.env[arg.arg] = unit
        self.walk(fn.body)

    def walk(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.statement(stmt)

    def statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # a nested scope gets a walker of its own
        if isinstance(stmt, ast.Assign) or \
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self.expression(stmt.value)
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    self.bind(target.id, stmt, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self.expression(stmt.value)
            if isinstance(stmt.target, ast.Name) and \
                    isinstance(stmt.op, (ast.Add, ast.Sub)):
                left = self.env.get(stmt.target.id) or \
                    _suffix_unit(stmt.target.id)
                right = self.unit_of(stmt.value)
                if left is not None and right is not None and left != right:
                    sign = "+" if isinstance(stmt.op, ast.Add) else "-"
                    self.report(stmt, f"mixed-unit arithmetic: {left} "
                                      f"{sign}= {right}")
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self.statement(child)
                elif isinstance(child, ast.expr):
                    self.expression(child)

    def expression(self, node: ast.expr) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Compare):
                self.compare(sub)
            elif isinstance(sub, ast.BinOp):
                self.unit_of(sub)
            elif isinstance(sub, ast.Call):
                self.call_unit(sub)


def mixed_time_units(module: str, tree: ast.Module) -> List[Finding]:
    """SIM015: ``+``/``-`` or a comparison between two known, different
    units; a conversion helper given the wrong unit; a unit-suffixed
    name bound to a value of another unit."""
    found: Dict[Tuple[int, int, str], None] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _Units(found).function(node)
    _Units(found).walk([s for s in tree.body if not isinstance(
        s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))])
    return [(line, message) for line, _, message in found]


#: The checks that read every module at once.
CROSS_MODULE = (undeclared_counter_reads, dead_config_fields)


def run_check(check, trees: Trees) -> List[str]:
    """A check's findings over ``trees``, as ``module:line: message``."""
    if check in CROSS_MODULE:
        found = check(trees)
    else:
        found = [(module, line, message) for module, tree in trees.items()
                 for line, message in check(module, tree)]
    return [f"{module}:{line}: {message}" for module, line, message in found]


# ----------------------------------------------------------------------
# src/repro is clean
# ----------------------------------------------------------------------
def test_no_wall_clock_in_sim_paths(repro_trees):
    """SIM001. Simulated time is the kernel's integer-picosecond clock.
    A host-clock read in a simulated component leaks nondeterminism into
    results and breaks the campaign cache key, which assumes a run is a
    pure function of (design, workload, config, seed). The only reads
    outside host-side code are the ones ``WALL_CLOCK_ALLOWED`` counts."""
    reads: Counter = Counter()
    for module, tree in repro_trees.items():
        for _, callee in wall_clock_reads(module, tree):
            reads[module, callee] += 1
    assert dict(reads) == WALL_CLOCK_ALLOWED, \
        "\n".join(run_check(wall_clock_reads, repro_trees))


def test_no_unseeded_randomness(repro_trees):
    """SIM002. Module-level draws share hidden global state seeded by
    the OS, so two runs with one seed diverge and the result cache
    serves results no run can reproduce. Draw from
    ``repro.sim.rng.Pcg64(seed)`` and pass it explicitly."""
    assert run_check(unseeded_randomness, repro_trees) == []


def test_no_float_time_equality(repro_trees):
    """SIM003. Integer picoseconds compare exactly; float nanoseconds do
    not. Equality on the float form works until a timing parameter
    changes the rounding, and then it silently never holds."""
    assert run_check(float_time_equality, repro_trees) == []


def test_no_mutable_defaults(repro_trees):
    """SIM004. A mutable default is built once at import and shared by
    every call, so a second run in one process (a reused pool worker)
    sees the first run's leftovers."""
    assert run_check(mutable_defaults, repro_trees) == []


def test_every_counter_read_is_declared(repro_trees):
    """SIM006. ``CounterSet`` returns 0 for a name nothing counts, so a
    misspelt read reports a silent zero forever. Every literal counter
    read must name a counter some module adds or declares."""
    assert run_check(undeclared_counter_reads, repro_trees) == []


def test_every_config_field_is_read(repro_trees):
    """SIM007. A config field nothing reads still changes the campaign
    cache key, so sweeping it gives distinct keys for identical runs, a
    null result that looks real."""
    assert run_check(dead_config_fields, repro_trees) == []


def test_no_set_iteration_order(repro_trees):
    """SIM008. String hashing is salted per process, so a set's order
    differs between runs and workers; any list, JSON document or
    schedule built from it does too. Sort the set first."""
    assert run_check(set_iteration, repro_trees) == []


def test_no_swallowed_harness_exceptions(repro_trees):
    """SIM012. The campaign harness counts and reports every failed task,
    dead worker and corrupt cache entry. A broad ``except`` that only
    passes hides exactly those faults: a swallowed cache error silently
    re-simulates, a swallowed pool error silently drops tasks."""
    assert run_check(swallowed_exceptions, repro_trees) == []


def test_no_mixed_time_units(repro_trees):
    """SIM015. The kernel clock is integer picoseconds, timing tables
    hold float nanoseconds and bus rates ``_gbps``/``_ghz``. Adding or
    comparing two different units, or feeding a helper the wrong one,
    gives plausible numbers that corrupt every derived latency and
    bandwidth figure."""
    assert run_check(mixed_time_units, repro_trees) == []


def test_typed_packages_are_fully_annotated(repro_trees):
    """The annotation subset of the strict typing gate, which CI runs
    with mypy (``disallow_untyped_defs``, ``disallow_incomplete_defs``):
    every function in a typed package annotates its return and every
    parameter but ``self``/``cls``. The packages are ``files`` in
    ``mypy.ini``, so the list is written once."""
    config = configparser.ConfigParser()
    config.read(REPO / "mypy.ini", encoding="utf-8")
    packages = [".".join(Path(path.strip()).relative_to("src").parts)
                for path in config["mypy"]["files"].split(",")]
    gaps = []
    for module, tree in repro_trees.items():
        if not in_module(module, *packages):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            missing = [a.arg for a in [*args.posonlyargs, *args.args,
                                       *args.kwonlyargs, args.vararg,
                                       args.kwarg]
                       if a is not None and a.annotation is None
                       and a.arg not in ("self", "cls")]
            if node.returns is None or missing:
                what = f"params {missing}" if missing else "return type"
                gaps.append(f"{module}:{node.lineno}: {node.name}() "
                            f"missing {what} annotation")
    assert gaps == []


# ----------------------------------------------------------------------
# Fixture cases: each check catches its defect and spares look-alikes
# ----------------------------------------------------------------------
def case(case_id: str, check, files, *expected: str):
    """One fixture for ``check``. ``files`` maps module names to sources
    (a plain string is the module ``mod``); ``expected`` has one
    substring per finding the check must report, in order."""
    if isinstance(files, str):
        files = {"mod": files}
    return pytest.param(check, files, expected,
                        id=f"{check.__name__}-{case_id}")


COUNTER_WRITER = """\
    def record(self):
        self.events.add("writebacks")
    """

CASES = [
    # SIM001
    case("flags_time_time", wall_clock_reads, """\
        import time
        def tick():
            return time.time()
        """, "time.time"),
    case("flags_from_import_alias", wall_clock_reads, """\
        from time import perf_counter_ns as pc
        def tick():
            return pc()
        """, "time.perf_counter_ns"),
    case("flags_datetime_now", wall_clock_reads, """\
        from datetime import datetime
        def stamp():
            return datetime.now()
        """, "datetime.datetime.now"),
    case("sim_now_is_clean", wall_clock_reads, """\
        def tick(sim):
            return sim.now
        """),
    case("experiments_modules_exempt", wall_clock_reads, {
        "repro.experiments.eta": """\
            import time
            def eta():
                return time.monotonic()
            """}),
    case("cli_basename_exempt", wall_clock_reads, {"cli": """\
        import time
        def eta():
            return time.monotonic()
        """}),
    # SIM002
    case("flags_module_level_draw", unseeded_randomness, """\
        import random
        def jitter():
            return random.random()
        """, "random.random"),
    case("flags_np_random_rand", unseeded_randomness, """\
        import numpy as np
        def noise(n):
            return np.random.rand(n)
        """, "numpy.random.rand"),
    case("flags_unseeded_default_rng", unseeded_randomness, """\
        import numpy as np
        def gen():
            return np.random.default_rng()
        """, "without an explicit seed"),
    case("seeded_constructors_clean", unseeded_randomness, """\
        import random
        import numpy as np
        def gens(seed):
            return random.Random(seed), np.random.default_rng(seed)
        """),
    case("instance_draws_clean", unseeded_randomness, """\
        def draw(rng):
            return rng.random()
        """),
    # SIM003
    case("flags_ns_attribute_equality", float_time_equality, """\
        def same(a, b):
            return a.mean_ns == b.mean_ns
        """, "a.mean_ns"),
    case("flags_to_ns_call", float_time_equality, """\
        def done(sim, deadline):
            return to_ns(sim.now) != deadline
        """, "to_ns(sim.now)"),
    case("integer_ps_comparison_clean", float_time_equality, """\
        def done(now_ps, deadline_ps):
            return now_ps == deadline_ps
        """),
    case("ordering_comparison_clean", float_time_equality, """\
        def late(a_ns, b_ns):
            return a_ns > b_ns
        """),
    # SIM004
    *[case(f"flags_mutable_default-{default}", mutable_defaults, f"""\
        from collections import defaultdict
        def f(x, acc={default}):
            return acc
        """, "f()") for default in ("[]", "{}", "set()", "dict()",
                                    "defaultdict(int)")],
    case("flags_kwonly_default", mutable_defaults, """\
        def f(*, acc=[]):
            return acc
        """, "f()"),
    case("none_default_clean", mutable_defaults, """\
        def f(x, acc=None, n=3, name="x"):
            return acc or []
        """),
    # SIM006
    case("flags_read_of_never_added_counter", undeclared_counter_reads, {
        "writer": COUNTER_WRITER,
        "reader": """\
            def report(metrics):
                return metrics.events["write_backs"]
            """}, "reader:2: counter 'write_backs'"),
    case("add_in_another_file_satisfies_read", undeclared_counter_reads, {
        "writer": COUNTER_WRITER,
        "reader": """\
            def report(metrics):
                return metrics.events["writebacks"]
            """}),
    case("categories_constant_declares_names", undeclared_counter_reads, {
        "writer": """\
            BREAKDOWN_CATEGORIES = ("read_hit", "read_miss")
            def record(self, kind):
                self.outcomes.add(f"{kind}_hit")
            """,
        "reader": """\
            def hits(metrics):
                return metrics.outcomes["read_hit"]
            """}),
    case("total_tuple_in_counter_class_checked", undeclared_counter_reads,
         """\
        class HitCounters(CounterSet):
            def hits(self):
                return self.total(("tag_hits",))
        """, "'tag_hits'"),
    case("non_counter_subscript_ignored", undeclared_counter_reads, """\
        def get(table):
            return table["anything"]
        """),
    # SIM007
    case("flags_unconsumed_field", dead_config_fields, {
        "conf": """\
            from dataclasses import dataclass
            @dataclass(frozen=True)
            class FooConfig:
                depth: int = 4
                unused_knob: int = 64
            """,
        "user": """\
            def build(config):
                return config.depth
            """}, "FooConfig.unused_knob"),
    case("consumed_everywhere_clean", dead_config_fields, {
        "conf": """\
            from dataclasses import dataclass
            @dataclass
            class FooConfig:
                depth: int = 4
            """,
        "user": """\
            def build(config):
                return config.depth
            """}),
    case("non_config_dataclass_ignored", dead_config_fields, """\
        from dataclasses import dataclass
        @dataclass
        class Result:
            never_read_elsewhere: int = 0
        """),
    # SIM008
    case("flags_for_over_set_call", set_iteration, """\
        def dump(names):
            for name in set(names):
                emit(name)
        """, "sorted()"),
    case("flags_list_of_set_difference", set_iteration, """\
        def leftovers(a, b):
            return list(set(a) - set(b))
        """, "sorted()"),
    case("flags_comprehension_over_set_literal", set_iteration, """\
        def rows(x):
            return [f(v) for v in {x, x + 1}]
        """, "sorted()"),
    case("sorted_wrap_clean", set_iteration, """\
        def dump(a, b):
            for name in sorted(set(a) - set(b)):
                emit(name)
            return sorted({x for x in a})
        """),
    case("membership_and_len_clean", set_iteration, """\
        def stats(a, b):
            seen = set(a)
            return (b in seen), len(seen)
        """),
    # SIM012
    case("flags_except_exception_pass_in_experiments", swallowed_exceptions,
         {"repro.experiments.mod": """\
            def f(g):
                try:
                    g()
                except Exception:
                    pass
            """}, "except Exception"),
    case("flags_bare_except_continue_in_experiments", swallowed_exceptions,
         {"repro.experiments.mod": """\
            def f(items, g):
                for item in items:
                    try:
                        g(item)
                    except:
                        continue
            """}, "bare except"),
    case("handled_broad_except_is_clean", swallowed_exceptions,
         {"repro.experiments.mod": """\
            def f(g, counters):
                try:
                    g()
                except Exception as error:
                    counters["failures"] = repr(error)
            """}),
    case("narrow_except_pass_is_clean", swallowed_exceptions,
         {"repro.experiments.mod": """\
            def f(g):
                try:
                    g()
                except FileNotFoundError:
                    pass
            """}),
    case("non_harness_modules_exempt", swallowed_exceptions,
         {"repro.stats.mod": """\
            def f(g):
                try:
                    g()
                except Exception:
                    pass
            """}),
    # SIM015
    case("flags_mixed_addition", mixed_time_units, """\
        def total(delay_ns, deadline_ps):
            return delay_ns + deadline_ps
        """, "mixed-unit arithmetic"),
    case("flags_mixed_comparison_with_sim_now", mixed_time_units, """\
        def late(sim, latency_ns):
            return sim.now > latency_ns
        """, "between ps and ns"),
    case("flags_helper_given_wrong_unit", mixed_time_units, """\
        def convert(deadline_ps):
            return ns(deadline_ps)
        """, "expects ns"),
    case("flags_suffix_assignment_mismatch", mixed_time_units, """\
        def bind(start_ps):
            start_ns = start_ps
            return start_ns
        """, "'start_ns' declares ns"),
    case("flags_min_over_mixed_units", mixed_time_units, """\
        def soonest(wake_ps, grace_ns):
            return min(wake_ps, grace_ns)
        """, "min() over mixed units"),
    case("one_finding_per_site", mixed_time_units, """\
        def total(delay_ns, deadline_ps):
            mixed = delay_ns + deadline_ps
            return mixed
        """, "mixed-unit arithmetic"),
    case("conversion_through_helper_is_clean", mixed_time_units, """\
        def total(sim, delay_ns):
            deadline_ps = sim.now + ns(delay_ns)
            return deadline_ps
        """),
    case("multiplicative_arithmetic_is_exempt", mixed_time_units, """\
        def rate(total_bytes, runtime_ns, clock_ghz):
            return total_bytes / runtime_ns * clock_ghz
        """),
]


@pytest.mark.parametrize("check, files, expected", CASES)
def test_fixture_case(check, files, expected):
    """The check reports one finding per expected substring, in order,
    and nothing else."""
    trees = {module: ast.parse(dedent(text)) for module, text in files.items()}
    found = run_check(check, trees)
    assert len(found) == len(expected), found
    for message, substring in zip(found, expected):
        assert substring in message
