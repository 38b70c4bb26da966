"""The result-guarding rule set: simulator invariants as lint rules.

Each rule encodes one invariant that the simulator's reproducibility
or the honesty of its campaign cache keys depends on; the rationale
strings below are surfaced by ``tdram-repro lint --list-rules`` and
expanded with examples in ``docs/static-analysis.md``. Rules are
registered with the engine via the
:func:`repro.analysis.engine.register` decorator. SIM015 lives in
:mod:`repro.analysis.units`.

Scoping is by module prefix: host-side orchestration
(``repro.experiments``, ``repro.analysis`` and the ``cli``/``__main__``
entry points) may read the host clock, and only harness code
(``repro.experiments``) is held to the exception-swallowing rule.
"""

from __future__ import annotations

import ast
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from repro.analysis.engine import Finding, Rule, SourceFile, register

#: Module basenames that are user-interface entry points (the wall-clock
#: rule does not apply: a CLI may show ETAs).
_CLI_BASENAMES = {"cli", "__main__"}

#: Attribute names that hold a CounterSet by repo convention; literal
#: subscripts on these receivers are treated as counter reads.
COUNTER_RECEIVERS = {"outcomes", "events", "counters", "counts", "ops"}
#: Module-level ALL-CAPS constants with these suffixes declare counter
#: names produced dynamically (e.g. f-string categories).
DECLARING_SUFFIXES = ("_CATEGORIES", "_COUNTERS")

#: Host wall-clock reads banned in simulated components (SIM001).
WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


# ---------------------------------------------------------------------------
# Shared AST helpers (also used by repro.analysis.units)
# ---------------------------------------------------------------------------
def import_map(nodes: Iterable[ast.AST]) -> Dict[str, str]:
    """Map local names to canonical dotted origins.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter_ns as pc`` maps ``pc -> time.perf_counter_ns``.
    """
    table: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                table[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return table


def dotted(node: ast.AST) -> Optional[str]:
    """Dotted name of a Name/Attribute chain, or None if dynamic."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def canonical(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Dotted name with the leading alias resolved through imports."""
    name = dotted(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = imports.get(head, head)
    return f"{origin}.{rest}" if rest else origin


def terminal(node: ast.AST) -> Optional[str]:
    """Last component of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _str_literals(nodes: Iterable[ast.AST]) -> List[ast.Constant]:
    """The string-literal nodes among ``nodes``, in order."""
    return [n for n in nodes
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _walk_in_counter_class(node: ast.AST, imports: Dict[str, str],
                           counterish: bool = False) \
        -> Iterator[Tuple[ast.AST, bool]]:
    """Every node under ``node``, paired with whether it sits inside a
    counter class (one whose name or a base's name contains
    ``Counter``) — there ``self[...]`` and ``self.total(...)`` are
    counter reads."""
    for child in ast.iter_child_nodes(node):
        inside = counterish
        if isinstance(child, ast.ClassDef):
            names = [child.name] + [
                (canonical(b, imports) or "").rsplit(".", 1)[-1]
                for b in child.bases]
            inside = counterish or any("Counter" in n for n in names)
        yield child, inside
        yield from _walk_in_counter_class(child, imports, inside)


def _counter_names(source: SourceFile) \
        -> Tuple[Set[str], List[Tuple[str, ast.Constant]]]:
    """One module's declared counter names and literal counter reads.

    Declared: the literal first argument of any ``.add("x")``, every
    literal argument of ``.declare(...)``, and every string inside an
    ALL-CAPS ``*_CATEGORIES``/``*_COUNTERS`` assignment. Read: a literal
    subscript or ``.total(("x", ...))`` on a conventional counter
    receiver, or on ``self`` inside a counter class.
    """
    declared: Set[str] = set()
    reads: List[Tuple[str, ast.Constant]] = []

    def counterish(receiver: ast.AST, inside: bool) -> bool:
        name = terminal(receiver)
        return name in COUNTER_RECEIVERS or (name == "self" and inside)

    for node, inside in _walk_in_counter_class(source.tree,
                                               import_map(source.nodes)):
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id.isupper()
                   and t.id.endswith(DECLARING_SUFFIXES)
                   for t in node.targets):
                declared.update(c.value
                                for c in _str_literals(ast.walk(node.value)))
        elif isinstance(node, ast.Subscript) and \
                counterish(node.value, inside):
            reads.extend((c.value, c) for c in _str_literals([node.slice]))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method == "add":
                declared.update(c.value for c in _str_literals(node.args[:1]))
            elif method == "declare":
                declared.update(c.value for c in _str_literals(node.args))
            elif method == "total" and counterish(node.func.value, inside):
                for arg in node.args:
                    if isinstance(arg, (ast.Tuple, ast.List)):
                        reads.extend((c.value, c)
                                     for c in _str_literals(arg.elts))
    return declared, reads


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(terminal(d.func if isinstance(d, ast.Call) else d)
               == "dataclass" for d in node.decorator_list)


def _config_fields(source: SourceFile) \
        -> Iterator[Tuple[str, str, ast.AnnAssign]]:
    """``(class, field, node)`` for every public field of every config
    dataclass in a module: any dataclass in ``repro.config``, and any
    dataclass named ``*Config`` elsewhere. ``ClassVar`` entries are not
    fields."""
    in_config_pkg = source.in_module("repro.config")
    for node in source.nodes:
        if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
            continue
        if not (in_config_pkg or node.name.endswith("Config")):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name) and \
                    not stmt.target.id.startswith("_") and \
                    "ClassVar" not in ast.unparse(stmt.annotation):
                yield node.name, stmt.target.id, stmt


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------
@register
class NoWallClock(Rule):
    """SIM001 — no host wall-clock reads in simulated components."""

    id = "SIM001"
    title = "no wall-clock in sim paths"
    rationale = (
        "Simulated time is the kernel's integer picosecond clock; any "
        "host-clock read (time.time, perf_counter, datetime.now) inside "
        "a simulated component leaks nondeterminism into results and "
        "invalidates the campaign cache key, which assumes a run is a "
        "pure function of (design, workload, config, seed). Host-side "
        "orchestration (repro.experiments, repro.analysis, "
        "cli/__main__ modules) is exempt.")

    def exempt(self, source: SourceFile) -> bool:
        # Campaign ETA displays, report generation and this analysis
        # package may read the host clock.
        return (source.in_module("repro.experiments", "repro.analysis")
                or source.basename in _CLI_BASENAMES)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        imports = import_map(source.nodes)
        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = canonical(node.func, imports)
            if name in WALLCLOCK_CALLS:
                yield self.finding(
                    source, node,
                    f"wall-clock read {name}() in a sim path; simulated "
                    "components must use the kernel clock (sim.now)")


@register
class NoUnseededRandomness(Rule):
    """SIM002 — all randomness flows through a seeded generator."""

    id = "SIM002"
    title = "no unseeded randomness"
    rationale = (
        "Module-level draws (random.random, np.random.rand) share hidden "
        "global state seeded from the OS, so two runs with the same seed "
        "diverge and the on-disk result cache silently serves results no "
        "run can reproduce. Construct random.Random(seed) or "
        "np.random.default_rng(seed) and thread it explicitly.")

    #: Constructors that *are* the approved seeding mechanism — allowed
    #: only when given an explicit seed/bit-generator argument.
    _SEEDED = {
        "random.Random", "numpy.random.default_rng",
        "numpy.random.Generator", "numpy.random.SeedSequence",
        "numpy.random.PCG64", "numpy.random.Philox", "numpy.random.MT19937",
    }

    def check(self, source: SourceFile) -> Iterator[Finding]:
        imports = import_map(source.nodes)
        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = canonical(node.func, imports)
            if name is None or not (name.startswith("random.")
                                    or name.startswith("numpy.random.")):
                continue
            if name in self._SEEDED:
                if node.args or node.keywords:
                    continue
                yield self.finding(
                    source, node,
                    f"{name}() constructed without an explicit seed")
                continue
            yield self.finding(
                source, node,
                f"unseeded module-level randomness {name}(); draw from a "
                "seeded Generator passed in explicitly")


@register
class NoFloatTimeEquality(Rule):
    """SIM003 — no float ``==``/``!=`` on tick or timestamp values."""

    id = "SIM003"
    title = "no float equality on timestamps"
    rationale = (
        "Integer picoseconds (*_ps, sim.now) compare exactly; converted "
        "float nanoseconds/microseconds (*_ns, *_us, to_ns(...)) do not. "
        "An equality test on the float form works until one timing "
        "parameter changes the rounding, then silently never fires.")

    _SUFFIXES = ("_ns", "_us", "_ms")
    _CONVERTERS = {"to_ns", "now_ns"}

    def _is_float_time(self, node: ast.AST) -> bool:
        name = terminal(node)
        if name is not None:
            return name in self._CONVERTERS or name.endswith(self._SUFFIXES)
        return isinstance(node, ast.Call) and \
            terminal(node.func) in self._CONVERTERS

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                culprit = next((o for o in (left, right)
                                if self._is_float_time(o)), None)
                if culprit is not None:
                    yield self.finding(
                        source, node,
                        f"float equality on timestamp expression "
                        f"'{ast.unparse(culprit)}'; compare the integer "
                        "picosecond form instead")


@register
class NoMutableDefaults(Rule):
    """SIM004 — no mutable default arguments."""

    id = "SIM004"
    title = "no mutable default arguments"
    rationale = (
        "A mutable default ([], {}, set()) is created once at import and "
        "shared by every call — state leaks across simulations within "
        "one process, so a second run in the same interpreter sees the "
        "first run's leftovers (exactly what the campaign worker pool, "
        "which reuses processes, would amplify).")

    _FACTORIES = {"list", "dict", "set", "defaultdict", "deque",
                  "bytearray", "OrderedDict", "Counter"}

    def _mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return isinstance(node, ast.Call) and \
            terminal(node.func) in self._FACTORIES

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + \
                [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._mutable(default):
                    yield self.finding(
                        source, default,
                        f"mutable default argument in {node.name}(); "
                        "default to None and construct inside the body")


@register
class CountersDeclared(Rule):
    """SIM006 — every literal counter read is declared somewhere."""

    id = "SIM006"
    title = "counter reads must be declared"
    cross_file = True
    rationale = (
        "CounterSet.__getitem__ returns 0 for unknown names, so a typo "
        "in a read site ('writeback' vs 'writebacks') reports a silent "
        "zero forever. Every name read via a literal subscript or "
        ".total((...)) must appear in an .add()/.declare() call or a "
        "*_CATEGORIES/*_COUNTERS constant somewhere in the tree.")

    def check_project(self, sources: Sequence[SourceFile]) -> Iterator[Finding]:
        declared: Set[str] = set()
        reads = []
        for source in sources:
            names, file_reads = _counter_names(source)
            declared |= names
            reads.extend((source, name, node) for name, node in file_reads)
        for source, name, node in reads:
            if name not in declared:
                yield self.finding(
                    source, node,
                    f"counter '{name}' is read but never added or "
                    "declared anywhere in the tree (reads of unknown "
                    "counters silently return 0)")


@register
class ConfigKnobsConsumed(Rule):
    """SIM007 — every config dataclass field is consumed somewhere."""

    id = "SIM007"
    title = "no dead configuration knobs"
    cross_file = True
    rationale = (
        "A sweep over a config field nothing reads produces distinct "
        "cache keys for identical simulations — quiet nonsense that "
        "looks like a null result. Every field of the *Config "
        "dataclasses (and of every dataclass in repro.config) must "
        "have at least one attribute-access consumer in the tree.")

    def check_project(self, sources: Sequence[SourceFile]) -> Iterator[Finding]:
        consumed = {node.attr for source in sources for node in source.nodes
                    if isinstance(node, ast.Attribute)}
        for source in sources:
            for cls, name, stmt in _config_fields(source):
                if name not in consumed:
                    yield self.finding(
                        source, stmt,
                        f"config field {cls}.{name} is never consumed "
                        "(no attribute access anywhere in the tree) — "
                        "a dead knob that still perturbs the cache key")


@register
class NoSetIterationOrder(Rule):
    """SIM008 — no ordering-sensitive iteration over sets."""

    id = "SIM008"
    title = "no unordered set iteration"
    rationale = (
        "String hashing is salted per interpreter (PYTHONHASHSEED), so "
        "iterating a set yields a different order every process — any "
        "list, JSON document, or schedule built from it differs across "
        "runs and workers. Wrap the set in sorted() before iterating.")

    _CONSUMERS = {"list", "tuple", "enumerate", "iter"}

    def _set_like(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and \
                dotted(node.func) in ("set", "frozenset"):
            return True
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                     ast.BitXor)):
            return self._set_like(node.left) or self._set_like(node.right)
        return False

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.nodes:
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and node.args:
                if dotted(node.func) in self._CONSUMERS or (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "join"):
                    iters.append(node.args[0])
            for candidate in iters:
                if self._set_like(candidate):
                    yield self.finding(
                        source, candidate,
                        "iteration over a set has salted-hash order; wrap "
                        "in sorted() to keep output deterministic")


@register
class NoSilentExceptionSwallow(Rule):
    """SIM012 — no silently swallowed broad exceptions in the harness."""

    id = "SIM012"
    title = "no silent broad except in harness code"
    rationale = (
        "The campaign harness survives failed tasks, dead workers, and "
        "corrupt cache entries by *counting and reporting* every "
        "failure; a bare/broad except whose body is just pass hides the "
        "exact faults the campaign engine exists to surface — a "
        "swallowed OSError in a cache path silently re-simulates, a "
        "swallowed pool error silently drops tasks. Catch the narrow "
        "type, or record the failure (counter, failures entry) before "
        "continuing.")

    _BROAD = {"Exception", "BaseException"}

    def exempt(self, source: SourceFile) -> bool:
        # Only harness/orchestration code is held to this: the campaign
        # engine and its CLI plumbing.
        return not source.in_module("repro.experiments")

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        names = list(handler.type.elts) \
            if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(terminal(name) in self._BROAD for name in names)

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        return all(
            isinstance(stmt, (ast.Pass, ast.Continue)) or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis)
            for stmt in handler.body)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._is_broad(node) and self._swallows(node):
                caught = "bare except" if node.type is None else \
                    f"except {ast.unparse(node.type)}"
                yield self.finding(
                    source, node,
                    f"{caught} silently swallowed in harness code; catch "
                    "the narrow exception or count/report the failure "
                    "before continuing")
