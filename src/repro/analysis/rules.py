"""The SIM001–SIM016 core rule set: simulator invariants as lint rules.

Each rule encodes one invariant the simulator's reproducibility or
result integrity depends on; the rationale strings below are surfaced
by ``tdram-repro lint --list-rules``/``--explain`` and expanded with
examples in ``docs/static-analysis.md``. Rules are registered with the
engine via the :func:`repro.analysis.engine.register` decorator.
SIM014 lives in :mod:`repro.analysis.cachekey`, SIM015 in
:mod:`repro.analysis.units`, and SIM017/SIM018 in
:mod:`repro.analysis.contracts`.

Scoping: the historical module-prefix lists (``repro.sim``/``cache``/
``dram`` are hot, ``repro.experiments`` is host-side) remain as a
conservative floor, and the rules that police the dispatch path
(SIM001, SIM011) additionally consult the sim-reachability call graph
(:mod:`repro.analysis.callgraph`): a function *proven* reachable from
the kernel dispatch entry points is held to the sim invariants no
matter which module it lives in.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow import (
    COUNTER_ADD_RECEIVERS,
    FileFacts,
    canonical as _canonical,
    dotted as _dotted,
    terminal as _terminal,
    import_map as _import_map,
)
from repro.analysis.engine import (
    Finding,
    ProjectContext,
    Rule,
    SourceFile,
    register,
)

#: Cross-file rules whose findings may live in the committed baseline
#: (with justification); everything else must be fixed or suppressed
#: inline at the use site.
BASELINE_RULES = frozenset({"SIM006", "SIM007", "SIM016"})

#: All rule ids the analysis package provides, in catalogue order.
SIM_RULES = tuple(f"SIM{n:03d}" for n in range(1, 19))

#: Module basenames that are user-interface entry points (SIM010 and
#: the wall-clock rule do not apply: a CLI may print and show ETAs).
_CLI_BASENAMES = {"cli", "__main__"}


def _modkey_in(modkey: str, *prefixes: str) -> bool:
    """Module-prefix test on a facts module key (dotted or basename)."""
    return any(modkey == p or modkey.startswith(p + ".") for p in prefixes)


def _modkey_basename(modkey: str) -> str:
    return modkey.rsplit(".", 1)[-1]


@register
class NoWallClock(Rule):
    """SIM001 — no host wall-clock reads in simulated components."""

    id = "SIM001"
    title = "no wall-clock in sim paths"
    cross_file = True
    rationale = (
        "Simulated time is the kernel's integer picosecond clock; any "
        "host-clock read (time.time, perf_counter, datetime.now) inside "
        "a simulated component leaks nondeterminism into results and "
        "invalidates the campaign cache key, which assumes a run is a "
        "pure function of (design, workload, config, seed). Scope is "
        "the union of the non-host module floor and every function the "
        "call graph proves reachable from kernel dispatch.")

    def _host_side(self, modkey: str) -> bool:
        # Host-side orchestration (campaign ETA displays, deadline
        # supervision, report generation, this analysis package) may
        # read the host clock; simulated components may not.
        return (_modkey_in(modkey, "repro.experiments", "repro.analysis",
                           "repro.resilience")
                or _modkey_basename(modkey) in _CLI_BASENAMES)

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.graph
        for display, facts in sorted(project.facts.items()):
            modkey = facts.modkey
            sites = facts.get("wallclock", [])
            assert isinstance(sites, list)
            for site in sites:
                in_scope = not self._host_side(modkey)
                if not in_scope and graph.active:
                    in_scope = graph.is_reachable(modkey, str(site["fn"]))
                if in_scope:
                    yield self.at(
                        display, site["line"], site["col"],
                        f"wall-clock read {site['name']}() in a sim path; "
                        "simulated components must use the kernel clock "
                        "(sim.now)")


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
        imports = _import_map(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _canonical(node.func, imports)
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
        terminal = _terminal(node)
        if terminal is not None:
            if terminal in self._CONVERTERS:
                return True
            if any(terminal.endswith(s) for s in self._SUFFIXES):
                return True
        if isinstance(node, ast.Call):
            func = _terminal(node.func)
            return func in self._CONVERTERS
        return False

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
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

    def _mutable(self, node: Optional[ast.AST]) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _terminal(node.func) in self._FACTORIES
        return False

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
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
class NoConfigMutation(Rule):
    """SIM005 — event handlers must not mutate the system configuration."""

    id = "SIM005"
    title = "no SystemConfig mutation"
    rationale = (
        "SystemConfig is frozen and hashed into the campaign cache key "
        "before the run starts; a component mutating it mid-run (via "
        "attribute assignment or object.__setattr__) would make the key "
        "lie about what was simulated. Derive a new config with "
        "config.with_(...) before the simulator is built instead.")

    _CONFIG_NAMES = {"config", "cfg", "conf", "system_config", "sysconfig"}

    def _config_like(self, node: ast.AST) -> bool:
        terminal = _terminal(node)
        return terminal in self._CONFIG_NAMES

    def exempt(self, source: SourceFile) -> bool:
        # The config package itself may use frozen-dataclass plumbing.
        return source.in_module("repro.config")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and \
                            self._config_like(target.value):
                        yield self.finding(
                            source, node,
                            f"assignment to configuration attribute "
                            f"'{ast.unparse(target)}'; configs are frozen "
                            "inputs — use with_() before the run")
            elif isinstance(node, ast.Call):
                func = _dotted(node.func)
                if func in ("setattr", "object.__setattr__") and node.args \
                        and self._config_like(node.args[0]):
                    yield self.finding(
                        source, node,
                        "setattr on a configuration object; configs are "
                        "frozen inputs — use with_() before the run")


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

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        declared: Set[str] = set()
        for facts in project.facts.values():
            names = facts.get("declared_counters", [])
            assert isinstance(names, list)
            declared.update(str(n) for n in names)
        for display, facts in sorted(project.facts.items()):
            reads = facts.get("counter_reads", [])
            assert isinstance(reads, list)
            for name, line, col in reads:
                if name not in declared:
                    yield self.at(
                        display, line, col,
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
        "dataclasses must have at least one attribute-access consumer "
        "in the tree (or a baseline entry explaining why it stays).")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        consumed: Set[str] = set()
        for facts in project.facts.values():
            reads = facts.get("attr_reads", [])
            assert isinstance(reads, list)
            consumed.update(str(n) for n in reads)
        for display, facts in sorted(project.facts.items()):
            in_config_pkg = _modkey_in(facts.modkey, "repro.config")
            dataclasses = facts.get("dataclasses", [])
            assert isinstance(dataclasses, list)
            for record in dataclasses:
                cls = str(record["name"]).rsplit(".", 1)[-1]
                if not (in_config_pkg or cls.endswith("Config")):
                    continue
                for name, line, col, _annotation in record["fields"]:
                    if name not in consumed:
                        yield self.at(
                            display, line, col,
                            f"config field {cls}.{name} is never consumed "
                            "(no attribute access anywhere in the tree) — "
                            "a dead knob that still perturbs the cache key")


@register
class NoSetIterationOrder(Rule):
    """SIM008 — no ordering-sensitive iteration over sets."""

    id = "SIM008"
    title = "no unordered set iteration"
    cross_file = False
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
                _dotted(node.func) in ("set", "frozenset"):
            return True
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                     ast.BitXor)):
            return self._set_like(node.left) or self._set_like(node.right)
        return False

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                func = _dotted(node.func)
                if func in self._CONSUMERS and node.args:
                    iters.append(node.args[0])
                elif isinstance(node.func, ast.Attribute) and \
                        node.func.attr == "join" and node.args:
                    iters.append(node.args[0])
            for candidate in iters:
                if self._set_like(candidate):
                    yield self.finding(
                        source, candidate,
                        "iteration over a set has salted-hash order; wrap "
                        "in sorted() to keep output deterministic")


@register
class PublicApiDocstrings(Rule):
    """SIM009 — public ``repro.obs``/``repro.ras`` APIs keep docstrings."""

    id = "SIM009"
    title = "public obs/ras APIs documented"
    rationale = (
        "The observability and RAS layers are the repo's debugging "
        "surface; CI has gated them at 100% public docstring coverage "
        "since they shipped. This rule absorbs tools/check_docstrings.py "
        "so one engine reports everything.")

    def exempt(self, source: SourceFile) -> bool:
        return not source.in_module("repro.obs", "repro.ras")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if ast.get_docstring(source.tree) is None:
            yield self.finding(source, source.tree,
                               "public module is missing a docstring")
        stack: List[Tuple[str, ast.AST]] = [("", source.tree)]
        while stack:
            prefix, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    name = f"{prefix}{child.name}"
                    stack.append((f"{name}.", child))
                    if not child.name.startswith("_") and \
                            ast.get_docstring(child) is None:
                        yield self.finding(
                            source, child,
                            f"public API {name} is missing a docstring")


@register
class NoPrintInLibrary(Rule):
    """SIM010 — no ``print()`` in library code."""

    id = "SIM010"
    title = "no print() outside CLI modules"
    rationale = (
        "Library-level prints corrupt machine-readable output (JSON "
        "results on stdout), interleave nondeterministically under the "
        "campaign process pool, and can't be silenced by callers. "
        "Return strings or write to an explicit stream; only CLI entry "
        "points own stdout.")

    def exempt(self, source: SourceFile) -> bool:
        return source.basename in _CLI_BASENAMES

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "print":
                yield self.finding(
                    source, node,
                    "print() in library code; return a string or take an "
                    "explicit stream (CLI modules own stdout)")


@register
class NoClosureOnDispatchPath(Rule):
    """SIM011 — no per-event closure allocation on dispatch paths."""

    id = "SIM011"
    title = "no closures in event scheduling"
    cross_file = True
    rationale = (
        "sim.at()/sim.schedule() run once per simulated event — the "
        "hottest loop in the tree. A lambda (or functools.partial) "
        "argument allocates a fresh closure and cell objects for every "
        "event; the scheduler already stores trailing arguments on the "
        "event handle, so ``sim.at(t, self._writeback, block)`` carries "
        "the same state with zero extra allocation. The campaign-scale "
        "cost of the closure idiom is what the event-queue rewrite "
        "removed; this rule keeps it out of repro.sim/cache/dram and "
        "out of any function the call graph proves dispatch-reachable.")

    _MESSAGES = {
        "lambda": (
            "lambda allocated per scheduled event; pass the "
            "callable and its arguments separately — "
            "at(t, callback, *args) stores them on the handle"),
        "partial": (
            "functools.partial allocated per scheduled event; "
            "at(t, callback, *args) already carries trailing "
            "arguments without the extra object"),
    }

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.graph
        for display, facts in sorted(project.facts.items()):
            modkey = facts.modkey
            sites = facts.get("sched_closures", [])
            assert isinstance(sites, list)
            for site in sites:
                # Hot-path floor: the kernel/cache/dram packages are
                # always in scope; elsewhere only if dispatch-reachable.
                in_scope = _modkey_in(modkey, "repro.sim", "repro.cache",
                                      "repro.dram")
                if not in_scope and graph.active:
                    in_scope = graph.is_reachable(modkey, str(site["fn"]))
                if in_scope:
                    yield self.at(display, site["line"], site["col"],
                                  self._MESSAGES[str(site["kind"])])


@register
class NoSilentExceptionSwallow(Rule):
    """SIM012 — no silently swallowed broad exceptions in the harness."""

    id = "SIM012"
    title = "no silent broad except in harness code"
    rationale = (
        "The campaign harness survives worker crashes, hung tasks, and "
        "corrupt cache entries by *counting and reporting* every "
        "failure; a bare/broad except whose body is just pass hides the "
        "exact faults the resilience layer exists to surface — a "
        "swallowed OSError in a store path silently re-simulates, a "
        "swallowed pool error silently drops tasks. Catch the narrow "
        "type, or record the failure (counter, manifest row, journal "
        "record) before continuing.")

    _BROAD = {"Exception", "BaseException"}

    def exempt(self, source: SourceFile) -> bool:
        # Only harness/orchestration code is held to this: the engine,
        # the resilience layer, and their CLI plumbing.
        return not source.in_module("repro.experiments", "repro.resilience")

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        names = [handler.type]
        if isinstance(handler.type, ast.Tuple):
            names = list(handler.type.elts)
        return any((_terminal(name) or "") in self._BROAD for name in names)

    def _swallows(self, handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and \
                    isinstance(stmt.value, ast.Constant) and \
                    stmt.value.value is Ellipsis:
                continue
            return False
        return True

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
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


@register
class DesignsRegisteredInCli(Rule):
    """SIM013 — every registered design appears in the CLI design table."""

    id = "SIM013"
    title = "no dead designs (registry vs CLI table)"
    cross_file = True
    rationale = (
        "repro.cache.DESIGNS is what campaigns can simulate; the CLI's "
        "_DESIGN_SUMMARIES table is what users can discover. A design "
        "present in only one of them is either unreachable from the "
        "command line (dead code that still bloats the registry) or a "
        "documented name every campaign rejects. The two tables must "
        "list exactly the same design names.")

    def _table(self, project: ProjectContext, modkey: str,
               name: str) -> Optional[Tuple[str, Dict[str, object], Set[str]]]:
        for display, facts in sorted(project.facts.items()):
            if facts.modkey != modkey:
                continue
            constants = facts.get("constants", {})
            assert isinstance(constants, dict)
            record = constants.get(name)
            if isinstance(record, dict) and record.get("kind") == "dict":
                keys = record.get("keys", [])
                assert isinstance(keys, list)
                return display, record, {str(k) for k in keys}
        return None

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        registry = self._table(project, "repro.cache", "DESIGNS")
        table = self._table(project, "repro.experiments.cli",
                            "_DESIGN_SUMMARIES")
        # Inert when either side is missing (e.g. linting a subtree).
        if registry is None or table is None:
            return
        reg_display, reg_record, reg_keys = registry
        cli_display, cli_record, cli_keys = table
        for name in sorted(reg_keys - cli_keys):
            yield self.at(
                cli_display, cli_record["line"], cli_record["col"],
                f"design '{name}' is registered in repro.cache.DESIGNS but "
                "missing from the CLI _DESIGN_SUMMARIES table — "
                "undiscoverable from the command line")
        for name in sorted(cli_keys - reg_keys):
            yield self.at(
                reg_display, reg_record["line"], reg_record["col"],
                f"design '{name}' is listed in the CLI _DESIGN_SUMMARIES "
                "table but not registered in repro.cache.DESIGNS — every "
                "campaign will reject it")


@register
class NoOrphanCounters(Rule):
    """SIM016 — no counters incremented but never surfaced anywhere."""

    id = "SIM016"
    title = "no orphan counters"
    cross_file = True
    rationale = (
        "The inverse of SIM006: a counter that is .add()ed on a "
        "CounterSet receiver but never read via a literal subscript or "
        ".total((...)), never listed in a *_CATEGORIES/*_COUNTERS "
        "declaring constant, and never documented in docs/metrics.md "
        "is write-only bookkeeping — it costs a dict update per event "
        "and tells nobody anything. Surface it in a dump/epoch/metrics "
        "table or delete the increment.")

    def _surfaced(self, project: ProjectContext) -> Set[str]:
        names: Set[str] = set()
        for facts in project.facts.values():
            reads = facts.get("counter_reads", [])
            assert isinstance(reads, list)
            names.update(str(r[0]) for r in reads)
            constants = facts.get("constants", {})
            assert isinstance(constants, dict)
            for const_name, record in constants.items():
                if not (const_name.isupper() and
                        const_name.endswith(("_CATEGORIES", "_COUNTERS"))):
                    continue
                assert isinstance(record, dict)
                if record.get("kind") == "seq":
                    values = record.get("values", [])
                    assert isinstance(values, list)
                    names.update(str(v) for v in values)
                elif record.get("kind") == "dict":
                    keys = record.get("keys", [])
                    assert isinstance(keys, list)
                    names.update(str(k) for k in keys)
        if project.root is not None:
            metrics_doc = project.root / "docs" / "metrics.md"
            if metrics_doc.exists():
                text = metrics_doc.read_text(encoding="utf-8")
                for facts in project.facts.values():
                    adds = facts.get("counter_adds", [])
                    assert isinstance(adds, list)
                    names.update(str(a[0]) for a in adds
                                 if f"`{a[0]}`" in text)
        return names

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        surfaced = self._surfaced(project)
        seen: Set[Tuple[str, str]] = set()
        for display, facts in sorted(project.facts.items()):
            adds = facts.get("counter_adds", [])
            assert isinstance(adds, list)
            for name, line, col, receiver, _cls in adds:
                if receiver not in COUNTER_ADD_RECEIVERS:
                    continue
                if str(name) in surfaced:
                    continue
                # One finding per (file, counter), not per increment.
                if (display, str(name)) in seen:
                    continue
                seen.add((display, str(name)))
                yield self.at(
                    display, line, col,
                    f"counter '{name}' is incremented but never surfaced "
                    "— no literal read, no declaring constant, no "
                    "docs/metrics.md row (write-only bookkeeping)")
