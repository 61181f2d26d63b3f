"""Whole-program facts and the ProjectGraph behind reprolint v2.

The whole-program rules (RL002 engine purity, RL009 seed provenance,
RL010 snapshot coverage, RL011 cache-key completeness) all need
cross-file visibility.  Rather than hand each rule the raw ASTs of
every file, extraction reduces each file — in the same single parse the
per-file rules use — to a serializable :class:`FileFacts` record:
imports, function taint summaries, seed call sites, per-element-loop
positions, call edges, snapshot-class field lists, config dataclass
fields, cache-key-builder evidence, and (for ``tests/`` /
``benchmarks/``) the identifier/metric evidence RL003/RL007 already
consumed.

A :class:`ProjectGraph` is the indexed union of those records: a
project-wide symbol table (``module:function`` -> taint summary), the
import graph (with the reverse closure ``repro lint --changed`` needs),
and the one-level call graph RL002 walks.  Because facts are plain
JSON, the incremental cache (:mod:`repro.analysis.cache`) can persist
them per content hash and warm runs rebuild the graph without parsing
a single unchanged file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .core import (
    RuleViolation,
    iter_python_files,
    lint_context,
    module_name_for,
    parse_pragmas,
    parse_transient_lines,
    scope_for,
)
from .dataflow import (
    CONST,
    CallTaint,
    FunctionSummary,
    Join,
    TaintEvaluator,
    dotted_name,
    join,
    taint_from_json,
    taint_to_json,
)

__all__ = [
    "ConfigClassFacts",
    "FileFacts",
    "FileRecord",
    "KeyBuilderFacts",
    "ProjectGraph",
    "SeedSite",
    "SnapshotClassFacts",
    "analyze_paths",
    "extract_facts",
    "is_dataclass_def",
    "per_element_loops",
]

#: Call names whose argument provenance RL009 audits.
SEED_SINKS = frozenset({"default_rng", "spawn_streams"})

#: Methods of a snapshot-participating class that *define* the overlay
#: (or deterministically rebuild into it) — mutations there are the
#: mechanism, not drift.
_SNAPSHOT_METHODS = frozenset(
    {"__init__", "__post_init__", "snapshot_state", "restore_state"}
)


@dataclass(frozen=True)
class SeedSite:
    """One ``default_rng``/``spawn_streams`` call with the dataflow
    taint of its arguments (None = called with no arguments)."""

    line: int
    end_line: int
    func: str  # the sink's name ("default_rng" | "spawn_streams")
    owner: str  # enclosing function name, or "<module>"
    taint: object | None

    def to_json(self) -> dict:
        return {
            "line": self.line,
            "end_line": self.end_line,
            "func": self.func,
            "owner": self.owner,
            "taint": None if self.taint is None else taint_to_json(self.taint),
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "SeedSite":
        taint = payload.get("taint")
        return cls(
            line=int(payload["line"]),
            end_line=int(payload["end_line"]),
            func=str(payload["func"]),
            owner=str(payload.get("owner", "")),
            taint=None if taint is None else taint_from_json(taint),
        )


@dataclass(frozen=True)
class SnapshotClassFacts:
    """A class participating in the recovery overlay (defines both
    ``snapshot_state`` and ``restore_state``)."""

    name: str
    line: int
    #: attr -> (first mutation line, carries a transient pragma)
    mutated: tuple[tuple[str, int, bool], ...]
    #: self.<attr> names (and string keys) the snapshot/restore pair touches
    captured: frozenset[str]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "line": self.line,
            "mutated": [list(entry) for entry in self.mutated],
            "captured": sorted(self.captured),
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "SnapshotClassFacts":
        return cls(
            name=str(payload["name"]),
            line=int(payload["line"]),
            mutated=tuple(
                (str(a), int(l), bool(t)) for a, l, t in payload.get("mutated", [])
            ),
            captured=frozenset(payload.get("captured", [])),
        )


@dataclass(frozen=True)
class ConfigClassFacts:
    """A ``*Config`` dataclass and its (field -> definition line) map."""

    name: str
    line: int
    fields: tuple[tuple[str, int], ...]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "line": self.line,
            "fields": [list(entry) for entry in self.fields],
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "ConfigClassFacts":
        return cls(
            name=str(payload["name"]),
            line=int(payload["line"]),
            fields=tuple((str(n), int(l)) for n, l in payload.get("fields", [])),
        )


@dataclass(frozen=True)
class KeyBuilderFacts:
    """Evidence from one cache-key-builder function: which config
    fields its key incorporates, and which prefixes it excludes."""

    name: str
    line: int
    string_keys: frozenset[str]
    param_attrs: frozenset[str]  # attribute names read off parameters
    asdict_classes: frozenset[str]  # annotation names of asdict()'d params
    exclusion_prefixes: frozenset[str]  # startswith("...") literals

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "line": self.line,
            "string_keys": sorted(self.string_keys),
            "param_attrs": sorted(self.param_attrs),
            "asdict_classes": sorted(self.asdict_classes),
            "exclusion_prefixes": sorted(self.exclusion_prefixes),
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "KeyBuilderFacts":
        return cls(
            name=str(payload["name"]),
            line=int(payload["line"]),
            string_keys=frozenset(payload.get("string_keys", [])),
            param_attrs=frozenset(payload.get("param_attrs", [])),
            asdict_classes=frozenset(payload.get("asdict_classes", [])),
            exclusion_prefixes=frozenset(payload.get("exclusion_prefixes", [])),
        )


@dataclass
class FileFacts:
    """Everything the whole-program rules need to know about one file."""

    path: str
    module: str
    scope: str
    is_package: bool = False
    imports: dict[str, str] = field(default_factory=dict)
    summaries: dict[str, FunctionSummary] = field(default_factory=dict)
    seed_sites: list[SeedSite] = field(default_factory=list)
    loops: dict[str, tuple[int, ...]] = field(default_factory=dict)
    calls: dict[str, tuple[str, ...]] = field(default_factory=dict)
    snapshot_classes: list[SnapshotClassFacts] = field(default_factory=list)
    config_classes: list[ConfigClassFacts] = field(default_factory=list)
    key_builders: list[KeyBuilderFacts] = field(default_factory=list)
    test_identifiers: frozenset[str] = frozenset()
    gate_calls: dict[str, int] = field(default_factory=dict)
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)

    def pragma_allows(self, rule: str, *lines: int) -> bool:
        """False when a disable= pragma covers the rule on any line."""
        for line in lines:
            disabled = self.pragmas.get(line)
            if disabled and (rule in disabled or "ALL" in disabled):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "module": self.module,
            "scope": self.scope,
            "is_package": self.is_package,
            "imports": dict(self.imports),
            "summaries": {n: s.to_json() for n, s in self.summaries.items()},
            "seed_sites": [s.to_json() for s in self.seed_sites],
            "loops": {n: list(lines) for n, lines in self.loops.items()},
            "calls": {n: list(callees) for n, callees in self.calls.items()},
            "snapshot_classes": [c.to_json() for c in self.snapshot_classes],
            "config_classes": [c.to_json() for c in self.config_classes],
            "key_builders": [b.to_json() for b in self.key_builders],
            "test_identifiers": sorted(self.test_identifiers),
            "gate_calls": dict(self.gate_calls),
            "pragmas": {str(k): sorted(v) for k, v in self.pragmas.items()},
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "FileFacts":
        return cls(
            path=str(payload["path"]),
            module=str(payload.get("module", "")),
            scope=str(payload.get("scope", "")),
            is_package=bool(payload.get("is_package", False)),
            imports=dict(payload.get("imports", {})),
            summaries={
                n: FunctionSummary.from_json(s)
                for n, s in payload.get("summaries", {}).items()
            },
            seed_sites=[SeedSite.from_json(s) for s in payload.get("seed_sites", [])],
            loops={n: tuple(v) for n, v in payload.get("loops", {}).items()},
            calls={n: tuple(v) for n, v in payload.get("calls", {}).items()},
            snapshot_classes=[
                SnapshotClassFacts.from_json(c)
                for c in payload.get("snapshot_classes", [])
            ],
            config_classes=[
                ConfigClassFacts.from_json(c)
                for c in payload.get("config_classes", [])
            ],
            key_builders=[
                KeyBuilderFacts.from_json(b) for b in payload.get("key_builders", [])
            ],
            test_identifiers=frozenset(payload.get("test_identifiers", [])),
            gate_calls={k: int(v) for k, v in payload.get("gate_calls", {}).items()},
            pragmas={
                int(k): frozenset(v) for k, v in payload.get("pragmas", {}).items()
            },
        )


# ---------------------------------------------------------------------------
# Fact extraction (one pass per file, sharing the lint parse)
# ---------------------------------------------------------------------------


def _import_table(tree: ast.Module, module: str, is_package: bool) -> dict[str, str]:
    """Local binding -> dotted origin: ``pkg.mod`` for module imports,
    ``pkg.mod:symbol`` for from-imports, relative imports resolved
    against the importing module's package."""
    package_parts = module.split(".") if module else []
    if not is_package and package_parts:
        package_parts = package_parts[:-1]
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(base_parts)
                origin = f"{base}.{node.module}" if node.module else base
            else:
                origin = node.module or ""
            if not origin:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{origin}:{alias.name}"
    return table


def _qualify_taint(taint, local_functions: set[str], imports: dict[str, str], module: str):
    """Rewrite plain CallTaint callee names into ``module:symbol`` form
    so resolution works from any file's namespace."""
    if isinstance(taint, CallTaint):
        callee = taint.callee
        if ":" not in callee:
            if callee in local_functions:
                callee = f"{module}:{taint.callee}"
            elif callee in imports and ":" in imports[callee]:
                callee = imports[callee]
        return CallTaint(
            callee=callee,
            args=tuple(
                _qualify_taint(a, local_functions, imports, module)
                for a in taint.args
            ),
        )
    if isinstance(taint, Join):
        return Join(
            tuple(
                _qualify_taint(p, local_functions, imports, module)
                for p in taint.parts
            )
        )
    return taint


def _module_constants(tree: ast.Module) -> dict[str, object]:
    """Top-level ``NAME = <literal>`` bindings: CONST in any function's
    environment, so ``default_rng(DEFAULT_SEED)`` reads as a constant."""
    env: dict[str, object] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env[target.id] = CONST
        elif (
            isinstance(stmt, ast.AnnAssign)
            and stmt.value is not None
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.target, ast.Name)
        ):
            env[stmt.target.id] = CONST
    return env


def _loop_var_names(target: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}


def _subscripted_by(node: ast.AST, names: set[str]) -> ast.AST | None:
    """First Subscript in the subtree whose index uses one of ``names``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Subscript):
            for inner in ast.walk(sub.slice):
                if isinstance(inner, ast.Name) and inner.id in names:
                    return sub
    return None


def per_element_loops(scope: ast.AST) -> list[int]:
    """Lines of ``for i in range(...)`` loops whose body subscripts with
    the loop variable — the per-element scalar pattern RL002 flags.
    Recorded for every top-level function and class, so RL002 can check
    engine bodies and follow engine calls into helpers."""
    lines: list[int] = []
    for node in ast.walk(scope):
        if not isinstance(node, ast.For):
            continue
        iterator = node.iter
        if not (
            isinstance(iterator, ast.Call)
            and isinstance(iterator.func, ast.Name)
            and iterator.func.id == "range"
        ):
            continue
        loop_vars = _loop_var_names(node.target)
        body = ast.Module(body=node.body, type_ignores=[])
        if _subscripted_by(body, loop_vars) is not None:
            lines.append(node.lineno)
    return lines


def _plain_callees(scope: ast.AST) -> tuple[str, ...]:
    """Plain-name calls anywhere in a top-level symbol's subtree — the
    one-level call-graph edges RL002 follows into helpers."""
    seen: list[str] = []
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id not in seen
        ):
            seen.append(node.func.id)
    return tuple(seen)


def _self_attr_target(target: ast.expr) -> str | None:
    """Attribute name for targets rooted at self: ``self.x``,
    ``self.x[...]``, ``self.x.y`` all mutate attribute ``x``."""
    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
    while isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return node.attr
        node = node.value
    return None


def _snapshot_class_facts(
    node: ast.ClassDef, transient_lines: frozenset[int]
) -> SnapshotClassFacts | None:
    methods = {
        stmt.name: stmt
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    if "snapshot_state" not in methods or "restore_state" not in methods:
        return None
    captured: set[str] = set()
    for name in ("snapshot_state", "restore_state"):
        for sub in ast.walk(methods[name]):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                captured.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                captured.add(sub.value)
    # Transient marks may sit on any assignment to the attr in the class
    # (usually its __init__ definition site).
    transient_attrs: set[str] = set()
    mutated: dict[str, tuple[int, bool]] = {}
    for method_name, method in methods.items():
        for stmt in ast.walk(method):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                attr = _self_attr_target(target)
                if attr is None:
                    continue
                marked = any(
                    line in transient_lines
                    for line in range(
                        stmt.lineno, (stmt.end_lineno or stmt.lineno) + 1
                    )
                )
                if marked:
                    transient_attrs.add(attr)
                if method_name in _SNAPSHOT_METHODS:
                    continue
                if attr not in mutated:
                    mutated[attr] = (stmt.lineno, False)
    entries = tuple(
        (attr, line, attr in transient_attrs)
        for attr, (line, _) in sorted(mutated.items())
    )
    return SnapshotClassFacts(
        name=node.name, line=node.lineno, mutated=entries, captured=frozenset(captured)
    )


def is_dataclass_def(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if dotted_name(target).rsplit(".", 1)[-1] == "dataclass":
            return True
    return False


def _config_class_facts(node: ast.ClassDef) -> ConfigClassFacts | None:
    if not node.name.endswith("Config") or not is_dataclass_def(node):
        return None
    fields: list[tuple[str, int]] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            fields.append((stmt.target.id, stmt.lineno))
    if not fields:
        return None
    return ConfigClassFacts(name=node.name, line=node.lineno, fields=tuple(fields))


_KEY_BUILDER_NAME = re.compile(r"(_config$|_run_key$|_cache_key$|^key_for$|^config_hash$)")


def _key_builder_facts(node: ast.FunctionDef) -> KeyBuilderFacts | None:
    calls_hash = False
    has_dict = False
    asdict_args: list[ast.expr] = []
    exclusions: set[str] = set()
    strings: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Dict, ast.DictComp)):
            has_dict = True
        elif isinstance(sub, ast.Call):
            name = dotted_name(sub.func).rsplit(".", 1)[-1]
            if name == "config_hash":
                calls_hash = True
            elif name == "asdict" and sub.args:
                has_dict = True
                asdict_args.append(sub.args[0])
            elif name == "startswith":
                for arg in sub.args:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        exclusions.add(arg.value)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            strings.add(sub.value)
    named_like_builder = bool(_KEY_BUILDER_NAME.search(node.name))
    if not (calls_hash or (named_like_builder and has_dict)):
        return None
    params = {
        a.arg: a.annotation
        for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
    }
    param_attrs: set[str] = set()
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in params
        ):
            param_attrs.add(sub.attr)
    asdict_classes: set[str] = set()
    for arg in asdict_args:
        if isinstance(arg, ast.Name) and arg.id in params:
            annotation = params[arg.id]
            if annotation is not None:
                text = ast.unparse(annotation).strip("\"'")
                asdict_classes.add(text.rsplit(".", 1)[-1])
    return KeyBuilderFacts(
        name=node.name,
        line=node.lineno,
        string_keys=frozenset(strings),
        param_attrs=frozenset(param_attrs),
        asdict_classes=frozenset(asdict_classes),
        exclusion_prefixes=frozenset(exclusions),
    )


def referenced_identifiers(tree: ast.Module) -> frozenset[str]:
    """Every name a test file references, defines or imports (RL003's
    evidence that it exercises a spec and its engine)."""
    identifiers: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            identifiers.add(node.id)
        elif isinstance(node, ast.Attribute):
            identifiers.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            identifiers.add(node.name)
        elif isinstance(node, ast.alias):
            identifiers.add(node.name.rsplit(".", 1)[-1])
    return frozenset(identifiers)


def _gate_speedup_sites(tree: ast.Module) -> dict[str, int]:
    calls: dict[str, int] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name) and node.func.id == "gate_speedup")
                or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "gate_speedup"
                )
            )
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            calls[node.args[0].value] = node.lineno
    return calls


def _collect_seed_sites(
    scope: ast.AST, owner: str, outer_env: Mapping[str, object]
) -> tuple[list[SeedSite], "FunctionSummary"]:
    """Run the taint evaluator over one scope, recording sink calls."""
    sites: dict[tuple[int, int], SeedSite] = {}

    def hook(node: ast.Call, taints: list) -> None:
        name = dotted_name(node.func)
        tail = name.rsplit(".", 1)[-1] if name else ""
        if tail not in SEED_SINKS:
            return
        key = (node.lineno, node.col_offset)
        if key in sites:
            return
        taint = None if not node.args and not node.keywords else join(*taints)
        sites[key] = SeedSite(
            line=node.lineno,
            end_line=node.end_lineno or node.lineno,
            func=tail,
            owner=owner,
            taint=taint,
        )

    evaluator = TaintEvaluator(
        scope, symbolic_params=True, outer_env=outer_env, call_hook=hook
    )
    return list(sites.values()), evaluator.summary()


def extract_facts(
    tree: ast.Module,
    source: str,
    *,
    path: str,
    module: str,
    scope: str,
    is_package: bool = False,
) -> FileFacts:
    """Reduce one parsed file to the serializable whole-program facts."""
    facts = FileFacts(
        path=path,
        module=module,
        scope=scope,
        is_package=is_package,
        pragmas=parse_pragmas(source),
    )
    if scope == "tests":
        facts.test_identifiers = referenced_identifiers(tree)
        return facts
    if scope == "benchmarks":
        facts.gate_calls = _gate_speedup_sites(tree)
    if scope != "src" or not module.startswith("repro"):
        return facts

    facts.imports = _import_table(tree, module, is_package)
    transient_lines = parse_transient_lines(source)
    consts = _module_constants(tree)

    local_functions = {
        stmt.name
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }

    def qualify(taint):
        return _qualify_taint(taint, local_functions, facts.imports, module)

    # Module scope: top-level seed sites (constant bindings pre-bound).
    module_sites, _ = _collect_seed_sites(tree, "<module>", consts)
    facts.seed_sites.extend(module_sites)

    # Every function scope, at any depth (methods included).
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sites, summary = _collect_seed_sites(node, node.name, consts)
            facts.seed_sites.extend(sites)
            if node.name in local_functions and node in tree.body:
                facts.summaries[node.name] = FunctionSummary(
                    params=summary.params, returns=qualify(summary.returns)
                )
            builder = _key_builder_facts(node)
            if builder is not None:
                facts.key_builders.append(builder)

    facts.seed_sites = [
        SeedSite(
            line=s.line,
            end_line=s.end_line,
            func=s.func,
            owner=s.owner,
            taint=None if s.taint is None else qualify(s.taint),
        )
        for s in sorted(facts.seed_sites, key=lambda s: (s.line, s.owner))
    ]

    # Top-level symbols: per-element loops and call edges for RL002;
    # classes also contribute snapshot/config facts.
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            loops = per_element_loops(stmt)
            if loops:
                facts.loops[stmt.name] = tuple(loops)
            callees = _plain_callees(stmt)
            if callees:
                facts.calls[stmt.name] = callees
        if isinstance(stmt, ast.ClassDef):
            snapshot = _snapshot_class_facts(stmt, transient_lines)
            if snapshot is not None:
                facts.snapshot_classes.append(snapshot)
            config = _config_class_facts(stmt)
            if config is not None:
                facts.config_classes.append(config)
    return facts


# ---------------------------------------------------------------------------
# The project graph
# ---------------------------------------------------------------------------


@dataclass
class FileRecord:
    """Per-file analysis output: lint results + whole-program facts.
    This is exactly what the incremental cache stores per content hash."""

    facts: FileFacts
    violations: list[RuleViolation] = field(default_factory=list)
    suppressed: int = 0

    def to_json(self) -> dict:
        return {
            "facts": self.facts.to_json(),
            "violations": [
                [v.path, v.line, v.rule, v.message] for v in self.violations
            ],
            "suppressed": self.suppressed,
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "FileRecord":
        return cls(
            facts=FileFacts.from_json(payload["facts"]),
            violations=[
                RuleViolation(str(p), int(l), str(r), str(m))
                for p, l, r, m in payload.get("violations", [])
            ],
            suppressed=int(payload.get("suppressed", 0)),
        )


class ProjectGraph:
    """Indexed union of every file's facts: project-wide symbol table,
    import graph (with reverse closure), and one-level call graph."""

    def __init__(self, root: Path, records: Mapping[str, FileRecord]):
        self.root = Path(root)
        self.records = dict(records)
        self.files: dict[str, FileFacts] = {
            path: record.facts for path, record in self.records.items()
        }
        self.by_module: dict[str, FileFacts] = {
            facts.module: facts
            for facts in self.files.values()
            if facts.module
        }

    # -- symbol table --------------------------------------------------

    def lookup_summary(self, qualified: str, _depth: int = 8) -> FunctionSummary | None:
        """Resolve ``module:symbol`` to a taint summary, following one
        re-export hop per level (``repro.difftest:spawn_streams`` ->
        ``repro.difftest.schedule:spawn_streams``)."""
        if _depth <= 0 or ":" not in qualified:
            return None
        module, symbol = qualified.split(":", 1)
        facts = self.by_module.get(module)
        if facts is None:
            return None
        summary = facts.summaries.get(symbol)
        if summary is not None:
            return summary
        target = facts.imports.get(symbol)
        if target:
            if ":" not in target:
                target = f"{target}:{symbol}"
            return self.lookup_summary(target, _depth - 1)
        return None

    def resolve_function(self, module: str, name: str) -> tuple[FileFacts, str] | None:
        """Resolve a plain-name call in ``module`` to the defining
        (facts, function name) pair, following from-imports.  Only
        functions resolve: a class is a constructor call, not a helper."""
        facts = self.by_module.get(module)
        for _ in range(8):
            if facts is None:
                return None
            if name in facts.summaries:
                return facts, name
            target = facts.imports.get(name)
            if not target:
                return None
            if ":" in target:
                target_module, name = target.split(":", 1)
            else:
                return None
            facts = self.by_module.get(target_module)
        return None

    # -- import graph --------------------------------------------------

    def import_edges(self) -> dict[str, set[str]]:
        """module -> project modules it imports (package re-exports
        resolve through ``repro.x`` __init__ facts like any module)."""
        known = set(self.by_module)
        edges: dict[str, set[str]] = {}
        for module, facts in self.by_module.items():
            targets: set[str] = set()
            for origin in facts.imports.values():
                target = origin.split(":", 1)[0]
                # ``from pkg import name`` may name a submodule rather
                # than a symbol; count both interpretations if known.
                if target in known:
                    targets.add(target)
                if ":" in origin:
                    as_module = origin.replace(":", ".")
                    if as_module in known:
                        targets.add(as_module)
            targets.discard(module)
            edges[module] = targets
        return edges

    def reverse_closure(self, paths: Iterable[str]) -> set[str]:
        """The given files plus every file whose module transitively
        imports one of them — the ``--changed`` analysis frontier."""
        wanted = set(paths)
        changed_modules = {
            facts.module for path, facts in self.files.items()
            if path in wanted and facts.module
        }
        if changed_modules:
            importers: dict[str, set[str]] = {}
            for module, targets in self.import_edges().items():
                for target in targets:
                    importers.setdefault(target, set()).add(module)
            frontier = list(changed_modules)
            affected = set(changed_modules)
            while frontier:
                module = frontier.pop()
                for dependent in importers.get(module, ()):
                    if dependent not in affected:
                        affected.add(dependent)
                        frontier.append(dependent)
            for path, facts in self.files.items():
                if facts.module in affected:
                    wanted.add(path)
        return wanted


# ---------------------------------------------------------------------------
# The cache-aware analysis driver
# ---------------------------------------------------------------------------


def analyze_file(path: Path, root: Path, rules=None) -> FileRecord:
    """Parse + lint + extract facts for one file (single parse)."""
    source = path.read_text(encoding="utf-8")
    display = str(path.relative_to(root)) if path.is_relative_to(root) else str(path)
    module = module_name_for(path, root)
    scope = scope_for(path, root)
    result = lint_context(
        source, path=display, module=module, scope=scope, rules=rules
    )
    if isinstance(result, list):  # syntax error: no tree, no facts
        return FileRecord(
            facts=FileFacts(path=display, module=module, scope=scope),
            violations=result,
        )
    facts = extract_facts(
        result.tree,
        source,
        path=display,
        module=module,
        scope=scope,
        is_package=path.name == "__init__.py",
    )
    return FileRecord(
        facts=facts, violations=result.violations, suppressed=result.suppressed
    )


def analyze_paths(
    targets: Iterable[Path],
    root: Path,
    rules=None,
    cache=None,
) -> tuple[ProjectGraph, list[RuleViolation], int]:
    """Analyze every ``.py`` under the targets: per-file violations plus
    the :class:`ProjectGraph` the whole-program rules run over.

    ``cache`` is an :class:`repro.analysis.cache.AnalysisCache`; cached
    records are reused per content hash, so a warm run on an unchanged
    tree parses nothing.  Cached per-file violations are only trusted
    when the full default rule set ran (``rules is None``); a filtered
    run lints fresh but still refreshes facts.
    """
    from .rules import FILE_RULES

    root = Path(root)
    active = None
    if rules is not None:
        wanted = set(rules)
        active = [rule for rule in FILE_RULES() if rule.code in wanted]
    records: dict[str, FileRecord] = {}
    violations: list[RuleViolation] = []
    suppressed = 0
    for path in iter_python_files(list(targets)):
        display = (
            str(path.relative_to(root)) if path.is_relative_to(root) else str(path)
        )
        record = None
        if cache is not None and rules is None:
            record = cache.load(display, path)
        if record is None:
            record = analyze_file(path, root, rules=active)
            if cache is not None and rules is None:
                cache.store(display, path, record)
        records[display] = record
        violations.extend(record.violations)
        suppressed += record.suppressed
    if cache is not None:
        cache.save()
    return ProjectGraph(root, records), sorted(violations), suppressed
