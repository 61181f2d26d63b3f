"""Whole-program reprolint rules.

Every rule here receives two views of the same analysis run: the
:class:`~repro.analysis.graph.ProjectGraph` fact table, and the
:class:`ProjectContext` derived from it (:meth:`ProjectContext.from_graph`)
— a plain-data snapshot of the difftest registry, test-file evidence,
benchmark gate calls, and the committed baseline.  RL003 (spec/engine
conformance) and RL007 (bench-gate consistency) read the context; the
rest read the graph:

* **RL002 engine purity** — no per-element index loops inside a
  registered engine body, nor one call-graph level further in the
  helpers that body invokes.
* **RL009 seed provenance** — interprocedural taint: every value
  reaching a ``default_rng``/``spawn_streams`` seed argument must flow
  from a config seed field or a threaded ``seed`` parameter, through
  any number of locals, arithmetic steps, or helper calls.
* **RL010 snapshot coverage** — every mutable attribute of a class
  participating in the recovery overlay must appear in its snapshot/
  restore field lists (or carry a ``# reprolint: transient`` mark).
* **RL011 cache-key completeness** — every ``ClusterConfig``/
  ``DegradedReadConfig`` field must reach a cache-key builder
  (``config_hash``/``schedule_run_key``-style) or sit on the documented
  exclusion list (``checkpoint_*`` policy knobs, ``_*`` runtime keys).

Every input is plain data, so tests construct synthetic contexts and
graphs directly instead of faking a repository.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .core import Rule, RuleViolation
from .dataflow import CONST, SEEDED, resolve_taint
from .graph import ProjectGraph

__all__ = [
    "CacheKeyCompletenessRule",
    "ConformanceRule",
    "EnginePurityRule",
    "GateRoundtripRule",
    "PairRecord",
    "ProjectContext",
    "PROJECT_RULE_CLASSES",
    "PROJECT_RULES",
    "SeedProvenanceRule",
    "SnapshotCoverageRule",
    "TestEvidence",
    "engine_symbols_by_module",
    "run_project_rules",
]

PAIRS_PATH = "src/repro/difftest/pairs.py"
BASELINE_PATH = "benchmarks/bench_baseline.json"


@dataclass(frozen=True)
class PairRecord:
    """One registration, reduced to what the cross-file rules need."""

    subsystem: str
    spec_symbol: str
    engine_symbol: str
    gate: str | None
    line: int  # registration call's line in PAIRS_PATH


@dataclass(frozen=True)
class TestEvidence:
    """Identifiers and string literals one test file touches."""

    __test__ = False  # not a pytest class, despite the name

    path: str
    identifiers: frozenset[str]

    def names_both(self, spec_symbol: str, engine_symbol: str) -> bool:
        return {spec_symbol, engine_symbol} <= self.identifiers


@dataclass
class ProjectContext:
    pairs: tuple[PairRecord, ...]
    tests: tuple[TestEvidence, ...]
    gated_keys: Mapping[str, int]  # baseline key -> line in BASELINE_PATH
    #: gate_speedup("name", ...) call sites: name -> (path, line)
    gate_calls: Mapping[str, tuple[str, int]]
    pairs_path: str = PAIRS_PATH
    baseline_path: str = BASELINE_PATH
    errors: list[RuleViolation] = field(default_factory=list)

    @classmethod
    def from_graph(cls, graph: ProjectGraph) -> "ProjectContext":
        """Build the RL003/RL007 snapshot from extracted facts — no
        parsing, so warm cached runs skip the tests/benchmarks re-read."""
        root = graph.root
        errors: list[RuleViolation] = []
        tests = tuple(
            TestEvidence(path=facts.path, identifiers=facts.test_identifiers)
            for path, facts in sorted(graph.files.items())
            if facts.scope == "tests"
        )
        gate_calls = {
            name: (facts.path, line)
            for path, facts in sorted(graph.files.items())
            for name, line in facts.gate_calls.items()
        }
        return cls(
            pairs=_load_pairs(root, errors),
            tests=tests,
            gated_keys=_baseline_gated_keys(root, errors),
            gate_calls=gate_calls,
            errors=errors,
        )


def _registration_lines(root: Path) -> dict[str, int]:
    """subsystem -> line of its ``register_engine_pair`` call."""
    path = root / PAIRS_PATH
    lines: dict[str, int] = {}
    if not path.exists():
        return lines
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "register_engine_pair"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            lines[str(node.args[0].value)] = node.lineno
    return lines


def _load_pairs(root: Path, errors: list[RuleViolation]) -> tuple[PairRecord, ...]:
    if not (Path(root) / PAIRS_PATH).exists():
        return ()  # a root without the registry has no pairs to conform to
    try:
        from repro.difftest import engine_matrix
    except Exception as exc:  # registry must import for RL003 to run
        errors.append(
            RuleViolation(
                PAIRS_PATH, 1, "RL000", f"cannot import difftest registry: {exc}"
            )
        )
        return ()
    lines = _registration_lines(root)
    return tuple(
        PairRecord(
            subsystem=pair.subsystem,
            spec_symbol=pair.spec_symbol or pair.spec.rsplit(".", 1)[-1],
            engine_symbol=pair.engine_symbol or pair.engine.rsplit(".", 1)[-1],
            gate=pair.gate,
            line=lines.get(pair.subsystem, 1),
        )
        for pair in engine_matrix()
    )


def _baseline_gated_keys(
    root: Path, errors: list[RuleViolation]
) -> dict[str, int]:
    path = root / BASELINE_PATH
    if not path.exists():
        # Only an error for roots that carry the difftest registry: a
        # repo with gated pairs must commit the baseline they gate on.
        if (Path(root) / PAIRS_PATH).exists():
            errors.append(
                RuleViolation(BASELINE_PATH, 1, "RL000", "baseline missing")
            )
        return {}
    text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        errors.append(
            RuleViolation(BASELINE_PATH, exc.lineno, "RL000", f"bad JSON: {exc.msg}")
        )
        return {}
    keys: dict[str, int] = {}
    lines = text.splitlines()
    for key in data.get("gated", {}):
        needle = f'"{key}"'
        keys[key] = next(
            (i for i, line in enumerate(lines, start=1) if needle in line), 1
        )
    return keys


# ---------------------------------------------------------------------------
# Project rule classes
# ---------------------------------------------------------------------------


class ProjectRule(Rule):
    """Base for whole-program rules.  ``check`` receives both project
    views of one analysis run.  Findings silenced by a ``disable=``
    pragma in the anchoring file are tallied in ``self.suppressed``."""

    kind = "project"

    def __init__(self) -> None:
        self.suppressed = 0

    def check(
        self, context: ProjectContext, graph: ProjectGraph
    ) -> list[RuleViolation]:
        raise NotImplementedError

    def _report(
        self,
        violations: list[RuleViolation],
        graph: ProjectGraph,
        path: str,
        line: int,
        message: str,
        end_line: int | None = None,
    ) -> None:
        facts = graph.files.get(path)
        if facts is not None and not facts.pragma_allows(
            self.code, line, end_line or line
        ):
            self.suppressed += 1
            return
        violations.append(RuleViolation(path, line, self.code, message))


def engine_symbols_by_module() -> dict[str, frozenset[str]]:
    """module dotted path -> engine symbol names, from the registry."""
    from repro.difftest import engine_matrix

    table: dict[str, set[str]] = {}
    for pair in engine_matrix():
        module, symbol = pair.engine_module, pair.engine_symbol
        if symbol:
            table.setdefault(module, set()).add(symbol)
    return {module: frozenset(symbols) for module, symbols in table.items()}


class EnginePurityRule(ProjectRule):
    """RL002: vectorized engines stay vectorized, helpers included.

    Inside the *registered engine symbol's body* (the class or function
    the difftest registry names as a subsystem's engine), flag ``for i
    in range(...)`` loops whose body indexes arrays with the loop
    variable — the classic per-element scalar loop that silently erases
    the >=10x the bench gate demands.  The check follows the engine body
    one call-graph level: plain-name helper functions it invokes (same
    module or imported) are held to the same contract, so pushing the
    scalar loop into a helper does not launder it past the gate.  Loops
    over compiled-program ops, per-group axes (``enumerate``/``zip``) or
    transition depth don't index per element and pass.
    """

    code = "RL002"
    description = (
        "engine purity: registered vectorized engines, and the helpers "
        "their bodies call, must not run per-element Python index loops "
        "over struct-of-arrays fields"
    )
    contract = (
        "The body of every engine symbol registered in the difftest "
        "matrix must stay vectorized: no `for i in range(...)` loop that "
        "subscripts arrays with the loop variable.  The same holds one "
        "call level down, for every module-level function the engine "
        "body calls by plain name (same module or imported): moving the "
        "scalar loop into a helper does not restore the >=10x speedups "
        "the bench gates enforce."
    )
    example_bad = (
        "def _scalar_helper(xs, out):\n"
        "    for i in range(len(xs)):\n"
        "        out[i] = xs[i] * 2\n"
        "class Engine:\n"
        "    def run(self):\n"
        "        _scalar_helper(self.xs, self.out)"
    )
    example_good = "out = weights * counts"
    escape = (
        "# reprolint: disable=RL002 on the for-statement line (in the "
        "engine body or the helper)"
    )

    def __init__(self, engine_symbols: Mapping[str, frozenset[str]] | None = None):
        super().__init__()
        self._engine_symbols = engine_symbols

    def check(self, context, graph):
        table = self._engine_symbols
        if table is None:
            table = engine_symbols_by_module()
        in_engine: dict[tuple[str, int], str] = {}
        in_helper: dict[tuple[str, int, str], set[str]] = {}
        for module, symbols in sorted(table.items()):
            facts = graph.by_module.get(module)
            if facts is None:
                continue
            for symbol in sorted(symbols):
                for line in facts.loops.get(symbol, ()):
                    in_engine[(facts.path, line)] = symbol
                for callee in facts.calls.get(symbol, ()):
                    resolved = graph.resolve_function(module, callee)
                    if resolved is None:
                        continue
                    helper_facts, helper_name = resolved
                    if helper_name in table.get(helper_facts.module, ()):
                        continue  # an engine body: reported as one above
                    for line in helper_facts.loops.get(helper_name, ()):
                        key = (helper_facts.path, line, helper_name)
                        in_helper.setdefault(key, set()).add(symbol)
        violations: list[RuleViolation] = []
        for (path, line), symbol in sorted(in_engine.items()):
            self._report(
                violations,
                graph,
                path,
                line,
                f"per-element index loop inside registered engine "
                f"{symbol!r}: body subscripts arrays with the range() "
                "loop variable; vectorize or justify with a pragma",
            )
        for (path, line, helper_name), engines in sorted(in_helper.items()):
            named = ", ".join(sorted(engines))
            self._report(
                violations,
                graph,
                path,
                line,
                f"per-element index loop in helper {helper_name!r} called "
                f"from registered engine body ({named}): vectorize the "
                "helper or justify with a pragma",
            )
        return violations


class ConformanceRule(ProjectRule):
    """RL003: every registered pair has a differential test and a live
    gated baseline metric."""

    code = "RL003"
    description = (
        "spec/engine conformance: every register_engine_pair has a "
        "differential test in tests/ and a gated bench_baseline.json metric; "
        "no dead baseline keys"
    )
    contract = (
        "Every register_engine_pair() must have a tests/ file naming "
        "both its spec and engine symbols, must "
        "declare a CI gate metric, and that metric must exist in "
        "bench_baseline.json; baseline keys no pair or gate_speedup call "
        "records are dead and flagged."
    )
    example_bad = (
        "register_engine_pair('widget', spec=..., engine=..., gate=None)"
    )
    example_good = (
        "register_engine_pair('widget', ..., gate='widget_speedup')\n"
        "# plus tests/test_widget.py referencing spec and engine"
    )
    escape = (
        "# reprolint: disable=RL003 on the registration line (dead-key "
        "findings anchored in bench_baseline.json cannot be suppressed: "
        "JSON has no comments — delete the key instead)"
    )

    def check(self, context, graph):
        violations: list[RuleViolation] = []

        def report(path: str, line: int, message: str) -> None:
            self._report(violations, graph, path, line, message)

        for pair in context.pairs:
            covered = any(
                evidence.names_both(pair.spec_symbol, pair.engine_symbol)
                for evidence in context.tests
            )
            if not covered:
                report(
                    context.pairs_path,
                    pair.line,
                    f"engine pair {pair.subsystem!r} has no differential "
                    f"test: no tests/ file references both "
                    f"{pair.spec_symbol!r} and {pair.engine_symbol!r}",
                )
            if pair.gate is None:
                report(
                    context.pairs_path,
                    pair.line,
                    f"engine pair {pair.subsystem!r} declares no CI gate "
                    "metric (gate=None): regressions would land silently",
                )
            elif pair.gate not in context.gated_keys:
                report(
                    context.pairs_path,
                    pair.line,
                    f"engine pair {pair.subsystem!r} gates on "
                    f"{pair.gate!r} but {context.baseline_path} has no such "
                    "gated key: the speedup is never CI-checked",
                )
        alive = {pair.gate for pair in context.pairs if pair.gate}
        alive.update(f"{name}_speedup" for name in context.gate_calls)
        for key, line in sorted(context.gated_keys.items()):
            if key not in alive:
                report(
                    context.baseline_path,
                    line,
                    f"dead baseline key {key!r}: no registered pair or "
                    "gate_speedup call records it, so the gate can never "
                    "trip",
                )
        return violations


class GateRoundtripRule(ProjectRule):
    """RL007: each ``gate_speedup`` metric name appears in the baseline."""

    code = "RL007"
    description = (
        "bench-gate consistency: every gate_speedup metric name round-trips "
        "through bench_baseline.json (schema 2)"
    )
    contract = (
        "Every gate_speedup('name', ...) call in benchmarks/ must have a "
        "matching 'name_speedup' gated key in bench_baseline.json, or the "
        "bench runs without a regression floor."
    )
    example_bad = "gate_speedup('newbench', spec_s, engine_s)  # key missing"
    example_good = '"gated": {"newbench_speedup": 10.0}  # in the baseline'
    escape = "# reprolint: disable=RL007 on the gate_speedup line"

    def check(self, context, graph):
        violations: list[RuleViolation] = []
        for name, (path, line) in sorted(context.gate_calls.items()):
            key = f"{name}_speedup"
            if key not in context.gated_keys:
                self._report(
                    violations,
                    graph,
                    path,
                    line,
                    f"gate_speedup({name!r}) records {key!r} but "
                    f"{context.baseline_path} never gates it: the bench "
                    "runs without a regression floor",
                )
        return violations


class SeedProvenanceRule(ProjectRule):
    """RL009: every RNG stream traces to sanctioned entropy.

    For each ``default_rng``/``spawn_streams`` call site in
    ``src/repro``, the dataflow taint of its arguments — resolved
    interprocedurally through the project symbol table — must be
    SEEDED: flowing from a seed-like parameter, a config seed field, or
    a spawned stream.  CONST means a hidden constant seed (possibly
    laundered through locals, arithmetic, or helper functions); UNKNOWN
    means provenance that cannot be traced to any sanctioned source.
    Replaces RL001's old syntactic default_rng check.
    """

    code = "RL009"
    description = (
        "seed provenance (dataflow): every value reaching a default_rng/"
        "spawn_streams seed argument must flow from a config seed field or "
        "threaded seed parameter — constant and untraceable seeds are "
        "flagged even when laundered through locals, arithmetic, or helpers"
    )
    contract = (
        "Every default_rng()/spawn_streams() argument must resolve — "
        "through the interprocedural taint lattice — to sanctioned "
        "entropy: a seed-like parameter (seed, rng, *_seed, ...), a "
        "seed-named attribute (config.failure_seed), or a seed factory "
        "(SeedSequence/spawn).  Constants (however laundered) and "
        "untraceable values are both violations: one is a hidden fixed "
        "stream, the other cannot be audited for the controlled-"
        "comparison contract."
    )
    example_bad = (
        "def make_rng(n):\n"
        "    s = 1234 + n          # laundered constant\n"
        "    return default_rng(s)"
    )
    example_good = (
        "def make_rng(seed, n):\n"
        "    return default_rng(seed + n)  # threaded config seed"
    )
    escape = "# reprolint: disable=RL009 on the call line"

    def check(self, context, graph):
        violations: list[RuleViolation] = []
        for path, facts in sorted(graph.files.items()):
            if facts.scope != "src":
                continue
            for site in facts.seed_sites:
                where = f"{site.func}() in {site.owner}"
                if site.taint is None:
                    message = (
                        f"seedless {where}: thread an explicit seed/rng "
                        "parameter (derive via difftest.spawn_streams)"
                    )
                else:
                    resolved = resolve_taint(site.taint, graph.lookup_summary)
                    if resolved is SEEDED:
                        continue
                    if resolved is CONST:
                        message = (
                            f"constant seed reaches {where}: a fixed "
                            "stream defeats config-derived reproducibility "
                            "no matter how the literal is laundered; "
                            "thread a seed parameter or config seed field"
                        )
                    else:
                        message = (
                            f"untraceable seed reaches {where}: the value "
                            "flows from no config seed field or threaded "
                            "seed parameter, so the stream cannot be "
                            "audited for the controlled-comparison contract"
                        )
                self._report(
                    violations, graph, path, site.line, message, site.end_line
                )
        return violations


class SnapshotCoverageRule(ProjectRule):
    """RL010: mutable state on overlay classes is captured or declared
    transient.

    A class participating in the recovery overlay (defining both
    ``snapshot_state`` and ``restore_state``) promises kill-resume
    equivalence: every attribute mutated outside the constructor/
    restore path must appear in the snapshot/restore field lists, or
    carry an explicit ``# reprolint: transient`` mark stating it is
    deterministically rebuilt rather than captured.
    """

    code = "RL010"
    description = (
        "snapshot coverage: every mutable attribute of a snapshot_state/"
        "restore_state class must appear in the snapshot/restore field "
        "lists or carry a '# reprolint: transient' mark"
    )
    contract = (
        "Any self.<attr> assigned outside __init__/__post_init__/"
        "restore_state on a class that defines snapshot_state and "
        "restore_state must be referenced by one of those two methods.  "
        "Unsnapshotted mutable state silently breaks kill-resume "
        "equivalence: the resumed run diverges from the uninterrupted "
        "one.  Attributes that are deterministic functions of captured "
        "state take '# reprolint: transient' at an assignment site."
    )
    example_bad = (
        "def advance(self):\n"
        "    self.backlog += 1   # never in snapshot_state/restore_state"
    )
    example_good = (
        "def snapshot_state(self):\n"
        "    return {'backlog': self.backlog, ...}"
    )
    escape = (
        "# reprolint: transient on an assignment to the attribute "
        "(or disable=RL010 on the mutation line)"
    )

    def check(self, context, graph):
        violations: list[RuleViolation] = []
        for path, facts in sorted(graph.files.items()):
            if facts.scope != "src":
                continue
            for cls in facts.snapshot_classes:
                for attr, line, transient in cls.mutated:
                    if transient:
                        continue
                    if attr in cls.captured or attr.lstrip("_") in cls.captured:
                        continue
                    self._report(
                        violations,
                        graph,
                        path,
                        line,
                        f"{cls.name}.{attr} is mutated outside __init__/"
                        "restore_state but appears in neither "
                        "snapshot_state nor restore_state: kill-resume "
                        "would silently drop it; capture it or mark the "
                        "assignment '# reprolint: transient'",
                    )
        return violations


class CacheKeyCompletenessRule(ProjectRule):
    """RL011: every config field reaches the cache key or is a
    documented exclusion.

    The parallel result cache and the checkpoint run keys identify a
    result by a hash of config fields; a field that never reaches any
    key builder makes two *different* experiments share one cache entry
    — wrong results, not a crash.  Fields may be excluded only under
    the documented prefixes: ``checkpoint_*`` (snapshot-policy knobs
    must not orphan on-disk checkpoints) and ``_*`` (runtime plumbing).
    """

    code = "RL011"
    description = (
        "cache-key completeness: every ClusterConfig/DegradedReadConfig "
        "field must reach config_hash/schedule_run_key (or another key "
        "builder) or match the documented exclusions checkpoint_*/_*"
    )
    #: Config dataclasses whose fields feed cached experiment identity.
    target_configs = ("ClusterConfig", "DegradedReadConfig")
    #: The documented exclusion list: checkpoint policy knobs (excluded
    #: so retuning snapshot cadence doesn't orphan checkpoints already
    #: on disk) and underscore-prefixed runtime plumbing (_runtime).
    documented_exclusions = ("checkpoint_", "_")
    contract = (
        "Every field of ClusterConfig and DegradedReadConfig must be "
        "incorporated into a cache key: via asdict(config) in a key "
        "builder (config_hash / schedule_run_key / *_config / key_for), "
        "via direct attribute access, or as a literal dict key.  The only "
        "sanctioned exclusions are the documented prefixes checkpoint_* "
        "(snapshot policy must not orphan on-disk checkpoints) and _* "
        "(runtime plumbing).  An unkeyed field lets two different "
        "experiments share one cache entry — wrong results, not a crash."
    )
    example_bad = (
        "@dataclass(frozen=True)\n"
        "class ClusterConfig:\n"
        "    new_knob: float = 1.0  # never reaches any key builder"
    )
    example_good = (
        "fields = {k: v for k, v in asdict(config).items()\n"
        "          if not k.startswith('checkpoint_')}\n"
        "return config_hash({'config': fields, ...})"
    )
    escape = "# reprolint: disable=RL011 on the field line"

    def check(self, context, graph):
        builders = [
            builder
            for facts in graph.files.values()
            for builder in facts.key_builders
        ]
        string_cover: set[str] = set()
        attr_cover: set[str] = set()
        asdict_cover: dict[str, list[frozenset[str]]] = {}
        for builder in builders:
            string_cover |= builder.string_keys
            attr_cover |= builder.param_attrs
            for cls_name in builder.asdict_classes:
                asdict_cover.setdefault(cls_name, []).append(
                    builder.exclusion_prefixes
                )
        violations: list[RuleViolation] = []
        for path, facts in sorted(graph.files.items()):
            if facts.scope != "src":
                continue
            for cfg in facts.config_classes:
                if cfg.name not in self.target_configs:
                    continue
                for field_name, line in cfg.fields:
                    if field_name.startswith(self.documented_exclusions):
                        continue
                    reaches_asdict = any(
                        not any(
                            field_name.startswith(prefix) for prefix in exclusions
                        )
                        for exclusions in asdict_cover.get(cfg.name, ())
                    )
                    if (
                        reaches_asdict
                        or field_name in attr_cover
                        or field_name in string_cover
                    ):
                        continue
                    self._report(
                        violations,
                        graph,
                        path,
                        line,
                        f"{cfg.name}.{field_name} never reaches a cache-key "
                        "builder (config_hash/schedule_run_key/...) and is "
                        "not on the documented exclusion list "
                        "(checkpoint_*, _*): two different experiments "
                        "would share one cached result",
                    )
        return violations


#: Project rule classes in code order (composed with the per-file rules
#: by the registry; keep this the only hand-maintained list here).
PROJECT_RULE_CLASSES: tuple[type[ProjectRule], ...] = (
    EnginePurityRule,
    ConformanceRule,
    GateRoundtripRule,
    SeedProvenanceRule,
    SnapshotCoverageRule,
    CacheKeyCompletenessRule,
)


def PROJECT_RULES() -> list[ProjectRule]:
    """Fresh instances of every whole-program rule."""
    return [cls() for cls in PROJECT_RULE_CLASSES]


def run_project_rules(
    project: ProjectContext,
    graph: ProjectGraph,
    rules: Iterable[str] | None = None,
) -> tuple[list[RuleViolation], int]:
    """Every whole-program rule over both project views.

    Returns (violations, pragma-suppressed count); ``rules`` filters by
    code.
    """
    wanted = None if rules is None else set(rules)
    violations: list[RuleViolation] = list(project.errors)
    suppressed = 0
    for rule in PROJECT_RULES():
        if wanted is not None and rule.code not in wanted:
            continue
        violations.extend(rule.check(project, graph))
        suppressed += rule.suppressed
    return sorted(violations), suppressed
