"""The per-file reprolint rules (RL001, RL004, RL005, RL006, RL008).

Each rule encodes one determinism or conformance contract the repo
learned the hard way (DESIGN.md "Enforced invariants" names the PR or
bug class behind each).  Whole-program rules — RL002/RL003/RL007 plus
the dataflow rules RL009–RL011 — live in :mod:`repro.analysis.project`;
the single source of truth for the full rule set is
:mod:`repro.analysis.registry`.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .core import LintContext, Rule
from .dataflow import dotted_name
from .graph import is_dataclass_def

__all__ = [
    "FILE_RULES",
    "FILE_RULE_CLASSES",
]


# --------------------------------------------------------------------------
# RL001: RNG discipline (global-state entry points)
# --------------------------------------------------------------------------

#: Stdlib ``random`` entry points that read or mutate hidden global state.
_RANDOM_GLOBAL_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)


class RngDisciplineRule(Rule):
    """RL001: no hidden global RNG state.

    Flags, inside ``src/repro`` only, stdlib ``random.*`` global-state
    functions and legacy ``np.random.<fn>`` calls — ambient state that
    no config seed can reach.  (Seedless and literal-seeded
    ``default_rng`` calls, RL001's old syntactic check, are now the
    strictly stronger RL009 dataflow rule's job.)
    """

    code = "RL001"
    description = (
        "RNG discipline: no stdlib random.* or legacy np.random.* "
        "global-state calls in src/repro; every Generator comes from "
        "default_rng/spawn_streams with a threaded seed (see RL009)"
    )
    scopes = ("src",)
    contract = (
        "Inside src/repro, never call stdlib random.* functions or legacy "
        "np.random.<fn> module-level functions: both draw from hidden "
        "global state that no config seed controls, so runs are not "
        "reproducible and parallel workers silently share streams."
    )
    example_bad = "delay = random.uniform(0.0, jitter)"
    example_good = "delay = rng.uniform(0.0, jitter)  # rng threaded from config seed"
    escape = "# reprolint: disable=RL001 on the call line"

    def visit_Call(self, context: LintContext, node: ast.Call) -> None:
        name = dotted_name(node.func)
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "random" and parts[1] in _RANDOM_GLOBAL_FNS:
            context.report(
                self.code,
                node,
                f"stdlib {name}() uses hidden global RNG state; use a "
                "seeded np.random.Generator instead",
            )
        elif (
            len(parts) >= 2
            and parts[-2] == "random"
            and parts[0] in ("np", "numpy")
            and parts[-1] in _RANDOM_GLOBAL_FNS
        ):
            context.report(
                self.code,
                node,
                f"legacy {name}() draws from numpy's global state; use a "
                "seeded np.random.Generator instead",
            )


# --------------------------------------------------------------------------
# RL004: NaN convention for empty windows
# --------------------------------------------------------------------------

_STATS_NAME = re.compile(
    r"mean|average|percentile|median|fraction|availability|utilization"
    r"|ratio|latency|duration|summary|stats|std|variance|quantile"
    r"|_rate$|^rate_|_per_"
)


def _is_emptiness_test(test: ast.expr) -> bool:
    """``not xs`` / ``len(xs) == 0`` / ``xs.size == 0`` style guards."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = test.operand
        if isinstance(inner, (ast.Name, ast.Attribute)):
            return True
        if (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id == "len"
        ):
            return True
        return False
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        if not isinstance(op, (ast.Eq, ast.Lt, ast.LtE)):
            return False
        if not (isinstance(right, ast.Constant) and right.value in (0, 1)):
            return False
        if isinstance(op, ast.Eq) and right.value != 0:
            return False
        if (
            isinstance(left, ast.Call)
            and isinstance(left.func, ast.Name)
            and left.func.id == "len"
        ):
            return True
        if isinstance(left, ast.Attribute) and left.attr in ("size", "shape"):
            return True
    return False


class NanConventionRule(Rule):
    """RL004: an empty window has no statistic — return NaN, not zero.

    PR 3 swept ``return 0`` out of every stats path (a zero availability
    and a perfect one are *different answers*); this rule pins the
    convention: a function or property whose name reads like a statistic
    must not ``return 0``/``0.0`` directly under an emptiness guard.
    Scoped to ``src/repro`` plus ``benchmarks/`` and ``examples/`` —
    experiment drivers compute summary statistics too.
    """

    code = "RL004"
    description = (
        "NaN convention: empty-window statistics return float('nan'), "
        "never 0/0.0 (src, benchmarks, examples)"
    )
    scopes = ("src", "benchmarks", "examples")
    contract = (
        "A function or property whose name reads like a statistic "
        "(mean/percentile/availability/...) must return float('nan') for "
        "an empty window, never 0: a measured zero and no-data are "
        "different answers, and downstream aggregation must be able to "
        "tell them apart (np.nanmean skips NaN, but averages in a bogus 0)."
    )
    example_bad = (
        "def mean_repair_duration(xs):\n"
        "    if not xs:\n        return 0.0"
    )
    example_good = (
        "def mean_repair_duration(xs):\n"
        "    if not xs:\n        return float('nan')"
    )
    escape = "# reprolint: disable=RL004 on the return line"

    def _check_function(self, context: LintContext, node: ast.AST) -> None:
        if not _STATS_NAME.search(getattr(node, "name", "")):
            return
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.If) or not _is_emptiness_test(stmt.test):
                continue
            for child in stmt.body:
                if (
                    isinstance(child, ast.Return)
                    and isinstance(child.value, ast.Constant)
                    and type(child.value.value) in (int, float)
                    and child.value.value == 0
                ):
                    context.report(
                        self.code,
                        child,
                        f"{node.name}(): empty-window guard returns 0 — "
                        "the NaN convention requires float('nan') so "
                        "no-data never reads as a measured zero",
                    )

    def visit_FunctionDef(self, context: LintContext, node: ast.FunctionDef) -> None:
        self._check_function(context, node)

    def visit_AsyncFunctionDef(self, context, node) -> None:
        self._check_function(context, node)


# --------------------------------------------------------------------------
# RL005: float-determinism hazards
# --------------------------------------------------------------------------


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return True
    return False


def _body_accumulates(node: ast.For) -> ast.AST | None:
    """Float accumulation or event scheduling evidence in a loop body."""
    body = ast.Module(body=node.body + node.orelse, type_ignores=[])
    for stmt in ast.walk(body):
        if isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.op, (ast.Add, ast.Sub)
        ):
            return stmt
        if isinstance(stmt, ast.Call):
            name = dotted_name(stmt.func)
            tail = name.rsplit(".", 1)[-1]
            if tail in ("heappush", "heappushpop", "schedule", "push", "at"):
                return stmt
    return None


class FloatDeterminismRule(Rule):
    """RL005: set iteration order must never reach float math.

    In ``repro.cluster`` / ``repro.reliability`` (the simulation tiers,
    where PR 1's non-deterministic flow iteration bug lived), flag
    ``for``-loops that iterate a set expression — or a local name bound
    to one — while the body accumulates with ``+=``/``-=`` or schedules
    events.  ``sorted(...)`` around the set normalizes the order and
    passes.
    """

    code = "RL005"
    description = (
        "float determinism: set-ordered iteration must not feed float "
        "accumulation or event scheduling in repro.cluster/repro.reliability"
    )
    scopes = ("src",)
    contract = (
        "In the simulation tiers (repro.cluster, repro.reliability), a "
        "for-loop over a set (or a name bound to one) must not feed "
        "float accumulation (+=/-=) or event scheduling: set iteration "
        "order varies across processes, so float rounding — and event "
        "tie-breaking — would differ run to run.  Sort first."
    )
    example_bad = (
        "for flow in active_flows:  # a set\n"
        "    total += flow_rate[flow]"
    )
    example_good = (
        "for flow in sorted(active_flows):\n"
        "    total += flow_rate[flow]"
    )
    escape = "# reprolint: disable=RL005 on the for-statement line"

    def applies_to(self, context: LintContext) -> bool:
        return context.module.startswith(("repro.cluster", "repro.reliability"))

    def _scan_scope(self, context: LintContext, scope: ast.AST) -> None:
        set_names: set[str] = set()
        for stmt in self._own_statements(scope):
            if isinstance(stmt, ast.Assign) and _is_set_expression(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
            if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if _is_set_expression(stmt.value) and isinstance(
                    stmt.target, ast.Name
                ):
                    set_names.add(stmt.target.id)
        for stmt in self._own_statements(scope):
            if not isinstance(stmt, ast.For):
                continue
            iterator = stmt.iter
            unordered = _is_set_expression(iterator) or (
                isinstance(iterator, ast.Name) and iterator.id in set_names
            )
            if unordered and _body_accumulates(stmt) is not None:
                context.report(
                    self.code,
                    stmt,
                    "iteration over a set feeds float accumulation or "
                    "event scheduling: hash order varies across runs — "
                    "sort (sorted(...)) or use an ordered container",
                )

    @staticmethod
    def _own_statements(scope: ast.AST) -> Iterator[ast.stmt]:
        """All statements in scope, not descending into nested defs."""
        stack = list(getattr(scope, "body", []))
        while stack:
            stmt = stack.pop()
            yield stmt
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for field_value in ast.iter_child_nodes(stmt):
                if isinstance(field_value, ast.stmt):
                    stack.append(field_value)

    def visit_FunctionDef(self, context: LintContext, node: ast.FunctionDef) -> None:
        self._scan_scope(context, node)

    def visit_AsyncFunctionDef(self, context, node) -> None:
        self._scan_scope(context, node)

    def visit_Module(self, context: LintContext, node: ast.Module) -> None:
        self._scan_scope(context, node)


# --------------------------------------------------------------------------
# RL006: config-validation coverage
# --------------------------------------------------------------------------

_GUARDED_FIELD = re.compile(r"rate|duration|timeout|bandwidth|latency|rtt")
_CONFIG_CLASS = re.compile(r"(Config|Parameters|Topology|Link)$")
_NUMERIC_ANNOTATION = re.compile(r"\b(int|float)\b")


class ConfigValidationRule(Rule):
    """RL006: a rate/duration/timeout knob nobody validates is a latent
    ZeroDivisionError (the PR 5 ``outage_rate_per_node`` bug class).

    For every dataclass in ``src/repro`` that defines ``validate()``,
    each numeric field whose name matches the guarded patterns must be
    referenced (``self.<field>``) somewhere in ``validate``.  A
    config-like dataclass (``*Config``/``*Parameters``/``*Topology``/
    ``*Link``) carrying guarded numeric fields with no ``validate()`` at
    all is flagged once at the class line.
    """

    code = "RL006"
    description = (
        "config validation: numeric dataclass-config fields named like "
        "*_rate*/*_duration*/*_timeout* (also bandwidth/latency/rtt) must be "
        "referenced by the config's validate()"
    )
    scopes = ("src",)
    contract = (
        "Every numeric dataclass-config field whose name matches "
        "rate/duration/timeout/bandwidth/latency/rtt must be referenced "
        "by the config's validate() method; config-like dataclasses with "
        "guarded fields and no validate() at all are flagged.  Degenerate "
        "values (0 rates, negative durations) must fail fast, not surface "
        "as ZeroDivisionError mid-simulation."
    )
    example_bad = (
        "@dataclass(frozen=True)\n"
        "class LinkConfig:\n"
        "    drain_rate: float = 1.0  # validate() never checks it"
    )
    example_good = (
        "def validate(self):\n"
        "    if self.drain_rate <= 0:\n"
        "        raise ValueError('drain_rate must be positive')"
    )
    escape = "# reprolint: disable=RL006 on the field (or class) line"

    def visit_ClassDef(self, context: LintContext, node: ast.ClassDef) -> None:
        if not is_dataclass_def(node):
            return
        guarded: list[tuple[str, ast.AnnAssign]] = []
        validate: ast.FunctionDef | None = None
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                name = stmt.target.id
                annotation = ast.unparse(stmt.annotation)
                if "ClassVar" in annotation:
                    continue
                if _GUARDED_FIELD.search(name) and _NUMERIC_ANNOTATION.search(
                    annotation
                ):
                    guarded.append((name, stmt))
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "validate":
                validate = stmt
        if not guarded:
            return
        if validate is None:
            if _CONFIG_CLASS.search(node.name):
                context.report(
                    self.code,
                    node,
                    f"config dataclass {node.name} has guarded numeric "
                    f"fields ({', '.join(name for name, _ in guarded)}) "
                    "but no validate() method",
                )
            return
        referenced = {
            sub.attr
            for sub in ast.walk(validate)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        }
        for name, field_node in guarded:
            if name not in referenced:
                context.report(
                    self.code,
                    field_node,
                    f"{node.name}.{name} is never referenced in "
                    "validate(): degenerate values (0, negatives) reach "
                    "the simulation unchecked",
                )


# --------------------------------------------------------------------------
# RL008: exception hygiene
# --------------------------------------------------------------------------

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _broad_exception_names(annotation: ast.expr) -> list[str]:
    """Exception/BaseException names caught by a handler's type clause."""
    candidates = (
        annotation.elts if isinstance(annotation, ast.Tuple) else [annotation]
    )
    names = []
    for candidate in candidates:
        if isinstance(candidate, ast.Name) and candidate.id in _BROAD_EXCEPTIONS:
            names.append(candidate.id)
        elif (
            isinstance(candidate, ast.Attribute)
            and candidate.attr in _BROAD_EXCEPTIONS
        ):
            names.append(candidate.attr)
    return names


def _body_only_swallows(body: list[ast.stmt]) -> bool:
    """True when a handler body does nothing: only pass/... statements."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is ...
        ):
            continue
        return False
    return True


class ExceptionHygieneRule(Rule):
    """RL008: broad exception swallowing hides crash-safety bugs.

    The recovery plane's whole contract is that failures are *detected*
    — a checksum mismatch, a truncated pickle, a crashed worker — and
    routed to an explicit fallback.  A bare ``except:`` (which also eats
    ``KeyboardInterrupt``/``SystemExit``) or an ``except Exception:
    pass`` turns any such failure into silent state divergence, so both
    are flagged: bare handlers always, broad handlers when their body
    does nothing but pass.  Handlers that act (quarantine, record,
    re-raise) and narrow types (``except OSError: pass`` on best-effort
    cleanup) are fine.  Scoped to ``src/repro``, ``benchmarks/`` and
    ``examples/`` — drivers swallow failures just as silently.
    """

    code = "RL008"
    description = (
        "exception hygiene: no bare except: and no except Exception/"
        "BaseException that silently passes (src, benchmarks, examples); "
        "catch the narrow type or handle (log, quarantine, re-raise)"
    )
    scopes = ("src", "benchmarks", "examples")
    contract = (
        "No bare `except:` anywhere (it eats KeyboardInterrupt and "
        "SystemExit), and no `except Exception:`/`except BaseException:` "
        "whose body only passes.  Crash-safety depends on failures being "
        "detected and routed to an explicit fallback, never silently "
        "swallowed."
    )
    example_bad = "try:\n    restore(path)\nexcept Exception:\n    pass"
    example_good = (
        "try:\n    restore(path)\n"
        "except SnapshotError as exc:\n    quarantine(path, exc)"
    )
    escape = "# reprolint: disable=RL008 on the except line"

    def visit_ExceptHandler(self, context: LintContext, node: ast.ExceptHandler) -> None:
        if node.type is None:
            context.report(
                self.code,
                node,
                "bare except: catches KeyboardInterrupt/SystemExit too; "
                "name the exception type(s) you mean to handle",
            )
            return
        broad = _broad_exception_names(node.type)
        if broad and _body_only_swallows(node.body):
            context.report(
                self.code,
                node,
                f"except {broad[0]}: pass silently swallows every error; "
                "catch the narrow type or handle it (log, quarantine, "
                "re-raise)",
            )


#: Per-file rule classes in code order (the registry composes these with
#: the project rules; keep this the only hand-maintained list here).
FILE_RULE_CLASSES: tuple[type[Rule], ...] = (
    RngDisciplineRule,
    NanConventionRule,
    FloatDeterminismRule,
    ConfigValidationRule,
    ExceptionHygieneRule,
)


def FILE_RULES() -> list[Rule]:
    """Fresh instances of every per-file rule (they carry no state, but
    fresh construction keeps fixture tests isolated)."""
    return [cls() for cls in FILE_RULE_CLASSES]
