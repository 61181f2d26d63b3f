"""The ``repro lint`` entry point.

Exit codes follow linter convention: 0 clean, 1 violations found,
2 usage/environment error (e.g. no repository root).  ``--format``
selects human lines (default), JSON, or GitHub workflow commands; the
github format also appends a markdown table to ``$GITHUB_STEP_SUMMARY``
when CI exports it, matching ``check_bench_regression.py``.

Every invocation runs one pipeline, :func:`lint`: the fact graph over
the default targets (with the incremental cache,
``.reprolint-cache.json``, so a warm run on an unchanged tree parses
nothing), then every whole-program rule.  Explicit paths and
``--changed[=REF]`` only filter its findings: explicit paths keep those
under the named files or directories; ``--changed`` keeps those in files
touched versus a git ref plus their reverse import dependencies — the
pre-commit mode.
``--explain RL0xx`` prints a rule's contract, a violating and a clean
example, and its escape hatch.
"""

from __future__ import annotations

import argparse
import os
import subprocess
from pathlib import Path
from typing import Sequence

from .cache import AnalysisCache
from .core import RuleViolation
from .graph import ProjectGraph, analyze_paths
from .project import ProjectContext, run_project_rules
from .registry import RULE_DESCRIPTIONS, explain
from .report import render_github, render_human, render_json, step_summary_table

__all__ = [
    "add_lint_arguments",
    "changed_paths",
    "default_targets",
    "lint",
    "resolve_root",
    "run_lint",
]

#: Directories every run analyzes.  tests/ contributes whole-program
#: evidence (RL003 coverage) but no rule reports there — fixture files
#: deliberately violate rules.
DEFAULT_TARGET_NAMES = ("src", "benchmarks", "examples", "tests")


def resolve_root(root: str | os.PathLike | None = None) -> Path:
    """The repository root: explicit, else nearest ancestor of the cwd
    (then of this file) containing ``pyproject.toml``."""
    if root is not None:
        return Path(root).resolve()
    for start in (Path.cwd(), Path(__file__).resolve()):
        for candidate in (start, *start.parents):
            if (candidate / "pyproject.toml").exists():
                return candidate
    raise FileNotFoundError(
        "cannot locate repository root (no pyproject.toml above cwd); "
        "pass paths or --root explicitly"
    )


def default_targets(root: Path) -> list[Path]:
    return [root / name for name in DEFAULT_TARGET_NAMES if (root / name).exists()]


def lint(
    root: Path,
    rules: set[str] | None = None,
    cache: AnalysisCache | None = None,
    extra: Sequence[Path] = (),
) -> tuple[ProjectGraph, list[RuleViolation], int]:
    """The one reprolint pipeline: per-file rules and fact extraction
    over the default targets (plus any ``extra`` paths outside them),
    then every whole-program rule over the resulting graph.

    Returns (graph, sorted violations, pragma-suppressed count).
    ``rules`` filters by code; ``cache`` reuses per-file records.
    """
    targets = default_targets(root)
    targets += [
        path
        for path in extra
        if not any(path.resolve().is_relative_to(t.resolve()) for t in targets)
    ]
    graph, violations, suppressed = analyze_paths(
        targets, root=root, rules=rules, cache=cache
    )
    project_violations, project_suppressed = run_project_rules(
        ProjectContext.from_graph(graph), graph, rules=rules
    )
    return (
        graph,
        sorted(violations + project_violations),
        suppressed + project_suppressed,
    )


def changed_paths(root: Path, ref: str) -> set[str] | None:
    """Repo-relative paths differing from ``ref`` plus untracked files;
    None when git cannot answer (not a repo, unknown ref)."""
    changed: set[str] = set()
    for command in (
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            result = subprocess.run(
                command, cwd=root, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if result.returncode != 0:
            return None
        changed.update(line.strip() for line in result.stdout.splitlines() if line.strip())
    return changed


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="report only findings under these files or directories; the "
        "whole program is still analyzed (default: report everything)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repository root (default: nearest pyproject.toml)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "github"),
        default="human",
        help="output format (github emits ::error annotations and a "
        "$GITHUB_STEP_SUMMARY table)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule codes to run (default: all), "
        f"e.g. --rules=RL001,RL006; known: {','.join(sorted(RULE_DESCRIPTIONS))}",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="report only findings in files changed vs REF (default HEAD) "
        "plus their reverse import dependencies — the pre-commit mode",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RL0xx",
        help="print a rule's contract, examples, and escape hatch, then exit",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the incremental analysis cache "
        "(.reprolint-cache.json)",
    )


def run_lint(args: argparse.Namespace) -> int:
    if getattr(args, "explain", None):
        text = explain(args.explain)
        if text is None:
            print(
                f"reprolint: error: unknown rule {args.explain!r}; "
                f"known: {sorted(RULE_DESCRIPTIONS)}"
            )
            return 2
        print(text)
        return 0
    try:
        root = resolve_root(args.root)
    except FileNotFoundError as exc:
        print(f"reprolint: error: {exc}")
        return 2
    rules: set[str] | None = None
    if args.rules:
        rules = {code.strip().upper() for code in args.rules.split(",") if code.strip()}
        unknown = rules - set(RULE_DESCRIPTIONS)
        if unknown:
            print(
                f"reprolint: error: unknown rule(s) {sorted(unknown)}; "
                f"known: {sorted(RULE_DESCRIPTIONS)}"
            )
            return 2
    explicit = [p if p.is_absolute() else root / p for p in map(Path, args.paths)]
    missing = [str(p) for p in explicit if not p.exists()]
    if missing:
        print(f"reprolint: error: no such path(s): {', '.join(missing)}")
        return 2
    cache = None if getattr(args, "no_cache", False) else AnalysisCache(root)
    graph, violations, suppressed = lint(root, rules, cache, extra=explicit)
    if explicit:
        scopes = [p.resolve() for p in explicit]
        violations = [
            v
            for v in violations
            if any((root / v.path).resolve().is_relative_to(s) for s in scopes)
        ]
    if args.changed is not None:
        scoped = changed_paths(root, args.changed)
        if scoped is None:
            print(
                f"reprolint: error: cannot diff against {args.changed!r} "
                "(not a git checkout, or unknown ref)"
            )
            return 2
        frontier = graph.reverse_closure(scoped)
        violations = [v for v in violations if v.path in frontier]
    renderer = {
        "human": render_human,
        "json": render_json,
        "github": render_github,
    }[args.format]
    print(renderer(violations, suppressed=suppressed))
    if args.format == "github":
        summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary_path:
            with open(summary_path, "a", encoding="utf-8") as fh:
                fh.write(step_summary_table(violations))
    return 1 if violations else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint", description="run the reprolint invariant analyzer"
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
