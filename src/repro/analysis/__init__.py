"""reprolint: the repository's invariant analyzer.

The reproduction's credibility rests on conventions that used to live
only in reviewer memory — every random draw derives from a config seed
via spawned streams, every vectorized engine keeps its scalar spec with
a differential test and a CI-gated bench metric, empty-window statistics
return NaN rather than a misleading zero, and simulation code never
lets set-iteration order feed float accumulation.  v2 mechanizes those
contracts in one pipeline (:func:`repro.analysis.cli.lint`) with two
layers: per-file rules dispatched from a single ``ast.parse`` walk, and
whole-program rules that query a project fact graph
(:mod:`repro.analysis.graph`) through an interprocedural taint lattice
(:mod:`repro.analysis.dataflow`), with an incremental content-hash
cache (:mod:`repro.analysis.cache`) so warm runs parse nothing.

Rules (each suppressible per line with ``# reprolint: disable=RL0xx``;
run ``repro lint --explain RL0xx`` for the contract and examples):

========  =============================================================
RL001     RNG discipline: no stdlib ``random`` / legacy ``np.random.*``
          calls in ``src/repro`` (default_rng provenance moved to RL009)
RL002     engine purity: no per-element Python index loops inside
          registered engine bodies or the helpers they call
RL003     spec/engine conformance: every registered pair has a
          differential test and a gated baseline metric; no dead keys
RL004     NaN convention: empty-window stats return NaN, never 0
RL005     float determinism: no set-ordered iteration feeding float
          accumulation or event scheduling in cluster/reliability
RL006     config validation: rate/duration/timeout-style numeric config
          fields must be covered by the config's ``validate()``
RL007     bench-gate consistency: every ``gate_speedup`` metric name
          round-trips through ``bench_baseline.json`` (schema 2)
RL009     seed provenance (dataflow): every value reaching a
          ``default_rng``/``spawn_streams`` seed argument must flow
          from a config seed field or threaded seed parameter
RL010     snapshot coverage: mutable attributes on snapshot/restore
          classes must be captured or marked ``# reprolint: transient``
RL011     cache-key completeness: every ClusterConfig/DegradedReadConfig
          field reaches a cache-key builder or a documented exclusion
========  =============================================================
"""

from .cache import AnalysisCache
from .core import LintContext, RuleViolation, lint_source
from .graph import ProjectGraph, analyze_paths
from .project import ProjectContext, run_project_rules
from .registry import RULE_DESCRIPTIONS, explain
from .report import render_github, render_human, render_json
from .rules import FILE_RULES

__all__ = [
    "AnalysisCache",
    "FILE_RULES",
    "LintContext",
    "ProjectContext",
    "ProjectGraph",
    "RULE_DESCRIPTIONS",
    "RuleViolation",
    "analyze_paths",
    "explain",
    "lint_repo",
    "lint_source",
    "render_github",
    "render_human",
    "render_json",
    "run_project_rules",
]


def lint_repo(root=None, rules=None, cache=False):
    """The sorted violation list of one :func:`repro.analysis.cli.lint`
    run over the repository (``cache=True`` reuses/writes
    ``.reprolint-cache.json``)."""
    from .cli import lint, resolve_root

    root = resolve_root(root)
    return lint(root, rules, AnalysisCache(root) if cache else None)[1]
