"""Whole-program reprolint: dataflow, project graph, RL002, RL009-RL011.

Each rule gets a seeded-mutation test: a synthetic mini-repo that is
clean, plus the one-line mutation the rule exists to catch (drop a
snapshot field, add an unhashed config field, launder a constant seed
through a helper, push a scalar loop into an engine helper) — proving
the rule actually fires, not just that the real repo is quiet.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis.cache import AnalysisCache, environment_hash
from repro.analysis.cli import lint
from repro.analysis.cli import main as lint_main
from repro.analysis.dataflow import (
    CONST,
    SEEDED,
    TaintEvaluator,
    resolve_taint,
    taint_from_json,
    taint_to_json,
)
from repro.analysis.graph import analyze_paths
from repro.analysis.project import (
    EnginePurityRule,
    ProjectContext,
    run_project_rules,
)

ROOT = Path(__file__).resolve().parent.parent


def make_repo(tmp_path: Path, files: dict[str, str]) -> Path:
    """A synthetic repository: pyproject marker + the given files."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    for relative, source in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def analyze(root: Path, cache=None):
    return analyze_paths([root / "src"], root, cache=cache)


def project_rules(graph, rules):
    return run_project_rules(ProjectContext.from_graph(graph), graph, rules=rules)


def project_codes(graph, rules):
    found, _ = project_rules(graph, rules)
    return [v.rule for v in found]


# ---------------------------------------------------------------------------
# Taint lattice + evaluator
# ---------------------------------------------------------------------------


class TestDataflow:
    def eval_function(self, source, lookup=None):
        import ast

        tree = ast.parse(source)
        node = tree.body[0]
        evaluator = TaintEvaluator(node)
        return evaluator.env, (lookup or (lambda q: None))

    def test_constant_laundering_stays_const(self):
        env, lookup = self.eval_function(
            "def f():\n    s = 1234\n    t = s * 2 + 1\n    return t\n"
        )
        assert resolve_taint(env["t"], lookup) is CONST

    def test_seed_param_is_seeded(self):
        env, lookup = self.eval_function(
            "def f(seed):\n    s = seed + 3\n    return s\n"
        )
        assert resolve_taint(env["s"], lookup) is SEEDED

    def test_chained_seed_sequence_spawn_is_seeded(self):
        # SeedSequence(seed).spawn(3): the factory's receiver carries
        # the taint even though the call chain's base is itself a call.
        env, lookup = self.eval_function(
            "def f(seed):\n"
            "    a, b, c = SeedSequence(seed).spawn(3)\n"
            "    return a\n"
        )
        assert resolve_taint(env["a"], lookup) is SEEDED

    def test_join_is_optimistic_on_seeded(self):
        env, lookup = self.eval_function(
            "def f(seed):\n    s = seed + 1234\n    return s\n"
        )
        assert resolve_taint(env["s"], lookup) is SEEDED

    def test_taint_json_roundtrip(self):
        env, _ = self.eval_function(
            "def f(seed, n):\n    s = helper(seed, n * 2)\n    return s\n"
        )
        payload = taint_to_json(env["s"])
        json.dumps(payload)  # must be JSON-serializable
        assert taint_to_json(taint_from_json(payload)) == payload


# ---------------------------------------------------------------------------
# ProjectGraph: symbol table, imports, reverse closure
# ---------------------------------------------------------------------------


class TestProjectGraph:
    def test_import_graph_and_reverse_closure(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/base.py": "X = 1\n",
                "src/repro/mid.py": "from repro.base import X\nY = X\n",
                "src/repro/top.py": "from repro.mid import Y\nZ = Y\n",
                "src/repro/other.py": "W = 4\n",
            },
        )
        graph, _, _ = analyze(root)
        closure = graph.reverse_closure({"src/repro/base.py"})
        assert closure == {
            "src/repro/base.py", "src/repro/mid.py", "src/repro/top.py",
        }
        assert graph.reverse_closure({"src/repro/other.py"}) == {
            "src/repro/other.py"
        }

    def test_lookup_summary_follows_reexport(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/impl.py": "def derive(seed):\n    return seed + 1\n",
                "src/repro/__init__.py": "from repro.impl import derive\n",
            },
        )
        graph, _, _ = analyze(root)
        summary = graph.lookup_summary("repro:derive")
        assert summary is not None
        assert summary.params == ("seed",)


# ---------------------------------------------------------------------------
# RL009: seed provenance (mutation: launder a constant through a helper)
# ---------------------------------------------------------------------------


CLEAN_SEEDED = (
    "import numpy as np\n"
    "def make(seed):\n"
    "    return np.random.default_rng(seed)\n"
)


class TestSeedProvenance:
    def codes_for(self, tmp_path, source, helper=None):
        files = {"src/repro/thing.py": source}
        if helper:
            files["src/repro/helper.py"] = helper
        graph, _, _ = analyze(make_repo(tmp_path, files))
        return project_codes(graph, {"RL009"})

    def test_clean_threaded_seed(self, tmp_path):
        assert self.codes_for(tmp_path, CLEAN_SEEDED) == []

    def test_mutation_constant_laundered_through_local(self, tmp_path):
        bad = (
            "import numpy as np\n"
            "def make(n):\n"
            "    s = 1234 + n\n"
            "    return np.random.default_rng(s)\n"
        )
        assert self.codes_for(tmp_path, bad) == ["RL009"]

    def test_mutation_constant_laundered_through_helper(self, tmp_path):
        # The acceptance mutation: the constant hides one call away, in
        # another module; only interprocedural resolution catches it.
        bad = (
            "import numpy as np\n"
            "from repro.helper import derive\n"
            "def make(n):\n"
            "    return np.random.default_rng(derive(n))\n"
        )
        helper = "def derive(n):\n    return 99 + n\n"
        assert self.codes_for(tmp_path, bad, helper=helper) == ["RL009"]

    def test_seed_threaded_through_helper_is_clean(self, tmp_path):
        good = (
            "import numpy as np\n"
            "from repro.helper import derive\n"
            "def make(seed, n):\n"
            "    return np.random.default_rng(derive(seed, n))\n"
        )
        helper = "def derive(seed, n):\n    return seed * 100 + n\n"
        assert self.codes_for(tmp_path, good, helper=helper) == []

    def test_seedless_call_flagged(self, tmp_path):
        bad = (
            "import numpy as np\n"
            "def make():\n"
            "    return np.random.default_rng()\n"
        )
        assert self.codes_for(tmp_path, bad) == ["RL009"]

    def test_spawned_streams_are_clean(self, tmp_path):
        good = (
            "import numpy as np\n"
            "def make(seed):\n"
            "    a, b = np.random.SeedSequence(seed).spawn(2)\n"
            "    return np.random.default_rng(a), np.random.default_rng(b)\n"
        )
        assert self.codes_for(tmp_path, good) == []

    def test_pragma_counts_as_suppressed(self, tmp_path):
        bad = (
            "import numpy as np\n"
            "def make():\n"
            "    return np.random.default_rng(7)  # reprolint: disable=RL009\n"
        )
        graph, _, _ = analyze(make_repo(tmp_path, {"src/repro/thing.py": bad}))
        found, suppressed = project_rules(graph, {"RL009"})
        assert found == []
        assert suppressed == 1


# ---------------------------------------------------------------------------
# RL010: snapshot coverage (mutation: drop a field from snapshot_state)
# ---------------------------------------------------------------------------


SNAPSHOT_TEMPLATE = (
    "class Engine:\n"
    "    def __init__(self):\n"
    "        self.count = 0\n"
    "        self.backlog = 0\n"
    "    def advance(self):\n"
    "        self.count += 1\n"
    "        self.backlog += 1\n"
    "    def snapshot_state(self):\n"
    "        return {%s}\n"
    "    def restore_state(self, state):\n"
    "        self.count = state['count']\n"
)


class TestSnapshotCoverage:
    def codes_for(self, tmp_path, source):
        graph, _, _ = analyze(make_repo(tmp_path, {"src/repro/eng.py": source}))
        return project_codes(graph, {"RL010"})

    def test_clean_when_all_captured(self, tmp_path):
        source = SNAPSHOT_TEMPLATE % "'count': self.count, 'backlog': self.backlog"
        assert self.codes_for(tmp_path, source) == []

    def test_mutation_dropped_field_fires(self, tmp_path):
        # The acceptance mutation: remove one field from the snapshot
        # dict and the kill-resume contract silently loses it.
        source = SNAPSHOT_TEMPLATE % "'count': self.count"
        found_codes = self.codes_for(tmp_path, source)
        assert found_codes == ["RL010"]

    def test_transient_mark_excuses(self, tmp_path):
        source = (SNAPSHOT_TEMPLATE % "'count': self.count").replace(
            "self.backlog = 0",
            "self.backlog = 0  # reprolint: transient",
        )
        assert self.codes_for(tmp_path, source) == []

    def test_non_snapshot_class_ignored(self, tmp_path):
        source = (
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self.x = 0\n"
            "    def advance(self):\n"
            "        self.x += 1\n"
        )
        assert self.codes_for(tmp_path, source) == []


# ---------------------------------------------------------------------------
# RL011: cache-key completeness (mutation: add an unhashed config field)
# ---------------------------------------------------------------------------


CONFIG_TEMPLATE = (
    "from dataclasses import asdict, dataclass\n"
    "@dataclass(frozen=True)\n"
    "class ClusterConfig:\n"
    "%s"
    "\n"
    "def run_key(config: ClusterConfig) -> str:\n"
    "    fields = {k: v for k, v in asdict(config).items()\n"
    "              if not k.startswith('checkpoint_')}\n"
    "    return config_hash({'config': fields})\n"
)


class TestCacheKeyCompleteness:
    def codes_for(self, tmp_path, source):
        graph, _, _ = analyze(make_repo(tmp_path, {"src/repro/cfg.py": source}))
        return project_codes(graph, {"RL011"})

    def test_clean_asdict_covers_all_fields(self, tmp_path):
        source = CONFIG_TEMPLATE % "    num_nodes: int = 10\n    block_size: float = 1.0\n"
        assert self.codes_for(tmp_path, source) == []

    def test_checkpoint_fields_are_documented_exclusions(self, tmp_path):
        source = CONFIG_TEMPLATE % (
            "    num_nodes: int = 10\n    checkpoint_every: int = 5\n"
        )
        assert self.codes_for(tmp_path, source) == []

    def test_mutation_field_outside_any_builder_fires(self, tmp_path):
        # The acceptance mutation: a new knob lands on the config but no
        # key builder ever sees it — two different experiments would
        # share one cached result.
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class ClusterConfig:\n"
            "    num_nodes: int = 10\n"
            "    new_knob: float = 1.0\n"
            "\n"
            "def run_key(config) -> str:\n"
            "    return config_hash({'num_nodes': config.num_nodes})\n"
        )
        graph, _, _ = analyze(
            make_repo(tmp_path, {"src/repro/cfg.py": source})
        )
        found, _ = project_rules(graph, {"RL011"})
        assert [v.rule for v in found] == ["RL011"]
        assert "new_knob" in found[0].message

    def test_non_target_config_ignored(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class OtherConfig:\n"
            "    whatever: int = 3\n"
        )
        assert self.codes_for(tmp_path, source) == []

    def test_real_repo_degraded_config_covered_by_scenario_sweep(self):
        # The repo-level regression this rule was built to catch: every
        # DegradedReadConfig field participates in the cached degraded
        # sweep via asdict in scenario_config.
        from repro.experiments.degraded import scenario_config
        from repro.cluster.degraded import DegradedReadConfig

        config = scenario_config("uniform", "RS(10,4)", DegradedReadConfig())
        from dataclasses import asdict

        assert set(config["config"]) == set(asdict(DegradedReadConfig()))


# ---------------------------------------------------------------------------
# RL002 through helpers (mutation: push loop into helper)
# ---------------------------------------------------------------------------


FAKE_ENGINES = {"repro.cluster.fake": frozenset({"FakeEngine"})}


class TestInterproceduralPurity:
    def check(self, tmp_path, files, engines=FAKE_ENGINES):
        graph, _, _ = analyze(make_repo(tmp_path, files))
        rule = EnginePurityRule(engine_symbols=engines)
        return rule.check(ProjectContext.from_graph(graph), graph), rule

    def run_rule(self, tmp_path, files):
        found, _ = self.check(tmp_path, files)
        return [v.rule for v in found], found

    def test_clean_vectorized_helper(self, tmp_path):
        files = {
            "src/repro/cluster/fake.py": (
                "def _helper(xs):\n"
                "    return xs * 2\n"
                "class FakeEngine:\n"
                "    def run(self, xs):\n"
                "        return _helper(xs)\n"
            ),
        }
        codes_found, _ = self.run_rule(tmp_path, files)
        assert codes_found == []

    def test_mutation_scalar_loop_pushed_into_helper_fires(self, tmp_path):
        # The acceptance mutation: the engine body is clean, but the
        # per-element loop just moved one call away.
        files = {
            "src/repro/cluster/fake.py": (
                "def _helper(xs, out):\n"
                "    for i in range(len(xs)):\n"
                "        out[i] = xs[i] * 2\n"
                "class FakeEngine:\n"
                "    def run(self, xs, out):\n"
                "        _helper(xs, out)\n"
            ),
        }
        codes_found, _ = self.run_rule(tmp_path, files)
        assert codes_found == ["RL002"]

    def test_mutation_caught_across_module_boundary(self, tmp_path):
        files = {
            "src/repro/cluster/fake.py": (
                "from repro.cluster.scalar import _helper\n"
                "class FakeEngine:\n"
                "    def run(self, xs, out):\n"
                "        _helper(xs, out)\n"
            ),
            "src/repro/cluster/scalar.py": (
                "def _helper(xs, out):\n"
                "    for i in range(len(xs)):\n"
                "        out[i] = xs[i] * 2\n"
            ),
        }
        codes_found, _ = self.run_rule(tmp_path, files)
        assert codes_found == ["RL002"]

    def test_pragma_on_helper_loop_suppresses(self, tmp_path):
        files = {
            "src/repro/cluster/fake.py": (
                "def _helper(xs, out):\n"
                "    for i in range(len(xs)):  # reprolint: disable=RL002\n"
                "        out[i] = xs[i] * 2\n"
                "class FakeEngine:\n"
                "    def run(self, xs, out):\n"
                "        _helper(xs, out)\n"
            ),
        }
        found, rule = self.check(tmp_path, files)
        assert found == []
        assert rule.suppressed == 1

    def test_loop_in_uncalled_function_ignored(self, tmp_path):
        files = {
            "src/repro/cluster/fake.py": (
                "def _unrelated(xs, out):\n"
                "    for i in range(len(xs)):\n"
                "        out[i] = xs[i]\n"
                "class FakeEngine:\n"
                "    def run(self, xs):\n"
                "        return xs * 2\n"
            ),
        }
        codes_found, _ = self.run_rule(tmp_path, files)
        assert codes_found == []

    def test_engine_body_and_helper_both_loop(self, tmp_path):
        files = {
            "src/repro/cluster/fake.py": (
                "def _helper(xs, out):\n"
                "    for i in range(len(xs)):\n"
                "        out[i] = xs[i] * 2\n"
                "class FakeEngine:\n"
                "    def run(self, xs, out):\n"
                "        for j in range(len(xs)):\n"
                "            out[j] += 1\n"
                "        _helper(xs, out)\n"
            ),
        }
        found, _ = self.check(tmp_path, files)
        helper, body = sorted(found)
        assert [(v.rule, v.line) for v in (helper, body)] == [
            ("RL002", 2),
            ("RL002", 6),
        ]
        assert "in helper '_helper' called from registered engine body" in (
            helper.message
        )
        assert "inside registered engine 'FakeEngine'" in body.message

    def test_helper_that_is_itself_an_engine_reported_once(self, tmp_path):
        files = {
            "src/repro/cluster/fake.py": (
                "def plan_vectorized(xs, out):\n"
                "    for i in range(len(xs)):\n"
                "        out[i] = xs[i] * 2\n"
                "class FakeEngine:\n"
                "    def run(self, xs, out):\n"
                "        plan_vectorized(xs, out)\n"
            ),
        }
        engines = {
            "repro.cluster.fake": frozenset({"FakeEngine", "plan_vectorized"})
        }
        found, _ = self.check(tmp_path, files, engines=engines)
        assert [(v.rule, v.line) for v in found] == [("RL002", 2)]
        assert "inside registered engine 'plan_vectorized'" in found[0].message

    def test_engine_constructor_call_is_not_a_helper(self, tmp_path):
        # Classes record loops too (for engine bodies), but a call to a
        # class is a constructor, never a helper to follow.
        files = {
            "src/repro/cluster/fake.py": (
                "class Table:\n"
                "    def fill(self, xs, out):\n"
                "        for i in range(len(xs)):\n"
                "            out[i] = xs[i]\n"
                "class FakeEngine:\n"
                "    def run(self, xs):\n"
                "        return Table()\n"
            ),
        }
        codes_found, _ = self.run_rule(tmp_path, files)
        assert codes_found == []


# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# Incremental cache
# ---------------------------------------------------------------------------


class TestAnalysisCache:
    FILES = {
        "src/repro/a.py": "def f(seed):\n    return seed\n",
        "src/repro/b.py": "from repro.a import f\n",
    }

    def test_warm_run_hits_every_file(self, tmp_path):
        root = make_repo(tmp_path, dict(self.FILES))
        cache = AnalysisCache(root)
        analyze(root, cache=cache)
        assert cache.hits == 0 and cache.misses == 2
        cache.save()
        warm = AnalysisCache(root)
        graph, _, _ = analyze(root, cache=warm)
        assert warm.hits == 2 and warm.misses == 0
        assert set(graph.files) == {"src/repro/a.py", "src/repro/b.py"}

    def test_edited_file_invalidates_only_itself(self, tmp_path):
        root = make_repo(tmp_path, dict(self.FILES))
        cache = AnalysisCache(root)
        analyze(root, cache=cache)
        cache.save()
        (root / "src/repro/a.py").write_text("def f(seed):\n    return seed + 1\n")
        warm = AnalysisCache(root)
        analyze(root, cache=warm)
        assert warm.hits == 1 and warm.misses == 1

    def test_analyzer_version_invalidates_whole_cache(self, tmp_path):
        root = make_repo(tmp_path, dict(self.FILES))
        cache = AnalysisCache(root)
        analyze(root, cache=cache)
        cache.save()
        payload = json.loads((root / ".reprolint-cache.json").read_text())
        payload["env"] = "stale"
        (root / ".reprolint-cache.json").write_text(json.dumps(payload))
        warm = AnalysisCache(root)
        analyze(root, cache=warm)
        assert warm.hits == 0 and warm.misses == 2

    def test_env_hash_ignores_registry_edits(self, tmp_path):
        # No cached record reads the difftest registry, so editing it
        # must not discard the cache.
        root = make_repo(tmp_path, dict(self.FILES))
        cache = AnalysisCache(root)
        analyze(root, cache=cache)
        cache.save()
        pairs = root / "src/repro/difftest/pairs.py"
        pairs.parent.mkdir(parents=True)
        pairs.write_text("# registry changed\n")
        warm = AnalysisCache(root)
        assert warm.env == cache.env == environment_hash()
        analyze(root, cache=warm)
        assert warm.hits == 2 and warm.misses == 1  # only the new file

    def test_rl002_follows_engine_table_on_warm_graph(self, tmp_path):
        # RL002 reads the engine table at check time, not from cached
        # records: one warm graph answers for whatever table is passed.
        root = make_repo(
            tmp_path,
            {
                "src/repro/cluster/fake.py": (
                    "class FakeEngine:\n"
                    "    def run(self, xs, out):\n"
                    "        for i in range(len(xs)):\n"
                    "            out[i] = xs[i]\n"
                    "class OtherEngine:\n"
                    "    def run(self, xs):\n"
                    "        return xs\n"
                ),
            },
        )
        analyze(root, cache=AnalysisCache(root))
        warm = AnalysisCache(root)
        graph, _, _ = analyze(root, cache=warm)
        assert warm.hits == 1 and warm.misses == 0
        context = ProjectContext.from_graph(graph)

        def lines(symbols):
            table = {"repro.cluster.fake": frozenset(symbols)}
            return [v.line for v in EnginePurityRule(table).check(context, graph)]

        assert lines({"FakeEngine"}) == [3]
        assert lines({"OtherEngine"}) == []
        assert lines({"FakeEngine", "OtherEngine"}) == [3]

    def test_corrupt_cache_file_treated_as_empty(self, tmp_path):
        root = make_repo(tmp_path, dict(self.FILES))
        (root / ".reprolint-cache.json").write_text("{not json")
        cache = AnalysisCache(root)
        graph, _, _ = analyze(root, cache=cache)
        assert cache.misses == 2
        assert set(graph.files) == {"src/repro/a.py", "src/repro/b.py"}

    def test_filtered_rules_never_trust_cached_violations(self, tmp_path):
        root = make_repo(
            tmp_path,
            {"src/repro/a.py": "import random\nx = random.random()\n"},
        )
        cache = AnalysisCache(root)
        analyze(root, cache=cache)
        cache.save()
        warm = AnalysisCache(root)
        _, found, _ = analyze_paths(
            [root / "src"], root, rules={"RL004"}, cache=warm
        )
        assert warm.hits == 0  # filtered runs lint fresh
        assert found == []

    def test_warm_lint_is_five_times_faster(self):
        # The incremental contract on the real tree through the whole
        # pipeline (project rules included), measured in-process so
        # interpreter startup does not drown the comparison.
        t0 = time.perf_counter()
        _, cold_violations, cold_suppressed = lint(ROOT)
        cold = time.perf_counter() - t0
        cache = AnalysisCache(ROOT, path=ROOT / ".reprolint-perf-test.json")
        try:
            cache.clear()
            lint(ROOT, cache=cache)
            warm_cache = AnalysisCache(ROOT, path=cache.path)
            t0 = time.perf_counter()
            _, warm_violations, warm_suppressed = lint(ROOT, cache=warm_cache)
            warm = time.perf_counter() - t0
        finally:
            cache.path.unlink(missing_ok=True)
        assert warm_cache.misses == 0
        assert (warm_violations, warm_suppressed) == (
            cold_violations,
            cold_suppressed,
        )
        assert warm * 5 <= cold, f"warm {warm:.3f}s vs cold {cold:.3f}s"


# ---------------------------------------------------------------------------
# CLI: --changed and --explain
# ---------------------------------------------------------------------------


class TestCliModes:
    def test_explain_known_rule(self, capsys):
        assert lint_main(["--explain", "RL010"]) == 0
        out = capsys.readouterr().out
        assert "RL010" in out and "Contract:" in out and "Escape hatch:" in out

    def test_explain_unknown_rule(self, capsys):
        assert lint_main(["--explain", "RL999"]) == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_changed_against_head_is_clean(self, capsys):
        assert lint_main(["--root", str(ROOT), "--changed", "HEAD"]) == 0
        assert "reprolint" in capsys.readouterr().out

    def test_changed_outside_git_exits_two(self, tmp_path, capsys):
        make_repo(tmp_path, {"src/repro/a.py": "x = 1\n"})
        code = lint_main(["--root", str(tmp_path), "--changed", "HEAD"])
        assert code == 2
        assert "git" in capsys.readouterr().out.lower()

    def test_whole_repo_lint_runs_project_rules(self, tmp_path, capsys):
        # A repo-mode run (no explicit paths) must include RL009-RL011.
        root = make_repo(
            tmp_path,
            {
                "src/repro/thing.py": (
                    "import numpy as np\n"
                    "def make(n):\n"
                    "    s = 1234 + n\n"
                    "    return np.random.default_rng(s)\n"
                ),
            },
        )
        assert lint_main(["--root", str(root), "--no-cache"]) == 1
        assert "RL009" in capsys.readouterr().out
