"""reprolint's contract: each rule catches its violation, passes clean
code, and honours pragmas; the project rules cross-check the registry;
and — the point of the exercise — the repository itself lints clean.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import (
    FILE_RULES,
    RULE_DESCRIPTIONS,
    lint_repo,
    lint_source,
)
from repro.analysis.cli import lint
from repro.analysis.cli import main as lint_main
from repro.analysis.graph import FileFacts, FileRecord, ProjectGraph, analyze_paths
from repro.analysis.project import (
    PAIRS_PATH,
    EnginePurityRule,
    PairRecord,
    ProjectContext,
    TestEvidence,
    run_project_rules,
)
from repro.analysis.report import (
    render_github,
    render_human,
    render_json,
    step_summary_table,
)
from repro.analysis.rules import (
    ConfigValidationRule,
    ExceptionHygieneRule,
    FloatDeterminismRule,
    NanConventionRule,
    RngDisciplineRule,
)

ROOT = Path(__file__).resolve().parents[1]


def codes(violations):
    return [v.rule for v in violations]


def make_repo(tmp_path: Path, files: dict[str, str]) -> Path:
    """A synthetic repository: pyproject marker + the given files."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    for relative, source in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


# ---------------------------------------------------------------------------
# RL001: RNG discipline
# ---------------------------------------------------------------------------


class TestRngDiscipline:
    def lint(self, source, module="repro.codes.fake"):
        return lint_source(source, module=module, rules=[RngDisciplineRule()])

    def test_default_rng_left_to_rl009(self):
        # Literal-seeded and seedless default_rng are RL009's job now —
        # the dataflow rule traces provenance instead of pattern-matching.
        found = self.lint("import numpy as np\nrng = np.random.default_rng(0)\n")
        assert found == []
        found = self.lint("import numpy as np\nrng = np.random.default_rng()\n")
        assert found == []

    def test_violating_stdlib_random(self):
        found = self.lint("import random\nx = random.randint(0, 10)\n")
        assert codes(found) == ["RL001"]

    def test_violating_legacy_numpy_global(self):
        found = self.lint("import numpy as np\nx = np.random.uniform()\n")
        assert codes(found) == ["RL001"]

    def test_clean_threaded_seed(self):
        clean = (
            "import numpy as np\n"
            "def f(seed: int):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert self.lint(clean) == []

    def test_clean_outside_repro(self):
        noisy = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert self.lint(noisy, module="") == []

    def test_pragma_suppressed(self):
        suppressed = (
            "import random\n"
            "x = random.random()  # reprolint: disable=RL001\n"
        )
        assert self.lint(suppressed) == []


# ---------------------------------------------------------------------------
# RL002: engine purity
# ---------------------------------------------------------------------------

FAKE_ENGINES = {"repro.cluster.fake": frozenset({"FakeEngine"})}


class TestEnginePurity:
    def lint(self, tmp_path, source):
        root = make_repo(tmp_path, {"src/repro/cluster/fake.py": source})
        graph, _, _ = analyze_paths([root / "src"], root)
        rule = EnginePurityRule(engine_symbols=FAKE_ENGINES)
        return rule.check(ProjectContext.from_graph(graph), graph)

    VIOLATING = (
        "class FakeEngine:\n"
        "    def tick(self, xs, ys):\n"
        "        for i in range(len(xs)):\n"
        "            ys[i] = xs[i] + 1\n"
    )

    def test_violating_per_element_loop(self, tmp_path):
        found = self.lint(tmp_path, self.VIOLATING)
        assert codes(found) == ["RL002"]
        assert found[0].line == 3

    def test_clean_vectorized(self, tmp_path):
        clean = (
            "class FakeEngine:\n"
            "    def tick(self, xs, ys):\n"
            "        ys[:] = xs + 1\n"
        )
        assert self.lint(tmp_path, clean) == []

    def test_clean_loop_outside_engine(self, tmp_path):
        elsewhere = (
            "def helper(xs, ys):\n"
            "    for i in range(len(xs)):\n"
            "        ys[i] = xs[i] + 1\n"
        )
        assert self.lint(tmp_path, elsewhere) == []

    def test_clean_non_indexing_loop(self, tmp_path):
        per_group = (
            "class FakeEngine:\n"
            "    def tick(self, groups):\n"
            "        for _ in range(3):\n"
            "            groups.refresh()\n"
        )
        assert self.lint(tmp_path, per_group) == []

    def test_pragma_suppressed(self, tmp_path):
        suppressed = self.VIOLATING.replace(
            "range(len(xs)):", "range(len(xs)):  # reprolint: disable=RL002"
        )
        assert self.lint(tmp_path, suppressed) == []


# ---------------------------------------------------------------------------
# RL004: NaN convention
# ---------------------------------------------------------------------------


class TestNanConvention:
    def lint(self, source):
        return lint_source(
            source, module="repro.cluster.fake", rules=[NanConventionRule()]
        )

    VIOLATING = (
        "def mean_latency(xs):\n"
        "    if not xs:\n"
        "        return 0.0\n"
        "    return sum(xs) / len(xs)\n"
    )

    def test_violating_zero_return(self):
        found = self.lint(self.VIOLATING)
        assert codes(found) == ["RL004"]
        assert found[0].line == 3

    def test_violating_len_guard(self):
        source = (
            "def repair_fraction(xs):\n"
            "    if len(xs) == 0:\n"
            "        return 0\n"
            "    return 1.0\n"
        )
        assert codes(self.lint(source)) == ["RL004"]

    def test_clean_nan_return(self):
        clean = self.VIOLATING.replace("return 0.0", "return float('nan')")
        assert self.lint(clean) == []

    def test_clean_non_stats_name(self):
        counting = (
            "def pending_jobs(xs):\n"
            "    if not xs:\n"
            "        return 0\n"
            "    return len(xs)\n"
        )
        assert self.lint(counting) == []

    def test_pragma_suppressed(self):
        suppressed = self.VIOLATING.replace(
            "return 0.0", "return 0.0  # reprolint: disable=RL004"
        )
        assert self.lint(suppressed) == []


# ---------------------------------------------------------------------------
# RL005: float-determinism hazards
# ---------------------------------------------------------------------------


class TestFloatDeterminism:
    def lint(self, source, module="repro.cluster.fake"):
        return lint_source(source, module=module, rules=[FloatDeterminismRule()])

    VIOLATING = (
        "def total_load(nodes):\n"
        "    total = 0.0\n"
        "    for node in set(nodes):\n"
        "        total += node.load\n"
        "    return total\n"
    )

    def test_violating_direct_set_iteration(self):
        found = self.lint(self.VIOLATING)
        assert codes(found) == ["RL005"]
        assert found[0].line == 3

    def test_violating_named_set(self):
        source = (
            "def drain(pending, heap):\n"
            "    import heapq\n"
            "    live = set(pending)\n"
            "    for item in live:\n"
            "        heapq.heappush(heap, item)\n"
        )
        assert codes(self.lint(source)) == ["RL005"]

    def test_clean_sorted_set(self):
        clean = self.VIOLATING.replace("set(nodes)", "sorted(set(nodes))")
        assert self.lint(clean) == []

    def test_clean_no_accumulation(self):
        browsing = (
            "def names(nodes):\n"
            "    out = []\n"
            "    for node in set(nodes):\n"
            "        out.append(node)\n"
            "    return sorted(out)\n"
        )
        assert self.lint(browsing) == []

    def test_clean_outside_simulation_tiers(self):
        assert self.lint(self.VIOLATING, module="repro.codes.fake") == []

    def test_pragma_suppressed(self):
        suppressed = self.VIOLATING.replace(
            "for node in set(nodes):",
            "for node in set(nodes):  # reprolint: disable=RL005",
        )
        assert self.lint(suppressed) == []


# ---------------------------------------------------------------------------
# RL006: config-validation coverage
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def lint(self, source):
        return lint_source(
            source, module="repro.cluster.fake", rules=[ConfigValidationRule()]
        )

    VIOLATING = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class FakeConfig:\n"
        "    scan_rate: float = 1.0\n"
        "    label: str = 'x'\n"
        "    def validate(self):\n"
        "        if not self.label:\n"
        "            raise ValueError('label')\n"
        "        return self\n"
    )

    def test_violating_uncovered_field(self):
        found = self.lint(self.VIOLATING)
        assert codes(found) == ["RL006"]
        assert found[0].line == 4

    def test_violating_missing_validate(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class FakeConfig:\n"
            "    poll_timeout: float = 3.0\n"
        )
        found = self.lint(source)
        assert codes(found) == ["RL006"]
        assert "no validate()" in found[0].message

    def test_clean_covered_field(self):
        clean = self.VIOLATING.replace(
            "if not self.label:",
            "if self.scan_rate <= 0:\n            raise ValueError('rate')\n"
            "        if not self.label:",
        )
        assert self.lint(clean) == []

    def test_clean_non_config_class_without_validate(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class SweepResult:\n"
            "    repair_duration: float = 0.0\n"
        )
        assert self.lint(source) == []

    def test_pragma_suppressed(self):
        suppressed = self.VIOLATING.replace(
            "scan_rate: float = 1.0",
            "scan_rate: float = 1.0  # reprolint: disable=RL006",
        )
        assert self.lint(suppressed) == []


# ---------------------------------------------------------------------------
# RL003 / RL007: project rules over synthetic contexts
# ---------------------------------------------------------------------------


def make_project(**overrides):
    base = dict(
        pairs=(
            PairRecord(
                subsystem="fake",
                spec_symbol="fake_seed",
                engine_symbol="FakeEngine",
                gate="fake_speedup",
                line=10,
            ),
        ),
        tests=(
            TestEvidence(
                path="tests/test_fake.py",
                identifiers=frozenset({"fake_seed", "FakeEngine"}),
            ),
        ),
        gated_keys={"fake_speedup": 5},
        gate_calls={"fake": ("benchmarks/bench_fake.py", 20)},
    )
    base.update(overrides)
    return ProjectContext(**base)


class TestExceptionHygiene:
    def lint(self, source, module="repro.recovery.fake"):
        return lint_source(source, module=module, rules=[ExceptionHygieneRule()])

    def test_bare_except_flagged(self):
        found = self.lint(
            "try:\n    work()\nexcept:\n    cleanup()\n"
        )
        assert codes(found) == ["RL008"]
        assert "KeyboardInterrupt" in found[0].message

    def test_except_exception_pass_flagged(self):
        found = self.lint(
            "try:\n    work()\nexcept Exception:\n    pass\n"
        )
        assert codes(found) == ["RL008"]

    def test_base_exception_and_tuples_flagged(self):
        found = self.lint(
            "try:\n    work()\nexcept (ValueError, BaseException):\n    ...\n"
        )
        assert codes(found) == ["RL008"]

    def test_broad_handler_that_acts_passes(self):
        source = (
            "try:\n"
            "    work()\n"
            "except Exception:\n"
            "    quarantine()\n"
            "    raise\n"
        )
        assert self.lint(source) == []

    def test_narrow_pass_handler_passes(self):
        source = "try:\n    os.unlink(p)\nexcept OSError:\n    pass\n"
        assert self.lint(source) == []

    def test_outside_src_repro_ignored(self):
        assert self.lint("try:\n    f()\nexcept:\n    pass\n", module="") == []

    def test_pragma_suppresses(self):
        source = (
            "try:\n"
            "    work()\n"
            "except Exception:  # reprolint: disable=RL008\n"
            "    pass\n"
        )
        assert self.lint(source) == []


def project_findings(project, rules=None):
    found, _ = run_project_rules(project, ProjectGraph(ROOT, {}), rules=rules)
    return found


class TestProjectRules:
    def test_clean_project(self):
        assert project_findings(make_project()) == []

    def test_missing_differential_test(self):
        project = make_project(
            tests=(
                TestEvidence(
                    path="tests/test_other.py",
                    identifiers=frozenset({"FakeEngine"}),
                ),
            )
        )
        found = project_findings(project)
        assert codes(found) == ["RL003"]
        assert "no differential test" in found[0].message
        assert found[0].line == 10

    def test_missing_gate_key(self):
        project = make_project(gated_keys={}, gate_calls={})
        found = project_findings(project)
        assert codes(found) == ["RL003"]
        assert "no such gated key" in found[0].message

    def test_ungated_pair(self):
        pair = make_project().pairs[0]
        project = make_project(
            pairs=(
                PairRecord(
                    subsystem=pair.subsystem,
                    spec_symbol=pair.spec_symbol,
                    engine_symbol=pair.engine_symbol,
                    gate=None,
                    line=pair.line,
                ),
            ),
            gated_keys={},
            gate_calls={},
        )
        found = project_findings(project)
        assert codes(found) == ["RL003"]
        assert "gate=None" in found[0].message

    def test_dead_baseline_key(self):
        project = make_project(
            gated_keys={"fake_speedup": 5, "retired_speedup": 9}
        )
        found = project_findings(project)
        assert codes(found) == ["RL003"]
        assert "dead baseline key 'retired_speedup'" in found[0].message
        assert found[0].line == 9

    def test_rl007_unbaselined_bench(self):
        project = make_project(
            gate_calls={
                "fake": ("benchmarks/bench_fake.py", 20),
                "orphan": ("benchmarks/bench_orphan.py", 7),
            }
        )
        found = project_findings(project)
        # the orphan gate_speedup also keeps no baseline key alive, but
        # only RL007 fires: nothing gates it, so nothing is dead either
        assert codes(found) == ["RL007"]
        assert found[0].path == "benchmarks/bench_orphan.py"
        assert found[0].line == 7

    def test_rule_filter(self):
        project = make_project(gate_calls={"orphan": ("b.py", 1)})
        assert project_findings(project, rules={"RL003"}) == []
        assert codes(project_findings(project, rules={"RL007"})) == ["RL007"]

    def test_rl003_pragma_on_registration_line(self):
        # The escape hatch RL003 documents: a disable= pragma on the
        # register_engine_pair line silences findings anchored there.
        project = make_project(tests=())
        pairs = FileFacts(
            path=PAIRS_PATH,
            module="repro.difftest.pairs",
            scope="src",
            pragmas={10: frozenset({"RL003"})},
        )
        graph = ProjectGraph(ROOT, {PAIRS_PATH: FileRecord(facts=pairs)})
        assert codes(project_findings(project)) == ["RL003"]
        found, suppressed = run_project_rules(project, graph, rules={"RL003"})
        assert found == []
        assert suppressed == 1

    def test_rl007_pragma_on_gate_speedup_line(self, tmp_path):
        bench = 'gate_speedup("nosuchbench", 1.0, 1.0)\n'
        root = make_repo(tmp_path, {"benchmarks/bench_fake.py": bench})
        _, found, _ = lint(root, rules={"RL007"})
        assert codes(found) == ["RL007"]
        (root / "benchmarks/bench_fake.py").write_text(
            bench.replace("\n", "  # reprolint: disable=RL007\n")
        )
        _, found, suppressed = lint(root, rules={"RL007"})
        assert found == []
        assert suppressed == 1


# ---------------------------------------------------------------------------
# Self-application: the repository obeys its own invariants
# ---------------------------------------------------------------------------


class TestSelfApplication:
    def test_repo_is_clean(self):
        violations = lint_repo(root=ROOT)
        assert violations == [], "\n".join(
            f"{v.location()}: {v.rule} {v.message}" for v in violations
        )

    def test_rl003_covers_all_eleven_pairs(self):
        graph, _, _ = lint(ROOT)
        project = ProjectContext.from_graph(graph)
        assert len(project.pairs) == 11
        subsystems = {pair.subsystem for pair in project.pairs}
        assert subsystems == {
            "montecarlo", "codec", "xorplane", "blockindex", "network",
            "readservice", "scrubber", "decommission", "mapreduce",
            "raidnode", "recovery",
        }
        for pair in project.pairs:
            assert pair.line > 1, pair  # anchored to its registration
            assert pair.gate in project.gated_keys, pair
        assert run_project_rules(project, graph, rules={"RL003"}) == ([], 0)

    def test_every_rule_documented(self):
        assert set(RULE_DESCRIPTIONS) == {
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008", "RL009", "RL010", "RL011",
        }
        file_rule_codes = {rule.code for rule in FILE_RULES()}
        assert file_rule_codes == {"RL001", "RL004", "RL005", "RL006", "RL008"}

    def test_registry_is_single_source_of_truth(self):
        # RULE_DESCRIPTIONS, the file/project split, --explain, and the
        # DESIGN.md invariant list all derive from one class registry;
        # this pins the derivations to each other so they cannot drift.
        from repro.analysis.registry import ALL_RULE_CLASSES, explain, rule_class
        from repro.analysis.project import PROJECT_RULE_CLASSES
        from repro.analysis.rules import FILE_RULE_CLASSES

        assert [cls.code for cls in ALL_RULE_CLASSES] == sorted(
            cls.code for cls in ALL_RULE_CLASSES
        )
        assert set(ALL_RULE_CLASSES) == set(FILE_RULE_CLASSES) | set(
            PROJECT_RULE_CLASSES
        )
        file_codes = {cls.code for cls in FILE_RULE_CLASSES}
        project_codes = {cls.code for cls in PROJECT_RULE_CLASSES}
        assert file_codes | project_codes == set(RULE_DESCRIPTIONS)
        assert file_codes.isdisjoint(project_codes)
        assert all(cls.kind == "file" for cls in FILE_RULE_CLASSES)
        assert all(cls.kind == "project" for cls in PROJECT_RULE_CLASSES)
        for cls in ALL_RULE_CLASSES:
            assert RULE_DESCRIPTIONS[cls.code] == cls.description
            assert rule_class(cls.code) is cls
            # Every rule carries the full explain contract.
            text = explain(cls.code)
            assert cls.code in text
            assert "Contract:" in text
            assert "Escape hatch:" in text
            assert cls.contract, cls.code
            assert cls.example_bad, cls.code
            assert cls.example_good, cls.code
            assert cls.escape, cls.code
        assert explain("RL999") is None

    def test_design_doc_lists_every_rule(self):
        # Satellite of the registry consolidation: DESIGN.md's
        # "Enforced invariants" section must name every rule code.
        text = (ROOT / "DESIGN.md").read_text()
        for code in RULE_DESCRIPTIONS:
            assert f"**{code}" in text, f"DESIGN.md missing {code}"

    def test_syntax_error_reported_not_raised(self):
        found = lint_source("def broken(:\n", module="repro.fake")
        assert codes(found) == ["RL000"]


# ---------------------------------------------------------------------------
# CLI and renderers
# ---------------------------------------------------------------------------


class TestCliAndRendering:
    def test_clean_repo_exits_zero(self, capsys):
        assert lint_main(["--root", str(ROOT)]) == 0
        assert "reprolint: clean" in capsys.readouterr().out

    def test_violation_exits_one_with_location(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        assert lint_main([str(bad), "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2: RL001" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--root", str(ROOT), "--rules", "RL999"]) == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert lint_main(["no/such/dir", "--root", str(ROOT)]) == 2
        assert "no such path" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrandom.seed(1)\n")
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        assert lint_main([str(bad), "--root", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["by_rule"] == {"RL001": 1}
        assert payload["violations"][0]["line"] == 2

    def test_github_format_and_step_summary(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrandom.seed(7)\n")
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        code = lint_main([str(bad), "--root", str(tmp_path), "--format", "github"])
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "RL001" in out
        table = summary.read_text()
        assert "## reprolint" in table and "RL001" in table

    def test_renderers_on_empty(self):
        assert render_human([]) == "reprolint: clean"
        assert json.loads(render_json([]))["clean"] is True
        assert render_github([]) == "reprolint: clean"
        assert "No violations" in step_summary_table([])

    def test_retired_rl012_is_unknown(self, capsys):
        # RL012 folded into RL002 with no alias: a stale code is a usage
        # error, and a stale pragma lapses into a live RL002 finding.
        assert lint_main(["--root", str(ROOT), "--rules", "RL012"]) == 2
        assert lint_main(["--explain", "RL012"]) == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_explicit_path_runs_whole_program_rules(self, tmp_path, capsys):
        # An explicit path filters a whole-program run; it does not
        # swap in a per-file-only driver that skips RL009.
        thing = make_repo(
            tmp_path,
            {
                "src/repro/thing.py": (
                    "import numpy as np\n"
                    "def make(n):\n"
                    "    s = 1234 + n\n"
                    "    return np.random.default_rng(s)\n"
                ),
                "src/repro/other.py": "import random\nx = random.random()\n",
            },
        ) / "src/repro/thing.py"
        assert lint_main([str(thing), "--root", str(tmp_path), "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "thing.py:4: RL009" in out
        assert "other.py" not in out  # outside the named path: filtered

    def test_rules_filter_scopes_run(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        args = [str(bad), "--root", str(tmp_path), "--rules", "RL004"]
        assert lint_main(args) == 0


class TestPragmas:
    def test_disable_all(self):
        source = (
            "import random\n"
            "x = random.random()  # reprolint: disable=all\n"
        )
        assert lint_source(source, module="repro.fake") == []

    def test_multiline_statement_end_line_pragma(self):
        source = (
            "import random\n"
            "x = random.uniform(\n"
            "    0.0, 1.0\n"
            ")  # reprolint: disable=RL001\n"
        )
        assert lint_source(source, module="repro.fake") == []

    def test_pragma_for_other_rule_does_not_suppress(self):
        source = (
            "import random\n"
            "x = random.random()  # reprolint: disable=RL004\n"
        )
        assert codes(lint_source(source, module="repro.fake")) == ["RL001"]
