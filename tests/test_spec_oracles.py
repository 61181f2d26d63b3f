"""Guard: the cluster simulator's scalar specs are test oracles only.

Production code constructs each subsystem's engine directly.  The specs
stay importable from their defining modules so the differential tests
and gated benches can run them, but no other module under ``src/repro``
may reference them, and ``ClusterConfig`` carries no engine switch.  An
AST walk (reprolint's, the one RL003 uses on tests) counts real
references: imports, names, attributes.  Docstrings and comments do not
count.
"""

import ast
import dataclasses
from pathlib import Path

import repro
from repro.analysis.graph import referenced_identifiers
from repro.cluster import ClusterConfig

SPEC_SYMBOLS = {
    "Network",
    "DictNameNode",
    "Scrubber",
    "plan_recreates_seed",
    "plan_pass_seed",
    "scan_candidates_seed",
}

SRC = Path(repro.__file__).resolve().parent

#: The one non-defining module allowed to name the specs: the registry
#: of spec/engine pairs (as dotted strings).
REGISTRY = SRC / "difftest" / "pairs.py"


def defined_symbols(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    } & SPEC_SYMBOLS


def test_specs_referenced_only_where_defined_or_reexported():
    offenders = {}
    defined_in = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for symbol in defined_symbols(tree):
            defined_in[symbol] = path
        if path.name == "__init__.py" or path == REGISTRY:
            continue
        stray = referenced_identifiers(tree) & SPEC_SYMBOLS - defined_symbols(tree)
        if stray:
            offenders[str(path.relative_to(SRC))] = sorted(stray)
    assert set(defined_in) == SPEC_SYMBOLS  # every spec is still there
    assert offenders == {}


def test_cluster_config_has_no_engine_field():
    names = [field.name for field in dataclasses.fields(ClusterConfig)]
    assert [name for name in names if name.endswith("_engine")] == []
