"""The single rule registry.

Every consumer of "what rules exist" — the CLI's ``--rules`` validation
and ``--explain`` output, the renderers, the package docstring table,
and the DESIGN.md consistency test — derives from :data:`ALL_RULE_CLASSES`
here.  The rule classes themselves carry the full record (code,
description, kind, scopes, contract, examples, escape hatch), so adding
a rule means writing one class; nothing else needs hand-syncing.
"""

from __future__ import annotations

import textwrap

from .core import Rule
from .project import PROJECT_RULE_CLASSES
from .rules import FILE_RULE_CLASSES

__all__ = [
    "ALL_RULE_CLASSES",
    "RULE_DESCRIPTIONS",
    "explain",
    "rule_class",
]

#: Every rule class, in code order.  File rules and project rules are
#: each declared in exactly one tuple in their home module; this is the
#: only place the two lists meet.
ALL_RULE_CLASSES: tuple[type[Rule], ...] = tuple(
    sorted(FILE_RULE_CLASSES + PROJECT_RULE_CLASSES, key=lambda cls: cls.code)
)

#: code -> one-line description (derived; do not hand-edit).
RULE_DESCRIPTIONS: dict[str, str] = {
    cls.code: cls.description for cls in ALL_RULE_CLASSES
}


def rule_class(code: str) -> type[Rule] | None:
    """The rule class registered under ``code`` (case-insensitive)."""
    wanted = code.strip().upper()
    for cls in ALL_RULE_CLASSES:
        if cls.code == wanted:
            return cls
    return None


def _indent(text: str, prefix: str = "    ") -> str:
    return textwrap.indent(text.rstrip("\n"), prefix)


def explain(code: str) -> str | None:
    """The ``--explain RL0xx`` text: contract, violating and clean
    examples, and the escape-hatch pragma.  None for unknown codes."""
    cls = rule_class(code)
    if cls is None:
        return None
    kind = (
        "whole-program (runs over the project fact graph)"
        if cls.kind == "project"
        else f"per-file (scopes: {', '.join(cls.scopes)})"
    )
    sections = [
        f"{cls.code} — {cls.description}",
        f"kind: {kind}",
        "",
        "Contract:",
        _indent(textwrap.fill(cls.contract or cls.description, width=72), "  "),
    ]
    if cls.example_bad:
        sections += ["", "Violates:", _indent(cls.example_bad)]
    if cls.example_good:
        sections += ["", "Clean:", _indent(cls.example_good)]
    sections += ["", "Escape hatch:", _indent(cls.escape, "  ")]
    return "\n".join(sections)
