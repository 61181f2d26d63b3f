"""The inventory of spec/engine pairs.

Every vectorized subsystem keeps its scalar seed implementation as the
executable specification.  Production code constructs the engine
directly; the spec runs only in differential tests and gated benches.
A registration is metadata: which spec, which engine, which CI gate.
reprolint's RL002/RL003/RL007 rules read it through
:func:`engine_matrix`.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "EnginePair",
    "engine_matrix",
    "engine_pair",
    "register_engine_pair",
]


@dataclass(frozen=True)
class EnginePair:
    """One subsystem's scalar-spec / vectorized-engine pairing."""

    subsystem: str
    spec: str  # dotted name of the scalar specification
    engine: str  # dotted name of the vectorized engine
    gate: str | None  # the CI bench gating the pair, or None

    @property
    def spec_symbol(self) -> str:
        """Terminal symbol of the spec's dotted name ("" for a module)."""
        return _split_dotted(self.spec)[1]

    @property
    def engine_module(self) -> str:
        return _split_dotted(self.engine)[0]

    @property
    def engine_symbol(self) -> str:
        """Terminal symbol of the engine's dotted name ("" for a module)."""
        return _split_dotted(self.engine)[1]


@lru_cache(maxsize=None)
def _split_dotted(dotted: str) -> tuple[str, str]:
    """Split ``pkg.mod.Symbol.attr`` into (module, terminal symbol).

    The longest importable prefix is the module; the final remaining
    component is the symbol (``""`` when the dotted name is itself a
    module).  Used by reprolint's RL002/RL003 to anchor registrations to
    concrete classes/functions without importing the target modules.
    """
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        candidate = ".".join(parts[:end])
        try:
            spec = importlib.util.find_spec(candidate)
        except (ImportError, ValueError):
            continue
        if spec is not None:
            return candidate, parts[-1] if end < len(parts) else ""
    return "", parts[-1]


_REGISTRY: dict[str, EnginePair] = {}


def register_engine_pair(
    subsystem: str, *, spec: str, engine: str, gate: str | None = None
) -> EnginePair:
    """Declare a subsystem's spec/engine pair (idempotent per subsystem)."""
    pair = EnginePair(subsystem=subsystem, spec=spec, engine=engine, gate=gate)
    _REGISTRY[subsystem] = pair
    return pair


def engine_pair(subsystem: str) -> EnginePair:
    try:
        return _REGISTRY[subsystem]
    except KeyError:
        raise KeyError(
            f"no spec/engine pair registered for {subsystem!r} "
            f"(known: {sorted(_REGISTRY)})"
        ) from None


def engine_matrix() -> tuple[EnginePair, ...]:
    """Every registered pair, in subsystem order (the docs table)."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))
