"""The axiom registry: every id ``verify --suite`` accepts, by structure type.

Keys are ``(structure type, axiom id)`` so that a structure finds its own
checkers directly; an id registered for another type is unknown to it.
Each type states its ids, its checkers and its ``--suite all`` ids once, in
its structure module's ``VERBS``, which its ``fileformat.TYPES`` entry holds.
The CLI and the catalogue both check through ``verify``.
"""

from __future__ import annotations

from . import laws
from .errors import FormatError
from .fileformat import TYPES
from .report import AxiomReport

# Flat, so that perfbench's tracer, which swaps its wrappers into module-level dicts of
# functions, sees every checker.
AXIOMS = {(cls, axiom): checker for cls, kind in TYPES.items() if kind.verbs
          for axiom, checker in kind.verbs["checks"].items()}
"""(structure type, axiom id) -> checker taking the structure."""


def _kind(structure):
    kind = TYPES.get(type(structure))
    if kind is None or kind.suites is None:
        raise FormatError("structure kind cannot be verified")
    return kind


def native_suite(structure) -> list[str]:
    """The ids ``--suite all`` runs on ``structure``, by its side or comodule kind."""
    kind = _kind(structure)
    return list(kind.suites[kind.variant and getattr(structure, kind.variant)])


def verify(structure, suite: list[str]) -> list[AxiomReport]:
    """One report per id of ``suite``, all from one ``laws.Plan``.  Every id
    is resolved first, so an unknown one computes nothing; a repeated id, or
    a part named beside its aggregate, is computed once."""
    noun, checkers = _kind(structure).noun, {}
    for axiom in suite:
        checkers[axiom] = AXIOMS.get((type(structure), axiom))
        if checkers[axiom] is None:
            raise FormatError(f"unknown {noun} axiom {axiom!r}")
    plan = laws.Plan({axiom: structure.laws(axiom) for axiom in checkers})
    reports = {axiom: checker(structure, plan=plan) for axiom, checker in checkers.items()}
    return [reports[axiom] for axiom in suite]
