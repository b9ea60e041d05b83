"""The axiom registry: every id ``verify --suite`` accepts, by structure type.

Keys are ``(structure type, axiom id)`` so that a structure finds its own
checkers directly; an id registered for another type is unknown to it.
Each type's noun and ``--suite all`` ids are in its ``fileformat.TYPES``
entry.  The CLI and the catalogue both check through ``verify``.
"""

from __future__ import annotations

from functools import partial

from . import laws
from .algebras import (
    HOM_ASSOC,
    LEFT_HOM_ALT,
    RIGHT_HOM_ALT,
    HomAlgebra,
    check_hom_associative,
    check_left_hom_alternative,
    check_right_hom_alternative,
)
from .coalgebras import (
    COCOMMUTATIVITY,
    DELTA_MULTIPLICATIVITY,
    GAMMA_MULTIPLICATIVITY,
    HOM_COASSOC_COALGEBRA,
    HOM_COASSOCIATIVITY,
    HOM_COJACOBI,
    HOM_COLEIBNIZ,
    HOM_LIE_COALGEBRA,
    HOM_POISSON_COALGEBRA,
    SKEW_COSYMMETRY,
    HomPoissonCoalgebra,
    check_cocommutativity,
    check_hom_coassociative,
    check_hom_coleibniz,
    check_hom_lie_coalgebra,
    check_hom_poisson_coalgebra,
)
from .comodules import (
    COASSOC_COMODULE,
    LIE_COMODULE,
    POISSON_COMODULE,
    HomComodule,
    check_coassoc_comodule,
    check_lie_comodule,
    check_poisson_comodule,
)
from .errors import FormatError
from .fileformat import TYPES
from .modules import LEFT_MODULE, RIGHT_MODULE, HomModule, check_left_module, check_right_module
from .report import AxiomReport


def _law(axiom: str):
    return partial(laws.check, axiom=axiom)


AXIOMS = {
    (HomAlgebra, LEFT_HOM_ALT): check_left_hom_alternative,
    (HomAlgebra, RIGHT_HOM_ALT): check_right_hom_alternative,
    (HomAlgebra, HOM_ASSOC): check_hom_associative,
    (HomModule, LEFT_MODULE): check_left_module,
    (HomModule, RIGHT_MODULE): check_right_module,
    (HomPoissonCoalgebra, COCOMMUTATIVITY): check_cocommutativity,
    (HomPoissonCoalgebra, HOM_COASSOC_COALGEBRA): check_hom_coassociative,
    (HomPoissonCoalgebra, DELTA_MULTIPLICATIVITY): _law(DELTA_MULTIPLICATIVITY),
    (HomPoissonCoalgebra, HOM_COASSOCIATIVITY): _law(HOM_COASSOCIATIVITY),
    (HomPoissonCoalgebra, HOM_LIE_COALGEBRA): check_hom_lie_coalgebra,
    (HomPoissonCoalgebra, SKEW_COSYMMETRY): _law(SKEW_COSYMMETRY),
    (HomPoissonCoalgebra, GAMMA_MULTIPLICATIVITY): _law(GAMMA_MULTIPLICATIVITY),
    (HomPoissonCoalgebra, HOM_COJACOBI): _law(HOM_COJACOBI),
    (HomPoissonCoalgebra, HOM_COLEIBNIZ): check_hom_coleibniz,
    (HomPoissonCoalgebra, HOM_POISSON_COALGEBRA): check_hom_poisson_coalgebra,
    (HomComodule, COASSOC_COMODULE): check_coassoc_comodule,
    (HomComodule, LIE_COMODULE): check_lie_comodule,
    (HomComodule, POISSON_COMODULE): check_poisson_comodule,
}
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
