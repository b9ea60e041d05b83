"""Exact structure-constant kernel for Hom-alternative algebras, Hom-Poisson
coalgebras, and their modules and comodules.

Every axiom is a multilinear identity in the structure constants, stated
once as a row of signed contraction terms (``laws.Law``) and decided exactly
over the rationals; each construction (twists, opposites, negations) is a
row of one such term, stated once or derived from the row it is the dual or
mirror of, evaluated exactly by ``laws.construct`` and put into a copy of its
structure by ``laws.rebuild``.  The package evaluates no map at a point.
"""

from .algebras import (
    HomAlgebra,
    check_endomorphism,
    check_hom_associative,
    check_left_hom_alternative,
    check_morphism,
    check_right_hom_alternative,
    negate,
    opposite,
    yau_twist,
)
from .coalgebras import (
    HomPoissonCoalgebra,
    check_coalgebra_morphism,
    check_cocommutativity,
    check_coendomorphism,
    check_hom_coassociative,
    check_hom_coleibniz,
    check_hom_lie_coalgebra,
    check_hom_poisson_coalgebra,
    negate_coalgebra,
    opposite_coalgebra,
    yau_twist_coalgebra,
)
from .comodules import (
    HomComodule,
    check_coassoc_comodule,
    check_comodule_morphism,
    check_lie_comodule,
    check_poisson_comodule,
    negate_poisson_comodule,
    regular_comodule,
    twist_coassoc_comodule,
    twist_lie_comodule,
    twist_poisson_comodule,
)
from .errors import (
    AlgebraMismatch,
    AlreadyTwisted,
    CoalgebraMismatch,
    DimensionMismatch,
    FormatError,
    KernelError,
    KindMismatch,
    NotCoendomorphism,
    NotEndomorphism,
    WrongSide,
)
from .exact import (
    ActionTensor,
    CoactionTensor,
    ComulTensor,
    LinearMap,
    MulTensor,
    Vector,
    format_rational,
    parse_rational,
    rat,
)
from .laws import compose
from .modules import (
    HomModule,
    check_left_module,
    check_module_morphism,
    check_right_module,
    negate_module,
    opposite_module,
    regular_module,
    twist_module,
)
from .report import AxiomReport, Witness

__version__ = "0.1.0"
