"""Every law as data: a row of signed contraction terms, and its evaluation.

Each law the kernel checks is a multilinear identity, a signed sum of
contractions of structure tensors that must vanish.  A ``Law`` states one:

    Law("ijk", "o",
        "+ mu.jkb mu.abo alpha.ai",     # mu(alpha(e_i), mu(e_j, e_k))
        "- mu.ija mu.abo alpha.bk")     # mu(mu(e_i, e_j), alpha(e_k))

The first string names the letters of the witness index, scanned in
lexicographic order; the second the letters of the residual vector at each
index, flattened lexicographically.  Each term is a sign and then operands
as ``name.letters``, with letters following the index conventions of
``exact.py``; a letter shared by operands and absent from the output is
summed over.  ``Law.check`` binds names to maps and tensors by keyword.

``exact.contract`` joins a term's operands pairwise in the order the term
lists them, so order them to keep every join within O(n^5): ``mu.jkb mu.abo
alpha.ai`` joins two n^3 tensors on one letter first, while ``alpha.ai
mu.jkb mu.abo`` would start with an n^5 outer product.
"""

from __future__ import annotations

from collections import defaultdict

from .exact import contract
from .report import AxiomReport


class Law:
    """One law: witness index letters, residual letters, signed terms."""

    def __init__(self, index: str, residual: str, *terms: str):
        self.index, self.residual = index, residual
        self.terms = []
        sizes: dict[str, tuple[str, int]] = {}
        for term in terms:
            sign, *operands = term.split()
            names = tuple(op.split(".")[0] for op in operands)
            subscripts = [op.split(".")[1] for op in operands]
            if sign not in "+-":
                raise ValueError(f"term {term!r} needs a sign")
            self.terms.append((sign == "+", names, ",".join(subscripts) + "->" + index + residual))
            for name, sub in zip(names, subscripts):
                for axis, c in enumerate(sub):
                    sizes.setdefault(c, (name, axis))
        self._sizes = [sizes[c] for c in residual]

    def check(self, axiom: str, **operands) -> AxiomReport:
        """Evaluate the law on the bound maps and tensors and report it as ``axiom``."""
        residual: dict = defaultdict(int)
        for positive, names, spec in self.terms:
            term = contract(spec, *(operands[name].nonzeros for name in names))
            if positive:
                for key, v in term.items():
                    residual[key] += v
            else:
                for key, v in term.items():
                    residual[key] -= v
        shape = tuple(operands[name].shape[axis] for name, axis in self._sizes)
        return AxiomReport.from_residual(axiom, residual, len(self.index), shape)


COMMUTES = Law("i", "o", "+ f.oa x.ai", "- y.oa f.ai")
"""``f . x = y . f``, column by column: a morphism intertwines two twist maps."""
