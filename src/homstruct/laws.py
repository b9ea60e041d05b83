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

Evaluation is in ``int``: each operand enters as ``scaled``, its entries
times the lcm of their denominators, so a term's contraction carries the
product of its operands' scales.  The signed terms are brought to the lcm
of those products and summed, and only the reported witnesses are divided
back.  Terms that are one contraction up to a permutation of the output
letters (the third term above is the first with ``i`` and ``j`` swapped)
are contracted once, and each adds that result under its own key order.
"""

from __future__ import annotations

from collections import defaultdict
from math import lcm, prod
from operator import itemgetter

from .exact import contract
from .report import AxiomReport


class Law:
    """One law: witness index letters, residual letters, signed terms.

    ``groups`` lists the distinct contractions the terms compile to, each as
    ``(operand names, contract spec, uses)``; a use is the sign of one term
    and the key permutation (None: none) that takes the group's result to
    that term's output order.
    """

    def __init__(self, index: str, residual: str, *terms: str):
        self.index, self.residual = index, residual
        out = index + residual
        groups: dict[tuple, tuple] = {}
        sizes: dict[str, tuple[str, int]] = {}
        for term in terms:
            sign, *operands = term.split()
            names = tuple(op.split(".")[0] for op in operands)
            subscripts = [op.split(".")[1] for op in operands]
            if sign not in "+-":
                raise ValueError(f"term {term!r} needs a sign")
            for name, sub in zip(names, subscripts):
                for axis, c in enumerate(sub):
                    sizes.setdefault(c, (name, axis))
            # Letters renamed in order of first appearance: equal forms are
            # one contraction with the output letters permuted.
            rename = {c: i for i, c in enumerate(dict.fromkeys("".join(subscripts)))}
            form = (
                names,
                tuple(tuple(rename[c] for c in sub) for sub in subscripts),
                frozenset(map(rename.get, out)),
            )
            if form not in groups:
                groups[form] = (names, ",".join(subscripts) + "->" + out, rename, [])
            _, _, first, uses = groups[form]
            letter_of = {i: c for c, i in first.items()}
            positions = [out.index(letter_of[rename[c]]) for c in out]
            permute = None if positions == list(range(len(out))) else itemgetter(*positions)
            uses.append((sign == "+", permute))
        self.groups = [(names, spec, tuple(uses)) for names, spec, _, uses in groups.values()]
        self._names = {name for names, _, _ in self.groups for name in names}
        self._sizes = [sizes[c] for c in residual]

    def check(self, axiom: str, **operands) -> AxiomReport:
        """Evaluate the law on the bound maps and tensors and report it as ``axiom``."""
        scaled = {name: operands[name].scaled for name in self._names}
        terms = []
        for names, spec, uses in self.groups:
            scale = prod(scaled[name][0] for name in names)
            terms.append((scale, contract(spec, *(scaled[name][1] for name in names)), uses))
        common = lcm(*(scale for scale, _, _ in terms))
        residual: dict = defaultdict(int)
        for scale, value, uses in terms:
            factor = common // scale
            for positive, permute in uses:
                m = factor if positive else -factor
                if permute is None:
                    for key, v in value.items():
                        residual[key] += m * v
                else:
                    for key, v in value.items():
                        residual[permute(key)] += m * v
        shape = tuple(operands[name].shape[axis] for name, axis in self._sizes)
        return AxiomReport.from_residual(axiom, residual, len(self.index), shape, common)


COMMUTES = Law("i", "o", "+ f.oa x.ai", "- y.oa f.ai")
"""``f . x = y . f``, column by column: a morphism intertwines two twist maps."""
