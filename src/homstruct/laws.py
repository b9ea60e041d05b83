"""Every law as data: a row of signed contraction terms, and its evaluation.

Each law the kernel checks is a multilinear identity, a signed sum of
contractions of structure tensors that must vanish.  A ``Law`` states one:

    Law("ijk", "o",
        "+ alpha.ai mu.abo mu.jkb",     # mu(alpha(e_i), mu(e_j, e_k))
        "- alpha.bk mu.abo mu.ija")     # mu(mu(e_i, e_j), alpha(e_k))

The first string names the letters of the witness index, scanned in
lexicographic order; the second the letters of the residual vector at each
index, flattened lexicographically.  Each term is a sign and then operands
as ``name.letters``, with letters following the index conventions of
``exact.py``; a letter shared by operands and absent from the output is
summed over.  ``Law.check`` binds names to maps and tensors by keyword.

Evaluation is in ``int``: each operand enters as ``scaled``, its entries
times the lcm of their denominators, so a term's contraction carries the
product of its operands' scales.  The signed terms are brought to the lcm
of those products and summed, and only the reported witnesses are divided
back.

The last residual letter (``o`` above) is packed: the one operand of each
term that holds it enters ``exact.pack``-ed over that axis, B bits a slot,
so the first term contracts as ``ai,ab,jkb->ijk`` with ``mu.ab`` standing
for ``sum_o mu[a,b,o] << (o*B)``.  Every multiply-add in ``contract`` then
moves a whole residual vector inside CPython's bignum code, and a law over
n-dim tensors costs O(n^4) Python steps instead of O(n^5).  Hence a row
must hold that letter in exactly one operand of every term (``Law`` raises
``ValueError`` otherwise).  B is fixed before any multiply: the sum over
terms of the term's factor, times the product of its operands' largest
scaled entries, times the product of the sizes of its summed letters,
bounds every residual coefficient, and B is that bound's bit length plus
2.  A packed residual is then 0 exactly when every slot is, and slots are
decoded only for the reported witnesses.  Only one letter is packed:
packing more makes large ints of mostly empty slots when the structure is
sparse.

``exact.contract`` joins a term's operands pairwise in the order the term
lists them, so order them to keep the joins small: ``alpha.ai mu.abo
mu.jkb`` first sums ``a`` into an n^2 table of packed values in O(n^3)
steps and then joins ``mu.jkb`` in O(n^4), while ``alpha.ai mu.jkb mu.abo``
would start with an n^5 outer product.

Terms that are one contraction up to a permutation of the unpacked output
letters (``+ alpha.aj mu.abo mu.ikb`` is the first term above with ``i``
and ``j`` swapped) are contracted once, and each adds that result under
its own key order.  A term that moves the packed letter elsewhere is a
contraction of its own.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import product
from math import lcm
from operator import itemgetter

from .exact import Vector, contract, pack, unpack
from .report import WITNESS_CAP, AxiomReport, Witness


class Law:
    """One law: witness index letters, residual letters, signed terms.

    ``terms`` keeps the row as stated; its last residual letter is the one
    carried in packed slots.  ``groups`` lists the distinct contractions the
    terms compile to, each as ``(operands, contract spec, summed, uses)``:
    an operand is ``(name, axis)``, with the axis of the packed letter or
    None; ``summed`` holds one ``(name, axis)`` per summed letter, to size
    it; a use is the sign of one term and the key permutation (None: none)
    that takes the group's result to that term's output order.
    """

    def __init__(self, index: str, residual: str, *terms: str):
        if not residual or not terms:
            raise ValueError("a law needs a residual letter to pack and a term")
        self.index, self.residual, self.terms = index, residual, terms
        packed = residual[-1]
        out = index + residual[:-1]
        groups: dict[tuple, tuple] = {}
        for term in terms:
            sign, *operands = term.split()
            names = [op.split(".")[0] for op in operands]
            subscripts = [op.split(".")[1] for op in operands]
            if sign not in "+-":
                raise ValueError(f"term {term!r} needs a sign")
            if "".join(subscripts).count(packed) != 1:
                raise ValueError(f"term {term!r} must hold {packed!r} in exactly one operand")
            local = {}  # letter -> (name, axis) of an operand of this term that has it
            for name, sub in zip(names, subscripts):
                for axis, c in enumerate(sub):
                    local.setdefault(c, (name, axis))
            ids = tuple((name, sub.index(packed) if packed in sub else None)
                        for name, sub in zip(names, subscripts))
            subscripts = [sub.replace(packed, "") for sub in subscripts]
            # Letters renamed in order of first appearance: equal forms are
            # one contraction with the output letters permuted.
            rename = {c: i for i, c in enumerate(dict.fromkeys("".join(subscripts)))}
            form = (
                ids,
                tuple(tuple(rename[c] for c in sub) for sub in subscripts),
                frozenset(map(rename.get, out)),
            )
            if form not in groups:
                summed = tuple(local[c] for c in rename if c not in out)
                groups[form] = (ids, ",".join(subscripts) + "->" + out, summed, rename, [])
            first, uses = groups[form][3:]
            letter_of = {i: c for c, i in first.items()}
            positions = [out.index(letter_of[rename[c]]) for c in out]
            permute = None if positions == list(range(len(out))) else itemgetter(*positions)
            uses.append((sign == "+", permute))
        self.groups = [
            (ids, spec, summed, tuple(uses)) for ids, spec, summed, _, uses in groups.values()
        ]
        self._names = {name for ids, _, _, _ in self.groups for name, _ in ids}
        self._sizes = [local[c] for c in residual]  # every term holds every output letter

    def check(self, axiom: str, **operands) -> AxiomReport:
        """Evaluate the law on the bound maps and tensors and report it as ``axiom``."""
        scaled, shapes = {}, {}
        for name in self._names:
            scaled[name] = operands[name].scaled
            shapes[name] = operands[name].shape
        terms = []  # (scale, bound on one use's coefficients times its use count)
        for ids, _, summed, uses in self.groups:
            scale, bits = 1, 0
            for name, _ in ids:
                s, _, b = scaled[name]
                scale *= s
                bits += b
            count = len(uses)
            for name, axis in summed:
                count *= shapes[name][axis]
            terms.append((scale, count << bits))
        common = lcm(*(scale for scale, _ in terms))
        # Every residual coefficient is less than this in absolute value.
        bound = 0
        for scale, most in terms:
            bound += common // scale * most
        bits = bound.bit_length() + 2
        packs: dict[tuple[str, int], dict] = {}
        residual: dict = defaultdict(int)
        for (ids, spec, _, uses), (scale, _) in zip(self.groups, terms):
            tensors = []
            for op in ids:
                name, axis = op
                if axis is None:
                    tensors.append(scaled[name][1])
                    continue
                packed = packs.get(op)
                if packed is None:
                    packed = packs[op] = pack(scaled[name][1], axis, bits)
                tensors.append(packed)
            value = contract(spec, *tensors)
            factor = common // scale
            for positive, permute in uses:
                m = factor if positive else -factor
                if permute is None:
                    for key, v in value.items():
                        residual[key] += m * v
                else:
                    for key, v in value.items():
                        residual[permute(key)] += m * v
        shape = tuple(shapes[name][axis] for name, axis in self._sizes)
        return _report(axiom, residual, len(self.index), shape, common, bits)


def _report(
    axiom: str, residual: dict, width: int, shape: tuple[int, ...], scale: int, bits: int
) -> AxiomReport:
    """Report on a sparse packed residual ``{index + position: packed int}``.

    The first ``width`` entries of a key are the witness index, the rest a
    position over all but the last axis of a residual of the given
    ``shape``; the value holds that last axis, times ``scale``, in
    ``bits``-bit slots (``exact.pack``).  An index fails when any of its
    values is nonzero.  Slots are decoded, and divided by ``scale``, for
    the kept witnesses only.
    """
    failing = sorted({key[:width] for key, v in residual.items() if v})
    if not failing:
        return AxiomReport(axiom, True, (), 0)
    zero = Fraction(0)
    *outer, slots = shape
    positions = list(product(*map(range, outer)))
    kept = []
    for index in failing[:WITNESS_CAP]:
        entries = []
        for p in positions:
            packed = residual.get(index + p)
            if packed:
                digits = unpack(packed, slots, bits)
                entries.extend(Fraction(d, scale) if d else zero for d in digits)
            else:
                entries.extend([zero] * slots)
        kept.append(Witness(index, Vector(tuple(entries))))
    return AxiomReport(axiom, False, tuple(kept), len(failing))


COMMUTES = Law("i", "o", "+ f.oa x.ai", "- y.oa f.ai")
"""``f . x = y . f``, column by column: a morphism intertwines two twist maps."""
