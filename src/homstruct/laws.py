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
of those products and summed, and a reported witness keeps its residual as
integer digits over that lcm (``report.Witness``), reduced by their gcd.

The residual's last two letters, or its only one, are packed.  With one
letter (``o`` above) the one operand of each term that holds it enters
``exact.pack``-ed over that axis, B bits a slot, so the first term
contracts as ``ai,ab,jkb->ijk`` with ``mu.ab`` standing for ``sum_o
mu[a,b,o] << (o*B)``.  With two letters ``(x, y)`` of sizes ``(n_x, n_y)``
(``j`` and ``l`` of a coalgebra row's ``ijl``) residual coefficient ``(x,
y)`` sits in slot ``x*n_y + y``: an operand that holds ``x`` is packed at
stride ``n_y*B``, one that holds ``y`` at stride ``B``, one that holds both
at ``x*n_y*B + y*B``.  A packed residual value is then the one-letter
layout over one fused letter of ``n_x*n_y`` slots.  Every multiply-add in
``contract`` moves a whole residual vector inside CPython's bignum code, so
a law with one packed letter costs O(n^4) Python steps over n-dim tensors
instead of O(n^5), and the coalgebra and comodule laws O(n^3).  Hence a row
must hold each packed letter in exactly one operand of every term (``Law``
raises ``ValueError`` otherwise).  B is fixed before any multiply: the sum
over terms of the term's factor, times the product of its operands' largest
scaled entries, times the product of the sizes of its summed letters,
bounds every residual coefficient, and B is that bound's bit length plus
2.  A packed residual is then 0 exactly when every slot is, and slots are
decoded (``exact.unpack``) only for the reported witnesses; no
``Fraction`` is built for them.  No index letter is packed:
on sparse structures that makes large ints of mostly empty slots.

``exact.contract`` joins a term's operands pairwise in the order the term
lists them, so order them to keep the joins small: ``alpha.ai mu.abo
mu.jkb`` first sums ``a`` into an n^2 table of packed values in O(n^3)
steps and then joins ``mu.jkb`` in O(n^4), while ``alpha.ai mu.jkb mu.abo``
would start with an n^5 outer product.  Likewise ``t.kab t.bjl alpha.ia``
joins the operand holding both packed letters second, in O(n^3).

Terms that are one contraction up to a permutation of the unpacked output
letters (``+ alpha.aj mu.abo mu.ikb`` is the first term above with ``i``
and ``j`` swapped) are contracted once.  A term that moves either packed
letter to another operand or axis is a contraction of its own.

The residual is one list of packed ints, preallocated per check: place
``r`` is the mixed-radix position, in lexicographic order, of the index
letters followed by the unpacked residual letters.  Each contraction's last
join adds straight into a list (``exact.contract``'s ``into``): no key tuple
is built and no dict is walked again.  Which list, with which strides and
which factor, follows from the key permutations the terms add under.  For
each such permutation the signed count of its uses of each contraction is
its coefficient row, and permutations whose rows agree up to sign form one
class.  A class of one permutation (most rows are one identity class) adds
its contractions into the residual, the permutation folded into the
strides and ``sign * c * (common // scale)`` into the factor.  A class of
several sums its contractions once into a list ``W`` and adds ``W`` to the
residual under each permutation through a gather list: ``LEFT_HOM_ALT``
(``as(x,y,z) + as(y,x,z)``) is ``W = A - B`` and then ``W + swap(W)``.
When such a class comes first and its first permutation is the identity
with sign +, ``W`` is the residual list itself, so ``W + swap(W)`` is one
pass over it.  A
contraction that two classes use is contracted once for each; no stated row
has one.  Strides and gathers are worked out once per row and shape, and
zero coefficients (a term cancelled by its negation) are dropped.  A
contraction never writes to its operands, which may be the bound tensors
themselves (``t.kij`` alone is the packed ``t``).
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, repeat
from math import lcm, prod
from operator import add, floordiv, sub

from .exact import contract, pack, packing, unpack
from .report import WITNESS_CAP, AxiomReport, Witness


class Law:
    """One law: witness index letters, residual letters, signed terms.

    ``terms`` keeps the row as stated; its last two residual letters (or its
    only one) are carried in packed slots.  ``groups`` lists the distinct
    contractions the terms compile to, each as ``(operands, contract spec,
    summed, uses)``: an operand is ``(name, packed)``, ``packed`` holding an
    ``(axis, p)`` pair for each packed letter it has, ``p`` that letter's
    place among the packed ones (empty: unpacked); the spec's output is the
    unpacked output letters in order; ``summed`` holds one ``(name, axis)``
    per summed letter, to size it; a use is one term's sign (True: +).
    ``classes`` lists the assembly: ``(row, permutations)`` with ``row`` the
    ``(group, coefficient)`` pairs summed into ``W`` and each permutation a
    ``(sign, positions)`` pair, residual letter ``i`` being output letter
    ``positions[i]`` of ``W``.  Both are compiled on first use; stating a
    row only checks each term's sign and packed letters.
    """

    def __init__(self, index: str, residual: str, *terms: str):
        if not residual or not terms:
            raise ValueError("a law needs a residual letter to pack and a term")
        for term in terms:
            sign, *operands = term.split()
            letters = "".join(op.split(".")[1] for op in operands)
            if sign not in "+-":
                raise ValueError(f"term {term!r} needs a sign")
            for packed in residual[-2:]:
                if letters.count(packed) != 1:
                    raise ValueError(f"term {term!r} must hold {packed!r} in exactly one operand")
        self.index, self.residual, self.terms = index, residual, terms
        self._layouts: dict[tuple, list] = {}

    @property
    def groups(self) -> list[tuple]:
        return self._compiled[0]

    @property
    def classes(self) -> tuple[tuple, ...]:
        return self._compiled[1]

    @cached_property
    def _compiled(self) -> tuple:
        """``(groups, classes, plan, operand names, residual axis sizes, loads)``.

        ``loads`` holds, per group, an ``(operand, packing or None)`` pair
        for each of its operands.
        """
        index, residual = self.index, self.residual
        packed = residual[-2:]
        out = index + residual[: -len(packed)]
        groups: dict[tuple, tuple] = {}
        rows: dict[tuple, dict] = {}  # key permutation -> {group: signed use count}
        arity: dict[str, int] = {}
        for term in self.terms:
            sign, *operands = term.split()
            names = [op.split(".")[0] for op in operands]
            subscripts = [op.split(".")[1] for op in operands]
            local = {}  # letter -> (name, axis) of an operand of this term that has it
            for name, sub in zip(names, subscripts):
                arity[name] = len(sub)
                for axis, c in enumerate(sub):
                    local.setdefault(c, (name, axis))
            ids = tuple(
                (name, tuple((sub.index(c), p) for p, c in enumerate(packed) if c in sub))
                for name, sub in zip(names, subscripts)
            )
            subscripts = ["".join(c for c in sub if c not in packed) for sub in subscripts]
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
                spec = ",".join(subscripts) + "->" + out
                groups[form] = (len(groups), ids, spec, summed, rename, [])
            g, _, _, _, first, uses = groups[form]
            letter_of = {i: c for c, i in first.items()}
            permutation = tuple(out.index(letter_of[rename[c]]) for c in out)
            uses.append(sign == "+")
            row = rows.setdefault(permutation, {})
            row[g] = row.get(g, 0) + (1 if sign == "+" else -1)
        compiled = [
            (ids, spec, summed, tuple(uses)) for _, ids, spec, summed, _, uses in groups.values()
        ]
        by_row: dict[tuple, list] = {}
        for permutation, row in rows.items():
            row = sorted((g, c) for g, c in row.items() if c)
            if row:
                s = 1 if row[0][1] > 0 else -1
                by_row.setdefault(tuple((g, s * c) for g, c in row), []).append((s, permutation))
        classes = tuple((row, tuple(perms)) for row, perms in by_row.items())
        names = {name for ids, _, _, _ in compiled for name, _ in ids}
        sizes = [local[c] for c in out + packed]  # every term holds every output letter
        loads = [
            [(op, packing(arity[op[0]], op[1]) if op[1] else None) for op in ids]
            for ids, _, _, _ in compiled
        ]
        return compiled, classes, names, sizes, loads

    def _layout(self, shape: tuple[int, ...]) -> list[tuple]:
        """Per class, for an unpacked output of ``shape``: ``(adds, own, spreads)``.

        An add is ``(group, coefficient, strides)``, the strides taking the
        group's output key to its place in the class's list ``W``.  ``W`` is
        a list of its own when ``own`` is true and the residual otherwise:
        for a class of one permutation, whose adds go straight into the
        residual, and for a first class whose first permutation is the
        identity with sign +, which then needs no pass of its own.
        ``spreads`` holds one ``(sign, gather)`` per further permutation,
        the residual at place ``r`` taking ``W[gather[r]]`` (None:
        ``W[r]``).  Worked out once per row and shape.
        """
        layout = self._layouts.get(shape)
        if layout is None:
            strides = [prod(shape[i + 1 :]) for i in range(len(shape))]
            layout = []
            for row, perms in self.classes:
                if len(perms) == 1:
                    ((s, permutation),) = perms
                    # Residual letter i is output letter permutation[i].
                    moved = tuple(strides[permutation.index(p)] for p in range(len(shape)))
                    layout.append(([(g, s * c, moved) for g, c in row], False, ()))
                    continue
                spreads = []
                for s, permutation in perms:
                    moved = [strides[p] for p in permutation]
                    gather = None if moved == strides else [0]  # built axis by axis
                    for n, m in zip(shape, moved) if gather else ():
                        gather = [r + d * m for r in gather for d in range(n)]
                    spreads.append((s, gather))
                own = bool(layout) or spreads[0] != (1, None)
                adds = [(g, c, tuple(strides)) for g, c in row]
                layout.append((adds, own, spreads if own else spreads[1:]))
            self._layouts[shape] = layout
        return layout

    def check(self, axiom: str, **operands) -> AxiomReport:
        """Evaluate the law on the bound maps and tensors and report it as ``axiom``."""
        groups, _, names, sizes, loads = self._compiled
        scaled, shapes = {}, {}
        for name in names:
            scaled[name] = operands[name].scaled
            shapes[name] = operands[name].shape
        terms = []  # (scale, bound on one use's coefficients times its use count)
        for ids, _, summed, uses in groups:
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
        # Packed letter x (of two) steps over the n_y slots of y; the residual
        # is reported over one fused packed axis of n_x * n_y slots.
        shape = tuple(shapes[name][axis] for name, axis in sizes)
        k = len(self.residual[-2:])
        steps, slots, shape = (shape[-1] * bits, bits)[-k:], prod(shape[-k:]), shape[:-k]
        packs: dict[tuple, dict] = {}
        size = prod(shape)
        residual = [0] * size
        for adds, own, spreads in self._layout(shape):
            w = [0] * size if own else residual
            for g, c, strides in adds:
                tensors = []
                for op, layout in loads[g]:
                    if layout is None:
                        tensors.append(scaled[op[0]][1])
                        continue
                    packed = packs.get(op)
                    if packed is None:
                        packed = packs[op] = pack(scaled[op[0]][1], layout, steps)
                    tensors.append(packed)
                contract(groups[g][1], *tensors, into=(w, strides, c * (common // terms[g][0])))
            # A spread builds a new residual list, so W may be the old one.
            for s, gather in spreads:
                part = w if gather is None else map(w.__getitem__, gather)
                residual = list(map(add if s > 0 else sub, residual, part))
        width = len(self.index)
        return _report(axiom, residual, shape[:width], prod(shape[width:]), slots, common, bits)


def _report(axiom: str, residual: list, index: tuple[int, ...], outer: int, slots: int,
            scale: int, bits: int) -> AxiomReport:
    """Report on a packed residual list over index letters of sizes ``index``.

    Place ``r`` holds the residual at witness index ``r // outer`` (in
    lexicographic order) and unpacked residual position ``r % outer``: its
    ``slots`` packed coefficients, times ``scale``, in ``bits``-bit slots
    (``exact.pack``).  An index fails when any of its places is nonzero.
    Slots are decoded for the kept witnesses only, and a witness keeps them
    as integer digits over ``scale``.
    """
    if not any(residual):
        return AxiomReport(axiom, True, (), 0)
    places = compress(range(len(residual)), residual)
    failing = list(dict.fromkeys(map(floordiv, places, repeat(outer))))
    zeros = (0,) * slots
    radix = [(prod(index[i + 1 :]), n) for i, n in enumerate(index)]
    kept = []
    for flat in failing[:WITNESS_CAP]:
        digits = []
        for packed in residual[flat * outer : (flat + 1) * outer]:
            digits += unpack(packed, slots, bits) if packed else zeros
        key = tuple([flat // stride % n for stride, n in radix])
        kept.append(Witness(key, tuple(digits), scale))
    return AxiomReport(axiom, False, tuple(kept), len(failing))


COMMUTES = Law("i", "o", "+ f.oa x.ai", "- y.oa f.ai")
"""``f . x = y . f``, column by column: a morphism intertwines two twist maps."""
