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
decoded, in one pass per value (``exact.unpack``), only for the reported
witnesses; no ``Fraction`` is built for them.  No index letter is packed:
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

The residual is assembled by key permutation, not term by term.  For each
permutation of the output keys that some term adds under, the signed count
of its uses of each contraction is that permutation's coefficient row.
Permutations whose rows agree up to sign form one class, which sums its
contractions once, ``W = sum_g c_g * (common // scale_g) * value_g``, and
adds ``W`` under each of its permutations with that permutation's sign.  So
``LEFT_HOM_ALT`` (``as(x,y,z) + as(y,x,z)``) is ``W = A - B`` and then
``W + swap(W)``, two passes over the keys.  A class of one permutation adds
its contractions straight into the residual, and most rows are one identity
class.  Zero coefficients (a term cancelled by its negation) are dropped.

Each contraction is computed with its output letters in the order
``contract``'s joins leave them (``exact.join_order``), so ``contract``
makes no reorder pass; the map from that order to the output order is
folded into the add.  A contraction can be an operand itself (``t.kij``
alone is the packed ``t``), so assembly copies it into a dict of its own
and never changes a contraction in place.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import lcm
from operator import itemgetter

from .exact import contract, join_order, pack, packing, unpack
from .report import WITNESS_CAP, AxiomReport, Witness


class Law:
    """One law: witness index letters, residual letters, signed terms.

    ``terms`` keeps the row as stated; its last two residual letters (or its
    only one) are carried in packed slots.  ``groups`` lists the distinct
    contractions the terms compile to, each as ``(operands, contract spec,
    summed, uses)``: an operand is ``(name, packed)``, ``packed`` holding an
    ``(axis, p)`` pair for each packed letter it has, ``p`` that letter's
    place among the packed ones (empty: unpacked); the spec's output is in
    join order; ``summed`` holds one ``(name, axis)`` per summed letter, to
    size it; a use is one term's sign (True: +).
    ``classes`` lists the assembly: ``(row, permutations)`` with ``row`` the
    ``(group, coefficient)`` pairs summed into ``W`` and each permutation a
    ``(sign, positions)`` pair, ``positions`` taking an output-order key of
    ``W`` to the residual key (``key[p] for p in positions``).  Both are
    compiled on first use; stating a row only checks each term's sign and
    packed letters.
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
                inputs = ",".join(subscripts)
                spec = inputs + "->" + join_order(inputs + "->" + out)
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
        # The same, as key functions: a contraction's join-order key goes to
        # output order (and on through the permutation of a one-permutation
        # class, which adds straight into the residual).
        to_out = [[spec.split("->")[1].index(c) for c in out] for _, spec, _, _ in compiled]
        plan = []
        for row, perms in classes:
            if len(perms) == 1:
                (s, permutation), = perms
                adds = [(g, s * c, _getter([to_out[g][p] for p in permutation])) for g, c in row]
                plan.append((adds, None))
            else:
                adds = [(g, c, _getter(to_out[g])) for g, c in row]
                plan.append((adds, [(s, _getter(p)) for s, p in perms]))
        names = {name for ids, _, _, _ in compiled for name, _ in ids}
        sizes = [local[c] for c in residual]  # every term holds every output letter
        loads = [
            [(op, packing(arity[op[0]], op[1]) if op[1] else None) for op in ids]
            for ids, _, _, _ in compiled
        ]
        return compiled, classes, plan, names, sizes, loads

    def check(self, axiom: str, **operands) -> AxiomReport:
        """Evaluate the law on the bound maps and tensors and report it as ``axiom``."""
        groups, _, plan, names, sizes, loads = self._compiled
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
        if len(self.residual) > 1:
            *outer, n_x, n_y = shape
            steps, fused = (n_y * bits, bits), (*outer, n_x * n_y)
        else:
            steps, fused = (bits,), shape
        packs: dict[tuple, dict] = {}
        values = []  # (contraction in join order, common // its scale) per group
        for (_, spec, _, _), load, (scale, _) in zip(groups, loads, terms):
            tensors = []
            for op, layout in load:
                if layout is None:
                    tensors.append(scaled[op[0]][1])
                    continue
                packed = packs.get(op)
                if packed is None:
                    packed = packs[op] = pack(scaled[op[0]][1], layout, steps)
                tensors.append(packed)
            values.append((contract(spec, *tensors), common // scale))
        residual = None
        for adds, spreads in plan:
            w = residual if spreads is None else None
            for g, c, key in adds:
                value, factor = values[g]
                w = _add(w, value, key, c * factor)
            if spreads is None:
                residual = w
            else:
                for s, key in spreads:
                    residual = _add(residual, w, key, s)
        return _report(axiom, residual or {}, len(self.index), fused, common, bits)


def _getter(positions):
    """The key function ``key -> tuple(key[p] for p in positions)``; None for the identity."""
    if list(positions) == list(range(len(positions))):
        return None
    return itemgetter(*positions)


def _add(into: dict | None, value: dict, key, m: int) -> dict:
    """``into`` plus ``m`` times ``value``, its keys taken through ``key`` (None: as they are).

    Adds in place and returns ``into``; a new dict when ``into`` is None.
    ``value`` is read only (it may be an operand) and is never ``into``.
    A first add with ``m == 1`` copies in C; later adds skip the multiply
    when ``m`` is 1 or -1.
    """
    pairs = zip(value if key is None else map(key, value), value.values())
    if into is None:
        if m == 1:
            return dict(value) if key is None else dict(pairs)
        return {k: m * v for k, v in pairs}
    get = into.get
    if m == 1:
        for k, v in pairs:
            into[k] = get(k, 0) + v
    elif m == -1:
        for k, v in pairs:
            into[k] = get(k, 0) - v
    else:
        for k, v in pairs:
            into[k] = get(k, 0) + m * v
    return into


def _report(
    axiom: str, residual: dict, width: int, shape: tuple[int, ...], scale: int, bits: int
) -> AxiomReport:
    """Report on a sparse packed residual ``{index + position: packed int}``.

    The first ``width`` entries of a key are the witness index, the rest a
    position over all but the last axis of a residual of the given
    ``shape``, whose last axis is the packed letters fused into one; the
    value holds that axis, times ``scale``, in ``bits``-bit slots
    (``exact.pack``).  An index fails when any of its
    values is nonzero.  Slots are decoded for the kept witnesses only, and
    a witness keeps them as integer digits over ``scale``.
    """
    failing = sorted({key[:width] for key, v in residual.items() if v})
    if not failing:
        return AxiomReport(axiom, True, (), 0)
    *outer, slots = shape
    positions = list(product(*map(range, outer)))
    zeros = (0,) * slots
    kept = []
    for index in failing[:WITNESS_CAP]:
        digits = []
        for p in positions:
            packed = residual.get(index + p)
            digits += unpack(packed, slots, bits) if packed else zeros
        kept.append(Witness(index, tuple(digits), scale))
    return AxiomReport(axiom, False, tuple(kept), len(failing))


COMMUTES = Law("i", "o", "+ f.oa x.ai", "- y.oa f.ai")
"""``f . x = y . f``, column by column: a morphism intertwines two twist maps."""
