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
summed over.  A ``Plan`` evaluates the rows of one check on one structure
together, names bound to maps and tensors; ``Law.check`` is a plan of one.
A construction is one term in the same grammar, over the letters of the
tensor it builds, which ``exact.construct`` evaluates: ``("ijo", "+ t.ijq
phi.oq")`` is the Yau twist's ``phi . mu``, the tensor rebuilt being ``t``
(``exact.rebuild``).  Each structure module states its constructions so,
beside its laws.

Evaluation is in ``int``: each operand enters as ``scaled``, its entries
times the lcm of their denominators, the terms are brought to the lcm over
the plan of their operands' scale products, and a witness keeps integer
digits over that lcm.  The residual's last two letters, or its only one,
ride in slots of B bits (``exact.pack``), so each multiply-add in
``contract`` moves a whole residual vector inside CPython's bignum code:
O(n^4) Python steps for an algebra row over n-dim tensors, O(n^3) for a
coalgebra row.  Hence a row holds each packed letter in exactly one operand
of every term (``Law`` raises ``ValueError`` otherwise).  The sum over terms
of the term's factor, times the product of its operands' largest scaled
entries and of the sizes of its summed letters, bounds every residual
coefficient of a row; B is the largest row's bound's bit length plus 2, so
a residual is 0 exactly when every slot is, and slots are decoded
(``exact.unpack``) only for reported witnesses.  ``contract`` joins a
term's operands in the order listed, so order them to keep joins small:
``alpha.ai mu.abo mu.jkb`` sums ``a`` in O(n^3) and joins ``mu.jkb`` in
O(n^4), where ``alpha.ai mu.jkb mu.abo`` starts with an n^5 product.

Terms that are one contraction up to a permutation of the unpacked output
letters (``+ alpha.aj mu.abo mu.ikb`` is the first term above with ``i``
and ``j`` swapped) are contracted once; a term that moves a packed letter
is a contraction of its own.  A row's residual is one list of packed ints
in the lexicographic order of its unpacked letters.  For each key
permutation the terms add under, the signed count of its uses of each
contraction is its coefficient row; permutations whose rows agree up to
sign form one class.  Each class sums its contractions once into a list
``W`` of its own, a contraction's last join adding straight into it
(``exact.contract``'s ``into``), and adds ``W`` under each permutation
through a gather list: ``LEFT_HOM_ALT`` is ``W = A - B`` and then ``W +
swap(W)``.  When a row's first add is the identity with sign +, ``W``
itself is the residual; every later add builds a new list, so no list is
written after its sum.  In a plan, an operand is known by its entry tuple
and shape, which fix its ``scaled``, so a regular module's ``act`` is its
algebra's ``mu``.  A scaled or packed operand, a class sum ``W`` and a
contraction mean the same ints in every row, so each is built once: a class
that two rows hold is summed once and spread by each, and a contraction
that two distinct classes hold is contracted to its output dict and added
into each.  ``LEFT_HOM_ALT``, ``RIGHT_HOM_ALT`` and ``HOM_ASSOC`` spread
one ``W = A - B``: two contractions for the three.  Zero coefficients are
dropped, and a contraction never writes to its operands (``t.kij`` alone
is the packed ``t``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, repeat
from math import lcm, prod
from operator import add, floordiv, sub

from .exact import _parse, contract, lazy, pack, packing, unpack
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
    row only parses each term and checks its packed letters.
    """

    def __init__(self, index: str, residual: str, *terms: str):
        if not residual or not terms:
            raise ValueError("a law needs a residual letter to pack and a term")
        self._parsed = list(map(_parse, terms))
        for term, (_, operands) in zip(terms, self._parsed):
            letters = "".join(sub for _, sub in operands)
            for packed in residual[-2:]:
                if letters.count(packed) != 1:
                    raise ValueError(f"term {term!r} must hold {packed!r} in exactly one operand")
        self.index, self.residual, self.terms = index, residual, terms
        self._layouts: dict[tuple, tuple] = {}

    @property
    def groups(self) -> list[tuple]:
        return self._compiled[0]

    @property
    def classes(self) -> tuple[tuple, ...]:
        return self._compiled[1]

    @lazy
    def _compiled(self) -> tuple:
        """``(groups, classes, operand names, residual axis sizes, loads)``.

        ``loads`` holds, per group, an ``(operand, packing or None)`` pair
        for each of its operands.
        """
        index, residual = self.index, self.residual
        packed = residual[-2:]
        out = index + residual[: -len(packed)]
        groups: dict[tuple, tuple] = {}
        rows: dict[tuple, dict] = {}  # key permutation -> {group: signed use count}
        arity: dict[str, int] = {}
        for plus, operands in self._parsed:
            names = [name for name, _ in operands]
            subscripts = [sub for _, sub in operands]
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
            uses.append(plus)
            row = rows.setdefault(permutation, {})
            row[g] = row.get(g, 0) + (1 if plus else -1)
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

    def _layout(self, shape: tuple[int, ...]) -> tuple:
        """``(strides, spreads)`` for an unpacked output of ``shape``.

        ``strides`` take a group's output key to its place in a class's list
        ``W``.  ``spreads`` holds, per class, one ``(sign, gather)`` per
        permutation, the residual at place ``r`` taking ``W[gather[r]]``
        (None: ``W[r]``).  Worked out once per shape.
        """
        layout = self._layouts.get(shape)
        if layout is None:
            strides = tuple([prod(shape[i + 1 :]) for i in range(len(shape))])
            spreads = []
            for _, perms in self.classes:
                spreads.append([])
                for s, permutation in perms:
                    moved = tuple([strides[p] for p in permutation])
                    gather = None if moved == strides else [0]  # built axis by axis
                    for n, m in zip(shape, moved) if gather else ():
                        gather = [r + d * m for r in gather for d in range(n)]
                    spreads[-1].append((s, gather))
            layout = self._layouts[shape] = strides, spreads
        return layout

    def check(self, axiom: str, **operands) -> AxiomReport:
        """Evaluate the law on the bound maps and tensors and report it as ``axiom``."""
        return Plan({axiom: [(axiom, self, operands)]}).check(axiom)


class Plan:
    """The rows of one check on one structure (see above).  ``parts`` maps
    each id checked to its parts, as rows ``(axiom, law, operands)``; a row
    is evaluated when first reported on, and only once."""

    def __init__(self, parts: dict[str, list]):
        self._parts = parts
        self._rows = {row[0]: row for rows in parts.values() for row in rows}
        self._reports, self._sums, self._values, self._packs = {}, {}, {}, {}
        self._sized, self._scaled = None, []

    def check(self, axiom: str) -> AxiomReport:
        """The report on ``axiom``: its one row's, or an aggregate of its parts'."""
        rows = self._parts.get(axiom, ())
        if len(rows) > 1 or rows and rows[0][0] != axiom:
            return AxiomReport.aggregate(axiom, [self.check(part) for part, _, _ in rows])
        if axiom not in self._reports:
            self._sized = self._sized or self._size()
            self._reports[axiom] = self._evaluate(*self._rows[axiom][:2])
        return self._reports[axiom]

    def _size(self) -> tuple:
        """``(common scale, B, shared contractions, per axiom: (operand shapes,
        operand numbers, group scales, contraction numbers, class keys or None))``.
        An operand is numbered by first appearance of its (entry tuple, shape),
        and its ``scaled`` read once per number, into ``_scaled``."""
        common, rows, seen, signature, scaled = 1, [], {}, [], self._scaled
        for axiom, law, operands in self._rows.values():
            groups, _, names, _, _ = law._compiled
            shapes, numbers = {name: operands[name].shape for name in names}, {}
            for name in names:
                t = operands[name]
                key = id(getattr(t, t._nested)), shapes[name]
                number = numbers[name] = seen.setdefault(key, len(seen))
                if number == len(scaled):  # seen first
                    scaled.append(t.scaled)
            scales, bounds = [], []
            for ids, _, summed, terms in groups:
                scale, bits, count = 1, 0, len(terms)
                for name, _ in ids:
                    s, _, b = scaled[numbers[name]]
                    scale, bits = scale * s, bits + b
                for name, axis in summed:
                    count *= shapes[name][axis]
                scales.append(scale)
                bounds.append(count << bits)
            common = lcm(common, *scales)
            rows.append((axiom, shapes, numbers, scales, bounds))
            signature.append((law, tuple(numbers.values())))
        # Every residual coefficient of a row is less than its bound in absolute value.
        bits = max(sum([common // s * b for s, b in zip(scales, bounds)])
                   for *_, scales, bounds in rows).bit_length() + 2
        shared, keys = _shared(tuple(signature))
        return common, bits, shared, {axiom: (shapes, numbers, scales, *k)
                                      for (axiom, shapes, numbers, scales, _), k in zip(rows, keys)}

    def _evaluate(self, axiom: str, law: Law) -> AxiomReport:
        groups, classes, _, sizes, loads = law._compiled
        common, bits, shared, rows = self._sized
        shapes, numbers, scales, keys, kept = rows[axiom]
        # Packed letter x (of two) steps over the n_y slots of y; the residual
        # is reported over one fused packed axis of n_x * n_y slots.
        shape = tuple([shapes[name][axis] for name, axis in sizes])
        k = len(law.residual[-2:])
        steps, slots, shape = (shape[-1] * bits, bits)[-k:], prod(shape[-k:]), shape[:-k]
        size = prod(shape)
        strides, spreads = law._layout(shape)
        residual = zeros = [0] * size
        for (row, _), spread, key in zip(classes, spreads, kept):
            w = self._sums.get(key)
            if w is None:
                w = [0] * size
                for g, c in row:
                    spec, tensors = groups[g][1], self._load(numbers, loads[g], steps)
                    if keys[g] in shared:  # contracted once, then added as a lone operand
                        if keys[g] not in self._values:
                            self._values[keys[g]] = contract(spec, *tensors)
                        out = spec[spec.index(">") + 1 :]
                        spec, tensors = f"{out}->{out}", [self._values[keys[g]]]
                    contract(spec, *tensors, into=(w, strides, c * (common // scales[g])))
                if key:
                    self._sums[key] = w
            for s, gather in spread:
                if residual is zeros and s > 0 and gather is None:
                    residual = w  # the row's first add: W itself
                else:  # a new list, so no list is written after its sum
                    part = w if gather is None else map(w.__getitem__, gather)
                    residual = list(map(add if s > 0 else sub, residual, part))
        width = len(law.index)
        return _report(axiom, residual, shape[:width], prod(shape[width:]), slots, common, bits)

    def _load(self, numbers: dict, loads: list, steps: tuple) -> list:
        """A group's operands, scaled; packed ones packed once per plan."""
        tensors = []
        for (name, packed), layout in loads:
            entries = self._scaled[numbers[name]][1]
            if layout is not None:
                key = (numbers[name], packed, steps)
                if key not in self._packs:
                    self._packs[key] = pack(entries, layout, steps)
                entries = self._packs[key]
            tensors.append(entries)
        return tensors


@lru_cache(maxsize=256)
def _shared(signature: tuple) -> tuple:
    """What the rows ``(law, operand numbers)`` of a plan share: ``(shared
    contractions, per row: (contraction numbers, class keys or None))``, a
    contraction numbered by its spec and packed operands; a class's key is
    kept only when two rows hold it."""
    rows, uses, numbers = [], {}, {}
    for law, operands in signature:
        groups, classes, names, _, _ = law._compiled
        number = dict(zip(names, operands))
        keys = [numbers.setdefault((spec, *[(number[n], p) for n, p in ids]), len(numbers))
                for ids, spec, _, _ in groups]
        classes = [tuple([(keys[g], c) for g, c in row]) for row, _ in classes]
        for key in classes:
            uses[key] = uses.get(key, 0) + 1
        rows.append((keys, classes))
    owned = [group for key in uses for group, _ in key]  # once per distinct class
    shared = frozenset(g for i, g in enumerate(owned) if g in owned[:i])
    rows = [(tuple(keys), tuple([key if uses[key] > 1 else None for key in classes]))
            for keys, classes in rows]
    return shared, tuple(rows)


def check(structure, axiom: str, plan: Plan | None = None) -> AxiomReport:
    """``axiom``'s report on ``structure``, from ``plan`` or from a plan of its
    own; ``structure.laws(axiom)`` gives the parts as rows."""
    return (plan or Plan({axiom: structure.laws(axiom)})).check(axiom)


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
