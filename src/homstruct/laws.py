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
summed over.  A law with a repeated argument is stated by its multilinear
form and the two letters to exchange (``polarized``): ``LEFT_HOM_ALT`` is the
row above followed by its terms with ``i`` and ``j`` swapped.  Every other law is an
algebra row ``restricted`` to an extension's blocks, ``transposed`` to the dual algebra
(``HOM_COASSOCIATIVITY`` is the row above, ``mu`` renamed to the field ``delta``), or both.
A ``Plan`` evaluates the rows of one check on one structure together.
A construction is a one-term ``Law`` over the letters, index then residual, of
the tensor it builds (``construct``): ``Law("ij", "o", "+ t.ijq phi.oq")`` is
the Yau twist's ``phi . mu``, the tensor rebuilt being ``t`` (``rebuild``).  A
structure module states or derives its constructions beside its laws, as law rows
are derived; negation and the swap of the first two axes, which every structure
shares, are ``NEGATE`` and ``SWAP`` here, beside ``compose``'s row.

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
term's operands in the order listed, so order an algebra row's to keep joins small:
``alpha.ai mu.abo mu.jkb`` sums ``a`` in O(n^3) and joins ``mu.jkb`` in
O(n^4), where ``alpha.ai mu.jkb mu.abo`` starts with an n^5 product.

A plan compiles each row once (``_row``), by the numbers of its operands:
terms that are one contraction up to a permutation of the unpacked output
letters (``+ alpha.aj mu.abo mu.ikb`` is the first term above with ``i``
and ``j`` swapped) are contracted once; a term that moves a packed letter
is a contraction of its own.  In a plan, an operand is numbered by its entry
tuple and shape (``ident``), which fix its ``scaled``, so a regular module's
``action`` is its algebra's ``mu``, and terms that differ only in names of one
operand are one contraction.  A row's residual is one list of packed ints in
the lexicographic order of its unpacked letters.  For each key permutation
the terms add under, the signed count of its uses of each contraction is its
coefficient row, zero ones dropped; permutations whose rows agree up to sign
form one class.  Each class sums its contractions once into a list ``W`` of
its own, a contraction's last join adding straight into it
(``exact.contract``'s ``into``), and adds ``W`` under each permutation
through strided slices of it, one per place of the letters before the last
(``_spread``): ``LEFT_HOM_ALT`` is ``W = A - B`` and then ``W + swap(W)``.
When a row's first add is the identity with sign +, ``W`` itself is the
residual; every later add builds a new list, so no list is written after its
sum.  A scaled or packed operand, a class sum ``W`` and a contraction mean
the same ints in every row, so each is built once: a class that two rows
hold is summed once and spread by each, and a contraction that two distinct
classes hold is contracted once into a list of its own,
laid out as ``W``, and added into each class's ``W`` by one C-level ``map``.
``LEFT_HOM_ALT``, ``RIGHT_HOM_ALT`` and ``HOM_ASSOC`` spread one ``W = A -
B``: two contractions for the three.  Terms that bind operands to one
tensor can cancel: a class left empty is not evaluated, and a contraction
that every class cancels is neither read nor bounded.  A contraction never
writes to its operands (``t.kij`` alone is the packed ``t``).

An operand bound to an identity map (``is_identity``) is a relabelling: the
compile drops it from each term of two or more operands where another operand
holds its summed letter, renamed to its other letter (``_terms``).
``HOM_ASSOC`` under ``alpha = id`` is ``+ mu.ibo mu.jkb - mu.ako mu.ija``; a
multiplicativity row is ``+ delta.oij - delta.oij``, which cancels.
A renaming that repeats a letter in an operand is not made, and a row that
would then hold a packed letter twice in a term is compiled as stated.

A plan is a program and its arithmetic.  The program is all that the rows'
laws, the pattern of their operand numbers, the operands bound to identity
maps and the operands' shapes fix: which groups and rows the scale and bound
read, each row's layout, packings and classes, and each contraction's spec,
loads, sharing and sink offsets (``_program``).  It, each row's compile and
each spread, by permutation and shape, are built once per process into
``exact.compiled``, the one bounded cache of compiled structure, keyed never
by entry values; a program holds O(n^2) per spread on n-dim tensors, and the
O(n^3) row keys that ``scaled`` reads are kept once per shape.  A check then
reads the ``scaled`` of each distinct operand a kept contraction loads, works
out the common scale and B, packs, contracts, spreads and scans.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import chain, compress, count, islice, repeat
from math import lcm, prod
from operator import add, mul, sub

from .errors import DimensionMismatch
from .exact import _ZERO, LinearMap, _nest, _zeros, compiled, contract, offsets, pack, packing, unpack
from .report import WITNESS_CAP, AxiomReport, Witness


def _parse(term: str) -> tuple[bool, list[tuple[str, str]]]:
    """``term``'s sign (True: +) and its operands as ``(name, letters)`` pairs.

    A ``ValueError`` names the term unless it is ``+`` or ``-`` and then one
    or more operands ``name.letters``, each with one dot and a nonempty name
    and letters.
    """
    sign, *operands = term.split() or [""]
    if sign not in ("+", "-"):
        raise ValueError(f"term {term!r} needs a sign")
    pairs = [tuple(op.split(".")) for op in operands]
    if not pairs or any(len(pair) != 2 or not all(pair) for pair in pairs):
        raise ValueError(f"term {term!r} needs operands written name.letters")
    return sign == "+", pairs


class Law:
    """One law: witness index letters, residual letters, signed terms.

    ``terms`` keeps the row as stated, ``_parsed`` each term's sign (True: +)
    and ``(name, letters)`` operands, and ``names`` the operand names in order
    of first appearance.  Its last two residual letters (or its only one) are
    carried in packed slots.  Stating a row only parses each term and checks
    its packed letters; a plan compiles it by its operands' numbers (``_row``).
    """

    def __init__(self, index: str, residual: str, *terms: str):
        if not residual or not terms:
            raise ValueError("a law needs a residual letter to pack and a term")
        self._parsed = list(map(_parse, terms))
        for term, (_, operands) in zip(terms, self._parsed):
            if (packed := _misheld(operands, residual)) is not None:
                raise ValueError(f"term {term!r} must hold {packed!r} in exactly one operand")
        self.index, self.residual, self.terms = index, residual, terms
        self.names = tuple(dict.fromkeys([name for _, ops in self._parsed for name, _ in ops]))


def _misheld(operands: list, residual: str) -> str | None:
    """The first packed letter of ``residual`` that a term's ``(name, letters)``
    operands do not hold once in exactly one operand, else None."""
    letters = "".join([sub for _, sub in operands])
    return next((c for c in residual[-2:] if letters.count(c) != 1), None)


def untwisted(operands: list, out: str, maps: tuple) -> list:
    """A term's ``(name, letters)`` operands over the letters ``out`` without those named
    in ``maps``, bound to identity maps, where the rules above allow."""
    i = 0
    while i < len(operands):
        (name, own), rest = operands[i], operands[:i] + operands[i + 1 :]
        held = "".join([letters for _, letters in rest])
        summed = [c for c in own if c not in out and c in held]
        if name in maps and len(set(own)) == len(own) == 2 and summed:
            other = own.replace(summed[0], "")
            renamed = [(n, letters.replace(summed[0], other)) for n, letters in rest]
            if all(len(set(letters)) == len(letters) for _, letters in renamed):
                operands = renamed
                continue
        i += 1
    return operands


def _terms(law: Law, maps: tuple) -> list:
    """``law``'s parsed terms without the operands named in ``maps``, bound to identity
    maps, where the rules above allow; the stated terms if a packed letter would then
    sit in two operands of a term."""
    if not maps:
        return law._parsed
    parsed = [(plus, untwisted(ops, law.index + law.residual, maps)) for plus, ops in law._parsed]
    return law._parsed if any(_misheld(ops, law.residual) for _, ops in parsed) else parsed


def _row(law: Law, numbers: tuple, maps: tuple) -> tuple:
    """``(groups, classes, residual axis sizes)`` of ``law`` with operand
    ``law.names[i]`` numbered ``numbers[i]``, less the identity maps named in
    ``maps`` (``_terms``): all that those fix, and nothing a shape fixes.
    ``groups`` lists the distinct contractions, each as ``(operands, contract spec,
    summed, uses)``: an operand is ``(number, packed)``, ``packed`` holding an
    ``(axis, p)`` pair for each packed letter it has, ``p`` that letter's place
    among the packed ones (empty: unpacked); the spec's output is the unpacked
    output letters in order; ``summed`` holds one ``(number, axis)`` per summed
    letter, to size it; a use is one term's sign (True: +).  ``classes`` lists the
    assembly: ``(row, permutations)`` with ``row`` the ``(group, coefficient)``
    pairs, none zero, summed into ``W`` and each permutation a ``(sign,
    positions)`` pair, residual letter ``i`` being output letter ``positions[i]``
    of ``W``."""
    number = dict(zip(law.names, numbers))
    packed = law.residual[-2:]
    out = law.index + law.residual[: -len(packed)]
    groups: dict[tuple, tuple] = {}
    rows: dict[tuple, dict] = {}  # key permutation -> {group: signed use count}
    for plus, operands in _terms(law, maps):
        numbered = [(number[name], sub) for name, sub in operands]
        local = {}  # letter -> (number, axis) of an operand of this term that has it
        for n, sub in numbered:
            for axis, c in enumerate(sub):
                local.setdefault(c, (n, axis))
        ids = tuple((n, tuple((sub.index(c), p) for p, c in enumerate(packed) if c in sub))
                    for n, sub in numbered)
        subscripts = ["".join(c for c in sub if c not in packed) for _, sub in numbered]
        # Letters renamed in order of first appearance: equal forms are one contraction
        # with the output letters permuted, and a spec spelled in those letters (a, b,
        # ...) compiles once (``exact.compiled``) whatever letters a row names it by.
        rename = {c: i for i, c in enumerate(dict.fromkeys("".join(subscripts)))}
        form = (ids, tuple(tuple(rename[c] for c in sub) for sub in subscripts),
                frozenset(map(rename.get, out)))
        if form not in groups:
            summed = tuple(local[c] for c in rename if c not in out)
            spelling = {ord(c): ord("a") + i for c, i in rename.items()}
            spec = (",".join(subscripts) + "->" + out).translate(spelling)
            groups[form] = (len(groups), ids, spec, summed, rename, [])
        g, _, _, _, first, uses = groups[form]
        letter_of = {i: c for c, i in first.items()}
        permutation = tuple(out.index(letter_of[rename[c]]) for c in out)
        uses.append(plus)
        row = rows.setdefault(permutation, {})
        row[g] = row.get(g, 0) + (1 if plus else -1)
    compiled_groups = [(ids, spec, summed, tuple(uses))
                       for _, ids, spec, summed, _, uses in groups.values()]
    by_row: dict[tuple, list] = {}
    for permutation, row in rows.items():
        row = sorted((g, c) for g, c in row.items() if c)
        if row:
            s = 1 if row[0][1] > 0 else -1
            by_row.setdefault(tuple((g, s * c) for g, c in row), []).append((s, permutation))
    classes = tuple((row, tuple(perms)) for row, perms in by_row.items())
    sizes = tuple([local[c] for c in out + packed])  # every term holds every output letter
    return compiled_groups, classes, sizes


def _layout(classes: tuple, shape: tuple[int, ...]) -> tuple:
    """``(strides, spreads)`` for an unpacked output of ``shape``.

    ``strides`` take a group's output key to its place in a class's list
    ``W``.  ``spreads`` holds, per class, one ``(sign, slices)`` per
    permutation: None when the permutation moves no stride (the residual
    is ``W`` itself), else its ``_spread``.  Worked out once per program
    (``_program``), each spread once per process (``exact.compiled``).
    """
    strides = _strides(shape)
    spreads = [[(s, None if tuple([strides[p] for p in permutation]) == strides
                 else compiled(_spread, permutation, shape)) for s, permutation in perms]
               for _, perms in classes]
    return strides, spreads


def _strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    """The row-major strides of ``shape``: a step along axis ``i`` is ``prod(shape[i + 1 :])``."""
    return tuple([prod(shape[i + 1 :]) for i in range(len(shape))])


def _spread(permutation: tuple, shape: tuple[int, ...]) -> tuple:
    """The strided slices of ``W`` whose concatenation is ``W`` under ``permutation``.

    Residual letter ``i`` is output letter ``permutation[i]`` of ``W``, so a
    step along residual axis ``i`` is a step of ``W``'s stride at that axis.
    There is one slice per place of the residual axes before the last, in
    lexicographic order, each reading the last axis's ``n`` places from its
    start ``r`` at that step ``m``: ``slice(r, r + n * m, m)``.  That is
    O(n^2) slices for a three-letter output, read in C.
    """
    strides = _strides(shape)
    starts = [0]  # built axis by axis, the last axis left to the slices
    for n, p in zip(shape[:-1], permutation):
        starts = [r + d * strides[p] for r in starts for d in range(n)]
    n, m = shape[-1], strides[permutation[-1]]
    # An empty last axis leaves no place to read, and its stride m may be 0,
    # which no slice steps by.
    return tuple([slice(r, r + n * m, m) for r in starts]) if n else ()


class Plan:
    """The rows of one check on one structure (see above).  ``parts`` maps
    each id checked to its parts, as rows ``(axiom, law, operands)``; a row
    is evaluated when first reported on, and only once."""

    def __init__(self, parts: dict[str, list]):
        self._parts = parts
        self._rows = {row[0]: row for rows in parts.values() for row in rows}
        self._reports, self._sums, self._values, self._entries = {}, {}, {}, {}
        self._sized = None

    def check(self, axiom: str) -> AxiomReport:
        """The report on ``axiom``: its one row's, or an aggregate of its parts'."""
        rows = self._parts.get(axiom, ())
        if len(rows) > 1 or rows and rows[0][0] != axiom:
            return AxiomReport.aggregate(axiom, [self.check(part) for part, _, _ in rows])
        if axiom not in self._reports:
            self._sized = self._sized or self._size()
            self._reports[axiom] = self._evaluate(axiom)
        return self._reports[axiom]

    def _size(self) -> tuple:
        """``(common scale, B, per axiom its program, per product common // its
        scale)``.  An operand is numbered by first appearance of its ``ident``,
        (entry tuple, shape), and its ``scaled`` entries read once per number a
        kept contraction loads, into ``_entries``; a row runs without the names
        whose operands are identity maps (``_row``); the rest is fixed by the
        rows and those shapes (``_program``)."""
        seen, signature = {}, []  # ident -> (number, the first operand with it)
        for axiom, law, operands in self._rows.values():
            first = [seen.setdefault(operands[name].ident, (len(seen), operands[name]))
                     for name in law.names]
            maps = tuple([name for name, (_, t) in zip(law.names, first) if t.is_identity()])
            signature.append((axiom, law, tuple([n for n, _ in first]), maps))
        shapes = tuple([shape for _, shape in seen])
        products, bounds, rows, loaded = compiled(_program, tuple(signature), shapes)
        scaled = {n: t.scaled for n, t in seen.values() if n in loaded}
        self._entries.update({n: entries for n, (_, entries, _) in scaled.items()})
        scales = [prod([scaled[n][0] for n in ops]) for ops in products]
        widths = [sum([scaled[n][2] for n in ops]) for ops in products]
        common = lcm(*scales)
        factors = [common // s for s in scales]
        # Every residual coefficient of a row is less than its bound in absolute value.
        bits = max([sum([factors[p] * (count << widths[p]) for p, count in bound])
                    for bound in bounds]).bit_length() + 2
        return common, bits, rows, factors

    def _evaluate(self, axiom: str) -> AxiomReport:
        common, bits, rows, factors = self._sized
        k, last, size, index, outer, slots, packs, classes = rows[axiom]
        # Packed letter x (of two) steps over the n_y slots of y; the residual
        # is reported over one fused packed axis of n_x * n_y slots.
        steps, entries = (last * bits, bits)[-k:], self._entries
        for key, number, layout in packs:  # each packed operand packed once per plan
            if key not in entries:
                entries[key] = pack(entries[number], layout, steps)
        residual = zeros = [0] * size
        for key, spread, terms in classes:
            w = self._sums.get(key)
            if w is None:
                w = [0] * size
                for shared, spec, loads, sinks, p, c in terms:
                    f = c * factors[p]
                    if shared is None:
                        contract(spec, *map(entries.__getitem__, loads), into=(w, sinks, f))
                        continue
                    value = self._values.get(shared)
                    if value is None:  # contracted once, laid out as every W that adds it
                        value = self._values[shared] = [0] * size
                        contract(spec, *map(entries.__getitem__, loads), into=(value, sinks, 1))
                    part = value if f == 1 or f == -1 else map(mul, value, repeat(f))
                    w = list(map(sub if f == -1 else add, w, part))
                if key is not None:
                    self._sums[key] = w
            for s, slices in spread:
                if residual is zeros and s > 0 and slices is None:
                    residual = w  # the row's first add: W itself
                else:  # a new list, so no list is written after its sum
                    part = w if slices is None else chain.from_iterable(
                        map(w.__getitem__, slices))
                    residual = list(map(add if s > 0 else sub, residual, part))
        return _report(axiom, residual, index, outer, slots, common, bits)


def _term(plus: bool, operands: list) -> str:
    """A term, its sign and ``(name, letters)`` operands, written in the grammar."""
    return "+-"[not plus] + "".join([f" {name}.{letters}" for name, letters in operands])


def polarized(law: Law, swap: str) -> Law:
    """``law`` followed by each of its terms again with the two letters of ``swap``
    exchanged in its operands' letters.  A law with a repeated argument, ``as(x, x, y) =
    0``, is its multilinear ``as(x, y, z)`` polarized in the letters of x and y."""
    flip = str.maketrans(swap, swap[::-1])
    return Law(law.index, law.residual, *law.terms, *[
        _term(plus, [(name, letters.translate(flip)) for name, letters in operands])
        for plus, operands in law._parsed])


def _signed(index: str, residual: str, terms: list, sign: int) -> Law:
    """``terms``, ``(plus, operands)`` pairs, times ``sign`` as a law, from its first + term on."""
    written = [_term(plus == (sign > 0), operands) for plus, operands in terms]
    first = next((i for i, term in enumerate(written) if term[0] == "+"), 0)
    return Law(index, residual, *written[first:], *written[:first])


def transposed(law: Law, sign: int = 1, **names: str) -> Law:
    """The dual law of ``law`` times ``sign``: index and residual letters exchanged, each operand's
    last letter moved first (``mu.abo`` to ``mu.oab``), its name renamed by ``names``.  A term
    starts at the operand holding the first index letter, then takes the first operand whose
    unpacked letters are all held (a join adding no letter), else the first left, in stated order."""
    index, residual, terms = law.residual, law.index, []
    for plus, operands in law._parsed:
        rest = [(names.get(name, name), letters[-1] + letters[:-1]) for name, letters in operands]
        ordered = [next(op for op in rest if index[0] in op[1])]
        rest.remove(ordered[0])
        while rest:  # the packed letters count as held: they are not joined on
            held = set("".join([letters for _, letters in ordered]) + residual[-2:])
            ordered.append(next((op for op in rest if set(op[1]) <= held), rest[0]))
            rest.remove(ordered[-1])
        terms.append((plus, ordered))
    return _signed(index, residual, terms, sign)


def restricted(law: Law, blocks: dict, names: dict, sign: int = 1) -> Law:
    """The row ``law`` times ``sign`` at index letters in the blocks (``"A"``, ``"M"``) that
    ``blocks`` lists, in its order.  A map's letters share a block, a product (three letters) is M
    when exactly one argument is, and a term with a product of two M letters is dropped.  An operand
    in blocks ``P`` is ``names["name.P"]``: ``"action"``, or ``"-gamma_m.bac"`` negated, mirrored."""
    terms = []
    for term, (plus, operands) in zip(law.terms, law._parsed):
        block, size, held = dict(blocks), -1, set("".join([letters for _, letters in operands]))
        while size < len(block) and not held <= block.keys():  # until all are, or a pass adds none
            size = len(block)
            for _, letters in operands:
                known = [block.get(c) for c in letters]
                if len(letters) == 2 and known.count(None) == 1:
                    block.update(dict.fromkeys(letters, known[0] or known[1]))
                elif len(letters) > 2 and None not in known[:-1]:
                    block[letters[-1]] = "AMX"[min(known[:-1].count("M"), 2)]  # X: two M letters
        if not held <= block.keys():
            raise ValueError(f"term {term!r} has a letter that no operand blocks")
        renamed = []
        for name, letters in operands:
            value = names.get(name + "." + "".join([block[c] for c in letters]), name)
            plus ^= value.startswith("-")
            name, _, legs = value.lstrip("-").partition(".")
            renamed.append((name, "".join([letters["abc".index(c)] for c in legs]) or letters))
        if "X" not in block.values():
            terms.append((plus, renamed))
    return _signed("".join(blocks), law.residual, terms, sign)


def _program(rows: tuple, shapes: tuple) -> tuple:
    """The program of a plan's rows, ``(axiom, law, operand numbers, identity
    maps)``, on operands of ``shapes``: ``(products, bounds, per axiom: (k, n, size,
    index shape, outer, slots, packs, classes), loaded)``.  Over the groups a class
    holds (``_row``), ``products`` lists each distinct sorted tuple of a group's
    operand numbers (its scale and bits), ``bounds`` each distinct row's
    ``(product, uses times summed sizes)`` pairs and ``loaded`` the operand numbers
    read.  A row packs its last ``k`` letters, the last of size ``n``, into
    ``slots``; ``size`` places, ``outer`` per witness index.  ``packs`` holds
    ``(number, operand number, packing)`` per operand its classes pack, numbered
    after the operands; a class is ``(its key if another row holds it, spreads,
    terms)``, a term ``(shared, spec, loads, sink offsets, product, coefficient)``,
    ``loads`` its operands' numbers.  A contraction is numbered by spec and packed
    operands, and a class keyed by its ``(number, coefficient)`` pairs; ``shared`` is
    a contraction's number when two distinct classes hold it: contracted once into a
    list laid out as their ``W``, fixed by the shapes, and added into each ``W``."""
    compiles = [compiled(_row, law, numbers, maps) for _, law, numbers, maps in rows]
    numbered, uses, keyed = {}, {}, []
    for groups, classes, _ in compiles:
        keys = [numbered.setdefault((spec, *ids), len(numbered)) for ids, spec, _, _ in groups]
        keyed.append((keys, [tuple([(keys[g], c) for g, c in row]) for row, _ in classes]))
        for key in keyed[-1][1]:
            uses[key] = uses.get(key, 0) + 1
    owned = [contraction for key in uses for contraction, _ in key]  # once per distinct class
    shared = {n for i, n in enumerate(owned) if n in owned[:i]}
    products, bounds, programs, packed_ids = {}, {}, {}, {}  # packed loads after operands
    for (axiom, law, _, _), (groups, classes, sizes), (keys, sums) in zip(rows, compiles, keyed):
        full = [shapes[n][axis] for n, axis in sizes]  # every term holds every letter
        k = len(law.residual[-2:])
        out, width = tuple(full[:-k]), len(law.index)
        strides, spreads = _layout(classes, out)
        held = {g for row, _ in classes for g, _ in row}  # else neither read nor bounded
        bound, packs, terms = {}, {}, {}
        for g in sorted(held):
            ids, spec, summed, used = groups[g]
            p = products.setdefault(tuple(sorted([n for n, _ in ids])), len(products))
            bound[p] = bound.get(p, 0) + len(used) * prod([shapes[n][axis] for n, axis in summed])
            load = [n if not packed else packed_ids.setdefault(
                        (n, packed, (full[-1], 1)[-k:]), len(shapes) + len(packed_ids))
                    for n, packed in ids]
            packs.update({m: (m, n, packing(len(shapes[n]), packed))
                          for m, (n, packed) in zip(load, ids) if packed})
            share = keys[g] if keys[g] in shared else None
            terms[g] = (share, spec, tuple(load), offsets(spec, strides), p)
        bounds[tuple(bound.items())] = None
        programs[axiom] = (k, full[-1], prod(out), out[:width], prod(out[width:]),
                           prod(full[-k:]), tuple(packs.values()), tuple([
                               (key if uses[key] > 1 else None, spread,
                                tuple([(*terms[g], c) for g, c in row]))
                               for (row, _), spread, key in zip(classes, spreads, sums)]))
    return tuple(products), tuple(bounds), programs, frozenset([n for ops in products for n in ops])


def check(structure, axiom: str, plan: Plan | None = None) -> AxiomReport:
    """``axiom``'s report on ``structure``, from ``plan`` or from a plan of its
    own; ``structure.laws(axiom)`` gives the parts as rows."""
    return (plan or Plan({axiom: structure.laws(axiom)})).check(axiom)


def check_map(axiom: str, parts: tuple, f, src, dst, dims: tuple, noun="morphism") -> AxiomReport:
    """``axiom``'s report on ``f``, of shape ``dims`` (in, out), as a map from ``src`` to ``dst``.
    Each part ``(part id, law, field)`` binds the law's ``src`` and ``dst`` to that field of
    each end and ``f`` to the map; a part whose field ``src`` lacks (None) is left out.  A
    map of another shape is refused as a ``noun`` candidate."""
    if (f.dim_in, f.dim_out) != dims:
        raise DimensionMismatch(f"{noun} candidate has wrong shape")
    rows = [(part, law, {"src": getattr(src, field), "dst": getattr(dst, field), "f": f})
            for part, law, field in parts if getattr(src, field) is not None]
    return Plan({axiom: rows}).check(axiom)


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
    fails = residual if outer == 1 else list(map(any, zip(*[iter(residual)] * outer)))
    zeros = (0,) * slots
    radix = list(zip(_strides(index), index))
    kept = []
    for flat in islice(compress(count(), fails), WITNESS_CAP):
        digits = []
        for packed in residual[flat * outer : (flat + 1) * outer]:
            digits += unpack(packed, slots, bits) if packed else zeros
        key = tuple([flat // stride % n for stride, n in radix])
        kept.append(Witness(key, tuple(digits), scale))
    return AxiomReport(axiom, False, tuple(kept), len(fails) - fails.count(0))


COMMUTES = Law("i", "o", "+ f.oa src.ai", "- dst.oa f.ai")
"""``f . src = dst . f``, column by column: a morphism intertwines two twist maps."""

def _reading(row: Law, shapes: tuple) -> tuple:
    """``construct``'s reading of the one-term ``row`` on operands of ``shapes``,
    ``(name, shape)`` pairs: its ``contract`` spec, its sign as a factor, its operand
    names, the output's shape (each letter sized by the first operand axis holding
    it) and sink offsets."""
    ((plus, pairs),), out = row._parsed, row.index + row.residual
    shapes, holders = dict(shapes), {}
    for name, letters in pairs:
        for axis, c in enumerate(letters):
            holders.setdefault(c, shapes[name][axis])
    spec = ",".join(letters for _, letters in pairs) + "->" + out
    shape = tuple([holders[c] for c in out])
    names = tuple([name for name, _ in pairs])
    return spec, 1 if plus else -1, names, shape, offsets(spec, _strides(shape))


def construct(row: Law, **operands) -> tuple:
    """The entries of the one-term ``row`` on the named maps and tensors, nested over
    its index letters and then its residual ones: ``construct(SWAP, t=mu)`` is the
    opposite multiplication.  Each output letter is sized by the first operand axis
    holding it.  The operands' ``scaled`` entries are contracted into one list, the sign
    being ``contract``'s ``into`` factor; a nonzero sum ``v`` is ``Fraction(v, s)``,
    ``s`` the product of their scales (``Fraction(v)``, which skips the normalising
    gcd, when ``s`` is 1), a zero ``_ZERO`` and an all-zero row the shared one."""
    shapes = tuple([(name, t.shape) for name, t in operands.items()])
    spec, factor, names, shape, sinks = compiled(_reading, row, shapes)
    readings = [operands[name].scaled for name in names]
    sink = [0] * prod(shape)
    contract(spec, *[entries for _, entries, _ in readings], into=(sink, sinks, factor))
    s, width = prod(scale for scale, _, _ in readings), shape[-1]
    rows = [sink[i * width : (i + 1) * width] for i in range(prod(shape[:-1]))]
    zero = compiled(_zeros, (width,))
    entry = Fraction if s == 1 else lambda v: Fraction(v, s)
    return _nest([tuple([entry(v) if v else _ZERO for v in r]) if any(r) else zero
                  for r in rows], shape)


def rebuild(structure, row: Law, fields: tuple, changes: dict | None = None, **operands):
    """``structure`` with ``changes`` made and each tensor named in ``fields``
    rebuilt by the one-term ``row`` (``construct``) on itself (``t``) and
    ``operands``; a rebuilt tensor keeps its other fields, and is kept itself where
    the row less its identity maps (``untwisted``) is ``+ t.<its letters>``."""
    ((plus, pairs),), out = row._parsed, row.index + row.residual
    maps = tuple([name for name, t in operands.items() if t.is_identity()])
    kept = plus and untwisted(pairs, out, maps) == [("t", out)]
    built = {}
    for field in fields:
        t = getattr(structure, field)
        built[field] = t if kept else replace(t, **{t._nested: construct(row, t=t, **operands)})
    return replace(structure, **built, **(changes or {}))


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """Composite f . g (apply g first)."""
    if f.dim_in != g.dim_out:
        raise DimensionMismatch(f"cannot compose {f.dim_out}x{f.dim_in} after {g.dim_out}x{g.dim_in}")
    if f.is_identity() or g.is_identity():  # a relabelling: the other map itself
        return g if f.is_identity() else f
    return LinearMap(construct(_COMPOSITE, f=f, g=g), g.dim_in)


# Constructions every structure shares, on a three-axis tensor t (``rebuild``), and f . g.
NEGATE = Law("ij", "k", "- t.ijk")
SWAP = Law("ij", "k", "+ t.jik")  # the first two axes exchanged
_COMPOSITE = Law("i", "j", "+ f.il g.lj")  # f . g
