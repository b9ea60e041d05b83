"""Spans around the calls into each layer, recorded from the benchmark's side.

``instrument`` wraps every public function of the layer modules and swaps
the wrapper in wherever another module of the package refers to it: module
globals (``from .x import f``), module-level dicts of functions (axiom
tables), and the attributes of a module that another one imports whole
(``catalog.get``).  Calls a module makes to its own functions stay
unwrapped, so a span is a call *into* a layer; only in a module imported
whole are its own calls traced too (``catalog.get`` calling ``entries``).  ``exact`` and ``report``
are not wrapped: their primitives run inside the loops being measured.

Spans are kept in memory as ``[name, start, end, parent, op_id, args,
result]`` and written out once the run ends.  Counts are derived from the
kept arguments and results after the timed passes, never inside a span.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

LAYERS = ("fileformat", "catalog", "algebras", "modules", "coalgebras", "comodules")

NAME, START, END, PARENT, OP, ARGS, RESULT = range(7)

# Residual length per scanned point of each leaf law, from (n, m) =
# (coalgebra dim, comodule dim).  Coalgebra laws scan n points, comodule laws m.
COALGEBRA_RESIDUAL = {
    "COCOMMUTATIVITY": lambda n, m: n * n,
    "DELTA_MULTIPLICATIVITY": lambda n, m: n * n,
    "HOM_COASSOCIATIVITY": lambda n, m: n ** 3,
    "SKEW_COSYMMETRY": lambda n, m: n * n,
    "GAMMA_MULTIPLICATIVITY": lambda n, m: n * n,
    "HOM_COJACOBI": lambda n, m: n ** 3,
    "HOM_COLEIBNIZ": lambda n, m: n ** 3,
}
COMODULE_RESIDUAL = {
    "DELTA_COACTION_MULTIPLICATIVITY": lambda n, m: n * m,
    "DELTA_COACTION_COASSOCIATIVITY": lambda n, m: n * n * m,
    "GAMMA_COACTION_MULTIPLICATIVITY": lambda n, m: n * m,
    "GAMMA_COACTION_COMPATIBILITY": lambda n, m: n * n * m,
    "COMODULE_COLEIBNIZ": lambda n, m: n * n * m,
    "COMODULE_COMULT_COMPAT": lambda n, m: n * n * m,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, args, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = time.perf_counter()
            try:
                record[RESULT] = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            return record[RESULT]

        return traced


def instrument(tracer: Tracer, package: str = "homstruct"):
    """Swap traced wrappers into the loaded package; returns a function that undoes it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith(package + ".") and m is not None]
    wrappers, home = {}, {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for name, value in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                wrappers[value] = tracer.wrap(f"{layer}.{name}", value)
                home[value] = module
    imported_whole = {v for m in modules for v in vars(m).values() if inspect.ismodule(v)}

    patches = []

    def swap(namespace: dict, key, value, owner):
        if inspect.isfunction(value) and value in wrappers and (
            home[value] is not owner or owner in imported_whole
        ):
            patches.append((namespace, key, value))
            namespace[key] = wrappers[value]

    for module in modules:
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if key.startswith("__"):
                continue
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    swap(value, k, v, module)
            else:
                swap(namespace, key, value, module)

    def restore():
        for namespace, key, original in reversed(patches):
            namespace[key] = original

    return restore


# ---------------------------------------------------------------------------
# From spans to per-layer numbers
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _count_nonzero(value) -> int:
    if isinstance(value, tuple):
        return sum(_count_nonzero(v) for v in value)
    return int(isinstance(value, (Fraction, int)) and not isinstance(value, bool) and value != 0)


def structure_nnz(structure) -> int:
    """Nonzero constants in the tensors a structure holds directly (not its base)."""
    total = 0
    for f in dataclasses.fields(structure):
        value = getattr(structure, f.name)
        if dataclasses.is_dataclass(value) and type(value).__module__.endswith(".exact"):
            total += sum(_count_nonzero(getattr(value, g.name))
                         for g in dataclasses.fields(value) if isinstance(getattr(value, g.name), tuple))
    return total


def _leaves(report):
    if not report.parts:
        yield report
    for part in report.parts:
        yield from _leaves(part)


def _scan_shape(args, report, table) -> tuple[int, int]:
    structure = args[0]
    if hasattr(structure, "coalgebra"):
        n, m, points = structure.coalgebra.dim, structure.dim_mod, structure.dim_mod
    else:
        n, m, points = structure.dim, 0, structure.dim
    scanned = [leaf for leaf in _leaves(report) if leaf.axiom in table]
    return points * len(scanned), sum(points * table[leaf.axiom](n, m) for leaf in scanned)


def _algebra_tuples(fn: str, args) -> int:
    structure = args[0]
    if fn in ("check_left_module", "check_right_module"):
        return structure.algebra.dim ** 2 * structure.dim_mod
    return structure.dim ** 3


def layer_metrics(spans: list[list], ops: int, workdir: Path) -> tuple[dict, dict]:
    """Per-op layer metrics from the spans of ``ops`` traced ops, and each layer's self time."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}

    def add(key, amount):
        totals[key] = totals.get(key, 0) + amount

    for s, self_s in zip(spans, selfs):
        layer, fn = s[NAME].split(".", 1)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_s
        dur, args, result = s[END] - s[START], s[ARGS], s[RESULT]
        if layer == "cli":
            add("cli.self_s", self_s)
        elif layer == "fileformat" and fn == "parse_file":
            add("fileformat.parse_s", dur)
            add("fileformat.parse_bytes", (workdir / args[0]).stat().st_size)
            if result is not None:
                add("exact.input_nnz", sum(structure_nnz(x) for x in result.structures.values()))
        elif layer == "fileformat" and fn in ("serialize", "write_file"):
            add("fileformat.serialize_s", dur)
            add("fileformat.serialize_bytes",
                len(result) if fn == "serialize" else (workdir / args[0]).stat().st_size)
        elif layer == "catalog" and fn == "entries":
            add("catalog.entries_s", dur)
            add("catalog.entries_calls", 1)
        elif layer in ("algebras", "modules", "coalgebras", "comodules"):
            if not fn.startswith("check_"):
                # self time: a module construction calls the algebra's own
                add(f"{layer}.construct_s", self_s)
                continue
            add(f"{layer}.check_s", dur)
            add(f"{layer}.checks", 1)
            if result is None:
                continue
            add("report.failures", result.total_failures)
            add("report.witnesses", len(result.witnesses))
            if layer in ("algebras", "modules"):
                add(f"{layer}.tuples", _algebra_tuples(fn, args))
            else:
                table = COALGEBRA_RESIDUAL if layer == "coalgebras" else COMODULE_RESIDUAL
                points, entries = _scan_shape(args, result, table)
                add(f"{layer}.scan_points", points)
                add(f"{layer}.residual_entries", entries)
    return ({k: v / ops for k, v in totals.items()},
            {layer: t / ops for layer, t in self_by_layer.items()})


def dump(spans: list[list], path: Path):
    """Write spans as JSON lines of name, start, end, parent and op id."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT], s[OP]]) + "\n")
