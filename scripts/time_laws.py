#!/usr/bin/env python3
"""Time every registered law on dense structures at the given dimensions.

For each dim n it builds, from ``DeterministicRng(1)`` entries (numerators
-4..4, denominators 1..3, so every tensor is dense and rational): an
algebra, a left and a right module of dim n over it, a Hom-Poisson
coalgebra and a Poisson comodule of dim n over that.  Then it runs every
id of ``axioms.AXIOMS`` (or only the ids ``--laws`` names) on the
structure of its type and prints one line per law: dim, id, best wall time
in ms, best time in ms of ``report.format_report`` on its report (the text
``verify`` prints, up to 16 witnesses) and ``total_failures``.  An unknown
``--laws`` id is a usage error (exit 2).  First comes one ``compile`` line
(dim ``-``): for each ``src/homstruct/*.py`` in sorted order, the best of 7
``compile()`` calls on its source in ms (``<module>_ms``, e.g. ``exact_ms``),
then their sum (``total_ms``), which every command pays when there is no
bytecode cache.  Then one ``exec`` line (dim ``-``): for each of those
modules but ``__main__``, the best of 7 runs in ms of its compiled body in a
fresh module namespace, every import it makes already loaded, so what is
left is class creation and other module-level work, and their sum
(``total_ms``).  Then one ``records`` line (dim ``-``): the best of 9 in ns of
one construction, from fixed arguments (the fields of a built one), of each of
``HomAlgebra``, ``HomModule``, ``HomPoissonCoalgebra``, ``HomComodule``,
``Witness``, ``AxiomReport`` and a dim-8 ``MulTensor`` and ``LinearMap``
(``algebra_ns`` ... ``linear_map_ns``): what every record's ``__init__``, with
its checks and its ``Record._store``, costs.  Then one ``catalog`` line (dim
``-``): ``axioms.verify`` of each catalogue entry's pinned suite on warm tensors
(its ``scaled`` entries and plan programs already built), best of ``--repeat``
per entry, summed over
the entries (``catalog_ms``), the slowest entry (``slowest``, its
``slowest_ms``): the fixed cost of small checks, and the summed first
``verify`` of each entry in the process (``first_ms``), which also reads the
``scaled`` entries and compiles each row (``laws._row``) and each plan's
program (``laws._program``) the process has not yet compiled.  Then one ``sparse``
line, at dim 16 whatever ``--dims`` says: the 4 x 4 matrix algebra on its
unit basis (constants 1, 192 of its 256 rows zero) with its regular left
module, and the coalgebra of its transposed constants (``gamma`` zero) with
its regular Poisson comodule, as one file; the best time in ms of
``fileformat.serialize`` on the freshly built file (``serialize_ms``), of
``parse_bytes`` on its bytes (``parse_ms``), of building the parsed tensors'
``scaled`` entries (``scaled_ms``), and of ``verify --suite all`` on each of
the four structures (``algebra_ms`` ... ``comodule_ms``).  Before its laws, each dim
gets one ``write`` line: the best time in ms to build the five structures from their
drawn entries with ``from_entries`` and ``from_rows`` (``build_ms``), to
``fileformat.serialize`` them as one file (``serialize_ms``), and to
serialize the algebra with its two regular modules and the coalgebra with
its regular comodule as one file (``regular_ms``: each shared array's text is
joined once), and the ``tracemalloc`` peak in KB of that last write
(``regular_kb``); then one ``ingest`` line: the best time in ms of
``fileformat.parse_bytes`` on the five structures' file (``parse_ms``), of
building the parsed tensors' ``scaled`` entries, the one form a check reads
(``scaled_ms``), and of serializing the parsed file again (``rewrite_ms``:
parsed arrays are joined back into text from the numerals read).  Every entry is
nonzero, so these two lines time the write and read paths with no zero to
skip; the ``sparse`` line below times them where almost every entry is 0.
Then one ``suite`` line: the best time in ms of ``verify
--suite all`` on each of the five structures (``algebra_ms`` ...
``comodule_ms``), one ``laws.Plan`` each, so shared contractions and
packings are built once per suite, and the ``tracemalloc`` size in KB of what
``exact.compiled`` holds after one more, untimed run of the five suites started
on an emptied cache (``compiled_kb``): programs, row compiles, contraction
plans, sink offsets, spreads and ``unpack`` layouts, but not the row keys of
each shape, which ``scaled`` read before the cache was emptied.  Then one
``untwisted`` line, the same on the five structures with ``alpha`` and ``beta``
replaced by the identity, whose plans drop those operands.  Then one ``construct`` line: the best
time in ms of ``modules.twist_module`` on the left module rebased on a dense
algebra whose dense alpha is multiplicative (``multiplicative_algebra``; the
twist checks that first), ``twist_module_ms``, of
``comodules.twist_poisson_comodule`` on the comodule
(``twist_comodule_ms``), and of ``laws.construct`` on the Yau twist's row
for the algebra's ``mu`` and on the coalgebra Yau twist's row for the
coalgebra's ``delta``, each along the structure's own ``alpha``
(``then_map_ms``, ``precompose_ms``: ``phi . mu`` and ``delta . phi``).  The
first run on each structure also builds its tensors' cached scaled entries;
with ``--repeat`` above 1 the best time leaves that out.  Every timed call runs
with the collector off, after one full garbage collection per line and per law
(``quiet``), on objects made untimed just before it (``best``).

    python3 scripts/time_laws.py --dims 6,10,16 [--repeat 3] [--laws ID[,ID...]]
"""

import argparse
import gc
import pathlib
import sys
import time
import timeit
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from homstruct import algebras, catalog, coalgebras  # noqa: E402
from homstruct.algebras import HomAlgebra  # noqa: E402
from homstruct.axioms import AXIOMS, native_suite, verify  # noqa: E402
from homstruct.catalog import DeterministicRng  # noqa: E402
from homstruct.coalgebras import HomPoissonCoalgebra  # noqa: E402
from homstruct.comodules import HomComodule, regular_comodule, twist_poisson_comodule  # noqa: E402
from homstruct.exact import (  # noqa: E402
    ActionTensor, CoactionTensor, ComulTensor, LinearMap, MulTensor, _Tensor, compiled,
)
from homstruct.fileformat import FILE_VERSION, StructureFile, parse_bytes, serialize  # noqa: E402
from homstruct.laws import construct  # noqa: E402
from homstruct.modules import LEFT_MODULE, HomModule, regular_module, twist_module  # noqa: E402
from homstruct.report import WITNESS_CAP, AxiomReport, Witness, format_report  # noqa: E402


NAMES = ("algebra", "left", "right", "coalgebra", "comodule")
BASES = {"left": "algebra", "right": "algebra", "comodule": "coalgebra"}
CONSTRUCTIONS = ("twist_module", "twist_comodule", "then_map", "precompose")
RECORDS = ("algebra", "module", "coalgebra", "comodule", "witness", "report", "mul_tensor",
           "linear_map")


def dims(text: str) -> list[int]:
    """The dims of a comma-separated list, as an ``argparse`` type: none empty or negative."""
    try:
        values = [int(d) for d in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not comma-separated dims") from None
    if any(d < 0 for d in values):
        raise argparse.ArgumentTypeError(f"{text!r} holds a negative dim")
    return values


@contextmanager
def quiet():
    """One full garbage collection, then the collector off until the block ends, raising or not."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def best(run, repeat: int, setup=None) -> tuple[float, object]:
    """(Best ``perf_counter`` seconds over ``repeat`` calls of ``run``, the last call's value);
    with ``setup``, each call is ``run(setup())``, its argument made untimed just before it."""
    seconds = float("inf")
    for _ in range(repeat):
        value = args = None  # what the last call made or got is freed untimed
        args = () if setup is None else (setup(),)
        start = time.perf_counter()
        value = run(*args)
        seconds = min(seconds, time.perf_counter() - start)
    return seconds, value


def line(dim, label: str, fields: list[str]):
    """Print one line: ``dim``, ``label``, then ``fields``."""
    print(f"{dim:>3}  {label:<32} {' '.join(fields)}", flush=True)


def ms(times, places: int = 2) -> list[str]:
    """A ``<name>_ms=`` field for each (name, seconds) of ``times``."""
    return [f"{name}_ms={seconds * 1000:.{places}f}" for name, seconds in times]


def dense_entries(n: int) -> list:
    """The entries of the tensors ``build_structures`` makes, as nested lists, in draw order."""
    rng = DeterministicRng(1)

    def square():
        return [[rng.point_entry() for _ in range(n)] for _ in range(n)]

    def cube():
        return [square() for _ in range(n)]

    # mu, alpha; beta and action of the left, then the right module; delta,
    # gamma, alpha; beta, delta_m, gamma_m
    return [cube(), square(), square(), cube(), square(), cube(),
            cube(), cube(), square(), square(), cube(), cube()]


def build_structures(n: int, entries: list) -> list:
    """One algebra, left and right module, coalgebra and comodule, all of dim n."""
    mu, alpha, beta_l, act_l, beta_r, act_r, delta, gamma, alpha_c, beta_c, delta_m, gamma_m = entries
    alg = HomAlgebra(n, MulTensor.from_entries(mu), LinearMap.from_rows(alpha))
    left = HomModule(alg, n, LinearMap.from_rows(beta_l),
                     ActionTensor.from_entries(act_l, n, n, "left"), "left")
    right = HomModule(alg, n, LinearMap.from_rows(beta_r),
                      ActionTensor.from_entries(act_r, n, n, "right"), "right")
    coalg = HomPoissonCoalgebra(
        n, ComulTensor.from_entries(delta), ComulTensor.from_entries(gamma),
        LinearMap.from_rows(alpha_c), True,
    )
    comod = HomComodule(
        coalg, n, LinearMap.from_rows(beta_c), "poisson",
        CoactionTensor.from_entries(delta_m, n, n), CoactionTensor.from_entries(gamma_m, n, n),
    )
    return [alg, left, right, coalg, comod]


def structure_file(structures: list) -> StructureFile:
    """The five structures of ``build_structures`` as one file."""
    return StructureFile(FILE_VERSION, dict(zip(NAMES, structures)), BASES)


def regular_file(structures: list) -> StructureFile:
    """The algebra and coalgebra of ``build_structures`` with their regular
    modules and comodule, under the same names, as one file."""
    alg, _, _, coalg, _ = structures
    regular = [alg, regular_module(alg, "left"), regular_module(alg, "right"), coalg,
               regular_comodule(coalg)]
    return StructureFile(FILE_VERSION, dict(zip(NAMES, regular)), BASES)


def untwisted(structures: list) -> list:
    """The five structures of ``build_structures`` with alpha = beta = id."""
    alg, left, right, coalg, comod = structures
    one = LinearMap.identity(alg.dim)
    alg = HomAlgebra(alg.dim, alg.mu, one)
    left, right = (HomModule(alg, m.dim_mod, one, m.action, m.side) for m in (left, right))
    coalg = HomPoissonCoalgebra(coalg.dim, coalg.delta, coalg.gamma, one,
                                coalg.cocommutative_expected)
    comod = HomComodule(coalg, comod.dim_mod, one, "poisson", comod.delta_m, comod.gamma_m)
    return [alg, left, right, coalg, comod]


def multiplicative_algebra(n: int) -> HomAlgebra:
    """A dense dim-n algebra with a dense multiplicative alpha: ``x y = l(x) l(y) u``
    and ``alpha = id + a b^T``, with ``u`` all ones, ``l = u^T / n`` and ``a``, ``b``
    drawn with their mean taken out, so ``l(u) = 1`` and ``l(a) = b(u) = 0``."""
    rng = DeterministicRng(2)
    a, b = [[rng.point_entry() for _ in range(n)] for _ in range(2)]
    a, b = [[x - sum(v) / n for x in v] for v in (a, b)]
    mu = [[[Fraction(1, n * n)] * n] * n] * n if n else []
    alpha = [[int(i == j) + a[i] * b[j] for j in range(n)] for i in range(n)]
    return HomAlgebra(n, MulTensor.from_entries(mu), LinearMap.from_rows(alpha))


def sparse_file() -> StructureFile:
    """The ``sparse`` line's four structures as one file.  ``catalog.matrix_algebra``
    stops at k = 3, so the k = 4 constants are stated here, as it states them."""
    k, n = 4, 16
    r = range(k)
    units = {(i * k + j, j * k + m, i * k + m): 1 for i in r for j in r for m in r}
    alg = catalog._algebra(n, units)
    delta = [[[alg.mu.c[i][j][k] for j in range(n)] for i in range(n)] for k in range(n)]
    coalg = HomPoissonCoalgebra(n, ComulTensor.from_entries(delta), ComulTensor.zero(n),
                                LinearMap.identity(n), False)
    structures = {"algebra": alg, "left": regular_module(alg, "left"), "coalgebra": coalg,
                  "comodule": regular_comodule(coalg)}
    return StructureFile(FILE_VERSION, structures, {"left": "algebra", "comodule": "coalgebra"})


def parsed(data: bytes) -> tuple[StructureFile, list]:
    """A fresh parse of ``data`` and its structures' tensors, for ``read_scaled``."""
    sf = parse_bytes(data)
    return sf, [value for structure in sf.structures.values()
                for value in vars(structure).values() if isinstance(value, _Tensor)]


def read_scaled(held: tuple[StructureFile, list]) -> StructureFile:
    """The file of a ``parsed`` pair, once its tensors' ``scaled`` entries are read."""
    for tensor in held[1]:
        tensor.scaled
    return held[0]


def time_sparse(repeat: int) -> list[tuple[str, float]]:
    """(column, best seconds) for the ``sparse`` line: serialize, parse, ``scaled``, suites."""
    names = ("algebra", "left", "coalgebra", "comodule")
    with quiet():
        write, data = best(serialize, repeat, sparse_file)  # fresh tensors: nothing written yet
        read = best(partial(parse_bytes, data), repeat)[0]
        scaled, sf = best(read_scaled, repeat, partial(parsed, data))
        suites = [best(partial(verify, s, native_suite(s)), repeat)[0] for s in map(sf.get, names)]
    return [("serialize", write), ("parse", read), ("scaled", scaled), *zip(names, suites)]


def time_compile() -> list[tuple[str, float]]:
    """(module name, best of 7 ``compile()`` seconds) for each ``src/homstruct/*.py``, sorted."""
    with quiet():
        return [(path.stem, best(partial(compile, path.read_bytes(), str(path), "exec",
                                         dont_inherit=True), 7)[0])
                for path in sorted((SRC / "homstruct").glob("*.py"))]


def time_exec() -> list[tuple[str, float]]:
    """(module name, best of 7 seconds to run its compiled body in a fresh module
    namespace) for each ``src/homstruct/*.py`` but ``__main__.py``, sorted."""
    times = []
    with quiet():
        for path in [p for p in sorted((SRC / "homstruct").glob("*.py")) if p.stem != "__main__"]:
            code = compile(path.read_bytes(), str(path), "exec", dont_inherit=True)
            name = "homstruct" if path.stem == "__init__" else f"homstruct.{path.stem}"
            namespace = {"__name__": name, "__package__": "homstruct", "__file__": str(path)}
            times.append((path.stem, best(partial(exec, code), 7, namespace.copy)[0]))
    return times


def time_records() -> list[tuple[str, float]]:
    """(record, best of 9 seconds per construction, of 2,000 each) for each of ``RECORDS``,
    each built anew from the fields of one built from the dim-8 drawn entries."""
    alg, left, _, coalg, comod = build_structures(8, dense_entries(8))
    witness = Witness((0, 1, 2), (2, -4, 6), 6)
    records = [alg, left, coalg, comod, witness, AxiomReport(LEFT_MODULE, False, (witness,), 1),
               alg.mu, alg.alpha]
    runs = [partial(timeit.Timer(partial(type(r), *r._values())).timeit, 2000) for r in records]
    with quiet():
        return [(name, best(run, 9)[0] / 2000) for name, run in zip(RECORDS, runs)]


def time_catalog(repeat: int) -> tuple[float, str, float, float]:
    """(summed best seconds of ``verify`` of each catalogue entry's pinned suite, warm, the
    slowest entry's name and best seconds, and the summed seconds of each one's first)."""
    times, first = {}, 0.0
    with quiet():
        for entry in catalog.entries():
            run = partial(verify, entry.payload, list(entry.expected_verdicts))
            first += best(run, 1)[0]  # the first: scaled entries read, rows and programs compiled
            times[entry.name] = best(run, repeat)[0]
    slowest = max(times, key=times.get)
    return sum(times.values()), slowest, times[slowest], first


def time_write(n: int, repeat: int) -> tuple[list[tuple[str, float]], int]:
    """((column, best seconds) to build the five dim-n structures from their entries, to
    ``serialize`` their file and ``regular_file``'s; the ``tracemalloc`` peak of the last)."""
    build = partial(build_structures, n, dense_entries(n))
    with quiet():  # fresh tensors for each write: nothing formatted yet
        times = [("build", best(build, repeat)[0]),
                 ("serialize", best(serialize, repeat, lambda: structure_file(build()))[0]),
                 ("regular", best(serialize, repeat, lambda: regular_file(build()))[0])]
    sf = regular_file(build())
    tracemalloc.start()
    serialize(sf)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return times, peak


def time_ingest(n: int, repeat: int) -> list[tuple[str, float]]:
    """(column, best seconds) of ``parse_bytes`` on the five dim-n structures' file, of
    building ``scaled`` on a fresh parse, and of ``serialize`` of one once that is read."""
    data = serialize(structure_file(build_structures(n, dense_entries(n))))
    with quiet():
        return [("parse", best(partial(parse_bytes, data), repeat)[0]),
                ("scaled", best(read_scaled, repeat, partial(parsed, data))[0]),
                ("rewrite", best(serialize, repeat, lambda: read_scaled(parsed(data)))[0])]


def time_suites(structures: list, repeat: int) -> list[float]:
    """Best seconds of ``--suite all`` on each of ``structures``."""
    with quiet():
        return [best(partial(verify, s, native_suite(s)), repeat)[0] for s in structures]


def compiled_bytes(structures: list) -> int:
    """The ``tracemalloc`` size of what ``exact.compiled`` holds after ``--suite all``
    on each of ``structures``, run once on an emptied cache.  The suites ran on them
    before (``time_suites``), so their tensors' ``scaled`` entries are read already: no
    other allocation is kept, and the row keys that ``scaled`` reads are not rebuilt."""
    compiled.cache_clear()
    tracemalloc.start()
    for structure in structures:
        verify(structure, native_suite(structure))
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return held


def time_constructions(n: int, repeat: int) -> list[float]:
    """Best seconds of each of ``CONSTRUCTIONS`` on the dim-n structures."""
    alg, left, _, coalg, comod = build_structures(n, dense_entries(n))
    left = HomModule(multiplicative_algebra(n), n, left.beta, left.action, "left")
    runs = [partial(twist_module, left), partial(twist_poisson_comodule, comod),
            partial(construct, algebras._YAU_TWIST, t=alg.mu, phi=alg.alpha),
            partial(construct, coalgebras._YAU_TWIST, t=coalg.delta, phi=coalg.alpha)]
    with quiet():
        return [best(run, repeat)[0] for run in runs]


def time_laws(n: int, repeat: int, laws=None):
    """Yield (law id, best check seconds, best format seconds, total_failures) at dim n,
    for every registered law or only the ids in ``laws``, each as it is timed."""
    alg, left, right, coalg, comod = build_structures(n, dense_entries(n))
    by_type = {HomAlgebra: alg, HomPoissonCoalgebra: coalg, HomComodule: comod}
    for (kind, axiom), checker in AXIOMS.items():
        if laws is not None and axiom not in laws:
            continue
        structure = by_type.get(kind) or (left if axiom == LEFT_MODULE else right)
        with quiet():
            seconds, report = best(partial(checker, structure), repeat)
            fmt_seconds = best(partial(format_report, report, WITNESS_CAP), repeat)[0]
        yield axiom, seconds, fmt_seconds, report.total_failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=dims, default="6,10,16",
                        help="comma-separated dims (default 6,10,16)")
    parser.add_argument("--repeat", type=int, default=1, help="runs per law; the best is printed")
    parser.add_argument("--laws", help="comma-separated registry ids to time (default: all)")
    args = parser.parse_args(argv)
    laws = None
    if args.laws is not None:
        laws = set(args.laws.split(","))
        unknown = sorted(laws - {axiom for _, axiom in AXIOMS})
        if unknown:
            parser.error(f"--laws names unknown ids: {', '.join(unknown)}")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    line("dim", "law", [f"{'ms':>10}", f"{'fmt_ms':>8}", " failures"])
    for label, timer in (("compile", time_compile), ("exec", time_exec)):
        times = timer()
        line("-", label, ms(times + [("total", sum(seconds for _, seconds in times))]))
    line("-", "records", [f"{name}_ns={seconds * 1e9:.0f}" for name, seconds in time_records()])
    total, slowest, slowest_seconds, first = time_catalog(args.repeat)
    line("-", "catalog", [f"catalog_ms={total * 1000:.3f}", f"slowest={slowest}",
                          *ms([("slowest", slowest_seconds), ("first", first)], 3)])
    line(16, "sparse", ms(time_sparse(args.repeat)))
    for n in args.dims:
        times, peak = time_write(n, args.repeat)
        line(n, "write", ms(times) + [f"regular_kb={peak / 1024:.1f}"])
        line(n, "ingest", ms(time_ingest(n, args.repeat)))
        structures = build_structures(n, dense_entries(n))
        suites = ms(zip(NAMES, time_suites(structures, args.repeat)))
        line(n, "suite", suites + [f"compiled_kb={compiled_bytes(structures) / 1024:.1f}"])
        structures = untwisted(build_structures(n, dense_entries(n)))
        line(n, "untwisted", ms(zip(NAMES, time_suites(structures, args.repeat))))
        line(n, "construct", ms(zip(CONSTRUCTIONS, time_constructions(n, args.repeat))))
        for axiom, check, fmt, failures in time_laws(n, args.repeat, laws):
            line(n, axiom, [f"{check * 1000:>10.2f}", f"{fmt * 1000:>8.2f}", f" {failures}"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
