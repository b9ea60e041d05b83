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
(``total_ms``).  Then one ``catalog`` line (dim ``-``): ``axioms.verify`` of
each catalogue entry's pinned suite on warm tensors (its ``scaled`` entries
and plan programs already built), best of ``--repeat`` per entry, summed over
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
plans, sink offsets and spreads, but not the row keys of each shape, which
``scaled`` read before the cache was emptied.  Then one ``untwisted`` line, the same
on the five structures with ``alpha`` and ``beta`` replaced by the
identity, whose plans drop those operands.  Then one ``construct`` line: the best
time in ms of ``modules.twist_module`` on the left module rebased on a dense
algebra whose dense alpha is multiplicative (``multiplicative_algebra``; the
twist checks that first), ``twist_module_ms``, of
``comodules.twist_poisson_comodule`` on the comodule
(``twist_comodule_ms``), and of ``laws.construct`` on the Yau twist's row
for the algebra's ``mu`` and on the coalgebra Yau twist's row for the
coalgebra's ``delta``, each along the structure's own ``alpha``
(``then_map_ms``, ``precompose_ms``: ``phi . mu`` and ``delta . phi``).  The
first run on each structure also builds its tensors' cached scaled entries;
with ``--repeat`` above 1 the best time leaves that out.  Each law (and each timed layer) starts after a
full garbage collection and runs with the collector off, so no collection
pause lands in its time.

    python3 scripts/time_laws.py --dims 6,10,16 [--repeat 3] [--laws ID[,ID...]]
"""

import argparse
import gc
import pathlib
import sys
import time
import tracemalloc
from fractions import Fraction

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
from homstruct.report import WITNESS_CAP, format_report  # noqa: E402


NAMES = ("algebra", "left", "right", "coalgebra", "comodule")
BASES = {"left": "algebra", "right": "algebra", "comodule": "coalgebra"}
CONSTRUCTIONS = ("twist_module", "twist_comodule", "then_map", "precompose")


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


def time_sparse(repeat: int) -> list[tuple[str, float]]:
    """(column, best seconds) for the ``sparse`` line: serialize, parse, ``scaled``, then
    the suites."""
    best = dict.fromkeys(["serialize", "parse", "scaled"], float("inf"))
    gc.collect()
    gc.disable()
    for _ in range(repeat):
        sf = sparse_file()  # fresh tensors: nothing written yet
        start = time.perf_counter()
        data = serialize(sf)
        best["serialize"] = min(best["serialize"], time.perf_counter() - start)
        start = time.perf_counter()
        sf = parse_bytes(data)
        best["parse"] = min(best["parse"], time.perf_counter() - start)
        tensors = [value for structure in sf.structures.values()
                   for value in vars(structure).values() if isinstance(value, _Tensor)]
        start = time.perf_counter()
        for tensor in tensors:
            tensor.scaled
        best["scaled"] = min(best["scaled"], time.perf_counter() - start)
    for name in ("algebra", "left", "coalgebra", "comodule"):
        structure = sf.get(name)
        suite, best[name] = native_suite(structure), float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            verify(structure, suite)
            best[name] = min(best[name], time.perf_counter() - start)
    gc.enable()
    return list(best.items())


def time_compile() -> list[tuple[str, float]]:
    """(module name, best of 7 ``compile()`` seconds) for each ``src/homstruct/*.py``, sorted."""
    best = []
    gc.collect()
    gc.disable()
    for path in sorted((SRC / "homstruct").glob("*.py")):
        source, seconds = path.read_bytes(), float("inf")
        for _ in range(7):
            start = time.perf_counter()
            compile(source, str(path), "exec", dont_inherit=True)
            seconds = min(seconds, time.perf_counter() - start)
        best.append((path.stem, seconds))
    gc.enable()
    return best


def time_exec() -> list[tuple[str, float]]:
    """(module name, best of 7 seconds to run its compiled body in a fresh module
    namespace) for each ``src/homstruct/*.py`` but ``__main__.py``, sorted."""
    best = []
    gc.collect()
    gc.disable()
    for path in sorted((SRC / "homstruct").glob("*.py")):
        if path.stem == "__main__":
            continue
        code = compile(path.read_bytes(), str(path), "exec", dont_inherit=True)
        seconds = float("inf")
        name = "homstruct" if path.stem == "__init__" else f"homstruct.{path.stem}"
        for _ in range(7):
            namespace = {"__name__": name, "__package__": "homstruct", "__file__": str(path)}
            start = time.perf_counter()
            exec(code, namespace)
            seconds = min(seconds, time.perf_counter() - start)
        best.append((path.stem, seconds))
    gc.enable()
    return best


def time_catalog(repeat: int) -> tuple[float, str, float, float]:
    """(summed best seconds of ``verify`` of each catalogue entry's pinned suite,
    warm, the slowest entry's name and best seconds, and the summed seconds of
    each entry's first ``verify`` in the process)."""
    best, first = {}, 0.0
    gc.collect()
    gc.disable()
    for entry in catalog.entries():
        structure, suite = entry.payload, list(entry.expected_verdicts)
        start = time.perf_counter()
        verify(structure, suite)  # the first: scaled entries read, rows and programs compiled
        first += time.perf_counter() - start
        seconds = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            verify(structure, suite)
            seconds = min(seconds, time.perf_counter() - start)
        best[entry.name] = seconds
    gc.enable()
    slowest = max(best, key=best.get)
    return sum(best.values()), slowest, best[slowest], first


def time_write(n: int, repeat: int) -> tuple[float, float, float, int]:
    """(best seconds to build the five dim-n structures from their entries,
    best ``serialize`` seconds of their file, and of ``regular_file``'s, and the
    ``tracemalloc`` peak in bytes of serializing ``regular_file``'s)."""
    entries = dense_entries(n)
    best_build = best_write = best_regular = float("inf")
    gc.collect()
    gc.disable()
    for _ in range(repeat):
        start = time.perf_counter()
        structures = build_structures(n, entries)
        best_build = min(best_build, time.perf_counter() - start)
        sf = structure_file(structures)
        start = time.perf_counter()
        serialize(sf)
        best_write = min(best_write, time.perf_counter() - start)
        sf = regular_file(build_structures(n, entries))  # fresh tensors: nothing formatted yet
        start = time.perf_counter()
        serialize(sf)
        best_regular = min(best_regular, time.perf_counter() - start)
    gc.enable()
    sf = regular_file(build_structures(n, entries))
    tracemalloc.start()
    serialize(sf)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return best_build, best_write, best_regular, peak


def time_ingest(n: int, repeat: int) -> tuple[float, float, float]:
    """(best ``parse_bytes`` seconds, best seconds to build ``scaled``, best
    ``serialize`` seconds of the parsed file) for the five dim-n structures,
    serialized as one file."""
    data = serialize(structure_file(build_structures(n, dense_entries(n))))
    best_parse = best_build = best_rewrite = float("inf")
    gc.collect()
    gc.disable()
    for _ in range(repeat):
        start = time.perf_counter()
        sf = parse_bytes(data)
        best_parse = min(best_parse, time.perf_counter() - start)
        alg, left, right, coalg, comod = map(sf.get, NAMES)
        tensors = [alg.mu, alg.alpha, left.beta, left.action, right.beta, right.action,
                   coalg.delta, coalg.gamma, coalg.alpha, comod.beta, comod.delta_m, comod.gamma_m]
        start = time.perf_counter()
        for tensor in tensors:
            tensor.scaled
        best_build = min(best_build, time.perf_counter() - start)
        start = time.perf_counter()
        serialize(sf)
        best_rewrite = min(best_rewrite, time.perf_counter() - start)
    gc.enable()
    return best_parse, best_build, best_rewrite


def time_suites(structures: list, repeat: int) -> list[float]:
    """Best seconds of ``--suite all`` on each of ``structures``."""
    best = []
    gc.collect()
    gc.disable()
    for structure in structures:
        suite, seconds = native_suite(structure), float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            verify(structure, suite)
            seconds = min(seconds, time.perf_counter() - start)
        best.append(seconds)
    gc.enable()
    return best


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
    runs = [lambda: twist_module(left), lambda: twist_poisson_comodule(comod),
            lambda: construct(algebras._YAU_TWIST, t=alg.mu, phi=alg.alpha),
            lambda: construct(coalgebras._YAU_TWIST, t=coalg.delta, phi=coalg.alpha)]
    best = []
    gc.collect()
    gc.disable()
    for run in runs:
        seconds = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            run()
            seconds = min(seconds, time.perf_counter() - start)
        best.append(seconds)
    gc.enable()
    return best


def time_laws(n: int, repeat: int, laws=None) -> list[tuple[str, float, float, int]]:
    """(law id, best check seconds, best format seconds, total_failures) at dim n,
    for every registered law or only the ids in ``laws``."""
    alg, left, right, coalg, comod = build_structures(n, dense_entries(n))
    by_type = {HomAlgebra: alg, HomPoissonCoalgebra: coalg, HomComodule: comod}
    rows = []
    for (kind, axiom), checker in AXIOMS.items():
        if laws is not None and axiom not in laws:
            continue
        structure = by_type.get(kind) or (left if axiom == LEFT_MODULE else right)
        best = best_fmt = float("inf")
        gc.collect()
        gc.disable()
        for _ in range(repeat):
            start = time.perf_counter()
            report = checker(structure)
            best = min(best, time.perf_counter() - start)
        for _ in range(repeat):
            start = time.perf_counter()
            format_report(report, WITNESS_CAP)
            best_fmt = min(best_fmt, time.perf_counter() - start)
        gc.enable()
        rows.append((axiom, best, best_fmt, report.total_failures))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", default="6,10,16", help="comma-separated dims (default 6,10,16)")
    parser.add_argument("--repeat", type=int, default=1, help="runs per law; the best is printed")
    parser.add_argument("--laws", help="comma-separated registry ids to time (default: all)")
    args = parser.parse_args(argv)
    laws = None
    if args.laws is not None:
        laws = set(args.laws.split(","))
        unknown = sorted(laws - {axiom for _, axiom in AXIOMS})
        if unknown:
            parser.error(f"--laws names unknown ids: {', '.join(unknown)}")
    try:
        dims = [int(d) for d in args.dims.split(",")]
    except ValueError:
        parser.error(f"--dims must be comma-separated integers, not {args.dims!r}")
    if args.repeat < 1 or any(d < 0 for d in dims):
        parser.error("--repeat must be >= 1 and every dim >= 0")
    print(f"{'dim':>3}  {'law':<32} {'ms':>10} {'fmt_ms':>8}  failures")
    compiles = time_compile()
    compiles.append(("total", sum(seconds for _, seconds in compiles)))
    compiles = " ".join(f"{name}_ms={seconds * 1000:.2f}" for name, seconds in compiles)
    print(f"{'-':>3}  {'compile':<32} {compiles}", flush=True)
    execs = time_exec()
    execs.append(("total", sum(seconds for _, seconds in execs)))
    execs = " ".join(f"{name}_ms={seconds * 1000:.2f}" for name, seconds in execs)
    print(f"{'-':>3}  {'exec':<32} {execs}", flush=True)
    total, slowest, slowest_seconds, first = time_catalog(args.repeat)
    print(f"{'-':>3}  {'catalog':<32} catalog_ms={total * 1000:.3f} slowest={slowest}"
          f" slowest_ms={slowest_seconds * 1000:.3f} first_ms={first * 1000:.3f}", flush=True)
    sparse = " ".join(f"{name}_ms={seconds * 1000:.2f}"
                      for name, seconds in time_sparse(args.repeat))
    print(f"{16:>3}  {'sparse':<32} {sparse}", flush=True)
    for n in dims:
        build_seconds, write_seconds, regular_seconds, peak = time_write(n, args.repeat)
        print(f"{n:>3}  {'write':<32} build_ms={build_seconds * 1000:.2f}"
              f" serialize_ms={write_seconds * 1000:.2f}"
              f" regular_ms={regular_seconds * 1000:.2f} regular_kb={peak / 1024:.1f}", flush=True)
        parse_seconds, build_seconds, rewrite_seconds = time_ingest(n, args.repeat)
        print(f"{n:>3}  {'ingest':<32} parse_ms={parse_seconds * 1000:.2f}"
              f" scaled_ms={build_seconds * 1000:.2f}"
              f" rewrite_ms={rewrite_seconds * 1000:.2f}", flush=True)
        structures = build_structures(n, dense_entries(n))
        suites = " ".join(f"{name}_ms={seconds * 1000:.2f}" for name, seconds
                          in zip(NAMES, time_suites(structures, args.repeat)))
        held = compiled_bytes(structures)
        print(f"{n:>3}  {'suite':<32} {suites} compiled_kb={held / 1024:.1f}", flush=True)
        suites = " ".join(f"{name}_ms={seconds * 1000:.2f}" for name, seconds in zip(
            NAMES, time_suites(untwisted(build_structures(n, dense_entries(n))), args.repeat)))
        print(f"{n:>3}  {'untwisted':<32} {suites}", flush=True)
        constructs = zip(CONSTRUCTIONS, time_constructions(n, args.repeat))
        constructs = " ".join(f"{name}_ms={seconds * 1000:.2f}" for name, seconds in constructs)
        print(f"{n:>3}  {'construct':<32} {constructs}", flush=True)
        for axiom, seconds, fmt_seconds, failures in time_laws(n, args.repeat, laws):
            print(f"{n:>3}  {axiom:<32} {seconds * 1000:>10.2f} {fmt_seconds * 1000:>8.2f}"
                  f"  {failures}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
