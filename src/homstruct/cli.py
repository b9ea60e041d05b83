"""Batch command-line interface.

Verbs: verify, twist, transform, check-morphism, catalog list/export.
Exit codes: 0 when everything requested holds, 1 on any axiom or
precondition failure, 2 on input or format errors.  Argv is parsed once,
by the verb's own parser (``parse_args``).  A reader that closes stdout
early (``| head``) cuts the output short but leaves the exit code as is.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import axioms, catalog
from .errors import FormatError, KernelError, KindMismatch
from .exact import LinearMap, parse_rational
from .fileformat import TYPES, StructureFile, parse_file, serialize, single_structure_file, write_file
from .report import WITNESS_CAP, format_report


def _print(text: str, end: str = "\n") -> None:
    """Write ``text`` to stdout and flush it.  Once the reader has closed the pipe,
    stdout goes to the null device, so neither later output nor the interpreter's
    last flush fails again."""
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, sys.stdout.fileno())
        finally:
            os.close(null)


def cmd_verify(args) -> int:
    sf = parse_file(args.file)
    structure = sf.get(args.name)
    suite = [token.strip() for token in args.suite.split(",") if token.strip()]
    if not suite:
        raise FormatError("empty suite")
    if "all" in suite:
        if suite != ["all"]:
            raise FormatError("'all' stands alone in --suite, not beside other ids")
        suite = axioms.native_suite(structure)
    reports = axioms.verify(structure, suite)
    # Format every report before printing any, so a FormatError prints nothing.
    _print("\n".join(line for report in reports for line in format_report(report, args.max_witnesses)))
    return 0 if all(r.holds for r in reports) else 1


def _resolve_endo(sf: StructureFile, spec: str, dim: int) -> LinearMap:
    if spec == "id":
        return LinearMap.identity(dim)
    if spec.startswith("diag:"):
        values = [parse_rational(piece) for piece in spec[len("diag:") :].split(",")]
        if len(values) != dim:
            raise FormatError(f"diag endomorphism needs {dim} entries")
        return LinearMap.diagonal(values)
    target = sf.get(spec)
    if not isinstance(target, LinearMap):
        raise FormatError(f"{spec!r} is not a linear map entry")
    if not target.is_square(dim):
        raise FormatError(f"endomorphism {spec!r} is not {dim} x {dim}")
    return target


def _replace(sf: StructureFile, name: str, new_structure, new_name: str | None) -> StructureFile:
    structures = dict(sf.structures)
    base_of = dict(sf.base_of)
    if name in base_of:  # a (co)module's transform rewrites its base; a twist keeps it
        structures[base_of[name]] = getattr(new_structure, TYPES[type(new_structure)].base)
    if new_name is None:
        structures[name] = new_structure
        for other in [key for key in base_of if base_of[key] == name]:  # entries over it
            base = TYPES[type(structures[other])].base
            structures[other] = dataclasses.replace(structures[other], **{base: new_structure})
    else:
        structures[new_name] = new_structure
        if name in base_of:
            base_of[new_name] = base_of[name]
    return StructureFile(sf.version, structures, base_of)


# The construction or check each verb runs, by entry type (and a comodule's kind, or the op):
# each kind's ``VERBS``, flattened, so that perfbench's tracer sees every function in them.
_VERBS = {cls: kind.verbs for cls, kind in TYPES.items() if kind.verbs}
_TWISTS = {(cls, variant): f for cls, verbs in _VERBS.items() for variant, f in verbs["twists"].items()}
_TRANSFORMS = {(cls, op): f for cls, verbs in _VERBS.items() for op, f in verbs["transforms"].items()}
_MORPHISMS = {cls: verbs["morphism"] for cls, verbs in _VERBS.items()}


def cmd_twist(args) -> int:
    sf = parse_file(args.file)
    structure = sf.get(args.name)
    if args.rename == "":
        raise FormatError("--as needs a nonempty name")
    if args.rename in sf.structures:
        raise FormatError(f"--as {args.rename!r} names an entry already in the file")
    kind = TYPES[type(structure)]
    variant = kind.variant_of(structure)
    twist = _TWISTS.get((type(structure), variant))
    if twist is None:
        raise KindMismatch("entry cannot be twisted")
    if kind.base is None:  # an algebra or coalgebra twists along a map
        if args.endo is None:
            raise FormatError("this twist needs --endo")
        twisted = twist(structure, _resolve_endo(sf, args.endo, structure.dim))
    elif args.endo is not None:
        raise FormatError(f"{kind.noun} twists take no endomorphism")
    else:
        twisted = twist(structure)
    if variant == "right":
        _print("note: right-module twist uses the mirrored composition"
               " (algebra argument fed through alpha^2)")
    write_file(args.out, _replace(sf, args.name, twisted, args.rename))
    _print(f"wrote {args.out}")
    return 0


def cmd_transform(args) -> int:
    sf = parse_file(args.file)
    structure = sf.get(args.name)
    # the transform rewrites the entry, or a module's or comodule's base entry,
    # so another entry over what it rewrites would silently change too
    base = sf.base_of.get(args.name, args.name)
    sharing = sorted(name for name, ref in sf.base_of.items() if ref == base and name != args.name)
    if sharing:
        raise FormatError(f"{base!r} is the base of {sharing[0]!r}" if base == args.name
                          else f"base {base!r} of {args.name!r} is shared with {sharing[0]!r}")
    transform = _TRANSFORMS.get((type(structure), args.op))
    if transform is None:  # a type that negates but has no other transform is a comodule
        raise KindMismatch("comodules only support negation" if (type(structure), "negate") in _TRANSFORMS
                           else "entry cannot be transformed")
    result = transform(structure)
    # transforms of modules/comodules rewrite their base entry in place, so
    # the result always replaces the original name
    write_file(args.out, _replace(sf, args.name, result, None))
    _print(f"wrote {args.out}")
    return 0


def cmd_check_morphism(args) -> int:
    sf = parse_file(args.file)
    f = sf.get(args.map)
    if not isinstance(f, LinearMap):
        raise FormatError(f"{args.map!r} is not a linear map entry")
    src = sf.get(getattr(args, "from"))
    dst = sf.get(args.to)
    check = _MORPHISMS.get(type(src))
    if check is None or type(dst) is not type(src):
        raise KindMismatch("morphism endpoints have different or unsupported kinds")
    base = TYPES[type(src)].base  # a module or comodule: the map acts on its dim_mod
    dims = [getattr(end, "dim_mod" if base else "dim") for end in (src, dst)]
    if [f.dim_in, f.dim_out] != dims:
        raise FormatError(f"morphism {args.map!r} does not take dim {dims[0]} to dim {dims[1]}")
    # --strict reaches (co)module morphisms only: an algebra's or coalgebra's always checks alpha
    report = check(f, src, dst, strict=args.strict) if base else check(f, src, dst)
    _print("\n".join(format_report(report, args.max_witnesses)))
    return 0 if report.holds else 1


def _catalog_file(entry: catalog.CatalogEntry) -> StructureFile:
    base = TYPES[type(entry.payload)].base
    if base is None:
        return single_structure_file(entry.name, entry.payload)
    return single_structure_file(entry.name, entry.payload,
                                 (f"{entry.name}_{base}", getattr(entry.payload, base)))


def cmd_catalog(args) -> int:
    if args.action == "list":
        if args.name is not None or args.out is not None:
            raise FormatError("catalog list takes no name and no --out")
        lines = []
        for entry in catalog.entries():
            kind = type(entry.payload).__name__
            verdicts = ",".join(
                f"{axiom}={'pass' if value else 'fail'}"
                for axiom, value in entry.expected_verdicts.items()
            )
            lines.append(f"{entry.name}  {kind}  {verdicts}")
        _print("\n".join(lines))
        return 0
    if not args.name:
        raise FormatError("catalog export needs a name")
    try:
        entry = catalog.get(args.name)
    except KeyError:
        raise FormatError(f"no catalogue entry named {args.name!r}")
    if args.out:
        write_file(args.out, _catalog_file(entry))
        _print(f"wrote {args.out}")
    else:
        _print(serialize(_catalog_file(entry)).decode("utf-8"), end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="homstruct",
        description="Exact verification and twisting of Hom-algebraic structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run axiom checks on a structure in a file")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("--suite", default="all", help="comma-separated axiom ids, or 'all'")
    p.add_argument("--max-witnesses", type=int, default=WITNESS_CAP)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("twist", help="twist a structure and write the result")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("--endo", help="linear map entry name, 'id', or diag:a,b,...")
    p.add_argument("--out", required=True)
    p.add_argument("--as", dest="rename", help="store the result under a new name")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("transform", help="negate or oppose a structure")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("op", choices=["negate", "opposite"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("check-morphism", help="check a stored linear map between structures")
    p.add_argument("file")
    p.add_argument("map")
    p.add_argument("from")
    p.add_argument("to")
    p.add_argument("--strict", action="store_true", help="also require commuting with beta")
    p.add_argument("--max-witnesses", type=int, default=WITNESS_CAP)
    p.set_defaults(func=cmd_check_morphism)

    p = sub.add_parser("catalog", help="list or export built-in structures")
    p.add_argument("action", choices=["list", "export"])
    p.add_argument("name", nargs="?")
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)

    parser.verbs = sub.choices  # verb -> its own parser
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """``argv`` parsed once, a known verb's by its own parser.  All else (no verb, an unknown
    verb, ``-h``, arguments left over) goes to the top-level parser, for its text and exit code."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = parser.verbs.get(argv[0]) if argv else None
    if verb is not None:
        args, rest = verb.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if getattr(args, "max_witnesses", 0) < 0:
            raise FormatError("--max-witnesses must be nonnegative")
        return args.func(args)
    except KernelError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, FormatError) else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
