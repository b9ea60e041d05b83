#!/usr/bin/env python3
"""Regenerate the canonical golden files under tests/data/.

Run from the repository root:  python3 scripts/regen_golden.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from homstruct.catalog import (  # noqa: E402
    dual_numbers,
    non_alternative_dim2,
    octonions,
    poisson_dual_dim4,
    primitive_coalgebra,
)
from homstruct.comodules import HomComodule, regular_comodule  # noqa: E402
from homstruct.exact import ActionTensor, CoactionTensor, LinearMap  # noqa: E402
from homstruct.fileformat import StructureFile, serialize  # noqa: E402
from homstruct.modules import HomModule, regular_module  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"


def corpus_file() -> StructureFile:
    dual, scale = dual_numbers(2)
    primitive = primitive_coalgebra()
    structures = {
        "dual_numbers": dual,
        "dual_scale": scale,
        "bad_scale": LinearMap.diagonal([2, 1]),
        "dual_regular": regular_module(dual),
        "dual_mul_map": LinearMap.from_rows([[1, 0], [2, 1]]),
        "octonions": octonions(),
        "non_alternative2": non_alternative_dim2(),
        "primitive2": primitive,
        "primitive2_regular": regular_comodule(primitive),
        "poisson_dual4": poisson_dual_dim4(),
        "poisson_dual4_regular": regular_comodule(poisson_dual_dim4()),
        "line_comodule": HomComodule(
            primitive,
            1,
            LinearMap.identity(1),
            "coassociative",
            CoactionTensor.from_entries([[[1], [0]]], 2, 1),
        ),
        "line_embed": LinearMap.from_rows([[1], [0]]),
        "zero_map2": LinearMap.zero(2, 2),
        "mod_beta2": HomModule(
            dual, 1, LinearMap.diagonal([2]), ActionTensor.zero(2, 1, "left"), "left"
        ),
        "mod_beta3": HomModule(
            dual, 1, LinearMap.diagonal([3]), ActionTensor.zero(2, 1, "left"), "left"
        ),
        "unit_map1": LinearMap.diagonal([1]),
    }
    base_of = {
        "dual_regular": "dual_numbers",
        "mod_beta2": "dual_numbers",
        "mod_beta3": "dual_numbers",
        "primitive2_regular": "primitive2",
        "poisson_dual4_regular": "poisson_dual4",
        "line_comodule": "primitive2",
    }
    return StructureFile(1, structures, base_of)


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    (DATA / "corpus.json").write_bytes(serialize(corpus_file()))

    from homstruct.fileformat import single_structure_file

    (DATA / "golden_octonions.json").write_bytes(
        serialize(single_structure_file("octonions", octonions()))
    )

    (DATA / "bad_rational.json").write_text(
        '{"version":1,"structures":{"a":{"kind":"hom_algebra","dim":1,'
        '"mul":[[["1/0"]]],"alpha":[["1"]]}}}\n'
    )
    (DATA / "bad_notlowest.json").write_text(
        '{"version":1,"structures":{"a":{"kind":"hom_algebra","dim":1,'
        '"mul":[[["2/4"]]],"alpha":[["1"]]}}}\n'
    )
    (DATA / "bad_reference.json").write_text(
        '{"version":1,"structures":{"m":{"kind":"hom_module","algebra":"missing",'
        '"side":"left","dim":1,"beta":[["1"]],"action":[[["0"]]]}}}\n'
    )
    (DATA / "bad_shape.json").write_text(
        '{"version":1,"structures":{"a":{"kind":"hom_algebra","dim":2,'
        '"mul":[[["1"]]],"alpha":[["1","0"],["0","1"]]}}}\n'
    )
    (DATA / "bad_version.json").write_text('{"version":2,"structures":{}}\n')
    print(f"wrote golden files to {DATA}")


if __name__ == "__main__":
    main()
