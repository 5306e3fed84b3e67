#!/usr/bin/env python3
"""Regenerate the fixture files under tests/data.

Run from the repository root:  python3 scripts/gen_fixtures.py [OUTPUT_DIR]
OUTPUT_DIR defaults to tests/data.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from gradeforge import io
from gradeforge.category import disjoint_union, matrix_groupoid, validate_precategory
from gradeforge.magma import magma_from_word, matrix_unit_zero_magma, product_magma, validate_magma

ORDER2_WORDS = ["aaaa", "baaa", "abaa", "aaba", "aaab", "aabb", "bbaa", "abab", "baba", "abba"]

ORDER4_PRODUCTS = [
    ("aaaa", "aaaa"),
    ("aaab", "aaab"),
    ("aabb", "aabb"),
    ("abab", "baba"),
    ("bbaa", "bbaa"),
    ("abba", "abba"),
]


def section3_gamma():
    # objects a=0, b=1; morphisms id_a, id_b, alpha: a->a, beta, gamma: a->b
    # with alpha*alpha = id_a and beta o alpha = gamma (hence gamma o alpha = beta)
    comp = [[None] * 5 for _ in range(5)]
    comp[0][0] = 0
    comp[0][2] = 2
    comp[2][0] = 2
    comp[2][2] = 0
    comp[3][0] = 3
    comp[3][2] = 4
    comp[4][0] = 4
    comp[4][2] = 3
    comp[1][1] = 1
    comp[1][3] = 3
    comp[1][4] = 4
    return validate_precategory(2, [(0, 0), (1, 1), (0, 0), (0, 1), (0, 1)], comp, identity_at=(0, 1))


def one_object_monoid(table, identity):
    n = len(table)
    return validate_precategory(1, [(0, 0)] * n, table, identity_at=(identity,))


def main(out=None):
    data = pathlib.Path(out) if out else pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"
    data.mkdir(parents=True, exist_ok=True)

    for word in ORDER2_WORDS:
        (data / f"{word}.mag").write_text(io.print_magma(magma_from_word(word)), encoding="utf-8")

    for left, right in ORDER4_PRODUCTS:
        prod = product_magma(magma_from_word(left), magma_from_word(right))
        (data / f"prod_{left}_{right}.mag").write_text(io.print_magma(prod), encoding="utf-8")

    # three-element zero magma {a, b, 0} with a*a = a, b*b = b, everything else 0,
    # and the two-element zero magma {c, 0}
    g3 = validate_magma(3, [[0, 2, 2], [2, 1, 2], [2, 2, 2]], zero=2)
    h2 = validate_magma(2, [[0, 1], [1, 1]], zero=1)
    (data / "idem_pair_zero3.mag").write_text(io.print_magma(g3), encoding="utf-8")
    (data / "idem_zero2.mag").write_text(io.print_magma(h2), encoding="utf-8")

    (data / "g2.mag").write_text(io.print_magma(matrix_unit_zero_magma(2)), encoding="utf-8")

    z2_zero = validate_magma(3, [[0, 1, 2], [1, 0, 2], [2, 2, 2]], zero=2)
    (data / "z2_with_zero.mag").write_text(io.print_magma(z2_zero), encoding="utf-8")

    gamma = section3_gamma()
    (data / "gamma.cat").write_text(io.print_category(gamma), encoding="utf-8")
    (data / "lambda_z2.cat").write_text(io.print_category(one_object_monoid([[0, 1], [1, 0]], 0)), encoding="utf-8")
    (data / "lambda_idem.cat").write_text(io.print_category(one_object_monoid([[0, 1], [1, 1]], 0)), encoding="utf-8")
    (data / "mg2.cat").write_text(io.print_category(matrix_groupoid(2)), encoding="utf-8")
    (data / "two_mg2.cat").write_text(io.print_category(disjoint_union(matrix_groupoid(2), matrix_groupoid(2))), encoding="utf-8")
    # the two-element group at object 0 beside an object 1 that no morphism touches
    bare_z2 = validate_precategory(2, [(0, 0), (0, 0)], [[0, 1], [1, 0]], identity_at=(0, None))
    (data / "bare_z2.cat").write_text(io.print_category(bare_z2), encoding="utf-8")

    presented = "\n".join(
        [
            "category 2 8",
            "groupoid-presentation",
            "component 0 1",
            "vertex-group 2",
            "0 1",
            "1 0",
            "tree 1 0",
        ]
    ) + "\n"
    (data / "gz2_presented.cat").write_text(presented, encoding="utf-8")

    print(f"wrote fixtures to {data}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
