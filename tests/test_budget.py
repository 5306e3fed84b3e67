import inspect
import json

import pytest

from gradeforge import algebra, category, counting, io, magma
from gradeforge.algebra import category_algebra, magma_algebra
from gradeforge.budget import DEFAULT_BUDGET, Budget, NodeCounter
from gradeforge.category import (
    adjoin_zero,
    connected_groupoid,
    disjoint_union,
    group_as_category,
    matrix_groupoid,
    product_category,
    validate_precategory,
)
from gradeforge.errors import SizeOverflowError, ValidationError
from gradeforge.io import parse_category, parse_family, print_category
from gradeforge.magma import (
    abelian_group_magma,
    cyclic_group_magma,
    matrix_unit_zero_magma,
    product_magma,
    with_zero_adjoined,
)

# Every public function that spends search nodes, and no other: a constructor that only checks the
# order cap takes no budget.
BUDGETED = {
    "algebra.enumerate_category_filters", "algebra.enumerate_category_gradings",
    "algebra.enumerate_elementary_filters", "algebra.enumerate_elementary_gradings",
    "algebra.enumerate_nonzero_elementary_filters", "algebra.enumerate_nonzero_elementary_gradings",
    "category.enumerate_functors", "category.enumerate_prefunctors",
    "category.enumerate_subprecategories", "category.enumerate_subprecategory_pairs",
    "counting.abelian_homs_report", "counting.count_disconnected", "counting.count_functors_connected_groupoids",
    "counting.matrix_group_gradings_report", "counting.subspaces_report", "counting.surjective_functions_report",
    "magma.are_isomorphic", "magma.canonical_form", "magma.census", "magma.enumerate_homs",
    "magma.enumerate_product_submagmas", "magma.enumerate_submagmas", "magma.enumerate_zero_homs",
    "magma.enumerate_zero_submagmas",
}


def test_every_public_budget_parameter_defaults_to_the_default_budget():
    budgeted = {
        f"{module.__name__}.{name}": inspect.signature(value).parameters["budget"]
        for module in (magma, category, algebra, counting, io)
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
        and "budget" in inspect.signature(value).parameters
    }
    assert set(budgeted) == {f"gradeforge.{name}" for name in BUDGETED}
    assert [name for name, param in budgeted.items() if param.default is not DEFAULT_BUDGET] == []


@pytest.mark.parametrize("fields", [{"max_nodes": None}, {"max_nodes": True}], ids=["nodes-none", "nodes-bool"])
def test_caps_are_plain_ints_of_at_least_zero(fields):
    # Accepted before, each of these raised a bare TypeError at the first spend, or capped nothing.
    with pytest.raises(ValidationError):
        Budget(**fields)


def test_zero_caps_stay_valid():
    # The CLI's count surjections runs its oracle at Budget(max_nodes=0), which skips it.
    assert Budget(max_nodes=0) == Budget(0)
    with pytest.raises(SizeOverflowError):
        NodeCounter(Budget(max_nodes=0)).spend()


def _group(q: int):
    return group_as_category(cyclic_group_magma(q).table)


def _bare(n: int):
    """n objects and no morphisms."""
    return validate_precategory(n, [], [])


def _thin(*sizes):
    """The disjoint union of matrix_groupoid(n) for each n: sum(n * n) morphisms."""
    cat = matrix_groupoid(sizes[0])
    for n in sizes[1:]:
        cat = disjoint_union(cat, matrix_groupoid(n))
    return cat


def _family_doc(target) -> str:
    return json.dumps({"kind": "family", "target": {"format": "category", "text": print_category(target)}, "parts": {}})


Z2_TABLE = cyclic_group_magma(2).table
Z65_TABLE = [[(g + h) % 65 for h in range(65)] for g in range(65)]
Z2_ALGEBRA = magma_algebra(cyclic_group_magma(2))

# Each constructor that checks the order cap: a call it accepts, whose structure is at the cap (or
# the largest it builds, for the matrix units), and a call just past the cap, which it refuses.
# adjoin_zero, category_algebra and parse_family adjoin a zero, so 63 morphisms reach the cap.
AT_AND_PAST_THE_CAP = {
    "product_magma": (lambda: product_magma(cyclic_group_magma(8), cyclic_group_magma(8)),
                      lambda: product_magma(cyclic_group_magma(5), cyclic_group_magma(13))),
    "with_zero_adjoined": (lambda: with_zero_adjoined(cyclic_group_magma(63)),
                           lambda: with_zero_adjoined(cyclic_group_magma(64))),
    "cyclic_group_magma": (lambda: cyclic_group_magma(64), lambda: cyclic_group_magma(65)),
    "abelian_group_magma": (lambda: abelian_group_magma([8, 8]), lambda: abelian_group_magma([5, 13])),
    "matrix_unit_zero_magma": (lambda: matrix_unit_zero_magma(7), lambda: matrix_unit_zero_magma(8)),
    "validate_precategory": (lambda: validate_precategory(64, [], []), lambda: validate_precategory(65, [], [])),
    "connected_groupoid": (lambda: connected_groupoid(4, cyclic_group_magma(4).table),
                           lambda: connected_groupoid(1, Z65_TABLE)),
    "matrix_groupoid": (lambda: matrix_groupoid(8), lambda: matrix_groupoid(9)),
    "product_category": (lambda: product_category(matrix_groupoid(8), matrix_groupoid(1)),
                         lambda: product_category(_group(5), _group(13))),
    "product_category:objects": (lambda: product_category(_bare(8), _bare(8)),
                                 lambda: product_category(_bare(8), _bare(9))),
    "disjoint_union": (lambda: disjoint_union(connected_groupoid(4, Z2_TABLE), connected_groupoid(4, Z2_TABLE)),
                       lambda: disjoint_union(matrix_groupoid(8), matrix_groupoid(1))),
    "adjoin_zero": (lambda: adjoin_zero(_thin(7, 3, 2, 1)), lambda: adjoin_zero(matrix_groupoid(8))),
    "category_algebra": (lambda: category_algebra(_thin(7, 3, 2, 1)), lambda: category_algebra(matrix_groupoid(8))),
    "parse_category": (lambda: parse_category("category 64 0\n"), lambda: parse_category("category 65 0\n")),
    "parse_family": (lambda: parse_family(_family_doc(_thin(7, 3, 2, 1)), Z2_ALGEBRA),
                     lambda: parse_family(_family_doc(matrix_groupoid(8)), Z2_ALGEBRA)),
}


@pytest.mark.parametrize("name", sorted(AT_AND_PAST_THE_CAP))
def test_one_order_cap_for_every_constructor(name):
    at_the_cap, past_the_cap = AT_AND_PAST_THE_CAP[name]
    at_the_cap()
    with pytest.raises(SizeOverflowError, match="exceeds the cap of 64"):
        past_the_cap()
