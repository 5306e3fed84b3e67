"""Every exported name under counts and indices of every kind: a result or a ToolkitError.

For each name that ``gradeforge`` exports with int-typed arguments, Hypothesis draws values for
them: negative, zero, in-range and past-the-cap ints, bools, integral and fractional floats,
strings and None.  Structured arguments (tables, morphism maps) stay fixed.  Each call must return
or raise a ToolkitError, and a magma or precategory it returns prints and parses back equal.
"""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

import gradeforge as gf
from gradeforge.budget import MAX_ORDER
from gradeforge.io import parse_category, parse_magma, print_category, print_magma

CAP = MAX_ORDER
# Nothing in the API bounds the closed forms ((p*q^(m-1))^(n^m) for one), so their draws stay small.
SMALL = 2

Z2 = gf.cyclic_group_magma(2)
AAAB = gf.magma_from_word("aaab")  # element 0 absorbs
Z2_ZERO = gf.with_zero_adjoined(Z2)
MG2 = gf.matrix_groupoid(2)
Z2_ALGEBRA = gf.magma_algebra(Z2)

# name -> (the cap of each int-typed argument, the call); a name may have several calls, one per
# group of arguments, as "name:arguments".
CALLS = {
    "Budget": ((CAP,), lambda nodes: gf.canonical_form(Z2, gf.Budget(nodes))),
    "PairRelation": ((2, 2), lambda g, h: gf.PairRelation(Z2, Z2, frozenset({(g, h)}))),
    "abelian_group_magma": ((CAP, CAP), lambda a, b: gf.abelian_group_magma([a, b])),
    "census": ((CAP,), gf.census),
    "closure": ((2,), lambda e: gf.closure(Z2, [e])),
    "cyclic_group_magma": ((CAP,), gf.cyclic_group_magma),
    "magma_from_word": ((2,), lambda zero: gf.magma_from_word("aaab", zero)),
    "matrix_unit_zero_magma": ((CAP,), gf.matrix_unit_zero_magma),
    "validate_magma": ((2, 2), lambda order, zero: gf.validate_magma(order, AAAB.table, zero)),
    "connected_groupoid": ((CAP,), lambda n: gf.connected_groupoid(n, Z2.table)),
    "matrix_groupoid": ((CAP,), gf.matrix_groupoid),
    "validate_precategory:object_count": ((CAP,), lambda k: gf.validate_precategory(k, [], [], None)),
    "validate_precategory:ends": ((1, 1), lambda d, c: gf.validate_precategory(1, [(d, c)], [[0]], None)),
    "validate_precategory:identity": ((1,), lambda i: gf.validate_precategory(1, [(0, 0)], [[0]], [i])),
    "vertex_group_table": ((2,), lambda obj: gf.vertex_group_table(MG2, obj)),
    "magma_algebra": ((2**64,), lambda p: gf.magma_algebra(Z2, p)),
    "contracted_algebra": ((2**64,), lambda p: gf.contracted_algebra(Z2_ZERO, p)),
    "category_algebra": ((2**64,), lambda p: gf.category_algebra(MG2, p)),
    "ElementaryFamily": ((2,), lambda b: gf.ElementaryFamily(Z2_ALGEBRA, Z2, (frozenset({b}), frozenset()))),
    "count_matrix_group_gradings": ((SMALL, SMALL), gf.count_matrix_group_gradings),
    "matrix_group_gradings_report": ((SMALL, SMALL), gf.matrix_group_gradings_report),
    "count_groupoid_gradings_as_printed": ((SMALL,) * 4, gf.count_groupoid_gradings_as_printed),
    "count_surjective_functions": ((SMALL, SMALL), gf.count_surjective_functions),
    "surjective_functions_report": ((SMALL, SMALL), gf.surjective_functions_report),
    "count_abelian_homs": ((CAP, CAP), lambda a, b: gf.count_abelian_homs([a], [b])),
    "abelian_homs_report": ((CAP, CAP), lambda a, b: gf.abelian_homs_report([a], [b])),
    "count_subspaces": ((2**64, SMALL), gf.count_subspaces),
    "subspaces_report": ((SMALL, SMALL), gf.subspaces_report),
}

# Exported names with no int-typed argument of their own: each takes only structures (magmas,
# precategories, algebras, families, relations, morphism maps, budgets).
STRUCTURED = {
    "are_isomorphic", "canonical_form", "enumerate_homs", "enumerate_product_submagmas", "enumerate_submagmas",
    "enumerate_zero_homs", "enumerate_zero_submagmas", "product_magma", "with_zero_adjoined", "word_of_magma",
    "adjoin_zero", "compose_morphism_maps", "connected_components", "disjoint_union", "enumerate_functors",
    "enumerate_prefunctors", "enumerate_subprecategories",
    "enumerate_subprecategory_pairs", "group_as_category", "identity_morphism_map", "is_connected", "is_functor",
    "is_groupoid", "is_prefunctor", "is_thin", "product_category",
    "base_family", "enumerate_category_filters", "enumerate_category_gradings", "enumerate_elementary_filters",
    "enumerate_elementary_gradings", "enumerate_nonzero_elementary_filters", "enumerate_nonzero_elementary_gradings",
    "grading_from_relation", "is_elementary", "is_filter", "is_grading", "is_nonzero", "is_strong",
    "relation_from_filter", "count_disconnected", "count_functors_connected_groupoids",
}
# Plain records that the package fills and the validators above build, never checked themselves.
RECORDS = {"FiniteMagma", "FinitePrecategory", "MorphismMap", "AlgebraPresentation", "Verdict", "CountReport"}
CONSTANTS = {"DEFAULT_BUDGET", "RING_ZERO"}
# The exception types are raised by the package, not called with counts, and make up the rest.


def values(cap):
    """Ints near 0 and near cap, bools, integral and fractional floats, strings and None; a size
    capped by the order cap, such as an object count, is also drawn far past it."""
    return st.one_of(
        st.integers(-3, 3),
        st.integers(cap - 3, cap + 3),
        st.integers(cap + 4, 10**30) if cap == CAP else st.nothing(),
        st.booleans(),
        st.integers(-3, 70).map(float),
        st.integers(-3, 70).map(lambda k: k + 0.5),
        st.text(max_size=3),
        st.none(),
    )


def test_every_export_is_classified():
    exported = {name for name, value in vars(gf).items() if not name.startswith("_") and not inspect.ismodule(value)}
    errors = {name for name in exported if inspect.isclass(getattr(gf, name)) and issubclass(getattr(gf, name), Exception)}
    called = {name.split(":")[0] for name in CALLS}
    assert exported == called | STRUCTURED | RECORDS | CONSTANTS | errors
    assert not called & STRUCTURED


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_int_arguments_give_a_result_or_a_toolkit_error(name, data):
    caps, call = CALLS[name]
    args = [data.draw(values(cap), label=f"argument {i}") for i, cap in enumerate(caps)]
    try:
        result = call(*args)
    except gf.ToolkitError:
        return
    if isinstance(result, gf.FiniteMagma):
        assert parse_magma(print_magma(result)) == result
    if isinstance(result, gf.FinitePrecategory):
        assert parse_category(print_category(result)) == result
