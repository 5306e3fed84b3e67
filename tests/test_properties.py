import itertools

from hypothesis import given, settings, strategies as st

from gradeforge.algebra import grading_from_relation, magma_algebra, relation_from_filter
from gradeforge.io import parse_magma, print_magma
from gradeforge.magma import (
    FiniteMagma,
    PairRelation,
    canonical_form,
    closure,
    enumerate_homs,
    enumerate_product_submagmas,
    enumerate_submagmas,
    validate_magma,
)

from conftest import naive_closure


@st.composite
def magmas(draw, max_order=5, with_zero=False):
    order = draw(st.integers(min_value=1, max_value=max_order))
    table = [
        [draw(st.integers(min_value=0, max_value=order - 1)) for _ in range(order)]
        for _ in range(order)
    ]
    zero = None
    if with_zero:
        zero = draw(st.integers(min_value=0, max_value=order - 1))
        for g in range(order):
            table[zero][g] = zero
            table[g][zero] = zero
    return validate_magma(order, table, zero)


@st.composite
def magmas_with_seeds(draw, max_order=6):
    magma = draw(magmas(max_order=max_order))
    seed = draw(st.sets(st.integers(min_value=0, max_value=magma.order - 1)))
    return magma, frozenset(seed)


@settings(max_examples=150, deadline=None)
@given(magmas_with_seeds())
def test_closure_is_extensive_and_idempotent(case):
    magma, seed = case
    closed = closure(magma, seed)
    assert seed <= closed
    assert closure(magma, closed) == closed


@settings(max_examples=100, deadline=None)
@given(magmas_with_seeds(max_order=6), st.sets(st.integers(min_value=0, max_value=5)))
def test_closure_is_monotone(case, extra):
    magma, seed = case
    extra = frozenset(e for e in extra if e < magma.order)
    assert closure(magma, seed) <= closure(magma, seed | extra)


@settings(max_examples=60, deadline=None)
@given(magmas(max_order=4))
def test_submagmas_are_exactly_the_closure_fixpoints(magma):
    subs = set(enumerate_submagmas(magma))
    assert frozenset() in subs
    for r in range(magma.order + 1):
        for seed in itertools.combinations(range(magma.order), r):
            s = frozenset(seed)
            assert (closure(magma, s) == s) == (s in subs)
            assert (naive_closure(magma, s) == s) == (s in subs)


@settings(max_examples=60, deadline=None)
@given(magmas(max_order=4), st.randoms(use_true_random=False))
def test_canonical_form_is_relabeling_invariant(magma, rng):
    perm = list(range(magma.order))
    rng.shuffle(perm)
    table = tuple(
        tuple(perm[magma.table[i][j]] for j in range(magma.order)) for i in range(magma.order)
    )
    inverse = [0] * magma.order
    for i, p in enumerate(perm):
        inverse[p] = i
    relabeled = FiniteMagma(
        order=magma.order,
        table=tuple(tuple(table[inverse[i]][inverse[j]] for j in range(magma.order)) for i in range(magma.order)),
    )
    assert canonical_form(relabeled).table == canonical_form(magma).table


@settings(max_examples=40, deadline=None)
@given(magmas(max_order=3), magmas(max_order=3))
def test_relation_filter_round_trip(left, right):
    algebra = magma_algebra(left)
    for pairs in enumerate_product_submagmas(left, right):
        family = grading_from_relation(algebra, PairRelation(left, right, pairs))
        back = relation_from_filter(algebra, family)
        assert back.pairs == pairs
        assert grading_from_relation(algebra, back).parts == family.parts


@settings(max_examples=40, deadline=None)
@given(magmas(max_order=3), magmas(max_order=3))
def test_hom_graphs_are_submagmas(left, right):
    submagmas = set(enumerate_product_submagmas(left, right))
    for images in enumerate_homs(left, right):
        assert frozenset(enumerate(images)) in submagmas


@settings(max_examples=100, deadline=None)
@given(magmas(max_order=6, with_zero=True))
def test_magma_text_round_trip(magma):
    assert parse_magma(print_magma(magma)) == magma
