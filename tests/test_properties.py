import itertools

from hypothesis import given, settings, strategies as st

from gradeforge.algebra import grading_from_relation, magma_algebra, relation_from_filter
from gradeforge.io import parse_magma, print_magma
from gradeforge.magma import (
    FiniteMagma,
    PairRelation,
    _bits,
    _close,
    _closed_subsets,
    abelian_group_magma,
    canonical_form,
    closure,
    enumerate_homs,
    enumerate_product_submagmas,
    enumerate_submagmas,
    validate_magma,
)

from conftest import naive_closure
from plain_closed_subsets import plain_closed_subsets


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


class RecordingCounter:
    """A node counter that records the total spend and the number of spends, and fails a search
    that spends more than limit."""

    def __init__(self, limit=None):
        self.spent = self.calls = 0
        self.limit = limit

    def spend(self, amount: int = 1) -> None:
        self.spent += amount
        self.calls += 1
        assert self.limit is None or self.spent <= self.limit


def free_branch_walk(table, included: int, excluded: int) -> int:
    """The spends of a search that emits each topmost free branch in one: the plain search's tree,
    with a branch free when every product of two elements not excluded is included or a factor."""
    allowed = [e for e in range(len(table)) if not excluded >> e & 1]
    if all(table[x][y] in (None, x, y) or included >> table[x][y] & 1 for x in allowed for y in allowed):
        return 1
    undecided = (1 << len(table)) - 1 & ~(included | excluded)
    bit = undecided & -undecided
    closed = _close(table, included | bit, [bit.bit_length() - 1], excluded)
    below = 0 if closed is None else free_branch_walk(table, closed, excluded)
    return 1 + below + free_branch_walk(table, included, excluded | bit)


@st.composite
def partial_tables(draw, max_order=7):
    """A partial table of order <= max_order.  Besides random ones, it may be a left-zero band
    or all None (every branch is free) or Z2^3 (only leaves are); a random entry is None, a
    factor or any element, so free branches also turn up inside the tree."""
    shape = draw(st.sampled_from(["random", "left_zero_band", "none", "z2_cubed"]))
    if shape == "z2_cubed":
        return abelian_group_magma([2, 2, 2]).table
    n = draw(st.integers(min_value=1, max_value=max_order))
    if shape == "left_zero_band":
        return [[x] * n for x in range(n)]
    if shape == "none":
        return [[None] * n for _ in range(n)]
    entry = st.one_of(st.none(), st.sampled_from(["left", "right"]), st.integers(min_value=0, max_value=n - 1))
    table = [[draw(entry) for _ in range(n)] for _ in range(n)]
    return [[x if e == "left" else y if e == "right" else e for y, e in enumerate(row)] for x, row in enumerate(table)]


@settings(max_examples=400, deadline=None)
@given(partial_tables(), st.data())
def test_closed_subsets_match_the_plain_search(table, data):
    # Same masks in the same order, and the same total spend, as the search
    # that visits every node one at a time; and every topmost free branch is
    # emitted with one spend.
    full = (1 << len(table)) - 1
    forced = data.draw(st.integers(min_value=0, max_value=full))
    banned = data.draw(st.integers(min_value=0, max_value=full)) & ~forced
    plain = RecordingCounter()
    expected = plain_closed_subsets(table, forced, banned, plain)
    kernel = RecordingCounter(limit=plain.spent)
    assert _closed_subsets(table, forced, banned, kernel) == expected
    assert kernel.spent == plain.spent
    start = _close(table, forced, list(_bits(forced)), banned)
    assert kernel.calls == (0 if start is None else free_branch_walk(table, start, banned))
