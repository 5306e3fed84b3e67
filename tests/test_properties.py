import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from gradeforge.algebra import grading_from_relation, magma_algebra, relation_from_filter
from gradeforge.budget import Budget, NodeCounter
from gradeforge.category import (
    _search_morphism_maps,
    connected_groupoid,
    disjoint_union,
    group_as_category,
    matrix_groupoid,
    validate_precategory,
)
from gradeforge.errors import SizeOverflowError
from gradeforge.io import parse_category, parse_magma, print_magma
from gradeforge.magma import (
    FiniteMagma,
    PairRelation,
    _associative,
    _bit_pairs,
    _bits,
    _close,
    _closed_subsets,
    _decoded,
    _enumerate_maps,
    _pair_mask,
    _pair_table,
    _propagation_plans,
    _zero_exempt,
    abelian_group_magma,
    canonical_form,
    closure,
    enumerate_homs,
    enumerate_product_submagmas,
    enumerate_submagmas,
    matrix_unit_zero_magma,
    validate_magma,
)

from conftest import (
    DATA_DIR,
    bare_object_precategory,
    brute_force_homs,
    fork_precategory,
    involution_arrow_category,
    naive_closure,
    one_object_monoid,
    symmetric_group_table,
    transformation_semigroup,
    two_arrows_precategory,
)
from plain_category_search import plain_category_search
from plain_closed_subsets import plain_closed_subsets
from plain_map_search import plain_map_search


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


@st.composite
def associative_magmas(draw):
    """The semigroup generated by one or two maps on at most three points, or an abelian group of
    order at most 6 under a random relabelling."""
    if draw(st.booleans()):
        points = draw(st.integers(min_value=1, max_value=3))
        transformation = st.tuples(*[st.integers(min_value=0, max_value=points - 1)] * points)
        return transformation_semigroup(draw(st.lists(transformation, min_size=1, max_size=2)))
    return draw(relabelled_groups())


@st.composite
def relabelled_groups(draw):
    """An abelian group of order at most 6 under a random relabelling."""
    group = abelian_group_magma(draw(st.sampled_from([(1,), (2,), (3,), (4,), (2, 2), (5,), (6,)])))
    label = draw(st.permutations(range(group.order)))
    table = [[0] * group.order for _ in range(group.order)]
    for g, row in enumerate(group.table):
        for h, gh in enumerate(row):
            table[label[g]][label[h]] = label[gh]
    return validate_magma(group.order, table)


@settings(max_examples=200, deadline=None)
@given(associative_magmas(), magmas(max_order=3), st.booleans())
def test_homs_with_an_associative_side_are_the_brute_force_homs(semigroup, magma, reverse):
    # The hom kernel checks fewer products when both tables are associative.  The random table
    # is associative only sometimes, so both rules run, in both directions.
    source, target = (magma, semigroup) if reverse else (semigroup, magma)
    assume(target.order ** source.order <= 20_000)
    assert enumerate_homs(source, target) == brute_force_homs(source, target)


@settings(max_examples=200, deadline=None)
@given(associative_magmas())
def test_short_rule_binds_what_the_full_rule_binds(semigroup):
    # The lemma of magma._propagated: over an associative table, the products with a generator as
    # a factor bind the same elements as every product, depth by depth.
    short, full = (_propagation_plans(semigroup.table, rule) for rule in (True, False))
    assert [(x, {z for z, _, _ in binds}) for x, binds, _ in short] == [
        (x, {z for z, _, _ in binds}) for x, binds, _ in full
    ]


@st.composite
def map_searches(draw):
    """The tables and allowed sets of a map search: random total tables of order <= 5, most of
    them not associative; relabelled abelian groups on both sides, so the short rule runs; or a
    zero-exempt source with None entries.  Each element's allowed set is the whole target or a
    random nonempty part of it, so some binds are refused."""
    shape = draw(st.sampled_from(["random", "groups", "zero_exempt"]))
    if shape == "groups":
        source, target = draw(relabelled_groups()), draw(relabelled_groups())
        assert _associative(source.table) and _associative(target.table)
        dom_table = source.table
    elif shape == "zero_exempt":
        source, target = draw(magmas(with_zero=True)), draw(magmas(with_zero=True))
        dom_table = _zero_exempt(source.table, source.zero)
    else:
        source, target = draw(magmas()), draw(magmas())
        dom_table = source.table
    everything = frozenset(range(target.order))
    part = st.frozensets(st.sampled_from(range(target.order)), min_size=1)
    allowed = [draw(st.one_of(st.just(everything), part)) for _ in dom_table]
    return dom_table, target.table, allowed


@settings(max_examples=300, deadline=None)
@given(map_searches())
def test_map_search_matches_the_plain_search(case):
    # The same maps in the same order and the same spend as the search that propagates at
    # every node; and both run out of nodes at one node less than that spend.
    dom_table, cod_table, allowed = case
    budget = Budget(max_nodes=100_000)
    plain, kernel = NodeCounter(budget), NodeCounter(budget)
    assert _enumerate_maps(dom_table, cod_table, allowed, kernel) == plain_map_search(
        dom_table, cod_table, allowed, plain
    )
    assert kernel.remaining == plain.remaining
    one_less = Budget(max_nodes=budget.max_nodes - plain.remaining - 1)
    for search in (_enumerate_maps, plain_map_search):
        with pytest.raises(SizeOverflowError):
            search(dom_table, cod_table, allowed, NodeCounter(one_less))


# The conftest precategories, S3 and the idempotent monoid as one-object categories, the .cat
# fixtures, and two sources with no morphisms: one with no objects (a category) and one whose two
# objects no morphism touches.
FIXED_PRECATEGORIES = [
    involution_arrow_category(),
    fork_precategory(),
    two_arrows_precategory(),
    bare_object_precategory(),
    group_as_category(symmetric_group_table(3)),
    one_object_monoid([[0, 1], [1, 1]]),
    *(parse_category(path.read_text(encoding="utf-8")) for path in sorted(DATA_DIR.glob("*.cat"))),
    validate_precategory(0, [], []),
    validate_precategory(2, [], []),
]


@st.composite
def thin_categories(draw):
    """A random poset on at most 5 elements as a category, with its morphisms in a random order."""
    n = draw(st.integers(min_value=1, max_value=5))
    below = {(x, x) for x in range(n)} | {(x, y) for x in range(n) for y in range(x + 1, n) if draw(st.booleans())}
    while True:
        wider = below | {(x, z) for x, y in below for w, z in below if y == w}
        if wider == below:
            break
        below = wider
    arrows = draw(st.permutations(sorted(below)))  # arrow (x, y) runs x -> y
    index = {arrow: s for s, arrow in enumerate(arrows)}
    comp = [[index[dt, cs] if ds == ct else None for dt, ct in arrows] for ds, cs in arrows]
    return validate_precategory(n, arrows, comp, [index[x, x] for x in range(n)])


@st.composite
def connected_groupoids(draw, max_objects=3):
    """connected_groupoid(k, G) with k <= max_objects and |G| <= 4."""
    group = abelian_group_magma(draw(st.sampled_from([(1,), (2,), (3,), (4,), (2, 2)])))
    return connected_groupoid(draw(st.integers(min_value=1, max_value=max_objects)), group.table)


def precategories():
    return st.one_of(
        st.sampled_from(FIXED_PRECATEGORIES),
        thin_categories(),
        connected_groupoids(),
        st.builds(disjoint_union, connected_groupoids(max_objects=2), connected_groupoids(max_objects=2)),
    )


@settings(max_examples=250, deadline=None)
@given(precategories(), precategories(), st.booleans())
def test_morphism_map_search_matches_the_plain_search(source, target, functors):
    # The same maps in the same order and the same spend as the search that propagates at every
    # node, for prefunctors and, where both sides are categories, for functors; a search out of
    # nodes runs out in both.  Where both end, both run out at one node less than the spend.
    functors = functors and source.is_category and target.is_category
    budget = Budget(max_nodes=4_000)
    outcomes = []
    for search in (_search_morphism_maps, plain_category_search):
        counter = NodeCounter(budget)
        try:
            outcomes.append((search(source, target, functors, counter), counter.remaining))
        except SizeOverflowError:
            outcomes.append((None, counter.remaining))
    assert outcomes[0] == outcomes[1]
    maps, remaining = outcomes[0]
    if maps is not None:
        one_less = Budget(max_nodes=budget.max_nodes - remaining - 1)
        for search in (_search_morphism_maps, plain_category_search):
            with pytest.raises(SizeOverflowError):
                search(source, target, functors, NodeCounter(one_less))


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


def _zero_pair_case(n: int) -> tuple:
    """The zero pair table of mu_n x mu_n with its forced zero pair and banned (g, 0) pairs."""
    mu = matrix_unit_zero_magma(n)
    z = mu.zero
    banned = [(g, z) for g in range(mu.order) if g != z]
    return _pair_table(_zero_exempt(mu.table, z), mu.table), _pair_mask([(z, z)], mu.order), _pair_mask(banned, mu.order)


@pytest.mark.parametrize(
    "table, forced, banned",
    [
        (matrix_groupoid(3).comp, 0, 0),  # 9 bits, partial
        (abelian_group_magma([2, 2, 2, 2]).table, 0, 0),  # 16 bits
        _zero_pair_case(2),  # 25 bits, forced and banned
    ],
    ids=["matrix_groupoid_3", "z2_4", "zero_pairs_mu2_mu2"],
)
def test_closed_subsets_match_the_plain_search_past_order_seven(table, forced, banned):
    # The property test's tables have order <= 7; these are wider.
    plain = RecordingCounter()
    expected = plain_closed_subsets(table, forced, banned, plain)
    kernel = RecordingCounter(limit=plain.spent)
    assert _closed_subsets(table, forced, banned, kernel) == expected
    assert kernel.spent == plain.spent


@st.composite
def decode_items(draw):
    """range(n) for a width n <= 64, or the pairs of _bit_pairs(a, b) with a*b <= 64."""
    if draw(st.booleans()):
        return range(draw(st.integers(min_value=0, max_value=64)))
    left = draw(st.integers(min_value=0, max_value=8))
    return _bit_pairs(left, draw(st.integers(min_value=0, max_value=64 // max(left, 1))))


@settings(max_examples=300, deadline=None)
@given(decode_items(), st.data())
def test_decoded_matches_the_per_bit_decode(items, data):
    full = (1 << len(items)) - 1
    drawn = data.draw(st.lists(st.integers(min_value=0, max_value=full), max_size=20))
    masks = data.draw(st.permutations(drawn + [0, full]))
    assert _decoded(masks, items) == [frozenset(items[p] for p in _bits(m)) for m in masks]
