import itertools
import time
from math import prod

import pytest

from gradeforge.algebra import category_algebra, enumerate_category_gradings, enumerate_nonzero_elementary_gradings
from gradeforge.budget import Budget
from gradeforge.errors import (
    BadCompositionError,
    BadIdentityError,
    IndexOutOfRangeError,
    NotACategoryError,
    NotAGroupError,
    NotAssociativeError,
    SizeOverflowError,
    ValidationError,
)
from gradeforge.category import (
    FinitePrecategory,
    MorphismMap,
    _restricted,
    adjoin_zero,
    compose_morphism_maps,
    connected_components,
    connected_groupoid,
    disjoint_union,
    enumerate_functors,
    enumerate_prefunctors,
    enumerate_subprecategories,
    enumerate_subprecategory_pairs,
    group_as_category,
    identity_morphism_map,
    is_connected,
    is_functor,
    is_groupoid,
    is_prefunctor,
    is_thin,
    matrix_groupoid,
    product_category,
    validate_precategory,
    vertex_group_table,
)
from gradeforge.io import parse_category
from gradeforge.magma import abelian_group_magma, are_isomorphic, cyclic_group_magma, matrix_unit_zero_magma

from conftest import (
    bare_object_precategory,
    brute_force_prefunctors,
    fork_precategory,
    one_object_monoid,
    relabel_objects,
    two_arrows_precategory,
)
from zero_reductions import (
    ReductionMismatchError,
    enumerate_prefunctors_via_zero_homs,
    subprecategory_pairs_via_zero_submagmas,
)


@pytest.fixture
def structures(involution_cat, z2_cat, idem_cat):
    """The conftest categories and the two identity-free precategories."""
    return [involution_cat, z2_cat, idem_cat, matrix_groupoid(2), fork_precategory(), two_arrows_precategory()]


class TestValidate:
    def test_section3_category(self, involution_cat):
        assert involution_cat.is_category
        assert involution_cat.comp[2][2] == 0  # alpha o alpha = id_a
        assert involution_cat.comp[3][2] == 4  # beta o alpha = gamma
        assert involution_cat.comp[4][2] == 3  # gamma o alpha = beta, forced by the relations

    def test_idempotent_monoid(self, idem_cat):
        assert idem_cat.comp[1][1] == 1

    def test_wrong_codomain_rejected(self):
        # the composite of (0 -> 1) after (0 -> 0) must run 0 -> 1, not 0 -> 0
        with pytest.raises(BadCompositionError):
            validate_precategory(2, [(0, 0), (0, 1)], [[0, None], [0, None]], None)

    def test_missing_composite_rejected(self):
        with pytest.raises(BadCompositionError):
            validate_precategory(1, [(0, 0)], [[None]], None)

    def test_associativity_checked(self):
        # x*x = y, x*y = y, y*x = x, y*y = y is not associative
        with pytest.raises(NotAssociativeError):
            validate_precategory(1, [(0, 0), (0, 0)], [[1, 1], [0, 1]], None)

    def test_identity_flag_checked(self):
        with pytest.raises(BadIdentityError):
            validate_precategory(1, [(0, 0), (0, 0)], [[1, 1], [1, 1]], identity_at=(0,))

    @pytest.mark.parametrize(
        "object_count,comp,identity_at,error",
        [
            (True, [[0]], [0], ValidationError),
            (1, [[False]], [None], IndexOutOfRangeError),
            (1, [[0]], [False], IndexOutOfRangeError),
            (1.0, [[0]], [0], ValidationError),
        ],
        ids=["object-count", "composite", "identity", "float-object-count"],
    )
    def test_non_ints_are_refused(self, object_count, comp, identity_at, error):
        # print_category would write True, False or 1.0, which parse_category refuses.
        with pytest.raises(error):
            validate_precategory(object_count, [(0, 0)], comp, identity_at)

    @pytest.mark.parametrize(
        "object_count,morphisms,comp,identity_at,error",
        [
            (1, [(0, 0)], [[0, 0]], None, ValidationError),
            (1, [(0, 0)], [[0]], [0, 0], ValidationError),
            (2, [(0, 1)], [[None]], [0, None], BadIdentityError),
            # x*y = x: 0 is a right unit only
            (1, [(0, 0), (0, 0)], [[0, 0], [1, 1]], [0], BadIdentityError),
        ],
        ids=["table-not-square", "identity-at-length", "identity-not-a-loop", "left-unit"],
    )
    def test_shape_and_identity_refusals(self, object_count, morphisms, comp, identity_at, error):
        with pytest.raises(error) as info:
            validate_precategory(object_count, morphisms, comp, identity_at)
        assert type(info.value) is error

    def test_object_count_is_capped_before_the_identities_are_built(self):
        # 10**30 raised a bare OverflowError from (None,) * object_count; 65 objects printed a header
        # that parse_category refuses.
        assert validate_precategory(64, [], [], None).object_count == 64
        for count in (65, 10**30):
            with pytest.raises(SizeOverflowError):
                validate_precategory(count, [], [], None)

    @pytest.mark.parametrize("ends", [(0.7, "0"), (0, 0.0), (True, 0), ("0", 0)], ids=["fraction", "float", "bool", "string"])
    def test_non_int_morphism_ends_are_refused(self, ends):
        # int() used to convert the ends: (0.7, "0") was accepted as (0, 0) and printed as "m 0 0 id".
        with pytest.raises(ValidationError, match="not two ints"):
            validate_precategory(1, [ends], [[0]], [0])


class TestPredicates:
    def test_matrix_groupoid(self):
        mg = matrix_groupoid(3)
        assert is_thin(mg) and is_connected(mg) and is_groupoid(mg)

    def test_group_category(self, z2_cat):
        assert is_connected(z2_cat) and is_groupoid(z2_cat)
        assert not is_thin(z2_cat)
        assert is_thin(group_as_category([[0]]))

    def test_idempotent_monoid_is_not_a_groupoid(self, idem_cat):
        assert not is_groupoid(idem_cat)

    def test_a_precategory_without_identities_is_not_a_groupoid(self):
        assert not is_groupoid(validate_precategory(1, [(0, 0)], [[0]], None))

    def test_components_of_disjoint_union(self, z2_cat):
        both = disjoint_union(z2_cat, group_as_category([[0, 1, 2], [1, 2, 0], [2, 0, 1]]))
        parts = connected_components(both)
        assert len(parts) == 2
        assert sum(p.morphism_count for p in parts) == both.morphism_count
        assert [p.morphism_count for p in parts] == [2, 3]

    def test_vertex_hom_counts_constant_on_connected_groupoids(self):
        g = connected_groupoid(3, [[0, 1], [1, 0]])
        counts = {len(g.hom(x, y)) for x in range(3) for y in range(3)}
        assert counts == {2}


class TestConstructors:
    def test_matrix_groupoid_shape(self):
        mg = matrix_groupoid(2)
        assert mg.object_count == 2 and mg.morphism_count == 4

    def test_group_as_category(self, z2_cat):
        assert z2_cat.object_count == 1 and z2_cat.morphism_count == 2

    def test_not_a_group(self):
        with pytest.raises(NotAGroupError):
            group_as_category([[0, 0], [0, 0]])

    @pytest.mark.parametrize(
        "table", [[[0.0, 1.0], [1.0, 0.0]], [[False, True], [True, False]], [[0, 1], [1, 0.0]]], ids=["float", "bool", "one-float"]
    )
    def test_group_table_entries_must_be_plain_ints(self, table):
        # Floats raised a bare TypeError; bools were accepted, and print_category then wrote "c 0 0 False".
        for build in (group_as_category, lambda table: connected_groupoid(1, table)):
            with pytest.raises(IndexOutOfRangeError):
                build(table)

    def test_product_counts(self, involution_cat, z2_cat):
        prod = product_category(involution_cat, z2_cat)
        assert prod.morphism_count == 10
        assert prod.is_category

    def test_connected_groupoid_is_valid(self):
        g = connected_groupoid(2, [[0, 1], [1, 0]])
        validate_precategory(g.object_count, g.morphisms, g.comp, g.identity_at)
        assert is_groupoid(g) and is_connected(g)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None])
    def test_object_counts_must_be_plain_ints(self, n):
        for build in (matrix_groupoid, lambda n: connected_groupoid(n, [[0, 1], [1, 0]])):
            with pytest.raises(ValidationError):
                build(n)

    def test_connected_groupoid_caps_before_checking_the_group(self):
        # n*n*q = 65 is over the cap; the O(q^3) group check never runs
        with pytest.raises(SizeOverflowError):
            connected_groupoid(1, [[0] * 65 for _ in range(65)])


# An order-5 loop: a Latin square with identity 0, and (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]


def invariant_factor_lists(order_cap):
    """Every list d1 | d2 | ... of factors above 1 whose product is at most order_cap: one per
    abelian group of order up to order_cap."""
    lists = [[]]
    for factors in lists:
        last, order = (factors[-1] if factors else 1), prod(factors)
        lists.extend(factors + [d] for d in range(2, order_cap // order + 1) if d % last == 0)
    return lists


class TestGroupAsCategory:
    """The precategory laws refuse with their own errors; the group laws left over, identity and
    inverses, with NotAGroupError.  Each table here was refused with NotAGroupError before."""

    @pytest.mark.parametrize(
        "table,error",
        [
            ([[0, 1], [1]], ValidationError),
            ([[0, 2], [2, 0]], IndexOutOfRangeError),
            (LOOP5, NotAssociativeError),
            ([[0, 1], [1, 1]], NotAGroupError),
            ([[0, 0], [0, 0]], NotAGroupError),
            ([], NotAGroupError),
        ],
        ids=["not-square", "entry-out-of-range", "loop-not-associative", "monoid", "no-identity", "empty"],
    )
    def test_each_refusal_has_its_class(self, table, error):
        with pytest.raises(error) as info:
            group_as_category(table)
        assert type(info.value) is error

    def test_order_past_the_cap_is_refused(self):
        with pytest.raises(SizeOverflowError):
            group_as_category([[(i + j) % 65 for j in range(65)] for i in range(65)])

    def test_every_abelian_group_up_to_the_cap_is_accepted(self):
        factor_lists = invariant_factor_lists(64)
        assert len(factor_lists) == 117  # the abelian groups of orders 1..64 (OEIS A000688)
        for factors in factor_lists:
            table = abelian_group_magma(factors).table
            group = group_as_category(table)
            assert (group.object_count, group.morphisms, group.comp) == (1, ((0, 0),) * len(table), table)
            assert group.identity_at == (0,) and is_groupoid(group)


class TestConstructorsAgainstDefinitions:
    def test_product_category(self, structures):
        for left, right in itertools.product(structures, repeat=2):
            prod = product_category(left, right)
            pairs = list(itertools.product(range(left.morphism_count), range(right.morphism_count)))
            objects = list(itertools.product(range(left.object_count), range(right.object_count)))
            index = {p: i for i, p in enumerate(pairs)}
            assert prod.object_count == len(objects)
            assert [(objects[d], objects[c]) for d, c in prod.morphisms] == [
                ((left.dom(s), right.dom(t)), (left.cod(s), right.cod(t))) for s, t in pairs
            ]
            for (x, (s, t)), (y, (s2, t2)) in itertools.product(enumerate(pairs), repeat=2):
                a, b = left.comp[s][s2], right.comp[t][t2]
                assert prod.comp[x][y] == (None if a is None or b is None else index[a, b])
            if left.is_category and right.is_category:
                assert prod.identity_at == tuple(index[left.identity_at[i], right.identity_at[j]] for i, j in objects)
            else:
                assert prod.identity_at == (None,) * len(objects)
            validate_precategory(prod.object_count, prod.morphisms, prod.comp, prod.identity_at)

    def test_connected_groupoid(self):
        # (i, g, j): j -> i at (i*n + j)*q + g, (i, g, j) o (j, h, k) = (i, gh, k), identity (i, e, i)
        perms = list(itertools.permutations(range(3)))
        s3 = [[perms.index(tuple(a[x] for x in b)) for b in perms] for a in perms]
        groups = [cyclic_group_magma(q).table for q in (1, 2, 3, 4)] + [abelian_group_magma([2, 2]).table, s3]
        checked = 0
        for table in groups:
            q = len(table)
            e = next(g for g in range(q) if all(table[g][h] == h for h in range(q)))
            for n in itertools.count(1):
                if n * n * q > 64:
                    break
                cat = connected_groupoid(n, table)
                triples = [(i, g, j) for i in range(n) for j in range(n) for g in range(q)]
                index = {(i, g, j): (i * n + j) * q + g for i, g, j in triples}
                assert cat.object_count == n and cat.morphism_count == len(triples)
                for (i, g, j), x in index.items():
                    assert cat.morphisms[x] == (j, i)
                for (i, g, j), (j2, h, k) in itertools.product(triples, repeat=2):
                    expected = index[i, table[g][h], k] if j == j2 else None
                    assert cat.comp[index[i, g, j]][index[j2, h, k]] == expected
                assert cat.identity_at == tuple(index[i, e, i] for i in range(n))
                checked += 1
        assert checked == 8 + 5 + 4 + 4 + 4 + 3

    def test_connected_groupoid_errors(self):
        with pytest.raises(ValidationError):
            connected_groupoid(0, [[0]])
        with pytest.raises(NotAGroupError):
            connected_groupoid(2, [[0, 0], [0, 0]])
        with pytest.raises(NotAGroupError):
            connected_groupoid(9, [])  # no morphisms, so under the cap: the group check refuses it
        with pytest.raises(SizeOverflowError):
            connected_groupoid(9, [[0, 0], [0, 0]])  # 162 morphisms: the cap comes before the group check

    def test_adjoin_zero(self, structures):
        for cat in structures:
            m = cat.morphism_count
            g = adjoin_zero(cat)
            assert g.order == m + 1 and g.zero == m
            for s, t in itertools.product(range(m + 1), repeat=2):
                composite = cat.comp[s][t] if s < m and t < m else None
                assert g.table[s][t] == (m if composite is None else composite)


class TestAdjoinZero:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_matrix_unit_zero_magma(self, n):
        assert adjoin_zero(matrix_groupoid(n)) == matrix_unit_zero_magma(n)

    def test_matches_up_to_relabeling(self):
        assert are_isomorphic(adjoin_zero(matrix_groupoid(2)), matrix_unit_zero_magma(2))

    def test_group_category_gains_absorbing_zero(self, z2_cat):
        m = adjoin_zero(z2_cat)
        assert m.zero == 2 and m.table[0][1] == 1 and m.table[2][1] == 2

    def test_section3_products(self, involution_cat):
        m = adjoin_zero(involution_cat)
        assert m.table[2][3] == m.zero  # alpha * beta not composable
        assert m.table[3][2] == 4  # beta * alpha = gamma


class TestPrefunctorsAndFunctors:
    def test_four_functors_to_the_two_element_group(self, involution_cat, z2_cat):
        maps = enumerate_functors(involution_cat, z2_cat)
        assert [f.morphism_map for f in maps] == [
            (0, 0, 0, 0, 0),
            (0, 0, 0, 1, 1),
            (0, 0, 1, 0, 1),
            (0, 0, 1, 1, 0),
        ]

    def test_prefunctors_to_idempotent_monoid(self, involution_cat, idem_cat):
        # Three of the eight catalogued maps fail composition preservation
        # (beta o id_a = beta forces f(beta) = f(beta)f(id_a), and
        # gamma o alpha = beta forces f(beta) = f(gamma)f(alpha)); the
        # composition-preserving maps are exactly these five.
        maps = enumerate_prefunctors(involution_cat, idem_cat)
        assert [f.morphism_map for f in maps] == [
            (0, 0, 0, 0, 0),
            (0, 0, 0, 1, 1),
            (0, 1, 0, 1, 1),
            (1, 0, 1, 1, 1),
            (1, 1, 1, 1, 1),
        ]

    def test_every_functor_is_a_prefunctor(self, involution_cat, z2_cat, idem_cat):
        for target in (z2_cat, idem_cat):
            functors = {f.morphism_map for f in enumerate_functors(involution_cat, target)}
            prefunctors = {f.morphism_map for f in enumerate_prefunctors(involution_cat, target)}
            assert functors <= prefunctors

    def test_groupoid_target_collapses_prefunctors_to_functors(self, involution_cat, z2_cat):
        assert enumerate_prefunctors(involution_cat, z2_cat) == enumerate_functors(involution_cat, z2_cat)
        mg2 = matrix_groupoid(2)
        assert enumerate_prefunctors(mg2, mg2) == enumerate_functors(mg2, mg2)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 2), (3, 2), (4, 3)])
    def test_thin_connected_counts(self, m, n):
        assert len(enumerate_functors(matrix_groupoid(m), matrix_groupoid(n))) == n ** m

    def test_matrix_groupoid_to_group(self, z2_cat):
        assert len(enumerate_functors(matrix_groupoid(2), z2_cat)) == 2

    def test_functor_enumeration_requires_categories(self, z2_cat):
        arrow = validate_precategory(2, [(0, 1)], [[None]], None)
        with pytest.raises(NotACategoryError):
            enumerate_functors(arrow, z2_cat)

    @pytest.mark.parametrize("without_identities", ["source", "target", "both"])
    def test_functor_check_refuses_precategories_as_the_enumeration_does(self, without_identities):
        # One idempotent loop and no identity, against the trivial group; one map fits both.
        pre, trivial = validate_precategory(1, [(0, 0)], [[0]]), group_as_category([[0]])
        source = trivial if without_identities == "target" else pre
        target = trivial if without_identities == "source" else pre
        for call in (lambda: is_functor(source, target, identity_morphism_map(pre)), lambda: enumerate_functors(source, target)):
            with pytest.raises(NotACategoryError):
                call()

    def test_identity_and_composition_closure(self, involution_cat, z2_cat):
        functors = enumerate_functors(involution_cat, z2_cat)
        assert identity_morphism_map(involution_cat) in enumerate_functors(involution_cat, involution_cat)
        z2_endos = enumerate_functors(z2_cat, z2_cat)
        closed = {f.morphism_map for f in enumerate_functors(involution_cat, z2_cat)}
        for f in functors:
            for s in z2_endos:
                assert compose_morphism_maps(f, s).morphism_map in closed

    @pytest.mark.parametrize("search", [enumerate_prefunctors, enumerate_prefunctors_via_zero_homs])
    def test_maps_of_free_objects_spend_the_budget(self, search):
        # objects no morphism touches take every image: one node per map, spent before any is built
        def bare(n):
            return validate_precategory(n, [], [], None)

        start = time.perf_counter()
        with pytest.raises(SizeOverflowError):
            search(bare(12), bare(12), Budget(max_nodes=1000))  # 12**12 maps
        assert time.perf_counter() - start < 1.0
        with pytest.raises(SizeOverflowError):
            search(bare(3), bare(3), Budget(max_nodes=1))
        with pytest.raises(SizeOverflowError):
            search(bare(3), bare(3), Budget(max_nodes=27))  # one search node and 27 maps, from one counter
        assert len(search(bare(3), bare(3), Budget(max_nodes=30))) == 27

    def test_validity_predicates(self, involution_cat, idem_cat):
        for f in enumerate_prefunctors(involution_cat, idem_cat):
            assert is_prefunctor(involution_cat, idem_cat, f)
        for f in enumerate_functors(involution_cat, idem_cat):
            assert is_functor(involution_cat, idem_cat, f)

    def test_predicates_refuse_maps_that_break_a_law(self, z2_cat, idem_cat):
        mg2 = matrix_groupoid(2)
        # e(0,1): 1 -> 0 goes to e(0,0): 0 -> 0, but object 1 goes to 1
        assert not is_prefunctor(mg2, mg2, MorphismMap((0, 1), (0, 0, 0, 0)))
        # both elements of Z2 to 1: 0*0 = 0, but 1*1 = 0 is not 1
        assert not is_prefunctor(z2_cat, z2_cat, MorphismMap((0,), (1, 1)))
        # the identity to the idempotent 1: a prefunctor, not a functor
        not_unital = MorphismMap((0,), (1, 1))
        assert is_prefunctor(z2_cat, idem_cat, not_unital) and not is_functor(z2_cat, idem_cat, not_unital)

    @pytest.mark.parametrize(
        "mm,error",
        [
            (MorphismMap((0, 1), (0,)), ValidationError),
            (MorphismMap((0,), (0, 1, 2, 3)), ValidationError),
            (MorphismMap((0, 2), (0, 1, 2, 3)), IndexOutOfRangeError),
            (MorphismMap((0, 1), (0, 1, 2, -1)), IndexOutOfRangeError),
            (MorphismMap((0, None), (0, 1, 2, 3)), IndexOutOfRangeError),
        ],
        ids=["short-morphism-map", "short-object-map", "object-image", "negative-morphism-image", "none-image"],
    )
    def test_predicates_check_the_shape_of_a_map(self, mm, error):
        # The short morphism map raised a bare IndexError, and -1 read the last morphism.
        mg2 = matrix_groupoid(2)
        for predicate in (is_prefunctor, is_functor):
            with pytest.raises(error) as info:
                predicate(mg2, mg2, mm)
            assert type(info.value) is error

    def test_composition_checks_the_first_map_against_the_second(self):
        mg2 = matrix_groupoid(2)
        with pytest.raises(IndexOutOfRangeError):
            compose_morphism_maps(identity_morphism_map(mg2), MorphismMap((0, 1), (0,)))
        with pytest.raises(IndexOutOfRangeError):
            compose_morphism_maps(MorphismMap((0, 2), (0, 1, 2, 3)), identity_morphism_map(mg2))
        swap = MorphismMap((1, 0), (3, 2, 1, 0))
        assert compose_morphism_maps(identity_morphism_map(mg2), swap) == swap


class TestZeroHomReduction:
    def pairs(self, involution_cat, z2_cat, idem_cat):
        mg2 = matrix_groupoid(2)
        cats = [involution_cat, z2_cat, idem_cat, mg2, bare_object_precategory()]
        return [(s, t) for s in cats for t in cats]

    def test_reduction_agrees_with_direct_enumeration(self, involution_cat, z2_cat, idem_cat):
        for source, target in self.pairs(involution_cat, z2_cat, idem_cat):
            direct = enumerate_prefunctors(source, target)
            reduced = enumerate_prefunctors_via_zero_homs(source, target)
            assert direct == reduced, (source.morphism_count, target.morphism_count)

    def test_inconsistent_object_map_is_flagged(self):
        # two parallel-free arrows out of a shared source object, no identities:
        # a zero-magma homomorphism may send them into different components
        fork, two_arrows = fork_precategory(), two_arrows_precategory()
        assert len(enumerate_prefunctors(fork, two_arrows)) == 2
        with pytest.raises(ReductionMismatchError):
            enumerate_prefunctors_via_zero_homs(fork, two_arrows)


class TestMapsAgainstBruteForce:
    """Both map searches against every map of the raw tables, so that neither
    the direct search nor the zero-hom reduction is its only check."""

    def categories(self, involution_cat, z2_cat, idem_cat):
        return [involution_cat, z2_cat, idem_cat, matrix_groupoid(2)]

    @staticmethod
    def assert_matches(found, expected):
        assert len(found) == len(expected)
        assert {(f.object_map, f.morphism_map) for f in found} == expected

    def precategories(self, involution_cat, z2_cat, idem_cat):
        # In the Z2 whose non-identity element is 0, the search branches on
        # that loop while its object and its square are both unbound.
        return self.categories(involution_cat, z2_cat, idem_cat) + [
            fork_precategory(), two_arrows_precategory(), bare_object_precategory(),
            one_object_monoid([[1, 0], [0, 1]], identity=1),
        ]

    def test_prefunctors(self, involution_cat, z2_cat, idem_cat):
        structures = self.precategories(involution_cat, z2_cat, idem_cat)
        for source in structures:
            for target in structures:
                self.assert_matches(enumerate_prefunctors(source, target), brute_force_prefunctors(source, target))

    def test_prefunctor_gradings_are_the_zero_hom_gradings(self, involution_cat, z2_cat, idem_cat):
        # One grading per morphism map, in order: an object that no morphism
        # touches takes every image but changes no grading.
        structures = self.precategories(involution_cat, z2_cat, idem_cat)
        for source in structures:
            for target in structures:
                try:
                    enumerate_prefunctors_via_zero_homs(source, target)
                except ReductionMismatchError:  # the reduction's documented refusal (fork sources)
                    continue
                _, families = enumerate_category_gradings(source, target, prefunctors=True)
                expected = enumerate_nonzero_elementary_gradings(category_algebra(source), adjoin_zero(target))
                assert families == expected, (source, target)

    def test_functors(self, involution_cat, z2_cat, idem_cat):
        cats = self.categories(involution_cat, z2_cat, idem_cat)
        for source in cats:
            for target in cats:
                expected = brute_force_prefunctors(source, target, functors=True)
                self.assert_matches(enumerate_functors(source, target), expected)


class TestMapOrder:
    """The map searches branch on the lowest unassigned morphism with images
    in increasing order, and free objects take their images in increasing
    order, so their output needs no sort."""

    @pytest.mark.parametrize(
        "search", [enumerate_functors, enumerate_prefunctors, enumerate_prefunctors_via_zero_homs]
    )
    def test_strictly_increasing_on_every_pair(self, search, data_dir, involution_cat, z2_cat, idem_cat):
        fixtures = [parse_category(path.read_text(encoding="utf-8")) for path in sorted(data_dir.glob("*.cat"))]
        structures = fixtures + [
            involution_cat, z2_cat, idem_cat, fork_precategory(), two_arrows_precategory(), bare_object_precategory()
        ]
        checked = 0
        for source, target in itertools.product(structures, repeat=2):
            if search is enumerate_functors and not (source.is_category and target.is_category):
                continue
            try:
                maps = search(source, target)
            except ReductionMismatchError:  # the reduction's documented refusal (fork -> two arrows)
                continue
            keys = [(f.morphism_map, f.object_map) for f in maps]
            assert all(a < b for a, b in zip(keys, keys[1:])), (source, target)
            checked += len(keys) > 1
        assert checked >= 60


class TestSubprecategories:
    def test_empty_set_always_appears(self, involution_cat, z2_cat):
        assert frozenset() in enumerate_subprecategory_pairs(involution_cat, z2_cat)

    def test_reference_five_pair_set_appears(self, involution_cat, z2_cat):
        pairs = enumerate_subprecategory_pairs(involution_cat, z2_cat)
        assert frozenset({(0, 0), (3, 0), (3, 1), (1, 0), (1, 1)}) in pairs

    def test_reference_nine_pair_set_appears(self, involution_cat, z2_cat):
        pairs = enumerate_subprecategory_pairs(involution_cat, z2_cat)
        nine = frozenset({(0, 0), (0, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (1, 0)})
        assert nine in pairs

    def test_closed_subsets_only(self, involution_cat):
        comp = involution_cat.comp
        for subset in enumerate_subprecategories(involution_cat):
            for s in subset:
                for t in subset:
                    if comp[s][t] is not None:
                        assert comp[s][t] in subset

    def test_matches_brute_force(self, involution_cat, z2_cat, idem_cat):
        # Every morphism subset, kept when closed under defined composition.
        # The direct and the zero-submagma routes share one closed-subset
        # search, so this is the check that does not run through it.
        def brute(cat):
            m = cat.morphism_count
            out = []
            for mask in range(1 << m):
                subset = frozenset(s for s in range(m) if mask >> s & 1)
                if all(cat.comp[s][t] is None or cat.comp[s][t] in subset for s in subset for t in subset):
                    out.append(subset)
            return out

        for cat in (involution_cat, z2_cat, idem_cat, matrix_groupoid(2), product_category(involution_cat, z2_cat)):
            assert enumerate_subprecategories(cat) == brute(cat)

    def test_pairs_are_the_decoded_subprecategories_of_the_product(self, structures):
        # Both routes run _closed_subsets on the table magma._pair_table
        # builds, so this checks the pair decode (_pair_subsets) against the
        # product category's numbering of its morphisms, s*|mor(right)| + t.
        for left, right in itertools.product(structures, repeat=2):
            pairs = list(itertools.product(range(left.morphism_count), range(right.morphism_count)))
            product = enumerate_subprecategories(product_category(left, right))
            assert enumerate_subprecategory_pairs(left, right) == [frozenset(pairs[e] for e in s) for s in product]

    def test_pair_cap_fires_before_any_table_is_built(self):
        start = time.perf_counter()
        with pytest.raises(SizeOverflowError):
            enumerate_subprecategory_pairs(matrix_groupoid(3), matrix_groupoid(3))
        assert time.perf_counter() - start < 0.1

    def test_zero_submagma_route_agrees(self, involution_cat, z2_cat, idem_cat):
        for source, target in [
            (involution_cat, z2_cat),
            (involution_cat, idem_cat),
            (z2_cat, idem_cat),
            (idem_cat, z2_cat),
            (z2_cat, z2_cat),
            (idem_cat, idem_cat),
        ]:
            direct = set(enumerate_subprecategory_pairs(source, target))
            reduced = set(subprecategory_pairs_via_zero_submagmas(source, target))
            assert direct == reduced

    def test_zero_submagma_route_on_multi_object_targets(self, involution_cat, z2_cat, idem_cat):
        # with several target objects, the zero route drops exactly the
        # subprecategories holding a pair whose left components compose while
        # the right components do not: closure would force a product onto the
        # forbidden zero column
        def compatible(source, target, pair_set):
            return all(
                target.comp[t][t2] is not None
                for (s, t) in pair_set
                for (s2, t2) in pair_set
                if source.comp[s][s2] is not None
            )

        for source in (z2_cat, idem_cat):
            direct = set(enumerate_subprecategory_pairs(source, involution_cat))
            reduced = set(subprecategory_pairs_via_zero_submagmas(source, involution_cat))
            assert reduced == {p for p in direct if compatible(source, involution_cat, p)}
            assert reduced < direct


# Components "0 2" (vertex group Z2) and "1" (Z3): the second component's object sits between the first's.
INTERLEAVED_PRESENTATION = (
    "category 3 11\ngroupoid-presentation\n"
    "component 0 2\nvertex-group 2\n0 1\n1 0\ntree 2 0\n"
    "component 1\nvertex-group 3\n0 1 2\n1 2 0\n2 0 1\n"
)


def three_structures(involution_cat):
    """A category, an identity-free fork and a group beside an untouched object, side by side."""
    return disjoint_union(disjoint_union(involution_cat, fork_precategory()), bare_object_precategory())


def interleaved_precategories(involution_cat):
    union = three_structures(involution_cat)
    return [parse_category(INTERLEAVED_PRESENTATION), union, relabel_objects(union, [3, 0, 5, 1, 6, 2, 4])]


class TestComponentsAgainstDefinitions:
    """connected_components and vertex_group_table on precategories whose components interleave labels."""

    def test_connected_components(self, involution_cat):
        for cat in interleaved_precategories(involution_cat):
            # The weak components, least object first, found by growing each block along the morphisms.
            blocks, unseen = [], set(range(cat.object_count))
            while unseen:
                block = {min(unseen)}
                while grown := {x for d, c in cat.morphisms if {d, c} & block for x in (d, c)} - block:
                    block |= grown
                blocks.append(sorted(block))
                unseen -= block
            parts = connected_components(cat)
            assert len(parts) == len(blocks)
            for part, objects in zip(parts, blocks):
                morphisms = [s for s, (d, c) in enumerate(cat.morphisms) if d in objects]
                assert (part.object_count, part.morphism_count) == (len(objects), len(morphisms))
                assert part == validate_precategory(part.object_count, part.morphisms, part.comp, part.identity_at)
                # The part is the full subprecategory on its objects, both renumbered in ascending order.
                assert is_prefunctor(part, cat, MorphismMap(tuple(objects), tuple(morphisms)))
                assert [None if i is None else morphisms[i] for i in part.identity_at] == [
                    cat.identity_at[x] for x in objects
                ]

    def test_vertex_group_table(self, involution_cat):
        for cat in interleaved_precategories(involution_cat):
            for x in range(cat.object_count):
                loops = cat.hom(x, x)
                expected = tuple(tuple(loops.index(cat.comp[s][t]) for t in loops) for s in loops)
                assert vertex_group_table(cat, x) == expected

    def test_presented_vertex_groups(self):
        cat = parse_category(INTERLEAVED_PRESENTATION)
        z2, z3 = ((0, 1), (1, 0)), ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        assert [vertex_group_table(cat, x) for x in range(3)] == [z2, z3, z2]
        assert [p.object_count for p in connected_components(cat)] == [2, 1]


class TestComponents:
    def test_morphism_counts_partition(self, involution_cat, z2_cat):
        cat = disjoint_union(disjoint_union(involution_cat, z2_cat), matrix_groupoid(2))
        parts = connected_components(cat)
        assert sum(p.morphism_count for p in parts) == cat.morphism_count
        assert sum(p.object_count for p in parts) == cat.object_count

    def test_vertex_group_extraction(self):
        g = connected_groupoid(2, [[0, 1], [1, 0]])
        table = vertex_group_table(g, 0)
        assert len(table) == 2 and table[0][0] == 0

    @pytest.mark.parametrize("obj", [2, 9, -1, True, 0.0, "0", None])
    def test_vertex_group_of_a_missing_object(self, obj):
        with pytest.raises(IndexOutOfRangeError):
            vertex_group_table(matrix_groupoid(2), obj)


class TestRestriction:
    def test_renumbers_in_the_order_given(self):
        # e(i,j): j -> i sits at i*2 + j.  Listing the objects and the morphisms backwards is the
        # automorphism that swaps the two objects, so it gives matrix_groupoid(2) back.
        mg2 = matrix_groupoid(2)
        assert _restricted(mg2, [1, 0], [3, 2, 1, 0]) == mg2
        assert _restricted(mg2, [1], [3]) == matrix_groupoid(1)

    def test_an_unlisted_identity_is_none(self, idem_cat):
        assert _restricted(idem_cat, [0], [1]) == FinitePrecategory(1, ((0, 0),), ((0,),), (None,))

    def test_an_unlisted_composite_is_refused(self, z2_cat):
        with pytest.raises(ValidationError, match="not closed under composition"):
            _restricted(matrix_groupoid(2), [0, 1], [1, 2])  # e(0,1) e(1,0) = e(0,0)
        with pytest.raises(ValidationError, match="not closed under composition"):
            _restricted(z2_cat, [0], [1])
