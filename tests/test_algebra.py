import dataclasses
import functools
import itertools
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from gradeforge import algebra as alg
from gradeforge.algebra import (
    ElementaryFamily,
    base_family,
    category_algebra,
    contracted_algebra,
    enumerate_category_filters,
    enumerate_category_gradings,
    enumerate_elementary_filters,
    enumerate_elementary_gradings,
    enumerate_nonzero_elementary_filters,
    enumerate_nonzero_elementary_gradings,
    grading_from_relation,
    is_elementary,
    is_filter,
    is_grading,
    is_nonzero,
    is_strong,
    magma_algebra,
    relation_from_filter,
)
from gradeforge.budget import Budget
from gradeforge.category import adjoin_zero, enumerate_prefunctors, enumerate_subprecategory_pairs, validate_precategory
from gradeforge.errors import (
    BasisMismatchError,
    IndexOutOfRangeError,
    MissingZeroError,
    NotACategoryError,
    OracleDisagreementError,
    SizeOverflowError,
    ValidationError,
)
from gradeforge.io import emit_report, family_to_doc, parse_category, parse_family, parse_magma, print_magma
from gradeforge.magma import (
    PairRelation,
    cyclic_group_magma,
    enumerate_product_submagmas,
    enumerate_zero_submagmas,
    matrix_unit_zero_magma,
    with_zero_adjoined,
)

from conftest import ORDER2_WORDS, bare_object_precategory
from pair_families import pair_families


def parts_of(family):
    return tuple(tuple(sorted(p)) for p in family.parts)


class TestGradingFromRelation:
    def test_empty_relation_gives_zero_family(self, order2):
        a = magma_algebra(order2["aaaa"])
        fam = grading_from_relation(a, PairRelation(order2["aaaa"], order2["aaaa"], frozenset()))
        assert parts_of(fam) == ((), ())

    def test_two_pairs_collapse_to_one_part(self, order2):
        a = magma_algebra(order2["aaaa"])
        rel = PairRelation(order2["aaaa"], order2["aaaa"], frozenset({(0, 0), (1, 0)}))
        assert parts_of(grading_from_relation(a, rel)) == ((0, 1), ())

    def test_wrong_source_rejected(self, order2):
        a = magma_algebra(order2["aaaa"])
        rel = PairRelation(order2["abba"], order2["aaaa"], frozenset())
        with pytest.raises(BasisMismatchError):
            grading_from_relation(a, rel)

    @pytest.mark.parametrize(
        "pair", [(0.5, 0), (True, 0), (0, 1.0), (0, "1"), (None, 0)], ids=["fraction", "bool", "float", "str", "none"]
    )
    def test_relation_pairs_must_be_plain_ints(self, order2, pair):
        # (0.5, 0) was accepted, and grading_from_relation then raised a bare TypeError; (True, 0) was accepted.
        with pytest.raises(IndexOutOfRangeError):
            PairRelation(order2["abab"], order2["abab"], frozenset({pair}))

    @pytest.mark.parametrize("index", [0.5, True, 1.0, "0", None], ids=["fraction", "bool", "float", "str", "none"])
    def test_part_indices_must_be_plain_ints(self, order2, index):
        # frozenset({0.5}) was accepted, and is_filter then raised a bare TypeError; frozenset({True}) was accepted.
        a = magma_algebra(order2["abab"])
        with pytest.raises(BasisMismatchError, match=f"basis index {index!r} outside 0..1"):
            ElementaryFamily(algebra=a, target=order2["abab"], parts=(frozenset({index}), frozenset()))

    def test_part_indices_validated(self, order2):
        a = magma_algebra(order2["aaaa"])
        with pytest.raises(BasisMismatchError):
            ElementaryFamily(algebra=a, target=order2["aaaa"], parts=(frozenset({5}), frozenset()))

    @pytest.mark.parametrize("bad", [2, -1, 10 ** 30])
    def test_out_of_range_index_named(self, order2, bad):
        # once in a part shared by both targets' elements, once next to valid indices
        a = magma_algebra(order2["aaaa"])
        for parts in ((frozenset({0, bad}),) * 2, (frozenset({1}), frozenset({0, 1, bad}))):
            with pytest.raises(BasisMismatchError, match=f"basis index {bad} outside 0..1"):
                ElementaryFamily(algebra=a, target=order2["aaaa"], parts=parts)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_parsed_family_out_of_range(self, order2, bad):
        a = magma_algebra(order2["aaaa"])
        target = {"format": "magma", "text": print_magma(order2["abab"])}
        text = json.dumps({"kind": "family", "target": target, "parts": {"1": [0, bad]}})
        with pytest.raises(BasisMismatchError, match=f"basis index {bad} outside"):
            parse_family(text, a)
        good = family_to_doc(ElementaryFamily(a, order2["abab"], (frozenset(), frozenset({0, 1}))), print_magma(order2["abab"]), "magma")
        assert parse_family(emit_report(good), a).parts == (frozenset(), frozenset({0, 1}))


class TestRelationFromFilter:
    def test_round_trip_over_all_submagmas(self, order2):
        g, h = order2["aaaa"], order2["aaaa"]
        a = magma_algebra(g)
        for pairs in enumerate_product_submagmas(g, h):
            fam = grading_from_relation(a, PairRelation(g, h, pairs))
            assert relation_from_filter(a, fam).pairs == pairs

    def test_zero_family_maps_to_empty_relation(self, order2):
        a = magma_algebra(order2["abab"])
        fam = ElementaryFamily(algebra=a, target=order2["abab"], parts=(frozenset(), frozenset()))
        assert relation_from_filter(a, fam).pairs == frozenset()

    def test_full_family_maps_to_full_relation(self, order2):
        a = magma_algebra(order2["abab"])
        full = frozenset({0, 1})
        fam = ElementaryFamily(algebra=a, target=order2["abab"], parts=(full, full))
        assert relation_from_filter(a, fam).pairs == frozenset(itertools.product(range(2), range(2)))

    def test_family_over_another_algebra_is_refused(self, order2):
        g = order2["abab"]
        family = ElementaryFamily(algebra=magma_algebra(g, 3), target=g, parts=(frozenset(), frozenset()))
        with pytest.raises(BasisMismatchError):
            relation_from_filter(magma_algebra(g), family)

    def test_family_needs_one_part_per_target_element(self, order2):
        g = order2["abab"]
        with pytest.raises(BasisMismatchError):
            ElementaryFamily(algebra=magma_algebra(g), target=g, parts=(frozenset(),))

    def test_monotone(self, order2):
        g, h = order2["abaa"], order2["aabb"]
        a = magma_algebra(g)
        rels = enumerate_product_submagmas(g, h)
        fams = {pairs: grading_from_relation(a, PairRelation(g, h, pairs)) for pairs in rels}
        for r1 in rels:
            for r2 in rels:
                if r1 <= r2:
                    f1, f2 = fams[r1], fams[r2]
                    assert all(p1 <= p2 for p1, p2 in zip(f1.parts, f2.parts))


class TestAxiomChecks:
    def test_base_family_is_strong_grading(self, order2):
        for word in ORDER2_WORDS:
            a = magma_algebra(order2[word])
            fam = base_family(a)
            assert is_strong(a, fam) and is_grading(a, fam) and is_nonzero(a, fam)

    def test_contracted_base_family(self):
        a = contracted_algebra(matrix_unit_zero_magma(2))
        fam = base_family(a)
        assert is_strong(a, fam) and is_nonzero(a, fam)

    def test_filter_but_not_grading(self, involution_cat, idem_cat):
        # one basis line sits in two parts, so the sum is not direct
        a = category_algebra(involution_cat)
        target = adjoin_zero(idem_cat)
        fam = ElementaryFamily(
            algebra=a,
            target=target,
            parts=(frozenset({0, 3}), frozenset({1, 3}), frozenset()),
        )
        assert is_filter(a, fam)
        verdict = is_grading(a, fam)
        assert not verdict and verdict.witness == (3,)

    def test_failed_filter_reports_witness(self, order2):
        a = magma_algebra(order2["abba"])
        # parts[a] = {b}: b*b = a lands outside parts[a*a] = parts[a]
        fam = ElementaryFamily(algebra=a, target=order2["abba"], parts=(frozenset({1}), frozenset()))
        verdict = is_filter(a, fam)
        assert not verdict and verdict.witness == (0, 0)

    def test_nonzero_zero_variant(self, idem_pair_zero3, idem_zero2):
        a = magma_algebra(idem_pair_zero3)
        fam = ElementaryFamily(
            algebra=a,
            target=idem_zero2,
            parts=(frozenset({0, 1}), frozenset({2})),
        )
        assert is_nonzero(a, fam)
        bad = ElementaryFamily(
            algebra=a,
            target=idem_zero2,
            parts=(frozenset({0, 1, 2}), frozenset()),
        )
        assert not is_nonzero(a, bad)

    @pytest.mark.parametrize("check", [is_filter, is_grading, is_strong, is_nonzero, is_elementary])
    @pytest.mark.parametrize("algebra_order, family_order", [(2, 4), (4, 2)], ids=["z2-family-over-z4", "z4-family-over-z2"])
    def test_family_over_another_algebra_is_refused(self, check, algebra_order, family_order):
        # As relation_from_filter refuses it; before, an IndexError, or a verdict on the wrong basis.
        algebra = magma_algebra(cyclic_group_magma(algebra_order))
        with pytest.raises(BasisMismatchError, match="different algebra"):
            check(algebra, base_family(magma_algebra(cyclic_group_magma(family_order))))

    @pytest.mark.parametrize("check", [is_filter, is_grading, is_strong, is_nonzero, is_elementary])
    def test_family_over_an_equal_algebra_is_checked(self, check):
        assert check(magma_algebra(cyclic_group_magma(4)), base_family(magma_algebra(cyclic_group_magma(4))))

    def test_elementary_always_holds_for_subset_families(self, order2):
        a = magma_algebra(order2["aabb"])
        for pairs in enumerate_product_submagmas(order2["aabb"], order2["aabb"]):
            assert is_elementary(a, grading_from_relation(a, PairRelation(order2["aabb"], order2["aabb"], pairs)))

    def test_field_independence(self, order2, involution_cat, idem_cat):
        for word in ("aaaa", "abba", "abaa"):
            g = order2[word]
            for pairs in enumerate_product_submagmas(g, g):
                verdicts2 = []
                verdicts5 = []
                for p, sink in ((2, verdicts2), (5, verdicts5)):
                    a = magma_algebra(g, p)
                    fam = grading_from_relation(a, PairRelation(g, g, pairs))
                    for check in (is_filter, is_grading, is_strong, is_nonzero, is_elementary):
                        sink.append(check(a, fam).holds)
                assert verdicts2 == verdicts5


class TestOracleDisagreement:
    @pytest.mark.parametrize("prop", ["filter", "grading", "strong", "nonzero", "elementary"])
    def test_inverted_span_verdict_raises(self, order2, monkeypatch, prop):
        a = magma_algebra(order2["abab"])
        family = base_family(a)
        span_half = getattr(alg, f"_{prop}_span")
        monkeypatch.setattr(alg, f"_{prop}_span", lambda algebra, fam: (not span_half(algebra, fam)[0], None))
        with pytest.raises(OracleDisagreementError, match=prop):
            getattr(alg, f"is_{prop}")(a, family)


class TestScalarModulus:
    @pytest.mark.parametrize("p", [2, 3, 5, 7919, 10**18 + 3, 18446744073709551557])
    def test_primes_accepted_quickly(self, order2, p):
        start = time.perf_counter()
        a = magma_algebra(order2["abab"], p)
        assert time.perf_counter() - start < 0.5
        assert a.scalar_modulus == p

    @pytest.mark.parametrize(
        "n",
        [
            -3, 0, 1, 4, 1681,
            561,  # Carmichael number
            2047,  # strong pseudoprime to base 2
            3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
            3825123056546413051,  # strong pseudoprime to every prime base up to 23
        ],
    )
    def test_composites_rejected(self, order2, n):
        with pytest.raises(ValidationError, match="not prime"):
            magma_algebra(order2["abab"], n)

    def test_modulus_of_64_bits_or_more_rejected(self, order2):
        # 2**64 + 13 is prime, but beyond the range where the test is exact.
        with pytest.raises(ValidationError, match="2\\*\\*64"):
            contracted_algebra(with_zero_adjoined(order2["abab"]), 2**64 + 13)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert all(alg._is_prime(n) == trial(n) for n in range(5000))

    @pytest.mark.parametrize("p", [2.0, 3.0, True, "3", None])
    def test_modulus_must_be_a_plain_int(self, order2, p):
        for build in (magma_algebra, contracted_algebra):
            with pytest.raises(ValidationError, match="scalar modulus must be an int"):
                build(with_zero_adjoined(order2["abab"]), p)

    def test_modulus_is_checked_before_the_zero(self, order2):
        with pytest.raises(ValidationError, match="not prime"):
            contracted_algebra(order2["abab"], 4)


class TestPresentationsAgainstDefinitions:
    """Both presentations of every .mag fixture against structure constants written out here."""

    @pytest.fixture(scope="class")
    def magmas(self, data_dir):
        return [parse_magma(path.read_text(encoding="utf-8")) for path in sorted(data_dir.glob("*.mag"))]

    def test_magma_algebra(self, magmas):
        for g in magmas:
            a = magma_algebra(g, 3)
            n = g.order
            assert (a.source, a.basis_size, a.scalar_modulus, a.contracted) == (g, n, 3, False)
            assert a.source_of_basis == a.basis_of_source == tuple(range(n))
            assert a.structure == tuple(tuple(g.table[s][t] for t in range(n)) for s in range(n))

    def test_contracted_algebra(self, magmas):
        checked = 0
        for g in magmas:
            if g.zero is None:
                with pytest.raises(MissingZeroError):
                    contracted_algebra(g)
                continue
            a = contracted_algebra(g, 5)
            basis = [x for x in range(g.order) if x != g.zero]
            assert (a.source, a.basis_size, a.scalar_modulus, a.contracted) == (g, g.order - 1, 5, True)
            assert a.source_of_basis == tuple(basis)
            assert a.basis_of_source == tuple(None if x == g.zero else basis.index(x) for x in range(g.order))
            assert a.structure == tuple(
                tuple(None if g.table[s][t] == g.zero else basis.index(g.table[s][t]) for t in basis) for s in basis
            )
            checked += 1
        assert checked == 4


class TestPresentationIsItsInputs:
    """A presentation is its source, field and contraction.  Its basis and structure constants are
    computed from those three, dataclasses.replace re-checks the field, and no computed field can be
    set, so no presentation disagrees with its own source."""

    COMPUTED = ("basis_size", "structure", "source_of_basis", "basis_of_source")

    @pytest.fixture(scope="class")
    def builds(self, order2, idem_pair_zero3, idem_zero2, data_dir):
        """(builder, operand) for the conftest magmas, the zero magmas and the .cat fixtures."""
        magmas = list(order2.values())
        zero_magmas = [idem_pair_zero3, idem_zero2, *map(with_zero_adjoined, magmas)]
        categories = [parse_category(path.read_text(encoding="utf-8")) for path in sorted(data_dir.glob("*.cat"))]
        return [
            *((magma_algebra, g) for g in magmas + zero_magmas),
            *((contracted_algebra, g) for g in zero_magmas),
            *((category_algebra, c) for c in categories),
        ]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_computed_fields_follow_from_the_inputs(self, builds, data):
        build, operand = data.draw(st.sampled_from(builds), label="algebra")
        p = data.draw(st.sampled_from([2, 3, 5]), label="p")
        a = build(operand, p)
        g, dropped = a.source, a.source.zero if a.contracted else None
        assert (a.scalar_modulus, a.contracted) == (p, build is not magma_algebra)
        assert a.source_of_basis == tuple(x for x in range(g.order) if x != dropped)
        assert a.basis_of_source == tuple(None if x == dropped else a.source_of_basis.index(x) for x in range(g.order))
        assert a.structure == tuple(
            tuple(a.basis_of_source[g.table[s][t]] for t in a.source_of_basis) for s in a.source_of_basis
        )
        assert a.basis_size == len(a.source_of_basis)
        with pytest.raises(ValidationError, match="4 is not prime"):
            dataclasses.replace(a, scalar_modulus=4)
        moved = dataclasses.replace(a, scalar_modulus=5)
        fresh = (contracted_algebra if a.contracted else magma_algebra)(g, 5)
        assert moved == fresh and hash(moved) == hash(fresh) and (moved == a) == (p == 5)
        assert [getattr(moved, name) for name in self.COMPUTED] == [getattr(fresh, name) for name in self.COMPUTED]
        name = data.draw(st.sampled_from(self.COMPUTED), label="computed field")
        with pytest.raises((ValueError, TypeError), match="init=False"):  # TypeError from Python 3.13
            dataclasses.replace(a, **{name: getattr(a, name)})

    @pytest.mark.parametrize("contracted", [None, 0, 1, "yes"])
    def test_contracted_must_be_a_bool(self, order2, contracted):
        # Else None would build a plain algebra unequal to magma_algebra's, which its enumerations refuse.
        with pytest.raises(ValidationError, match=f"contracted must be a bool, got {contracted!r}"):
            alg.AlgebraPresentation(order2["aaab"], 2, contracted)


class TestPlainEnumerations:
    def test_single_grading_from_single_hom(self, order2):
        a = magma_algebra(order2["aaaa"])
        fams = enumerate_elementary_gradings(a, order2["abaa"])
        assert len(fams) == 1
        assert parts_of(fams[0]) == ((0, 1), ())

    def test_four_gradings_on_the_two_element_group_magma(self, order2):
        a = magma_algebra(order2["aabb"])
        fams = enumerate_elementary_gradings(a, order2["aabb"])
        assert len(fams) == 4
        for fam in fams:
            assert is_grading(a, fam)

    def test_nine_filters_of_the_constant_magma(self, order2):
        a = magma_algebra(order2["aaaa"])
        fams = enumerate_elementary_filters(a, order2["aaaa"])
        assert len(fams) == 9
        listed = {
            ((), ()),
            ((0,), ()),
            ((0,), (0,)),
            ((0, 1), ()),
            ((0,), (1,)),
            ((0, 1), (0,)),
            ((0,), (0, 1)),
            ((0, 1), (1,)),
            ((0, 1), (0, 1)),
        }
        assert {parts_of(f) for f in fams} == listed
        for fam in fams:
            assert is_filter(a, fam)

    def test_six_filters_of_the_group_magma(self, order2):
        a = magma_algebra(order2["abba"])
        fams = enumerate_elementary_filters(a, order2["abba"])
        assert len(fams) == 6

    def test_distinctness_via_round_trip(self, order2):
        for gw in ("aaaa", "abaa", "aabb"):
            for hw in ("aaaa", "aabb", "abba"):
                g, h = order2[gw], order2[hw]
                a = magma_algebra(g)
                fams = enumerate_elementary_filters(a, h)
                relations = [relation_from_filter(a, fam).pairs for fam in fams]
                assert len(set(relations)) == len(relations)

    @pytest.mark.parametrize(
        "enumerate_, contracted, message",
        [
            (enumerate_elementary_gradings, True, "plain gradings live on the plain magma algebra"),
            (enumerate_nonzero_elementary_gradings, False, "nonzero gradings live on the contracted algebra"),
            (enumerate_elementary_filters, True, "plain filters live on the plain magma algebra"),
            (enumerate_nonzero_elementary_filters, False, "nonzero filters live on the contracted algebra"),
        ],
        ids=["gradings", "nonzero-gradings", "filters", "nonzero-filters"],
    )
    def test_variant_mismatch_rejected(self, idem_pair_zero3, enumerate_, contracted, message):
        # One node is too few for any of the four searches here, so a check made after the search
        # would meet SizeOverflowError first.
        a = (contracted_algebra if contracted else magma_algebra)(idem_pair_zero3)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            enumerate_(a, idem_pair_zero3, Budget(max_nodes=1))


class TestZeroEnumerations:
    def test_matrix_algebra_grading_counts(self):
        for n, q in [(2, 2), (2, 3), (3, 2)]:
            a = contracted_algebra(matrix_unit_zero_magma(n))
            target = with_zero_adjoined(cyclic_group_magma(q))
            fams = enumerate_nonzero_elementary_gradings(a, target)
            assert len(fams) == q ** (n - 1)
            for fam in fams:
                assert is_grading(a, fam)
                assert fam.parts[target.zero] == frozenset()

    def test_grading_parts_partition_matrix_units(self):
        a = contracted_algebra(matrix_unit_zero_magma(2))
        target = matrix_unit_zero_magma(2)
        fams = enumerate_nonzero_elementary_gradings(a, target)
        assert len(fams) == 4
        for fam in fams:
            assert is_grading(a, fam)

    def test_zero_filters_require_contracted_algebra(self, idem_pair_zero3, idem_zero2):
        a = contracted_algebra(idem_pair_zero3)
        fams = enumerate_nonzero_elementary_filters(a, idem_zero2)
        assert len(fams) == len(enumerate_zero_submagmas(idem_pair_zero3, idem_zero2))
        for fam in fams:
            assert is_filter(a, fam)

    def test_zero_round_trip_is_exact_on_the_plain_algebra(self, idem_pair_zero3, idem_zero2):
        # with the magma zero kept as a basis line, the relation/filter round
        # trip is exact for every zero submagma, including relations pairing
        # the source zero with nonzero targets
        a = magma_algebra(idem_pair_zero3)
        for pairs in enumerate_zero_submagmas(idem_pair_zero3, idem_zero2):
            fam = grading_from_relation(a, PairRelation(idem_pair_zero3, idem_zero2, pairs))
            assert relation_from_filter(a, fam).pairs == pairs

    def test_counterexample_family_fails_plain_filter_axiom(self, idem_pair_zero3, idem_zero2):
        # over the plain algebra the zero-hom image is not a filter: a*b = 0 is a
        # basis line there, and it lands outside W_{c*c}
        plain = magma_algebra(idem_pair_zero3)
        fam = ElementaryFamily(
            algebra=plain,
            target=idem_zero2,
            parts=(frozenset({0, 1}), frozenset({2})),
        )
        assert not is_filter(plain, fam)
        # over the contracted algebra the same assignment is a nonzero grading
        contracted = contracted_algebra(idem_pair_zero3)
        fam2 = ElementaryFamily(
            algebra=contracted,
            target=idem_zero2,
            parts=(frozenset({0, 1}), frozenset()),
        )
        assert is_grading(contracted, fam2) and is_nonzero(contracted, fam2)


class TestCategoryEnumerations:
    def test_four_functor_gradings_with_reference_parts(self, involution_cat, z2_cat):
        a, fams = enumerate_category_gradings(involution_cat, z2_cat)
        assert len(fams) == 4
        listed = {
            ((0, 1, 2, 3, 4), (), ()),
            ((0, 1, 3), (2, 4), ()),
            ((0, 1, 2), (3, 4), ()),
            ((0, 1, 4), (2, 3), ()),
        }
        assert {parts_of(f) for f in fams} == listed
        for fam in fams:
            assert is_grading(a, fam) and is_elementary(a, fam)

    def test_five_prefunctor_gradings(self, involution_cat, idem_cat):
        a, fams = enumerate_category_gradings(involution_cat, idem_cat, prefunctors=True)
        assert len(fams) == 5
        for fam in fams:
            assert is_grading(a, fam)

    def test_prefunctor_gradings_are_exactly_the_valid_assignments(self, involution_cat, idem_cat):
        # brute force over every assignment of the five basis lines to the two
        # target morphisms; the filter axioms pick out the same five families
        a, fams = enumerate_category_gradings(involution_cat, idem_cat, prefunctors=True)
        target = adjoin_zero(idem_cat)
        valid = set()
        for assign in itertools.product(range(2), repeat=5):
            parts = tuple(
                frozenset(i for i, v in enumerate(assign) if v == h) for h in range(2)
            ) + (frozenset(),)
            fam = ElementaryFamily(algebra=a, target=target, parts=parts)
            if is_grading(a, fam):
                valid.add(parts_of(fam))
        assert valid == {parts_of(f) for f in fams}

    def test_filter_counts_match_subprecategories(self, involution_cat, z2_cat):
        from gradeforge.category import enumerate_subprecategory_pairs

        a, fams = enumerate_category_filters(involution_cat, z2_cat)
        assert len(fams) == len(enumerate_subprecategory_pairs(involution_cat, z2_cat))
        for fam in fams:
            assert is_filter(a, fam)


# Small enough that the order-4 products run out on both paths at the same node.
ORACLE_BUDGET = Budget(max_nodes=5_000)


def _same_or_both_exhausted(build, reference):
    """1 if the mask-built parts equal the reference parts, 0 if both run out of budget."""
    try:
        want = reference()
    except SizeOverflowError:
        with pytest.raises(SizeOverflowError):
            build()
        return 0
    assert [f.parts for f in build()] == want
    return 1


class TestMaskBuiltFamilies:
    """The three filter enumerators build families from kernel masks; the decoded pair sets of
    the public submagma searches, put through tests/pair_families.py, are the reference."""

    @pytest.fixture(scope="class")
    def magmas(self, data_dir):
        return [parse_magma(path.read_text(encoding="utf-8")) for path in sorted(data_dir.glob("*.mag"))]

    def test_filters_on_every_fixture_pair(self, magmas):
        checked = 0
        for source, target in itertools.product(magmas, repeat=2):
            a = magma_algebra(source)
            checked += _same_or_both_exhausted(
                lambda: enumerate_elementary_filters(a, target, ORACLE_BUDGET),
                lambda: pair_families(a, target, enumerate_product_submagmas(source, target, ORACLE_BUDGET)),
            )
        assert checked >= 370

    def test_nonzero_filters_on_every_zero_fixture_pair(self, magmas, idem_pair_zero3, idem_zero2):
        zero_magmas = [m for m in magmas if m.zero is not None] + [idem_pair_zero3, idem_zero2, matrix_unit_zero_magma(2)]
        checked = 0
        for source, target in itertools.product(zero_magmas, repeat=2):
            a = contracted_algebra(source)
            checked += _same_or_both_exhausted(
                lambda: enumerate_nonzero_elementary_filters(a, target, ORACLE_BUDGET),
                lambda: pair_families(a, target, enumerate_zero_submagmas(source, target, ORACLE_BUDGET)),
            )
        assert checked >= 45

    def test_category_filters_on_every_fixture_pair(self, data_dir, involution_cat, z2_cat, idem_cat):
        categories = [parse_category(path.read_text(encoding="utf-8")) for path in sorted(data_dir.glob("*.cat"))]
        categories += [involution_cat, z2_cat, idem_cat, parse_category("category 0 0\n")]  # last: empty basis
        checked = 0
        for source, target in itertools.product(categories, repeat=2):

            def reference():
                a = category_algebra(source)
                return pair_families(a, adjoin_zero(target), enumerate_subprecategory_pairs(source, target, ORACLE_BUDGET))

            checked += _same_or_both_exhausted(
                lambda: enumerate_category_filters(source, target, budget=ORACLE_BUDGET)[1],
                reference,
            )
        assert checked >= 45


class TestFamiliesPassTheCheckingConstructor:
    """_families builds each family without ElementaryFamily.__post_init__; every family of the six
    enumerators must still equal the one the checking constructor builds from its parts."""

    @staticmethod
    def passes(a, target, enumerate_families):
        """1 if every family equals its checked rebuild, 0 if the search runs over budget."""
        try:
            families = enumerate_families()
        except SizeOverflowError:
            return 0
        if isinstance(families, tuple):  # a category enumerator's (algebra, families)
            assert families[0] == a
            families = families[1]
        for family in families:
            rebuilt = ElementaryFamily(algebra=a, target=target, parts=family.parts)
            assert family == rebuilt and hash(family) == hash(rebuilt)
        return 1

    def test_magma_families_on_every_fixture_pair(self, data_dir):
        magmas = [parse_magma(path.read_text(encoding="utf-8")) for path in sorted(data_dir.glob("*.mag"))]
        checked = 0
        for source, target in itertools.product(magmas, repeat=2):
            plain = magma_algebra(source)
            for enumerate_ in (enumerate_elementary_gradings, enumerate_elementary_filters):
                checked += self.passes(plain, target, functools.partial(enumerate_, plain, target, ORACLE_BUDGET))
            if source.zero is not None and target.zero is not None:
                contracted = contracted_algebra(source)
                for enumerate_ in (enumerate_nonzero_elementary_gradings, enumerate_nonzero_elementary_filters):
                    enumerate_families = functools.partial(enumerate_, contracted, target, ORACLE_BUDGET)
                    checked += self.passes(contracted, target, enumerate_families)
        assert checked >= 800

    def test_category_families_on_every_fixture_pair(self, data_dir):
        categories = [parse_category(path.read_text(encoding="utf-8")) for path in sorted(data_dir.glob("*.cat"))]
        checked = 0
        for source, target in itertools.product(categories, repeat=2):
            a, indexed_by = category_algebra(source), adjoin_zero(target)
            for prefunctors in (False, True):
                gradings = functools.partial(
                    enumerate_category_gradings, source, target, prefunctors=prefunctors, budget=ORACLE_BUDGET
                )
                if not (prefunctors or source.is_category and target.is_category):
                    with pytest.raises(NotACategoryError):
                        gradings()
                    continue
                checked += self.passes(a, indexed_by, gradings)
            filters = functools.partial(enumerate_category_filters, source, target, budget=ORACLE_BUDGET)
            checked += self.passes(a, indexed_by, filters)
        assert checked >= 85


class TestFamilyEnumerationCounts:
    """The count the JSON envelope prints comes from _family_enumeration before any family is
    built.  It must be the number of packed families it yields, and their families the public
    enumerator's list, in order (category gradings drop repeated morphism maps)."""

    MAGMA_KEYS = {
        ("gradings", False): enumerate_elementary_gradings,
        ("gradings", True): enumerate_nonzero_elementary_gradings,
        ("filters", False): enumerate_elementary_filters,
        ("filters", True): enumerate_nonzero_elementary_filters,
    }

    @staticmethod
    def agrees(key, source, target, public):
        """1 if the count, the families and the public list agree, 0 if the search runs over budget."""
        try:
            algebra, indexed_by, count, packed = alg._family_enumeration(*key, source, target, ORACLE_BUDGET)
        except SizeOverflowError:
            return 0
        families = list(alg._families(algebra, indexed_by, packed))
        assert count == len(families)
        expected = public()
        if isinstance(expected, tuple):  # a category enumerator's (algebra, families)
            assert expected[0] == algebra
            expected = expected[1]
        assert families == expected
        return 1

    def test_magma_keys_on_every_fixture_pair(self, data_dir):
        magmas = [parse_magma(path.read_text(encoding="utf-8")) for path in sorted(data_dir.glob("*.mag"))]
        checked = 0
        for source, target in itertools.product(magmas, repeat=2):
            for (command, zero), enumerate_ in self.MAGMA_KEYS.items():
                if zero and (source.zero is None or target.zero is None):
                    continue
                a = (contracted_algebra if zero else magma_algebra)(source)
                public = functools.partial(enumerate_, a, target, ORACLE_BUDGET)
                checked += self.agrees((command, zero), a, target, public)
        assert checked >= 800

    @staticmethod
    def categories(data_dir):
        return [parse_category(path.read_text(encoding="utf-8")) for path in sorted(data_dir.glob("*.cat"))]

    def test_category_keys_on_every_fixture_pair(self, data_dir):
        categories = self.categories(data_dir)
        checked = 0
        for source, target in itertools.product(categories, repeat=2):
            for prefunctors in (False, True):
                public = functools.partial(
                    enumerate_category_gradings, source, target, prefunctors=prefunctors, budget=ORACLE_BUDGET
                )
                if not (prefunctors or source.is_category and target.is_category):
                    for call in (public, functools.partial(alg._family_enumeration, "gradings", False, source, target, ORACLE_BUDGET)):
                        with pytest.raises(NotACategoryError):
                            call()
                    continue
                checked += self.agrees(("gradings", prefunctors), source, target, public)
            public = functools.partial(enumerate_category_filters, source, target, budget=ORACLE_BUDGET)
            checked += self.agrees(("filters", False), source, target, public)
        assert checked >= 85

    def test_prefunctors_that_differ_off_every_morphism_give_one_grading(self, data_dir):
        # Object 1 of the source touches no morphism, so prefunctors that differ only in its image
        # give one grading: the count is below the number of prefunctors.
        source = bare_object_precategory()
        for target in [source, *self.categories(data_dir)]:
            public = functools.partial(enumerate_category_gradings, source, target, prefunctors=True, budget=ORACLE_BUDGET)
            assert self.agrees(("gradings", True), source, target, public)
        count = alg._family_enumeration("gradings", True, source, source, ORACLE_BUDGET)[2]
        assert count < len(enumerate_prefunctors(source, source, ORACLE_BUDGET))

    def test_objects_no_morphism_touches_cost_no_nodes(self):
        # The 3^20 prefunctors from 20 bare objects to 3 share one (empty) morphism map: one grading,
        # found within 10 nodes because the search does not expand the objects.
        source, target = validate_precategory(20, [], [], None), validate_precategory(3, [], [], None)
        families = enumerate_category_gradings(source, target, prefunctors=True, budget=Budget(max_nodes=10))[1]
        assert [family.parts for family in families] == [(frozenset(),)]

    def test_prefunctors_are_gradings_times_the_images_of_the_bare_object(self, data_dir):
        source = bare_object_precategory()
        for target in [source, *self.categories(data_dir)]:
            gradings = enumerate_category_gradings(source, target, prefunctors=True, budget=ORACLE_BUDGET)[1]
            assert len(enumerate_prefunctors(source, target, ORACLE_BUDGET)) == len(gradings) * target.object_count
