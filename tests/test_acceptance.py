"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  For two
worked examples the catalogue states a count that the definitions contradict
(criterion 7: 8 prefunctors, criterion 8: 6 filters).  Those tests check the
enumerators against a brute force from the definitions and record each stated
value as an erratum: which catalogue entries are wrong or missing, and why.
"""

import itertools
import math
import time

from gradeforge.algebra import (
    ElementaryFamily,
    category_algebra,
    contracted_algebra,
    enumerate_category_filters,
    enumerate_category_gradings,
    enumerate_elementary_filters,
    enumerate_nonzero_elementary_gradings,
    grading_from_relation,
    is_filter,
    is_grading,
    magma_algebra,
    relation_from_filter,
)
from gradeforge.category import (
    adjoin_zero,
    enumerate_functors,
    enumerate_prefunctors,
    enumerate_subprecategory_pairs,
    group_as_category,
    connected_groupoid,
    matrix_groupoid,
)
from gradeforge.counting import (
    count_abelian_homs,
    count_functors_connected_groupoids,
    count_surjective_functions,
    subspaces_report,
)
from gradeforge.io import (
    detect_kind,
    parse_category,
    parse_magma,
    print_category,
    print_magma,
)
from gradeforge.magma import (
    PairRelation,
    abelian_group_magma,
    canonical_form,
    census,
    cyclic_group_magma,
    enumerate_homs,
    enumerate_product_submagmas,
    enumerate_submagmas,
    enumerate_zero_homs,
    magma_from_word,
    matrix_unit_zero_magma,
    with_zero_adjoined,
    word_of_magma,
)

from conftest import (
    HOM_TABLE,
    MAP_SYMBOLS,
    ORDER2_WORDS,
    brute_force_prefunctors,
    dihedral_group_table,
    quaternion_group_table,
    symmetric_group_table,
)
from test_cli import run_cli
from zero_reductions import enumerate_prefunctors_via_zero_homs, subprecategory_pairs_via_zero_submagmas


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    return ok


def parts_of(family):
    return tuple(tuple(sorted(p)) for p in family.parts)


def test_criterion_01_census_of_order_two(order2):
    classes = census(2)
    named = {order2[w].table for w in ORDER2_WORDS}
    ok = len(classes) == 10 and {m.table for m in classes} == named
    ok = ok and all(canonical_form(order2[w]).table == order2[w].table for w in ORDER2_WORDS)
    assert report("criterion 1: order-2 census matches the ten named classes", ok)


def test_criterion_02_hom_table(order2):
    mismatches = []
    for gw in ORDER2_WORDS:
        for hw in ORDER2_WORDS:
            found = "".join(sorted(MAP_SYMBOLS[m] for m in enumerate_homs(order2[gw], order2[hw])))
            if found != "".join(sorted(HOM_TABLE[gw][hw])):
                mismatches.append((gw, hw, found))
    assert report(
        "criterion 2: all 100 order-2 hom-sets match the reference table",
        not mismatches,
        "100 assertions",
    ), mismatches


def test_criterion_03_zero_hom_counterexample(idem_pair_zero3, idem_zero2):
    f = (0, 0, 1)
    in_zero = f in enumerate_zero_homs(idem_pair_zero3, idem_zero2)
    in_plain = f in enumerate_homs(idem_pair_zero3, idem_zero2)
    assert report("criterion 3: zero-hom counterexample found only by zero-hom search", in_zero and not in_plain)


def test_criterion_04_matrix_grading_counts():
    ok = True
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        algebra = contracted_algebra(matrix_unit_zero_magma(n))
        target = with_zero_adjoined(cyclic_group_magma(q))
        families = enumerate_nonzero_elementary_gradings(algebra, target)
        ok = ok and len(families) == q ** (n - 1)
        ok = ok and all(is_grading(algebra, fam) for fam in families)
    assert report("criterion 4: matrix algebra grading counts equal q^(n-1)", ok, "(n,q) grid")


def test_criterion_05_matrix_unit_zero_hom_counts():
    ok = True
    for m in range(1, 4):
        for n in range(1, 4):
            count = len(enumerate_zero_homs(matrix_unit_zero_magma(m), matrix_unit_zero_magma(n)))
            ok = ok and count == n ** m
    assert report("criterion 5: zero-hom counts between matrix-unit magmas equal n^m", ok, "m,n <= 3")


def test_criterion_06_thin_category_counts():
    ok = True
    prefactored_matches = []
    for m in range(1, 5):
        for n in range(1, 5):
            functors = enumerate_functors(matrix_groupoid(m), matrix_groupoid(n))
            ok = ok and len(functors) == n ** m
            surjective = sum(1 for f in functors if len(set(f.object_map)) == n)
            expected = count_surjective_functions(m, n)
            ok = ok and surjective == expected
            prefactored = expected // math.factorial(n)
            prefactored_matches.append(((m, n), prefactored == surjective))
    agreeing = sum(1 for _, same in prefactored_matches if same)
    assert report(
        "criterion 6: thin-category functor and surjection counts",
        ok,
        f"prefactored value agrees on {agreeing}/{len(prefactored_matches)} instances",
    )


FUNCTOR_GRADINGS = {
    ((0, 1, 2, 3, 4), (), ()),
    ((0, 1, 3), (2, 4), ()),
    ((0, 1, 2), (3, 4), ()),
    ((0, 1, 4), (2, 3), ()),
}

PREFUNCTOR_CATALOGUE = [
    (((0, 1, 2, 3, 4), (), ()), True),
    (((1, 3), (0, 2, 4), ()), False),
    (((0, 1, 2), (3, 4), ()), True),
    (((0, 2, 3, 4), (1,), ()), False),
    (((1,), (0, 2, 3, 4), ()), True),
    (((3,), (0, 1, 2, 4), ()), False),
    (((0, 2), (1, 3, 4), ()), True),
    (((), (0, 1, 2, 3, 4), ()), True),
]


def test_criterion_07_functor_fixtures(involution_cat, z2_cat, idem_cat):
    functors = enumerate_functors(involution_cat, z2_cat)
    ok = [f.morphism_map for f in functors] == [
        (0, 0, 0, 0, 0),
        (0, 0, 0, 1, 1),
        (0, 0, 1, 0, 1),
        (0, 0, 1, 1, 0),
    ]
    algebra, families = enumerate_category_gradings(involution_cat, z2_cat)
    ok = ok and {parts_of(f) for f in families} == FUNCTOR_GRADINGS
    ok = ok and all(is_grading(algebra, f) for f in families)

    # of the eight catalogued prefunctor part-sets, the five that satisfy the
    # filter axioms are produced verbatim and the other three are rejected by
    # the axiom checker itself
    algebra2, families2 = enumerate_category_gradings(involution_cat, idem_cat, prefunctors=True)
    produced = {parts_of(f) for f in families2}
    valid = {parts for parts, good in PREFUNCTOR_CATALOGUE if good}
    invalid = [parts for parts, good in PREFUNCTOR_CATALOGUE if not good]
    ok = ok and produced == valid
    target = adjoin_zero(idem_cat)
    for parts in invalid:
        fam = ElementaryFamily(algebra=algebra2, target=target, parts=tuple(frozenset(p) for p in parts))
        ok = ok and not is_filter(algebra2, fam)
    assert report("criterion 7: worked functor example and its gradings", ok, "4 functors, part-sets verbatim")


# The three catalogue entries marked False above, each with one composable
# pair (x, y), meaning x o y, whose composite it does not preserve.  Arrows of
# the involution category: 0 = id_a, 1 = id_b, 2 = s, 3 = u, 4 = v.
PREFUNCTOR_CATALOGUE_BREAKS = {
    ((1, 3), (0, 2, 4), ()): (3, 0),  # u o id_a = u
    ((0, 2, 3, 4), (1,), ()): (1, 3),  # id_b o u = u
    ((3,), (0, 1, 2, 4), ()): (3, 0),  # u o id_a = u
}


def morphism_map_of_parts(parts):
    """Read a morphism map off a grading part-set; the zero part must be empty."""
    assert parts[-1] == ()
    images = {s: t for t, part in enumerate(parts[:-1]) for s in part}
    return tuple(images[s] for s in range(len(images)))


def test_criterion_07_prefunctor_count_as_stated(involution_cat, idem_cat):
    # The catalogue lists eight part-sets; the definition admits five maps:
    # (0,0,0,0,0), (0,0,0,1,1), (0,1,0,1,1), (1,0,1,1,1) and (1,1,1,1,1).
    expected = brute_force_prefunctors(involution_cat, idem_cat)
    found = enumerate_prefunctors(involution_cat, idem_cat)
    ok = len(found) == len(expected) == 5
    ok = ok and {(f.object_map, f.morphism_map) for f in found} == expected

    # erratum: the catalogue's five True entries are exactly these maps, and
    # each False entry breaks the composite named for it
    maps = {arrows for _, arrows in expected}
    ok = ok and {morphism_map_of_parts(p) for p, good in PREFUNCTOR_CATALOGUE if good} == maps
    ok = ok and set(PREFUNCTOR_CATALOGUE_BREAKS) == {p for p, good in PREFUNCTOR_CATALOGUE if not good}
    for parts, (x, y) in PREFUNCTOR_CATALOGUE_BREAKS.items():
        f = morphism_map_of_parts(parts)
        ok = ok and f[involution_cat.comp[x][y]] != idem_cat.comp[f[x]][f[y]]
    assert report(
        "criterion 7: prefunctor count for the worked example as stated",
        ok,
        f"stated {len(PREFUNCTOR_CATALOGUE)}, enumerated {len(found)}; "
        f"{len(PREFUNCTOR_CATALOGUE_BREAKS)} catalogue entries break composition",
    )


FILTER_FIXTURES = [
    # (target name, pair set, family computed from the set, family as displayed)
    (
        "z2",
        {(0, 0), (3, 0), (3, 1), (1, 0), (1, 1)},
        ((0, 1, 3), (1, 3), ()),
        ((0, 1, 3), (1, 3), ()),
    ),
    (
        "z2",
        {(0, 0), (0, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (1, 0)},
        ((0, 1, 2, 3, 4), (0, 2, 3, 4), ()),
        ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4), ()),
    ),
    (
        "idem",
        {(0, 0), (3, 0), (3, 1), (1, 1)},
        ((0, 3), (1, 3), ()),
        ((0, 3), (1, 3), ()),
    ),
    (
        "idem",
        {(0, 0), (0, 1), (2, 0), (2, 1), (3, 1), (4, 1), (1, 0)},
        ((0, 1, 2), (0, 2, 3, 4), ()),
        ((0, 1, 2), (0, 1, 2, 3, 4), ()),
    ),
]


def test_criterion_07_filter_fixtures(involution_cat, z2_cat, idem_cat):
    targets = {"z2": z2_cat, "idem": idem_cat}
    ok = True
    for name, pairs, computed, displayed in FILTER_FIXTURES:
        target = targets[name]
        enumerated = set(enumerate_subprecategory_pairs(involution_cat, target))
        ok = ok and frozenset(pairs) in enumerated
        algebra, families = enumerate_category_filters(involution_cat, target)
        by_pairs = {
            frozenset(
                (s, t)
                for t, part in enumerate(fam.parts)
                for s in part
            ): parts_of(fam)
            for fam in families
        }
        ok = ok and by_pairs[frozenset(pairs)] == computed
        if displayed != computed:
            # the displayed family corresponds to the pair set extended by
            # (id_b, delta); that extension is itself a subprecategory
            extended = frozenset(pairs | {(1, 1)})
            ok = ok and extended in enumerated
            ok = ok and by_pairs[extended] == displayed
    assert report("criterion 7: the four filter fixtures are reproduced", ok)


AAAA_FILTER_PARTS = {
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

ABBA_FILTER_PARTS = {
    ((), ()),
    ((0,), ()),
    ((0,), (0,)),
    ((0, 1), ()),
    ((0,), (1,)),
    ((0, 1), (0, 1)),
}

ABAA_AABB_LISTED_PARTS = {
    ((), ()),
    ((0,), ()),
    ((), (0,)),
    ((0,), (0,)),
    ((0, 1), ()),
    ((0, 1), (0, 1)),
}


def test_criterion_08_filter_fixtures(order2):
    a = magma_algebra(order2["aaaa"])
    fams = enumerate_elementary_filters(a, order2["aaaa"])
    ok = len(fams) == 9 and {parts_of(f) for f in fams} == AAAA_FILTER_PARTS

    b = magma_algebra(order2["abba"])
    fams_b = enumerate_elementary_filters(b, order2["abba"])
    ok = ok and len(fams_b) == 6 and {parts_of(f) for f in fams_b} == ABBA_FILTER_PARTS

    c = magma_algebra(order2["abaa"])
    fams_c = enumerate_elementary_filters(c, order2["aabb"])
    ok = ok and ABAA_AABB_LISTED_PARTS <= {parts_of(f) for f in fams_c}
    assert report("criterion 8: filter listings for the three worked pairs", ok, "listed part-sets all present")


def word_table(word):
    """Cayley table spelled row by row, 'a' = 0, 'b' = 1, ..."""
    n = math.isqrt(len(word))
    return [[ord(word[i * n + j]) - ord("a") for j in range(n)] for i in range(n)]


def brute_force_filter_parts(left_word, right_word):
    """Part-sets of every subset of G x H closed under the componentwise product."""
    left, right = word_table(left_word), word_table(right_word)
    pairs = list(itertools.product(range(len(left)), range(len(right))))
    found = set()
    for r in range(len(pairs) + 1):
        for subset in itertools.combinations(pairs, r):
            chosen = set(subset)
            if all((left[g][g2], right[h][h2]) in chosen for g, h in chosen for g2, h2 in chosen):
                found.add(tuple(tuple(sorted(g for g, h in chosen if h == t)) for t in range(len(right))))
    return found


def test_criterion_08_abaa_aabb_count_as_stated(order2):
    # The catalogue lists six filters; abaa x aabb has seven closed subsets.
    # The seventh is {(a,b),(b,b)}, the graph of the constant-b homomorphism
    # (listed in HOM_TABLE): it is abaa x {b}, closed because b*b = b in aabb.
    missing = ((), (0, 1))
    expected = brute_force_filter_parts("abaa", "aabb")
    fams = enumerate_elementary_filters(magma_algebra(order2["abaa"]), order2["aabb"])
    ok = len(fams) == len(expected) == 7
    ok = ok and {parts_of(f) for f in fams} == expected
    ok = ok and missing not in ABAA_AABB_LISTED_PARTS and expected == ABAA_AABB_LISTED_PARTS | {missing}
    ok = ok and "b" in HOM_TABLE["abaa"]["aabb"]
    assert report(
        "criterion 8: filter count for the third worked pair as stated",
        ok,
        f"stated {len(ABAA_AABB_LISTED_PARTS)}, enumerated {len(fams)}; missing from the catalogue: {missing}",
    )


def test_criterion_09_round_trip_laws(order2):
    ok = True
    checked = 0
    for gw in ORDER2_WORDS:
        for hw in ORDER2_WORDS:
            left, right = order2[gw], order2[hw]
            algebra = magma_algebra(left)
            fams = []
            for pairs in enumerate_product_submagmas(left, right):
                fam = grading_from_relation(algebra, PairRelation(left, right, pairs))
                back = relation_from_filter(algebra, fam)
                ok = ok and back.pairs == pairs
                ok = ok and grading_from_relation(algebra, back).parts == fam.parts
                fams.append((pairs, fam))
                checked += 1
            for (p1, f1), (p2, f2) in itertools.product(fams, fams):
                if p1 <= p2:
                    ok = ok and all(a <= b for a, b in zip(f1.parts, f2.parts))
                if all(a <= b for a, b in zip(f1.parts, f2.parts)):
                    ok = ok and relation_from_filter(algebra, f1).pairs <= relation_from_filter(algebra, f2).pairs
    assert report("criterion 9: round-trip and monotonicity laws over all order-2 pairs", ok, f"{checked} submagmas")


def test_criterion_10_groupoid_formula_audit(z2_cat):
    z3 = group_as_category([[(i + j) % 3 for j in range(3)] for i in range(3)])
    gz2 = connected_groupoid(2, [[0, 1], [1, 0]])
    pairs = [
        (matrix_groupoid(2), z2_cat),
        (matrix_groupoid(2), matrix_groupoid(2)),
        (gz2, z2_cat),
        (matrix_groupoid(3), matrix_groupoid(2)),
        (z2_cat, z2_cat),
        (matrix_groupoid(2), gz2),
        (z3, z3),
        (gz2, gz2),
    ]
    ok = True
    printed_agree = 0
    for source, target in pairs:
        rep = count_functors_connected_groupoids(source, target)
        ok = ok and rep.agrees
        if rep.extras["printed_agrees"]:
            printed_agree += 1
    divergence = count_functors_connected_groupoids(matrix_groupoid(2), matrix_groupoid(2))
    ok = ok and divergence.brute_force_value == 4 and divergence.extras["printed_value"] == 1
    assert report(
        "criterion 10: corrected groupoid count matches brute force on all audited pairs",
        ok,
        f"{len(pairs)} pairs; printed formula agrees on {printed_agree}; thin-2 x thin-2 divergence 4 vs 1 recorded",
    )


def test_criterion_11_abelian_hom_formula():
    specs = [[1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [4, 2], [2, 2, 2]]
    ok = True
    for a in specs:
        for b in specs:
            formula = count_abelian_homs(a, b)
            brute = len(enumerate_homs(abelian_group_magma(a), abelian_group_magma(b)))
            ok = ok and formula == brute
            ok = ok and formula == count_abelian_homs(b, a)
    assert report("criterion 11: abelian hom counts match brute force and are symmetric", ok, "orders <= 8")


def naive_subgroups(magma):
    out = set()
    for r in range(1, magma.order + 1):
        for seed in itertools.combinations(range(magma.order), r):
            current = set(seed)
            while True:
                extra = {magma.table[x][y] for x in current for y in current} - current
                if not extra:
                    break
                current |= extra
            out.add(frozenset(current))
    return out


def test_criterion_12_subgroup_and_subspace_counts():
    groups = [cyclic_group_magma(n) for n in range(1, 9)]
    groups += [abelian_group_magma(f) for f in ([2, 2], [4, 2], [2, 2, 2])]
    from gradeforge.magma import validate_magma

    for table in (symmetric_group_table(3), dihedral_group_table(4), quaternion_group_table()):
        groups.append(validate_magma(len(table), table))
    ok = True
    for g in groups:
        ok = ok and set(enumerate_submagmas(g)) == naive_subgroups(g) | {frozenset()}
    both_readings = []
    for p, n in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        rep = subspaces_report(p, n)
        ok = ok and rep.agrees
        ok = ok and rep.extras["oracle_including_zero_subspace"] == rep.extras["including_zero_subspace"]
        both_readings.append((rep.closed_form_value, rep.extras["including_zero_subspace"]))
    assert report(
        "criterion 12: subgroup enumeration and subspace counts",
        ok,
        f"both readings reported: {both_readings}",
    )


def test_criterion_13_reduction_equivalences(involution_cat, z2_cat, idem_cat):
    cats = [involution_cat, z2_cat, idem_cat]
    ok = True
    for source in cats:
        for target in cats:
            direct = enumerate_prefunctors(source, target)
            reduced = enumerate_prefunctors_via_zero_homs(source, target)
            ok = ok and direct == reduced
    # the subprecategory correspondence is exact whenever the target has one
    # object (both worked examples); for a multi-object target the zero route
    # yields the composability-compatible subprecategories only, which
    # test_category pins down separately
    for source in cats:
        for target in (z2_cat, idem_cat):
            direct_sub = set(enumerate_subprecategory_pairs(source, target))
            reduced_sub = set(subprecategory_pairs_via_zero_submagmas(source, target))
            ok = ok and direct_sub == reduced_sub
    assert report(
        "criterion 13: adjoin-zero reductions agree with direct enumeration",
        ok,
        "prefunctors on 9 pairs; subprecategories on the 6 one-object-target pairs",
    )


def test_criterion_14_determinism_and_io(data_dir):
    ok = True
    for path in sorted(data_dir.iterdir()):
        text = path.read_text(encoding="utf-8")
        kind = detect_kind(text)
        if kind == "magma":
            value = parse_magma(text)
            printed = print_magma(value)
            ok = ok and parse_magma(printed) == value
            if path.name != "gz2_presented.cat":
                ok = ok and printed == text
        elif kind == "category":
            value = parse_category(text)
            printed = print_category(value)
            ok = ok and parse_category(printed) == value
            if path.name != "gz2_presented.cat":
                ok = ok and printed == text
    invocations = [
        ("census", "2", "--json"),
        ("filters", str(data_dir / "abaa.mag"), str(data_dir / "aabb.mag"), "--json"),
        ("gradings", str(data_dir / "gamma.cat"), str(data_dir / "lambda_z2.cat"), "--json"),
        ("count", "subspaces", "2", "3", "--json"),
    ]
    for argv in invocations:
        ok = ok and run_cli(*argv) == run_cli(*argv)
    assert report("criterion 14: fixture round trips and byte-identical reruns", ok)


def test_criterion_15_performance_smoke(data_dir):
    order4 = [parse_magma(p.read_text(encoding="utf-8")) for p in sorted(data_dir.glob("prod_*.mag"))]
    assert len(order4) >= 4
    start = time.monotonic()
    for left in order4:
        for right in order4:
            enumerate_homs(left, right)
    hom_elapsed = time.monotonic() - start
    start = time.monotonic()
    classes = census(3)
    census_elapsed = time.monotonic() - start
    ok = hom_elapsed < 5.0 and census_elapsed < 60.0 and len(classes) == 3330
    assert report(
        "criterion 15: performance smoke",
        ok,
        f"order-4 hom sweep {hom_elapsed:.2f}s, order-3 census {census_elapsed:.2f}s ({len(classes)} classes)",
    )
