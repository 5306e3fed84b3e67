import hashlib
import itertools
from math import gcd

import pytest

from gradeforge.budget import Budget
from gradeforge.errors import MissingZeroError, SizeOverflowError
from gradeforge.io import parse_magma
from gradeforge.magma import (
    abelian_group_magma,
    cyclic_group_magma,
    enumerate_homs,
    enumerate_zero_homs,
    matrix_unit_zero_magma,
    validate_magma,
)

from conftest import HOM_TABLE, MAP_SYMBOLS, ORDER2_WORDS, brute_force_homs, transformation_semigroup


def symbols(maps):
    return "".join(sorted(MAP_SYMBOLS[m] for m in maps))


def test_identity_and_constant_on_constant_magma(order2):
    maps = enumerate_homs(order2["aaaa"], order2["aaaa"])
    assert symbols(maps) == "1a"


def test_empty_hom_set(order2):
    assert enumerate_homs(order2["aaaa"], order2["baaa"]) == []


def test_three_maps_on_aaab(order2):
    assert symbols(enumerate_homs(order2["aaab"], order2["aaab"])) == "1ab"


def test_full_order_two_table(order2):
    for gw in ORDER2_WORDS:
        for hw in ORDER2_WORDS:
            found = symbols(enumerate_homs(order2[gw], order2[hw]))
            assert found == "".join(sorted(HOM_TABLE[gw][hw])), (gw, hw)


def test_maps_come_strictly_increasing_on_every_fixture_pair(data_dir):
    # The search branches on the lowest unassigned element with images in
    # increasing order, so its output order needs no sort.
    magmas = [parse_magma(path.read_text(encoding="utf-8")) for path in sorted(data_dir.glob("*.mag"))]
    for source, target in itertools.product(magmas, repeat=2):
        searches = [enumerate_homs]
        if source.zero is not None and target.zero is not None:
            searches.append(enumerate_zero_homs)
        for search in searches:
            maps = search(source, target)
            assert all(a < b for a, b in zip(maps, maps[1:]))


def test_maps_are_the_brute_force_homs_on_every_small_fixture_pair(data_dir):
    # Every ordered pair of fixtures with at most 4,096 maps to filter, in order.
    magmas = [parse_magma(path.read_text(encoding="utf-8")) for path in sorted(data_dir.glob("*.mag"))]
    pairs = [(s, t) for s, t in itertools.product(magmas, repeat=2) if t.order ** s.order <= 4096]
    assert pairs
    for source, target in pairs:
        assert enumerate_homs(source, target) == brute_force_homs(source, target)
        if source.zero is not None and target.zero is not None:
            assert enumerate_zero_homs(source, target) == brute_force_homs(source, target, zero=True)


def test_zero_homs_of_the_matrix_units_are_the_brute_force_ones():
    mu2 = matrix_unit_zero_magma(2)
    # One nonzero product, a * b = c or b * a = c: a map sending a and b to
    # units whose product is 0 must not send c to 0.
    ab = validate_magma(4, [[3, 2, 3, 3], [3, 3, 3, 3], [3, 3, 3, 3], [3, 3, 3, 3]], zero=3)
    ba = validate_magma(4, [[3, 3, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3], [3, 3, 3, 3]], zero=3)
    for source, target in [(mu2, mu2), (ab, mu2), (ba, mu2), (mu2, ab)]:
        assert enumerate_zero_homs(source, target) == brute_force_homs(source, target, zero=True)


def test_cyclic_hom_count_is_gcd():
    for m in range(1, 7):
        for n in range(1, 7):
            count = len(enumerate_homs(cyclic_group_magma(m), cyclic_group_magma(n)))
            assert count == gcd(m, n)


def test_composition_of_homs_is_a_hom(order2):
    words = ["aaaa", "aabb", "abab", "aaab", "abba"]
    for gw, hw, kw in itertools.product(words, repeat=3):
        homs_gh = enumerate_homs(order2[gw], order2[hw])
        homs_hk = enumerate_homs(order2[hw], order2[kw])
        homs_gk = set(enumerate_homs(order2[gw], order2[kw]))
        for f in homs_gh:
            for s in homs_hk:
                assert tuple(s[v] for v in f) in homs_gk


class TestZeroHoms:
    def test_requires_zero(self, order2, idem_zero2):
        with pytest.raises(MissingZeroError):
            enumerate_zero_homs(order2["aaaa"], idem_zero2)

    def test_counterexample_map(self, idem_pair_zero3, idem_zero2):
        # a, b |-> c and 0 |-> 0 respects every nonzero product but not a*b = 0
        f = (0, 0, 1)
        assert f in enumerate_zero_homs(idem_pair_zero3, idem_zero2)
        assert f not in enumerate_homs(idem_pair_zero3, idem_zero2)

    def test_zero_homs_extend_zero_preserving_homs(self, idem_pair_zero3, idem_zero2):
        zero_homs = set(enumerate_zero_homs(idem_pair_zero3, idem_zero2))
        for f in enumerate_homs(idem_pair_zero3, idem_zero2):
            preimage = {g for g, v in enumerate(f) if v == idem_zero2.zero}
            if preimage == {idem_pair_zero3.zero}:
                assert f in zero_homs
        # and the counterexample map witnesses that the inclusion is strict
        assert (0, 0, 1) in zero_homs

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matrix_unit_count(self, m, n):
        count = len(enumerate_zero_homs(matrix_unit_zero_magma(m), matrix_unit_zero_magma(n)))
        assert count == n ** m

    def test_matrix_unit_images_are_index_maps(self):
        g2, g3 = matrix_unit_zero_magma(2), matrix_unit_zero_magma(3)
        for images in enumerate_zero_homs(g2, g3):
            # every zero hom here is e(i,j) |-> e(p(i),p(j)) for a single map p
            p = {}
            ok = True
            for i in range(2):
                for j in range(2):
                    target = images[i * 2 + j]
                    ti, tj = divmod(target, 3)
                    ok = ok and p.setdefault(i, ti) == ti and p.setdefault(j, tj) == tj
            assert ok


# S3 as permutations of three points, in lexicographic order, p*q = p after q.
S3 = validate_magma(
    6,
    [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 4, 5, 2, 3],
        [2, 3, 0, 1, 5, 4],
        [3, 2, 5, 4, 0, 1],
        [4, 5, 1, 0, 3, 2],
        [5, 4, 3, 2, 1, 0],
    ],
)
# The full transformation monoid on three points: a monoid, not a group.
T3 = transformation_semigroup(itertools.product(range(3), repeat=3))


@pytest.mark.parametrize(
    "source, target, count, digest, nodes",
    [
        (S3, S3, 10, "08618118ed7a604f7ac9313e145265fbc8b5e66abc18c3706951363d83ceaa46", 16),
        (T3, T3, 40, "6ecc9a6cac30649579c872180d830266bfccec3ae7a6a58b341559365fc42e5a", 488),
        (
            abelian_group_magma([4, 4]),
            abelian_group_magma([2, 2, 2, 2]),
            256,
            "3767a29186beea8d23e8c4e1859eaba942da53373df323d64a699a0c77bd3e9a",
            274,
        ),
        (
            abelian_group_magma([2, 2, 2, 2]),
            abelian_group_magma([2, 2, 2, 2]),
            65536,
            "5f626c5257f45e69fede7af556ddd203e3767917fe663ae6620643e18c362a6b",
            69906,
        ),
    ],
    ids=["s3", "transformation_monoid", "z4xz4_z2_4", "z2_4_z2_4"],
)
def test_associative_hom_lists_and_node_budgets_are_pinned(source, target, count, digest, nodes):
    # The exact list, through the sha256 of its repr, and the exact minimal budget.
    homs = enumerate_homs(source, target, Budget(max_nodes=nodes))
    assert len(homs) == count
    assert hashlib.sha256(repr(homs).encode()).hexdigest() == digest
    with pytest.raises(SizeOverflowError):
        enumerate_homs(source, target, Budget(max_nodes=nodes - 1))


def test_a_non_associative_target_is_checked_on_every_product():
    # Z3 into a table that is not associative.  The map with 1 -> 2 keeps every product 0*t and
    # 1*t, since row 0 of the target is the identity, but not 2*1 = 0: only the constant map is a hom.
    z3 = cyclic_group_magma(3)
    target = validate_magma(3, [[0, 1, 2], [2, 0, 2], [2, 0, 1]])
    assert enumerate_homs(z3, target) == brute_force_homs(z3, target) == [(0, 0, 0)]
