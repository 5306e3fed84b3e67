import itertools

import pytest

from gradeforge.budget import Budget
from gradeforge.category import (
    connected_groupoid,
    disjoint_union,
    group_as_category,
    matrix_groupoid,
    validate_precategory,
)
from gradeforge.counting import (
    abelian_homs_report,
    count_abelian_homs,
    count_disconnected,
    count_functors_connected_groupoids,
    count_groupoid_gradings_as_printed,
    count_matrix_group_gradings,
    count_subspaces,
    count_surjective_functions,
    matrix_group_gradings_report,
    subspaces_report,
    surjective_functions_report,
)
from gradeforge.errors import SizeOverflowError, ValidationError

from conftest import one_object_monoid


def z_cat(n):
    return group_as_category([[(i + j) % n for j in range(n)] for i in range(n)])


class TestMatrixGroupGradings:
    def test_exponent_zero(self):
        assert count_matrix_group_gradings(1, 7) == 1

    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_against_zero_hom_oracle(self, n, q):
        report = matrix_group_gradings_report(n, q)
        assert report.closed_form_value == q ** (n - 1)
        assert report.agrees

    def test_budget_skips_oracle(self):
        report = matrix_group_gradings_report(2, 2, Budget(max_nodes=1))
        assert report.brute_force_value is None and report.agrees is None


class TestGroupoidFormula:
    def test_single_object_each(self):
        assert count_groupoid_gradings_as_printed(1, 1, 5, 9) == 5

    def test_group_target_reduces_to_matrix_count(self):
        # a thin source with N objects and a group target of order Q:
        # (p*q^(m-1))^(n^m) at m=N, n=1, p=1, q=Q collapses to Q^(N-1)
        for big_n in (2, 3, 4):
            for q in (2, 3):
                assert count_groupoid_gradings_as_printed(big_n, 1, 1, q) == count_matrix_group_gradings(big_n, q)

    def test_corrected_candidate_matches_brute_force(self):
        z2 = z_cat(2)
        pairs = [
            (matrix_groupoid(2), z2),
            (matrix_groupoid(2), matrix_groupoid(2)),
            (connected_groupoid(2, [[0, 1], [1, 0]]), z2),
            (matrix_groupoid(3), matrix_groupoid(2)),
            (z2, z2),
            (matrix_groupoid(2), connected_groupoid(2, [[0, 1], [1, 0]])),
        ]
        for source, target in pairs:
            report = count_functors_connected_groupoids(source, target)
            assert report.agrees, report

    def test_thin_two_by_thin_two_divergence(self):
        report = count_functors_connected_groupoids(matrix_groupoid(2), matrix_groupoid(2))
        assert report.brute_force_value == 4
        assert report.extras["printed_value"] == 1
        assert report.extras["printed_agrees"] is False

    def test_matrix_to_group_instance(self):
        report = count_functors_connected_groupoids(matrix_groupoid(2), z_cat(2))
        assert (report.brute_force_value, report.extras["printed_value"], report.closed_form_value) == (2, 2, 2)

    def test_vertex_group_instance(self):
        report = count_functors_connected_groupoids(connected_groupoid(2, [[0, 1], [1, 0]]), z_cat(2))
        assert report.brute_force_value == 4 and report.agrees

    def test_rejects_non_groupoids(self, idem_cat):
        with pytest.raises(ValidationError):
            count_functors_connected_groupoids(idem_cat, idem_cat)

    def test_rejects_the_empty_groupoid(self):
        # It is a groupoid and connected vacuously, but a connected groupoid has an object.
        empty = validate_precategory(0, [], [])
        for source, target in ((empty, empty), (empty, z_cat(2)), (z_cat(2), empty)):
            with pytest.raises(ValidationError, match="is not a connected groupoid"):
                count_functors_connected_groupoids(source, target)


class TestSurjections:
    def test_two_by_two(self):
        report = surjective_functions_report(2, 2)
        assert report.closed_form_value == 2 and report.agrees
        assert report.extras["prefactored_value"] == 1
        assert report.extras["prefactored_agrees"] is False

    def test_bijections(self):
        for n in range(5):
            expected = 1
            for k in range(1, n + 1):
                expected *= k
            assert count_surjective_functions(n, n) == expected

    def test_three_onto_two(self):
        assert count_surjective_functions(3, 2) == 6

    def test_zero_when_target_larger(self):
        for m in range(4):
            for n in range(m + 1, 5):
                assert count_surjective_functions(m, n) == 0

    def test_matches_complement_count(self):
        for m in range(6):
            for n in range(6):
                report = surjective_functions_report(m, n)
                assert report.agrees, (m, n)


class TestAbelianHoms:
    def test_cyclic_pair_is_gcd(self):
        assert count_abelian_homs([4], [6]) == 2
        report = abelian_homs_report([4], [6])
        assert report.agrees

    def test_iterator_arguments_are_read_once(self):
        assert abelian_homs_report(iter([4]), iter([6])) == abelian_homs_report([4], [6])

    def test_klein_to_cyclic(self):
        assert count_abelian_homs([2, 2], [2]) == 4

    def test_trivial_side(self):
        assert count_abelian_homs([], [8]) == 1
        assert count_abelian_homs([1], [6]) == 1

    def test_symmetry_on_small_groups(self):
        specs = [[2], [3], [4], [2, 2], [6], [8], [4, 2], [2, 2, 2]]
        for a in specs:
            for b in specs:
                assert count_abelian_homs(a, b) == count_abelian_homs(b, a)


class TestSubspaces:
    @pytest.mark.parametrize(
        "p,n,expected",
        [(2, 1, 1), (2, 2, 4), (2, 3, 15), (3, 2, 5)],
    )
    def test_printed_sum(self, p, n, expected):
        report = count_subspaces(p, n)
        assert report.closed_form_value == expected
        assert report.extras["including_zero_subspace"] == expected + 1

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 2)])
    def test_against_subgroup_enumeration(self, p, n):
        report = subspaces_report(p, n)
        assert report.agrees
        assert report.extras["oracle_including_zero_subspace"] == report.closed_form_value + 1


    @pytest.mark.parametrize("p", [4, 6, 9, (1 << 64) + 13])
    def test_p_must_be_a_prime_below_two_to_the_64(self, p):
        for count in (count_subspaces, subspaces_report):
            with pytest.raises(ValidationError):
                count(p, 1)

    @pytest.mark.parametrize(
        "p,n,message",
        [(2.0, 3, "scalar modulus must be an int"), (True, 3, "scalar modulus must be an int"),
         ("2", 3, "scalar modulus must be an int"), (2, 3.0, "dimension must be"), (2, True, "dimension must be")],
    )
    def test_p_and_n_must_be_plain_ints(self, p, n, message):
        for count in (count_subspaces, subspaces_report):
            with pytest.raises(ValidationError, match=message):
                count(p, n)

    def test_large_prime_is_counted(self):
        p = (1 << 61) - 1
        assert count_subspaces(p, 2).closed_form_value == p + 2  # p + 1 lines and the plane


class TestPlainIntParameters:
    """A closed form or report refuses a parameter that is not a plain int before it computes anything."""

    @pytest.mark.parametrize(
        "count,args",
        [
            (count_abelian_homs, ([2.0], [2])),
            (count_abelian_homs, ([2], ["2"])),
            (abelian_homs_report, ([2.5], [2])),
            (count_surjective_functions, (3, 2.5)),
            (surjective_functions_report, (2.5, 2)),
            (count_surjective_functions, (2.0, 3)),
            (count_matrix_group_gradings, (2.0, 3)),
            (count_matrix_group_gradings, (True, 2)),
            (matrix_group_gradings_report, (2, None)),
            (count_groupoid_gradings_as_printed, (1.5, 1, 1, 1)),
            (count_groupoid_gradings_as_printed, (1, 1, 1, "1")),
        ],
        ids=[
            "abelian-float", "abelian-str", "abelian-report-fraction", "surjections-fraction",
            "surjections-report-fraction", "surjections-float", "matrix-float", "matrix-bool", "matrix-report-none",
            "printed-fraction", "printed-str",
        ],
    )
    def test_non_ints_are_refused(self, count, args):
        with pytest.raises(ValidationError):
            count(*args)


class TestOracleCaps:
    @pytest.mark.parametrize(
        "report",
        [
            lambda: abelian_homs_report([100], [2]),
            lambda: subspaces_report(2, 7),
            lambda: matrix_group_gradings_report(2, 2000),
        ],
        ids=["abelian_homs", "subspaces", "matrix_group_gradings"],
    )
    def test_over_cap_group_is_never_built(self, report, monkeypatch):
        # abelian_group_magma is the one group-table builder, and it lists the elements with
        # itertools.product; its own order check must refuse the group before that call.
        def refuse(*args, **kwargs):
            raise AssertionError("group table built past the order cap")

        monkeypatch.setattr(itertools, "product", refuse)
        result = report()
        assert result.brute_force_value is None and result.agrees is None


class TestDisconnected:
    def test_empty_source_has_one_functor(self):
        empty = validate_precategory(0, [], [])
        report = count_disconnected(empty, z_cat(2))
        assert report.closed_form_value == report.brute_force_value == 1

    def test_product_over_components(self):
        two = disjoint_union(matrix_groupoid(2), matrix_groupoid(2))
        report = count_disconnected(two, z_cat(2))
        assert report.closed_form_value == 4 and report.agrees
        assert report.extras["pairwise_product"] == 4

    def test_connected_source_sums_over_target_components(self):
        point = matrix_groupoid(1)
        two_points = disjoint_union(point, point)
        report = count_disconnected(point, two_points)
        # a connected source lands in one target component: 1 + 1 functors,
        # while the all-pairs product collapses to 1
        assert report.closed_form_value == 2 and report.agrees
        assert report.extras["pairwise_product"] == 1
        assert report.extras["pairwise_agrees"] is False

    def test_closed_form_stands_when_the_oracle_runs_out(self):
        # thin3 -> thin3 has 27 functors and thin2 -> thin3 has 9; the budget
        # covers each vertex-group hom count but not the brute force
        source = disjoint_union(matrix_groupoid(3), matrix_groupoid(2))
        report = count_disconnected(source, matrix_groupoid(3), Budget(max_nodes=20))
        assert report.closed_form_value == 27 * 9
        assert report.extras["pairwise_product"] == 27 * 9
        assert report.brute_force_value is None and report.agrees is None
        assert count_disconnected(source, matrix_groupoid(3)).brute_force_value == 27 * 9

    def test_empty_source(self):
        from gradeforge.category import FinitePrecategory

        empty = FinitePrecategory(0, (), (), ())
        report = count_disconnected(empty, z_cat(2))
        assert report.closed_form_value == 1 and report.agrees

    def test_empty_target(self):
        from gradeforge.category import FinitePrecategory

        empty = FinitePrecategory(0, (), (), ())
        report = count_disconnected(matrix_groupoid(2), empty)
        assert report.closed_form_value == 0 and report.agrees
