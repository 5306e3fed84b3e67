"""Closed-form counts, each cross-checkable against a brute-force enumerator.

Counts use Python's arbitrary-precision integers throughout; formulas of the
shape (p*q^(m-1))^(n^m) overflow fixed-width integers immediately.  Where a
printed formula is suspect, the report carries the printed value and a
corrected candidate side by side and the brute force pins the truth; nothing
is silently "fixed".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, factorial, gcd, prod

from .algebra import _check_modulus
from .budget import DEFAULT_BUDGET, Budget, NodeCounter
from .category import (
    FinitePrecategory,
    connected_components,
    enumerate_functors,
    is_connected,
    is_groupoid,
    vertex_group_table,
)
from .errors import SizeOverflowError, ValidationError, check_count
from .magma import (
    FiniteMagma,
    abelian_group_magma,
    cyclic_group_magma,
    enumerate_homs,
    enumerate_submagmas,
    enumerate_zero_homs,
    matrix_unit_zero_magma,
    with_zero_adjoined,
)


@dataclass(frozen=True)
class CountReport:
    """A closed-form value next to its brute-force check.

    brute_force_value is None when the oracle was skipped (budget); agrees is
    None exactly in that case.
    """

    formula_name: str
    parameters: dict
    closed_form_value: int
    brute_force_value: int | None
    agrees: bool | None
    extras: dict = field(default_factory=dict)


def _report(name, parameters, closed, brute, extras=None) -> CountReport:
    return CountReport(
        formula_name=name,
        parameters=parameters,
        closed_form_value=closed,
        brute_force_value=brute,
        agrees=None if brute is None else closed == brute,
        extras=extras or {},
    )


def _within(oracle):
    """oracle(), or None when the oracle runs out of budget: a report's brute force is
    skipped, never fatal."""
    try:
        return oracle()
    except SizeOverflowError:
        return None


def count_matrix_group_gradings(n: int, q: int) -> int:
    """q^(n-1): gradings of the n x n matrix algebra by a group of order q."""
    check_count(n, "n")
    check_count(q, "q")
    return q ** (n - 1)


def matrix_group_gradings_report(n: int, q: int, budget: Budget = DEFAULT_BUDGET) -> CountReport:
    """Closed form against zero-homomorphism enumeration into a group with a zero adjoined."""
    closed = count_matrix_group_gradings(n, q)

    def oracle():
        source = matrix_unit_zero_magma(n, budget)
        return len(enumerate_zero_homs(source, with_zero_adjoined(cyclic_group_magma(q, budget), budget), budget))

    return _report("matrix_group_gradings", {"n": n, "q": q}, closed, _within(oracle))


def count_groupoid_gradings_as_printed(m: int, n: int, p: int, q: int) -> int:
    """The printed groupoid-grading count (p*q^(m-1))^(n^m), computed verbatim."""
    for value, name in zip((m, n, p, q), "mnpq"):
        check_count(value, name)
    return (p * q ** (m - 1)) ** (n ** m)


def _connected_closed_form(source: FinitePrecategory, target: FinitePrecategory, budget: Budget) -> tuple:
    """((m, n, p, q), n^m * p * q^(m-1)) for connected groupoids; see count_functors_connected_groupoids."""
    for cat, name in ((source, "source"), (target, "target")):
        if not (cat.object_count and is_groupoid(cat) and is_connected(cat)):
            raise ValidationError(f"{name} is not a connected groupoid")
    m = source.object_count
    n = target.object_count
    vg_source = vertex_group_table(source, 0)
    vg_target = vertex_group_table(target, 0)
    p = len(
        enumerate_homs(
            FiniteMagma(len(vg_source), vg_source),
            FiniteMagma(len(vg_target), vg_target),
            budget,
        )
    )
    q = len(vg_target)
    return (m, n, p, q), n ** m * p * q ** (m - 1)


def count_functors_connected_groupoids(
    source: FinitePrecategory, target: FinitePrecategory, budget: Budget = DEFAULT_BUDGET
) -> CountReport:
    """Functor count between connected groupoids: printed formula, corrected candidate, brute force.

    The corrected candidate multiplies the two stages of the count instead of
    exponentiating and reads q as the order of the target's vertex group:
    |ob(target)|^|ob(source)| * |hom(vertex(source), vertex(target))| *
    |vertex(target)|^(|ob(source)|-1).  It is validated empirically, never
    asserted as a formula of record.
    """
    (m, n, p, q), corrected = _connected_closed_form(source, target, budget)
    printed = count_groupoid_gradings_as_printed(m, n, p, q)
    brute = _within(lambda: len(enumerate_functors(source, target, budget)))
    return _report(
        "connected_groupoid_functors",
        {"m": m, "n": n, "p": p, "q": q},
        corrected,
        brute,
        extras={
            "printed_value": printed,
            "printed_agrees": None if brute is None else printed == brute,
        },
    )


def count_surjective_functions(m: int, n: int) -> int:
    """Number of surjections {1..m} -> {1..n} by inclusion-exclusion (no prefactor)."""
    check_count(m, "m", least=0)
    check_count(n, "n", least=0)
    return sum((-1) ** i * comb(n, i) * (n - i) ** m for i in range(n + 1))


def surjective_functions_report(m: int, n: int, budget: Budget = DEFAULT_BUDGET) -> CountReport:
    """Inclusion-exclusion count against direct enumeration; the 1/n!-scaled value rides along."""
    closed = count_surjective_functions(m, n)
    prefactored, remainder = divmod(closed, factorial(n))

    def oracle():
        NodeCounter(budget).spend(n ** m)  # one node per function
        return sum(len(set(images)) == n for images in itertools.product(range(n), repeat=m))

    brute = _within(oracle)
    return _report(
        "surjective_functions",
        {"m": m, "n": n},
        closed,
        brute,
        extras={
            "prefactored_value": prefactored,
            "prefactored_is_integer": remainder == 0,
            "prefactored_agrees": None if brute is None else prefactored == brute,
        },
    )


def count_abelian_homs(source_factors, target_factors) -> int:
    """Homomorphism count between direct sums of cyclic groups.

    The product over factor pairs of p^min(j, k) equals the product of
    pairwise gcds of the cyclic orders; cyclic x cyclic specializes to one gcd.
    """
    source_factors = tuple(check_count(f, "cyclic factors") for f in source_factors)
    target_factors = tuple(check_count(f, "cyclic factors") for f in target_factors)
    total = 1
    for a in source_factors:
        for b in target_factors:
            total *= gcd(a, b)
    return total


def abelian_homs_report(source_factors, target_factors, budget: Budget = DEFAULT_BUDGET) -> CountReport:
    source_factors, target_factors = tuple(source_factors), tuple(target_factors)  # read more than once
    closed = count_abelian_homs(source_factors, target_factors)

    def oracle():
        source, target = abelian_group_magma(source_factors, budget), abelian_group_magma(target_factors, budget)
        return len(enumerate_homs(source, target, budget))

    return _report(
        "abelian_homs",
        {"source": list(source_factors), "target": list(target_factors)},
        closed,
        _within(oracle),
    )


def count_subspaces(p: int, n: int) -> CountReport:
    """Subspace count of an n-dimensional space over the field with p elements.

    The closed form sums A_k/B_k for k = 1..n with
    A_k = (p^n - 1)(p^n - p)...(p^n - p^(k-1)) and B_k the same at exponent k,
    which omits the zero subspace; the report also carries the k >= 0 reading.
    p must be a prime below 2**64, the rule of every scalar field here.
    """
    check_count(n, "dimension")
    _check_modulus(p)
    total = 0
    for k in range(1, n + 1):
        a = 1
        b = 1
        for i in range(k):
            a *= p ** n - p ** i
            b *= p ** k - p ** i
        total += a // b
    return _report(
        "subspace_count",
        {"p": p, "n": n},
        total,
        None,
        extras={"including_zero_subspace": total + 1},
    )


def subspaces_report(p: int, n: int, budget: Budget = DEFAULT_BUDGET) -> CountReport:
    """Printed sum against subgroup enumeration of the elementary abelian group.

    The submagma enumerator returns the subgroups plus the empty set; dropping
    the empty set and the zero subspace leaves the k >= 1 sum.
    """
    report = count_subspaces(p, n)

    def oracle():
        # drop the empty set: subgroups = subspaces
        return len(enumerate_submagmas(abelian_group_magma([p] * n, budget), budget)) - 1

    brute_all = _within(oracle)
    brute = None if brute_all is None else brute_all - 1  # drop the zero subspace to match the k >= 1 sum
    extras = dict(report.extras)
    extras["oracle_including_zero_subspace"] = brute_all
    return _report("subspace_count", report.parameters, report.closed_form_value, brute, extras)


def count_disconnected(
    source: FinitePrecategory, target: FinitePrecategory, budget: Budget = DEFAULT_BUDGET
) -> CountReport:
    """Functor count for disconnected groupoids, factored over components.

    Each connected source component maps wholly into a single target
    component, so the count is the product over source components of the sum
    over target components of the connected closed form; the plain product
    over all component pairs is reported alongside (the two coincide when the
    target is connected).  Brute force over the whole pair is the oracle.
    """
    source_parts = connected_components(source)
    target_parts = connected_components(target)
    grid = [[_connected_closed_form(sp, tp, budget)[1] for tp in target_parts] for sp in source_parts]
    brute = _within(lambda: len(enumerate_functors(source, target, budget)))
    pairwise = prod(cell for row in grid for cell in row)
    return _report(
        "disconnected_functors",
        {
            "source_components": len(source_parts),
            "target_components": len(target_parts),
        },
        prod(sum(row) for row in grid),
        brute,
        extras={
            "pairwise_product": pairwise,
            "pairwise_agrees": None if brute is None else pairwise == brute,
        },
    )
