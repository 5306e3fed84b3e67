"""The span oracle's packed rows against the dense reference, and both oracles on random input.

Rows are int bitsets at p = 2 and {index: coefficient} dicts at odd p.  The
axiom checks only ever feed unit vectors and their products, so the random
rows and vectors here, with coefficients that are neither 1 nor reduced mod p,
are what exercise the odd-p coefficient arithmetic.
"""

from hypothesis import given, settings, strategies as st

from gradeforge.algebra import (
    ElementaryFamily,
    _in_span,
    _reduce,
    _vector_product,
    contracted_algebra,
    grading_from_relation,
    is_elementary,
    is_filter,
    is_grading,
    is_nonzero,
    is_strong,
    magma_algebra,
)
from gradeforge.magma import PairRelation, closure, product_magma

from dense_span import dense_in_span, dense_reduce
from test_properties import magmas


def pack(row, p):
    if p == 2:
        return sum(1 << i for i, x in enumerate(row) if x % 2)
    return {i: x % p for i, x in enumerate(row) if x % p}


@st.composite
def row_lists(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=9))
    vector = st.lists(st.integers(min_value=-p, max_value=3 * p), min_size=n, max_size=n)
    rows = draw(st.lists(vector, max_size=8))
    probe = draw(vector)
    weights = draw(st.lists(st.integers(min_value=0, max_value=p - 1), min_size=len(rows), max_size=len(rows)))
    return p, n, rows, probe, weights


@settings(max_examples=300, deadline=None)
@given(row_lists())
def test_packed_reduction_matches_dense_reference(case):
    p, n, rows, probe, weights = case
    packed = [pack(row, p) for row in rows]
    before = repr(packed)
    echelon = _reduce(packed, p)
    assert repr(packed) == before
    dense = dense_reduce(rows, p)
    assert len(echelon) == len(dense)
    for pivot, row in echelon.items():
        if p == 2:
            assert row.bit_length() - 1 == pivot
        else:
            assert max(row) == pivot and row[pivot] == 1
            assert all(0 < c < p for c in row.values())

    assert _in_span(pack(probe, p), echelon, p) == dense_in_span(probe, dense, p)
    combo = [sum(w * row[i] for w, row in zip(weights, rows)) % p for i in range(n)]
    assert _in_span(pack(combo, p), echelon, p)
    assert dense_in_span(combo, dense, p)
    for row in rows:
        assert _in_span(pack(row, p), echelon, p)


@settings(max_examples=200, deadline=None)
@given(
    magmas(max_order=4, with_zero=True),
    st.sampled_from([2, 3, 5, 7]),
    st.booleans(),
    st.lists(st.integers(min_value=0, max_value=20), min_size=4, max_size=4),
    st.lists(st.integers(min_value=0, max_value=20), min_size=4, max_size=4),
)
def test_vector_product_is_the_bilinear_extension(source, p, contracted, u, v):
    algebra = contracted_algebra(source, p) if contracted else magma_algebra(source, p)
    k = algebra.basis_size
    u, v = u[:k], v[:k]
    dense = [0] * k
    for s, a in enumerate(u):
        for t, b in enumerate(v):
            x = algebra.structure[s][t]
            if x is not None:
                dense[x] += a * b
    assert _vector_product(algebra, pack(u, p), pack(v, p)) == pack(dense, p)


def subset_is_filter(algebra, family) -> bool:
    """W_h W_h' inside W_hh' by subset arithmetic, written out here."""
    parts = family.parts
    table = family.target.table
    for h, part in enumerate(parts):
        for h2, part2 in enumerate(parts):
            allowed = parts[table[h][h2]]
            for s in part:
                for t in part2:
                    x = algebra.structure[s][t]
                    if x is not None and x not in allowed:
                        return False
    return True


@st.composite
def algebras_with_families(draw):
    p = draw(st.sampled_from([2, 3]))
    contracted = draw(st.booleans())
    source = draw(magmas(max_order=4, with_zero=contracted))
    target = draw(magmas(max_order=3, with_zero=draw(st.booleans())))
    algebra = contracted_algebra(source, p) if contracted else magma_algebra(source, p)
    if draw(st.booleans()):
        # a closed subset of source x target gives a family that is a filter
        square = product_magma(source, target)
        seed = draw(st.sets(st.integers(min_value=0, max_value=square.order - 1)))
        pairs = frozenset(divmod(e, target.order) for e in closure(square, seed))
        return algebra, grading_from_relation(algebra, PairRelation(source, target, pairs))
    k = algebra.basis_size
    basis = st.sets(st.integers(min_value=0, max_value=k - 1)) if k else st.just(set())
    parts = tuple(frozenset(draw(basis)) for _ in range(target.order))
    return algebra, ElementaryFamily(algebra=algebra, target=target, parts=parts)


@settings(max_examples=300, deadline=None)
@given(algebras_with_families())
def test_oracles_agree_on_random_families(case):
    algebra, family = case
    # Each check raises OracleDisagreementError if its two halves differ.
    verdicts = [check(algebra, family) for check in (is_filter, is_grading, is_strong, is_nonzero, is_elementary)]
    assert verdicts[0].holds == subset_is_filter(algebra, family)
    assert verdicts[4].holds
