"""Reference canonical labelling: the plain scan over all n! relabellings.

This is how the magma module found least tables before canonical_form ran a
pruned tie search and census marked orbits.  It relabels every table by every
permutation and keeps the row-major lex-least result, which is slow but
plain, so the tests compare canonical_form and census against it.
"""

import itertools

from gradeforge.magma import FiniteMagma, _unflattened


def relabellings(n: int):
    """(perm, order) for every permutation of 0..n-1: perm sends old index i
    to perm[i], and order lists the old indices by new index."""
    for order in itertools.permutations(range(n)):
        perm = [0] * n
        for new, old in enumerate(order):
            perm[old] = new
        yield perm, order


def least_relabelling(rows, perms) -> tuple:
    """The least relabelled table over perms, pairs (perm, order) from
    relabellings, row-major in one flat tuple, with its perm.  The entry at
    new (i, j) is perm[rows[order[i]][order[j]]]."""
    return min((tuple([p[rows[i][j]] for i in order for j in order]), p) for p, order in perms)


def scan_census(n: int) -> list:
    """The least table of every isomorphism class of order n, in increasing order."""
    perms = list(relabellings(n))
    rows = list(itertools.product(range(n), repeat=n))
    seen = {least_relabelling(table, perms)[0] for table in itertools.product(rows, repeat=n)}
    return [FiniteMagma(order=n, table=_unflattened(flat, n)) for flat in sorted(seen)]
