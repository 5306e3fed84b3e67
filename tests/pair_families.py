"""Reference family builder over decoded pair sets.

This is how the algebra module built filters before it read the kernel's
masks: every result decoded to a set of (g, h) pairs, then parts[h] collects
the basis line of each g paired with h.  It is plain and slow, so the tests
compare the mask-built families against it.
"""


def pair_families(algebra, target, pair_sets) -> list:
    """The parts of one family per pair set; a source element outside the basis adds nothing."""
    out = []
    for pairs in pair_sets:
        parts = [set() for _ in range(target.order)]
        for g, h in pairs:
            b = algebra.basis_of_source[g]
            if b is not None:
                parts[h].add(b)
        out.append(tuple(map(frozenset, parts)))
    return out
