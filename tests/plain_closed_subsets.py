"""Reference closed-subset search: one include/exclude node at a time.

This is the search the magma module ran before it emitted unconstrained
branches whole.  It decides the lowest undecided element at every node and
spends one node per visited node, so the tests compare the kernel's masks,
their order and its total spend against it.
"""

from gradeforge.magma import _bits, _close


def plain_closed_subsets(table, forced: int, banned: int, counter) -> list:
    """Masks of the closed supersets of forced that avoid banned, in increasing order."""
    full = (1 << len(table)) - 1
    results = []
    start = _close(table, forced, list(_bits(forced)), banned)
    stack = [] if start is None else [(start, banned)]
    while stack:
        included, excluded = stack.pop()
        counter.spend()
        undecided = full & ~(included | excluded)
        if not undecided:
            results.append(included)
            continue
        bit = undecided & -undecided
        closed = _close(table, included | bit, [bit.bit_length() - 1], excluded)
        if closed is not None:
            stack.append((closed, excluded))
        stack.append((included, excluded | bit))
    results.sort()
    return results
