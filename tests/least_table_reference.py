"""Reference canonical labelling: the row-0 tie search of earlier versions.

Before canonical_form deferred fully tied columns, magma._least_table
branched only on row 0 and visited every row-0 labelling that tied, so a
group of order n cost (n-1)! leaves.  It is kept here unchanged as an exact
oracle that is fast on tables with few ties and much faster than the n! scan
of relabelling_scan.py, so the tests compare canonical_form with it at
orders 8 to 10.
"""


def _least_table(rows) -> tuple:
    # The row-major lex-least table over all n! relabellings, flat, with its
    # perm, found by a depth-first search that hands out labels in the order
    # the row-major scan first needs them.  Row 0 needs every label, so the
    # search branches only there: where label j is not yet handed out, it
    # goes to one of the unlabelled elements x that tie for the least entry
    # (elem[0], x).  A product with no label takes the next free one, since
    # any other label would make its entry larger.  Two candidates whose swap
    # is an automorphism of rows (twins) span the same subtree, so only the
    # first is tried.  The least table found so far bounds the search: a
    # branch dies at its first entry above it while its prefix equals it.
    n = len(rows)
    label = [-1] * n  # old index -> new label, -1 while unlabelled
    elem = []  # new label -> old index
    cur = [0] * (n * n)
    best = [n] * (n * n)  # above every table until the first leaf
    best_label = []
    twins = {}

    def twin(a, b) -> bool:
        if (a, b) not in twins:
            swap = list(range(n))
            swap[a], swap[b] = b, a
            twins[a, b] = all(swap[rows[x][y]] == rows[swap[x]][swap[y]] for x in range(n) for y in range(n))
        return twins[a, b]

    def hand_out(x):
        label[x] = len(elem)
        elem.append(x)

    def take_back(size):
        while len(elem) > size:
            label[elem.pop()] = -1

    def leaf(tight):
        # Rows 1.. are fixed by the full labelling; compare them with best.
        nonlocal best, best_label
        pos = n
        for i in range(1, n):
            row = rows[elem[i]]
            for x in elem:
                v = label[row[x]]
                if tight:
                    if v > best[pos]:
                        return
                    tight = v == best[pos]
                cur[pos] = v
                pos += 1
        if not tight:
            best, best_label = cur[:], label[:]

    def search(j, tight):
        # cur holds entries (0, 0) .. (0, j - 1); tight while they equal best's.
        # Once a child returns, best shares this prefix: either it already
        # did, or the child's subtree, which no bound pruned, set best.
        if j == n:
            leaf(tight)
            return
        size = len(elem)
        if size > j:
            p = rows[elem[0]][elem[j]]
            if label[p] < 0:
                hand_out(p)
            v = label[p]
            if not (tight and v > best[j]):
                cur[j] = v
                search(j + 1, tight and v == best[j])
            take_back(size)
            return
        candidates = []
        for x in range(n):
            if label[x] < 0:
                p = rows[elem[0] if j else x][x]
                candidates.append((label[p] if label[p] >= 0 else j if p == x else j + 1, x, p))
        v = min(candidates)[0]
        if tight and v > best[j]:
            return
        cur[j] = v
        tight = tight and v == best[j]
        kept = []
        for w, x, p in candidates:
            if w == v and not any(twin(k, x) for k in kept):
                kept.append(x)
                hand_out(x)
                if label[p] < 0:
                    hand_out(p)
                search(j + 1, tight)
                tight = True
                take_back(size)

    search(0, True)
    return tuple(best), best_label
