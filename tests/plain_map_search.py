"""Reference map search: propagation re-derived at every node.

This is the search the magma module ran before it replayed one propagation
plan per depth.  Each node copies the images and the bound list, and each
propagation walks the bound elements to find which products it binds and
which it checks, so the tests compare the kernel's maps, their order and its
node spend against it.
"""

from gradeforge.magma import _associative


def plain_map_search(dom_table, cod_table, allowed, counter) -> list:
    """Maps f with f(x*y) = f(x)f(y) wherever dom_table has x*y, f(x) in allowed[x], in sorted order."""
    # Backtracking with constraint propagation: images are assigned in index
    # order, and each branch carries f with the list of its bound elements,
    # which is also the propagation queue.  A check of x*t compares its image
    # with f(x)f(t) where it is bound; where it is not, it binds it to that
    # value and appends it, or fails if allowed does not hold the value.
    # dom_table entries of None are exempt from the law.
    #   Any magma: reaching the entry a walks the entries y up to a only and
    # checks a*y and y*a, so each pair of bound elements is checked once.
    #   Both tables total and associative: reaching the branch element x does
    # the same; reaching a later entry a checks x*a for each branch element x
    # only.  If f(x*t) = f(x)f(t) for the branch elements x and every bound t,
    # f is a hom on the bound set B: each s in B is some x or x*s' with s' a
    # shorter word, and f(s*t) = f(x*(s'*t)) = f(x)(f(s')f(t)) = f(s)f(t) by
    # induction and associativity.  So both rules bind B and fail exactly when
    # no hom on B extends the branch: output and node counts are the same.
    n = len(dom_table)
    cols = [tuple(row[a] for row in dom_table) for a in range(n)]
    choices = [sorted(values) for values in allowed]
    short = _associative(dom_table) and _associative(cod_table)
    xs = []  # the branch elements of the path
    out = []

    def propagate(f, bound, x, v) -> bool:
        f[x] = v
        i = len(bound)
        bound.append(x)
        while i < len(bound):
            a = bound[i]
            i += 1
            b = f[a]
            col = cols[a]
            if short and a != x:  # a later entry: y*a for each branch element y
                for y in xs:
                    z = col[y]
                    p = cod_table[f[y]][b]
                    cur = f[z]
                    if cur is None and p in allowed[z]:
                        f[z] = p
                        bound.append(z)
                    elif cur != p:
                        return False
                continue
            row, image_row = dom_table[a], cod_table[b]
            for y in bound[:i]:
                w = f[y]
                z = row[y]
                if z is not None:
                    p = image_row[w]
                    cur = f[z]
                    if cur is None and p in allowed[z]:
                        f[z] = p
                        bound.append(z)
                    elif cur != p:
                        return False
                z = col[y]
                if z is not None and y != a:
                    p = cod_table[w][b]
                    cur = f[z]
                    if cur is None and p in allowed[z]:
                        f[z] = p
                        bound.append(z)
                    elif cur != p:
                        return False
        return True

    def search(f, bound):
        counter.spend()
        if len(bound) == n:
            out.append(tuple(f))
            return
        x = f.index(None)
        xs.append(x)
        for v in choices[x]:
            trial, trial_bound = list(f), list(bound)
            if propagate(trial, trial_bound, x, v):
                search(trial, trial_bound)
        xs.pop()

    search([None] * n, [])
    return out
