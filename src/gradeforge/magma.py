"""Finite magmas and zero magmas.

Elements are dense indices 0..order-1; the binary operation is a row-major
Cayley table, so products are O(1) lookups and subsets fit in bit masks.
Nothing here assumes associativity, commutativity or an identity; the hom
kernel uses associativity only once it has checked that it holds.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass
from math import isqrt, prod
from operator import itemgetter

from .budget import DEFAULT_BUDGET, Budget, NodeCounter, check_order
from .errors import MissingZeroError, NotAbsorbingError, ValidationError, check_count, check_index


@dataclass(frozen=True)
class FiniteMagma:
    """A set {0..order-1} with a total binary operation table[g][h] = g*h.

    ``zero`` optionally designates an absorbing element (0g = g0 = 0).
    Instances are immutable; build them through :func:`validate_magma` or one
    of the constructors below.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    zero: int | None = None


@dataclass(frozen=True)
class PairRelation:
    """A subset of G x H given by explicit (g, h) index pairs.

    No closure property is assumed at construction; submagma-ness is checked
    or enforced by the enumeration operations.
    """

    left: FiniteMagma
    right: FiniteMagma
    pairs: frozenset

    def __post_init__(self):
        for g, h in self.pairs:
            check_index(g, self.left.order, "left element of a pair")
            check_index(h, self.right.order, "right element of a pair")


def validate_magma(order: int, table, zero: int | None = None) -> FiniteMagma:
    """Check shape, entry range and (if given) the absorbing law, then freeze."""
    # The order, the entries and the zero are plain ints, so print_magma writes what parse_magma reads.
    check_count(order, "order")
    rows = tuple(tuple(row) for row in table)
    if len(rows) != order or any(len(row) != order for row in rows):
        raise ValidationError(f"table is not {order}x{order}")
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if type(entry) is not int or not 0 <= entry < order:
                check_index(entry, order, f"entry at ({i}, {j}):")
    if zero is not None:
        check_index(zero, order, "zero index")
        for g in range(order):
            if rows[zero][g] != zero or rows[g][zero] != zero:
                raise NotAbsorbingError(f"element {zero} is not absorbing at {g}")
    return FiniteMagma(order=order, table=rows, zero=zero)


def magma_from_word(word: str, zero: int | None = None) -> FiniteMagma:
    """Build an order-n magma from its flattened Cayley table spelled with letters.

    The word lists table rows in order with 'a' = 0, 'b' = 1, ...; e.g. a
    four-letter word w1 w2 w3 w4 means a*a = w1, a*b = w2, b*a = w3, b*b = w4.
    """
    n = isqrt(len(word))
    if n * n != len(word):
        raise ValidationError(f"word length {len(word)} is not a perfect square")
    values = [ord(c) - ord("a") for c in word]
    table = [values[i * n:(i + 1) * n] for i in range(n)]
    return validate_magma(n, table, zero)


def word_of_magma(magma: FiniteMagma) -> str:
    """Inverse of :func:`magma_from_word` for orders up to 26."""
    if magma.order > 26:
        raise ValidationError("word encoding needs order <= 26")
    return "".join(chr(ord("a") + e) for row in magma.table for e in row)


def _pair_table(left, right) -> list:
    """The table on pairs of two (partial) tables, pair (g, h) at g*len(right) + h; an entry is
    None where either factor's entry is None."""
    nh = len(right)
    return [
        [None if a is None or b is None else a * nh + b for a in lrow for b in rrow]
        for lrow in left
        for rrow in right
    ]


def _zero_adjoined(table) -> FiniteMagma:
    """The zero magma of a (partial) table: a fresh absorbing zero at the top index, which is
    also the product wherever the table has None."""
    n = len(table)
    check_order(n + 1)
    rows = tuple(tuple(n if e is None else e for e in row) + (n,) for row in table)
    return FiniteMagma(order=n + 1, table=rows + ((n,) * (n + 1),), zero=n)


def _zero_exempt(table, zero: int) -> tuple:
    """The table with every product equal to zero blanked to None, so no law binds it."""
    return tuple(tuple(None if e == zero else e for e in row) for row in table)


def product_magma(left: FiniteMagma, right: FiniteMagma) -> FiniteMagma:
    """Componentwise product on pairs, encoded as (g, h) -> g*|right| + h.

    No zero is designated on the result even when both factors carry one.
    """
    order = left.order * right.order
    check_order(order)
    return FiniteMagma(order=order, table=tuple(map(tuple, _pair_table(left.table, right.table))))


def with_zero_adjoined(magma: FiniteMagma) -> FiniteMagma:
    """Adjoin a fresh absorbing element at the top index."""
    return _zero_adjoined(magma.table)


def cyclic_group_magma(n: int) -> FiniteMagma:
    """The cyclic group of order n as a bare Cayley table, i + j mod n: abelian_group_magma([n])."""
    return abelian_group_magma([n])


def abelian_group_magma(factors) -> FiniteMagma:
    """Direct sum of cyclic groups, elements in mixed-radix order (the last factor fastest)."""
    factors = tuple(check_count(f, "cyclic factors") for f in factors)
    check_order(prod(factors))
    coords = list(itertools.product(*map(range, factors)))
    index = {c: x for x, c in enumerate(coords)}
    table = tuple(
        tuple(index[tuple((a + b) % f for a, b, f in zip(g, h, factors))] for h in coords) for g in coords
    )
    return FiniteMagma(order=len(coords), table=table)


def _matrix_units(n: int) -> list:
    """The partial table of the n x n matrix units: e(i,j) at index i*n + j, e(i,j)e(j,l) = e(i,l),
    and None where the inner indices differ."""
    m = n * n
    return [[x - x % n + y % n if x % n == y // n else None for y in range(m)] for x in range(m)]


def matrix_unit_zero_magma(n: int) -> FiniteMagma:
    """Matrix units e(i,j) plus an absorbing zero; e(i,j)e(k,l) = e(i,l) if j = k, else 0.

    e(i,j) sits at index i*n + j (0-based); the zero is the last index n*n.
    """
    check_count(n, "matrix size")
    check_order(n * n + 1)
    return _zero_adjoined(_matrix_units(n))


def closure(magma: FiniteMagma, seed) -> frozenset:
    """Smallest superset of ``seed`` closed under the table (fixpoint saturation)."""
    mask = 0
    for e in seed:
        mask |= 1 << check_index(e, magma.order, "seed element")
    return frozenset(_bits(_close(magma.table, mask, list(_bits(mask)), 0)))


def _bits(mask: int):
    """Indices of the set bits of a bitset, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _decoded(masks, items) -> list:
    """Each mask as the frozenset of the items at its set bits.  A mask splits at bit
    k = ceil(n/2) for n items, and the set of each distinct low or high half is built once.

    The loop runs with the cyclic garbage collector paused.  Every object it makes is a
    frozenset of ints or of the shared (g, h) tuples of _bit_pairs, so none can be part
    of a cycle; yet each frozenset is a tracked container whose allocation counts towards
    a collection, and on results of 10^5 sets the collections, full ones included, scan
    the sets already built.  The collector's state on entry is restored on the way out,
    also when an exception escapes the loop."""
    k = (len(items) + 1) // 2
    low = (1 << k) - 1
    high_items = items[k:]
    lows, highs = {}, {}
    out = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for m in masks:
            a, b = m & low, m >> k
            part = lows.get(a)
            if part is None:
                part = lows[a] = frozenset(map(items.__getitem__, _bits(a)))
            rest = highs.get(b)
            if rest is None:
                rest = highs[b] = frozenset(map(high_items.__getitem__, _bits(b)))
            out.append(part | rest)
    finally:
        if was_enabled:
            gc.enable()
    return out


def _close(table, mask: int, fresh: list, banned: int):
    # Saturate mask under table, multiplying each fresh element with every
    # member on both sides; None entries impose nothing.  Returns None as soon
    # as a product lands in banned.
    while fresh:
        x = fresh.pop()
        row = table[x]
        mm = mask
        while mm:
            y = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            for z in (row[y], table[y][x]):
                if z is None:
                    continue
                bit = 1 << z
                if not mask & bit:
                    if banned & bit:
                        return None
                    mask |= bit
                    fresh.append(z)
    return mask


def _closed_subsets(table, forced: int, banned: int, counter) -> list:
    # Include/exclude search over elements in index order with an explicit
    # stack: keep the closure of the included part, prune a branch whose
    # closure meets an excluded element, spend one node per visited node.
    # Returns the bit masks of all closed supersets of forced that avoid
    # banned, in increasing order.
    #
    # A branch is free when every product of two allowed (not excluded)
    # elements lies in included or is one of its factors.  Then every subset
    # of the k undecided elements joined to included is closed, and the
    # search below the branch would visit the whole binary tree over them:
    # its (2 << k) - 1 nodes are spent before the 2**k masks are built.  A
    # branch that is not free carries a witness: allowed x and y (the mask
    # xy) with a product outside included that is neither factor (the mask
    # out of such products).  Children inherit it; once x or y is excluded or
    # every such product is included, a scan looks for a new one, taking x
    # from the highest undecided bit down, since the search excludes low bits
    # first.  The root starts with no witness (out = 0).  Both the witness
    # scan and the closure read the escape table built below, not table.
    n = len(table)
    full = (1 << n) - 1
    # escapes[x][y]: the bits of x*y and y*x that are neither x nor y;
    # partners[x]: the mask of the y where that is nonzero.
    escapes = [[0] * n for _ in range(n)]
    partners = [0] * n
    for x, row in enumerate(table):
        for y, z in enumerate(row):
            if z is not None and z != x and z != y:
                escapes[x][y] |= 1 << z
                escapes[y][x] |= 1 << z
                partners[x] |= 1 << y
                partners[y] |= 1 << x

    def witness(included, excluded):
        allowed = full & ~excluded
        xs = allowed & ~included
        while xs:
            x = xs.bit_length() - 1
            xs ^= 1 << x
            row = escapes[x]
            ys = partners[x] & allowed
            while ys:
                y = ys.bit_length() - 1
                ys ^= 1 << y
                if row[y] & ~included:
                    return 1 << x | 1 << y, row[y]
        return 0, 0

    def close(mask, fresh, excluded):
        # The closure of mask, or None as soon as it meets excluded.  Only the
        # products of the fresh bits (a mask) are not yet taken: each fresh x
        # adds its escapes with the members among its partners.  A product
        # equal to a factor is a member already, so this is _close's fixpoint.
        while fresh:
            x = fresh.bit_length() - 1
            fresh ^= 1 << x
            row = escapes[x]
            new = 0
            ys = partners[x] & mask
            while ys:
                y = ys.bit_length() - 1
                ys ^= 1 << y
                new |= row[y]
            new &= ~mask
            if new:
                if new & excluded:
                    return None
                mask |= new
                fresh |= new
        return mask

    results: list[int] = []
    start = close(forced, forced, banned)
    stack = [] if start is None else [(start, banned, 0, 0)]
    while stack:
        included, excluded, xy, out = stack.pop()
        if excluded & xy or not out & ~included:
            xy, out = witness(included, excluded)
        undecided = full & ~(included | excluded)
        if not out:
            counter.spend((2 << undecided.bit_count()) - 1)
            masks = [included]
            for e in _bits(undecided):
                bit = 1 << e
                masks += [m | bit for m in masks]
            results += masks
            continue
        counter.spend()
        bit = undecided & -undecided
        closed = close(included | bit, bit, excluded)
        if closed is not None:
            stack.append((closed, excluded, xy, out))
        stack.append((included, excluded | bit, xy, out))
    results.sort()
    return results


def enumerate_submagmas(magma: FiniteMagma, budget: Budget = DEFAULT_BUDGET) -> list:
    """All subsets closed under the product, including the empty set.

    Depth-first include/exclude search over elements, keeping the closure of
    the included part and pruning branches whose closure meets an excluded
    element.  A branch where every product of two elements not excluded is
    already included or is one of its factors is free: every subset of its k
    undecided elements joins the included part as a result.  Such a branch
    is emitted whole, after the budget is charged the (2 << k) - 1 nodes the
    search would have visited below it, so the node count is that of the
    plain search.  Closure runs on a table, built once per call, of the
    products of each pair that are neither factor.  Output is sorted by bit
    pattern, so the empty set comes first; each set is the union of the sets
    of its low and high half-masks, each of which is built once.
    """
    return _decoded(_submagma_masks(magma, budget), range(magma.order))


def _submagma_masks(magma: FiniteMagma, budget: Budget) -> list:
    # The masks of enumerate_submagmas, element e at bit e.
    return _closed_subsets(magma.table, 0, 0, NodeCounter(budget))


def _pair_masks(left, right, budget: Budget, forced=(), banned=()) -> list:
    # Closed subsets of the pair table of two tables that hold every forced
    # pair and no banned one, as masks with pair (g, h) at bit g*len(right) + h,
    # in increasing order.  The pair count is capped before the table is built.
    nh = len(right)
    check_order(len(left) * nh)
    return _closed_subsets(
        _pair_table(left, right), _pair_mask(forced, nh), _pair_mask(banned, nh), NodeCounter(budget)
    )


def _pair_mask(pairs, width: int) -> int:
    """The mask of a set of pairs, pair (g, h) at bit g*width + h."""
    return sum(1 << (g * width + h) for g, h in pairs)


def _bit_pairs(left_count: int, right_count: int) -> list:
    """The pair (g, h) at each bit of a pair mask, by bit: sorted (g, h) order."""
    return list(itertools.product(range(left_count), range(right_count)))


def _pair_subsets(masks, left_count: int, right_count: int) -> list:
    # Each mask of _pair_masks decoded to a frozenset of (g, h) pairs.
    return _decoded(masks, _bit_pairs(left_count, right_count))


def _zero_pair_masks(left: FiniteMagma, right: FiniteMagma, budget: Budget) -> list:
    # The masks of the zero submagmas of left x right (see enumerate_zero_submagmas).
    if left.zero is None or right.zero is None:
        raise MissingZeroError("both operands need a designated zero")
    zg, zh = left.zero, right.zero
    banned = [(g, zh) for g in range(left.order) if g != zg]
    return _pair_masks(_zero_exempt(left.table, zg), right.table, budget, [(zg, zh)], banned)


def enumerate_product_submagmas(left: FiniteMagma, right: FiniteMagma, budget: Budget = DEFAULT_BUDGET) -> list:
    """Submagmas of left x right, each a frozenset of (g, h) pairs."""
    return _pair_subsets(_pair_masks(left.table, right.table, budget), left.order, right.order)


def enumerate_zero_submagmas(left: FiniteMagma, right: FiniteMagma, budget: Budget = DEFAULT_BUDGET) -> list:
    """Zero submagmas of left x right, each a frozenset of (g, h) pairs.

    A pair set f qualifies when f^{-1}(0_H) = {0_G} -- i.e. (0,0) is present
    and no nonzero g is paired with 0_H -- and f is closed under componentwise
    products whose left component is nonzero.  A forced product landing on
    (g, 0_H) with g nonzero kills the branch, since no such pair may exist.
    |left|*|right| is capped by the order cap.
    """
    return _pair_subsets(_zero_pair_masks(left, right, budget), left.order, right.order)


def _associative(table) -> bool:
    """True when the table is total and associative: row x*y is row y pushed through row x."""
    if any(None in row for row in table):
        return False
    pushes = [itemgetter(*row) for row in table]
    rows = [push(range(len(table))) for push in pushes]  # each row as pushes give it: an int at order 1
    return all(rows[z] == pushes[y](row) for row in table for y, z in enumerate(row))


def _identity(table):
    """The two-sided identity of a table, or None."""
    n = len(table)
    return next((e for e in range(n) if all(table[e][g] == g == table[g][e] for g in range(n))), None)


def _propagation_plans(dom_table, short: bool, unit=None) -> list:
    # The plan of each depth of the map search, as (x, binds, checks): x is
    # the branch element, and each step (z, l, r) of binds or checks stands
    # for f(z) = f(l)f(r).  A step binds z when z is not yet bound and checks
    # f(z) when it is; binds are listed in the order the propagation meets
    # them, so each reads images bound before it.
    #   Any magma: reaching the entry a walks the entries y up to a only and
    # takes a*y and y*a, so each pair of bound elements is taken once.
    #   Both tables total and associative (short): reaching the branch
    # element x walks the entries y up to x and takes x*y, and y*x where y
    # is a branch element; reaching a later entry a takes y*a for each
    # branch element y only.  So each pair (y, t) of a branch element and a
    # bound element is taken, at whichever of the two the walk reaches later.
    # If f(y*t) = f(y)f(t) for those pairs, f is a hom on the bound set B:
    # each s in B is some y or y*s' with s' a shorter word, and f(s*t) =
    # f(y*(s'*t)) = f(y)(f(s')f(t)) = f(s)f(t) by induction and
    # associativity.  So both rules bind B and fail exactly when no hom on B
    # extends the branch.
    #   A check with the element unit as a factor is left out: the search
    # sets unit to the identity of the source only when every map it may
    # take sends unit to an identity of the target, where such a check holds.
    n = len(dom_table)
    cols = [tuple(row[a] for row in dom_table) for a in range(n)]
    plans = []
    bound = []  # the bound elements in the order they were bound: the propagation queue
    is_bound = [False] * n
    xs = []  # the branch elements of the depths so far
    while len(bound) < n:
        x = is_bound.index(False)
        xs.append(x)
        binds, checks = [], []
        i = len(bound)
        bound.append(x)
        is_bound[x] = True
        while i < len(bound):
            a = bound[i]
            i += 1
            if short and a != x:
                steps = [(cols[a][y], y, a) for y in xs]
            else:
                row, col = dom_table[a], cols[a]
                steps = []
                for y in bound[:i]:
                    steps.append((row[y], a, y))
                    if y != a and (not short or y in xs):
                        steps.append((col[y], y, a))
            for step in steps:
                z = step[0]
                if z is None:
                    continue
                if is_bound[z]:
                    if unit not in step[1:]:
                        checks.append(step)
                else:
                    is_bound[z] = True
                    bound.append(z)
                    binds.append(step)
        plans.append((x, binds, checks))
    return plans


def _enumerate_maps(dom_table, cod_table, allowed, counter) -> list:
    # Backtracking with constraint propagation: images are assigned in index
    # order, and each choice of an image propagates f(x*y) = f(x)f(y) from it,
    # binding a product's image where it is unbound (or failing if allowed
    # does not hold it) and checking it where it is bound.  dom_table entries
    # of None are exempt from the law.
    #   Which products a propagation binds, which it checks and in what order
    # depend only on the set of elements already bound, never on their
    # images, and every node at depth d has the same bound set: the one its
    # path's successful propagations bound.  So each depth has one plan
    # (_propagation_plans), built once per search, and every node at that
    # depth replays it over the one image array f.  Images bound deeper go
    # stale on backtracking, but a plan rebinds them before it reads them.
    # A candidate runs every bind before any check, which only reorders the
    # tests of one conjunction, since each step reads images bound before it:
    # it fails exactly when the propagation it replays would fail, so the
    # maps, their order and the nodes spent are those of propagating at every
    # node.  Plans spend no nodes.
    # A node spends before it is visited, so the last depth spends for each
    # map and appends it in its own loop, with no call.  A depth whose binds
    # all land in allowed sets that hold the whole codomain (every bind of
    # enumerate_homs but those of a unit below) sets their images with no
    # membership test.
    #   When the source has an identity e and the target has an identity 1
    # and no other idempotent (groups, say), every hom sends e to 1, since
    # f(e) = f(ee) = f(e)f(e).  So e is allowed 1 only, which prunes only
    # candidates that fail anyway, and a check with e as a factor, f(t) =
    # 1f(t), always holds and is left out of the plans.
    short = _associative(dom_table) and _associative(cod_table)
    unit, one = _identity(dom_table), _identity(cod_table)
    if unit is not None and one is not None and all(cod_table[p][p] != p for p in range(len(cod_table)) if p != one):
        allowed = list(allowed)
        allowed[unit] = allowed[unit] & {one}
    else:
        unit = None
    everything = set(range(len(cod_table)))
    plans = [
        (x, binds, checks, all(allowed[z] >= everything for z, _, _ in binds))
        for x, binds, checks in _propagation_plans(dom_table, short, unit)
    ]
    choices = [sorted(values) for values in allowed]
    f = [None] * len(dom_table)
    out = []
    last = len(plans) - 1

    def search(depth):
        x, binds, checks, unrestricted = plans[depth]
        for v in choices[x]:
            f[x] = v
            if unrestricted:
                for z, l, r in binds:
                    f[z] = cod_table[f[l]][f[r]]
            else:
                refused = False
                for z, l, r in binds:
                    p = cod_table[f[l]][f[r]]
                    if p not in allowed[z]:
                        refused = True
                        break
                    f[z] = p
                if refused:
                    continue
            for z, l, r in checks:
                if cod_table[f[l]][f[r]] != f[z]:
                    break
            else:
                counter.spend()
                if depth == last:
                    out.append(tuple(f))
                else:
                    search(depth + 1)

    counter.spend()
    if plans:
        search(0)
    else:
        out.append(())
    return out


def enumerate_homs(source: FiniteMagma, target: FiniteMagma, budget: Budget = DEFAULT_BUDGET) -> list:
    """All total maps f with f(gg') = f(g)f(g') for all g, g', in sorted order.  When both tables
    are associative, the search checks only the products whose left factor is a branch element, and
    otherwise every product; the list, its order and the nodes spent are the same either way."""
    counter = NodeCounter(budget)
    allowed = [frozenset(range(target.order))] * source.order
    return _enumerate_maps(source.table, target.table, allowed, counter)


def enumerate_zero_homs(source: FiniteMagma, target: FiniteMagma, budget: Budget = DEFAULT_BUDGET) -> list:
    """All total maps with f^{-1}(0_H) = {0_G} and f(gg') = f(g)f(g') whenever gg' != 0_G."""
    return _zero_homs(source, target, NodeCounter(budget))


def _zero_homs(source: FiniteMagma, target: FiniteMagma, counter) -> list:
    """enumerate_zero_homs spending from a caller's counter."""
    if source.zero is None or target.zero is None:
        raise MissingZeroError("both operands need a designated zero")
    zg, zh = source.zero, target.zero
    nonzero = frozenset(h for h in range(target.order) if h != zh)
    allowed = [nonzero if g != zg else frozenset((zh,)) for g in range(source.order)]
    return _enumerate_maps(_zero_exempt(source.table, zg), target.table, allowed, counter)


def _least_table(rows, counter) -> tuple:
    # The row-major lex-least table over all n! relabellings, flat, with its
    # perm, found by a depth-first search that hands out labels in the order
    # the row-major scan first needs them; each search node spends one node.
    # Where entry (r, j) needs a new label, for its row element (j = 0) or its
    # column element, the label goes to one of the unlabelled elements x that
    # tie for the least entry.  If every unlabelled x ties at a column and its
    # product is x itself, or one labelled element for all, the rest of row r
    # reads the same whichever x gets which label, so the choice is deferred
    # to the next entry that needs a new label (McKay 1981).  A product with no
    # label takes the next free one, since any other label would make its
    # entry larger.  Two candidates whose swap is an automorphism of rows
    # (twins) span the same subtree, so only the first is tried.  The least
    # table found so far bounds the search: a branch dies at its first entry
    # above it while its prefix equals it.  Once every element has a label,
    # the rest of the table is fixed: a leaf.
    n = len(rows)
    label = [-1] * n  # old index -> new label, -1 while unlabelled
    elem = []  # new label -> old index
    cur = [0] * (n * n)
    best = [n] * (n * n)  # above every table until the first leaf
    best_label = []
    twins = {}
    spend = counter.spend

    def twin(a, b) -> bool:
        if (a, b) not in twins:
            swap = list(range(n))
            swap[a], swap[b] = b, a
            twins[a, b] = all(swap[rows[x][y]] == rows[swap[x]][swap[y]] for x in range(n) for y in range(n))
        return twins[a, b]

    def hand_out(x):
        label[x] = len(elem)
        elem.append(x)

    def leaf(pos, tight):
        # Entries from pos on are fixed by the full labelling; compare them with best.
        nonlocal best, best_label
        r, j = divmod(pos, n)
        for i in range(r, n):
            row = rows[elem[i]]
            for x in elem[j:]:
                v = label[row[x]]
                if tight:
                    if v > best[pos]:
                        return
                    tight = v == best[pos]
                cur[pos] = v
                pos += 1
            j = 0
        if not tight:
            best, best_label = cur[:], label[:]

    def search(pos, tight):
        # cur holds the entries before pos = r * n + j; tight while they equal best's.
        # Entries that need no choice are written in a loop, and each label a
        # choice hands out starts a child node.  Once a child returns, best
        # shares this prefix: either it already did, or the child's subtree,
        # which no bound pruned, set best.
        spend()
        start = len(elem)
        while len(elem) < n:
            size = len(elem)
            r, j = divmod(pos, n)
            if size > r and size > j:
                p = rows[elem[r]][elem[j]]
                if label[p] < 0:
                    hand_out(p)
                v = label[p]
                if tight:
                    if v > best[pos]:
                        break
                    tight = v == best[pos]
                cur[pos] = v
                pos += 1
                continue
            # Label size goes to the row element (size == r, so j == 0) or to the column element.
            row = None if size == r else rows[elem[r]]
            candidates = []
            for x in range(n):
                if label[x] < 0:
                    p = row[x] if row else rows[x][elem[0] if size else x]
                    candidates.append((label[p] if label[p] >= 0 else size if p == x else size + 1, x, p))
            v = min(candidates)[0]
            if tight and v > best[pos]:
                break
            # Testing the last candidate first keeps max off the path of most untied columns.
            if row and v <= size and len(candidates) > 1 and candidates[-1][0] == v == max(candidates)[0]:
                # Every free x gives x itself, or every one the same labelled product, so
                # the rest of row r reads size, ..., n - 1, or v throughout: defer the choice.
                end = pos + n - j
                entries = list(range(size, n)) if v == size else [v] * (n - j)
                if tight:
                    if entries > best[pos:end]:
                        break
                    tight = entries == best[pos:end]
                cur[pos:end] = entries
                pos = end
                continue
            cur[pos] = v
            tight = tight and v == best[pos]
            kept = []
            for w, x, p in candidates:
                if w == v and not any(twin(k, x) for k in kept):
                    kept.append(x)
                    hand_out(x)
                    if label[p] < 0:
                        hand_out(p)
                    search(pos + 1, tight)
                    tight = True
                    while len(elem) > size:
                        label[elem.pop()] = -1
            break
        else:
            leaf(pos, tight)
        while len(elem) > start:
            label[elem.pop()] = -1

    search(0, True)
    return tuple(best), best_label


def _unflattened(flat, n: int) -> tuple:
    """The rows of a row-major flat table of order n."""
    return tuple(flat[i * n:(i + 1) * n] for i in range(n))


def canonical_form(magma: FiniteMagma, budget: Budget = DEFAULT_BUDGET) -> FiniteMagma:
    """Lexicographically least relabeled table over all element permutations.

    Found by a depth-first search that keeps only the relabellings tying for the least entry at each
    row-major position, defers a choice that no entry of the current row depends on, and tries one
    of any two twin candidates; it drops no least table, so it is exact.  Each search node spends
    one node of the budget, after the order is checked against the cap.  A designated zero tags
    along under the winning permutation; it never constrains the minimization because an absorbing
    element is unique.
    """
    n = magma.order
    check_order(n)
    flat, perm = _least_table(magma.table, NodeCounter(budget))
    return FiniteMagma(order=n, table=_unflattened(flat, n), zero=None if magma.zero is None else perm[magma.zero])


def are_isomorphic(left: FiniteMagma, right: FiniteMagma, budget: Budget = DEFAULT_BUDGET) -> bool:
    """True when some relabeling of elements carries one table onto the other; both least tables
    spend from one node budget."""
    if left.order != right.order:
        return False
    check_order(left.order)
    counter = NodeCounter(budget)
    return _least_table(left.table, counter)[0] == _least_table(right.table, counter)[0]


def census(order: int, budget: Budget = DEFAULT_BUDGET) -> list:
    """One representative per isomorphism class of the given order: its least table.

    Walks all order^(order^2) tables in row-major lex order, so the first
    table met in a class is the class's least one.  That table is kept and
    every relabelling of it is marked as seen, one byte per table in a
    bytearray indexed by the table's base-order code, entry (0, 0) the most
    significant digit.  The node budget charges the table count up front,
    which gates anything past order 3 (order 4 already has 178,981,952 classes).
    """
    check_count(order, "order")
    check_order(order)  # before order ** (order * order) is formed
    n, cells = order, order * order
    NodeCounter(budget).spend(n**cells)
    seen = bytearray(n**cells)
    # Each relabelling p with the code weight of the cell (p[g], p[h]) that entry (g, h) moves to.
    perms = itertools.permutations(range(n))
    moves = [(p, [n ** (cells - 1 - p[g] * n - p[h]) for g in range(n) for h in range(n)]) for p in perms]
    classes = []
    for code, flat in enumerate(itertools.product(range(n), repeat=cells)):
        if not seen[code]:
            classes.append(FiniteMagma(order=n, table=_unflattened(flat, n)))
            for p, weights in moves:
                seen[sum(p[v] * w for v, w in zip(flat, weights))] = 1
    return classes
