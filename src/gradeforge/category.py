"""Finite precategories, categories and groupoids.

Morphisms are the primary carrier: a precategory is a list of (dom, cod)
pairs with a composition table that is total exactly on composable pairs.
comp[s][t] is "s after t" and is defined iff dom(s) = cod(t).  Identities are
optional; when every object has one the structure is a category.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget import DEFAULT_BUDGET, Budget, NodeCounter, check_order
from .errors import (
    BadCompositionError,
    BadIdentityError,
    NotACategoryError,
    NotAGroupError,
    NotAssociativeError,
    ReductionMismatchError,
    ValidationError,
    check_count,
    check_index,
)
from .magma import FiniteMagma, _bits, _closed_subsets, _pair_masks, _pair_subsets, _pair_table, _zero_adjoined
from .magma import _matrix_units, _zero_homs, enumerate_zero_submagmas


@dataclass(frozen=True)
class FinitePrecategory:
    """Objects 0..object_count-1, morphisms with dom/cod, partial composition.

    identity_at[e] names the identity morphism at object e, or None; a value
    with no None entries makes this a category.
    """

    object_count: int
    morphisms: tuple
    comp: tuple
    identity_at: tuple

    @property
    def morphism_count(self) -> int:
        return len(self.morphisms)

    def dom(self, s: int) -> int:
        return self.morphisms[s][0]

    def cod(self, s: int) -> int:
        return self.morphisms[s][1]

    @property
    def is_category(self) -> bool:
        return all(i is not None for i in self.identity_at)

    def hom(self, x: int, y: int) -> tuple:
        """Indices of morphisms x -> y."""
        return tuple(s for s, (d, c) in enumerate(self.morphisms) if d == x and c == y)


@dataclass(frozen=True)
class MorphismMap:
    """An object map and a morphism map, e.g. a prefunctor or functor."""

    object_map: tuple
    morphism_map: tuple


def validate_precategory(object_count, morphisms, comp, identity_at=None, budget: Budget = DEFAULT_BUDGET) -> FinitePrecategory:
    """Check shapes, composability, dom/cod of composites, associativity and identities."""
    morphisms = tuple((d, c) for d, c in morphisms)
    m = len(morphisms)
    check_order(m, budget)
    # The object count, the morphism ends, the composites and the identities are plain ints, so
    # print_category writes what parse_category reads.
    check_count(object_count, "object count", least=0)
    for s, ends in enumerate(morphisms):
        for end in ends:
            check_index(end, object_count, f"morphism {s} has dom/cod {ends!r}, not two ints in range:")
    comp = tuple(tuple(row) for row in comp)
    if len(comp) != m or any(len(row) != m for row in comp):
        raise ValidationError(f"composition table is not {m}x{m}")
    for s in range(m):
        for t in range(m):
            entry = comp[s][t]
            composable = morphisms[s][0] == morphisms[t][1]
            if composable:
                if entry is None:
                    raise BadCompositionError(f"missing composite for composable pair ({s}, {t})")
                if type(entry) is not int or not 0 <= entry < m:
                    check_index(entry, m, f"composite at ({s}, {t}):")
                if morphisms[entry][0] != morphisms[t][0] or morphisms[entry][1] != morphisms[s][1]:
                    raise BadCompositionError(f"composite of ({s}, {t}) has wrong dom/cod")
            elif entry is not None:
                raise BadCompositionError(f"composite given for non-composable pair ({s}, {t})")
    for r in range(m):
        for s in range(m):
            rs = comp[r][s]
            if rs is None:
                continue
            for t in range(m):
                st = comp[s][t]
                if st is None:
                    continue
                if comp[rs][t] != comp[r][st]:
                    raise NotAssociativeError(f"composition not associative on triple ({r}, {s}, {t})")
    if identity_at is None:
        identity_at = (None,) * object_count
    identity_at = tuple(identity_at)
    if len(identity_at) != object_count:
        raise ValidationError("identity_at length must equal object count")
    for e, i in enumerate(identity_at):
        if i is None:
            continue
        check_index(i, m, f"identity at object {e}:")
        if morphisms[i] != (e, e):
            raise BadIdentityError(f"identity at object {e} must run {e} -> {e}")
        for s in range(m):
            if morphisms[s][0] == e and comp[s][i] != s:
                raise BadIdentityError(f"morphism {s} not fixed by right unit at object {e}")
            if morphisms[s][1] == e and comp[i][s] != s:
                raise BadIdentityError(f"morphism {s} not fixed by left unit at object {e}")
    return FinitePrecategory(object_count, morphisms, comp, identity_at)


def _group_identity(table) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][g] == g and table[g][e] == g for g in range(n)):
            return e
    raise NotAGroupError("no two-sided identity")


def _check_group(table) -> int:
    """Validate a Cayley table as a group; returns the identity index."""
    n = len(table)
    if any(len(row) != n for row in table):
        raise NotAGroupError("table not square")
    e = _group_identity(table)
    for a in range(n):
        if set(table[a]) != set(range(n)) or {table[b][a] for b in range(n)} != set(range(n)):
            raise NotAGroupError("rows and columns must be permutations")
    # Entries equal to 0..n-1 by now; a bool or an integral float is refused before it indexes a row.
    for entry in itertools.chain(*table):
        check_index(entry, n, "group table entry")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAGroupError("not associative")
    return e


def group_as_category(table) -> FinitePrecategory:
    """A group Cayley table as a one-object category."""
    table = tuple(tuple(row) for row in table)
    e = _check_group(table)
    n = len(table)
    return FinitePrecategory(
        object_count=1,
        morphisms=tuple((0, 0) for _ in range(n)),
        comp=table,
        identity_at=(e,),
    )


def connected_groupoid(object_count: int, vertex_group, budget: Budget = DEFAULT_BUDGET) -> FinitePrecategory:
    """The connected groupoid on the given objects with the given vertex group.

    It is the product of matrix_groupoid(n) and group_as_category(vertex_group)
    (Brandt): morphism (i, g, j): j -> i sits at index (i*n + j)*q + g, and
    (i, g, j) o (j, h, k) = (i, gh, k).
    """
    table = tuple(tuple(row) for row in vertex_group)
    n = check_count(object_count, "object count")
    check_order(n * n * len(table), budget)  # before the O(q^3) group check and the matrix units
    group = group_as_category(table)
    return product_category(matrix_groupoid(n, budget), group, budget)


def matrix_groupoid(n: int, budget: Budget = DEFAULT_BUDGET) -> FinitePrecategory:
    """The thin connected groupoid on n objects: morphisms e(i,j): j -> i at index i*n + j."""
    check_count(n, "object count")
    check_order(n * n, budget)
    morphisms = tuple((j, i) for i in range(n) for j in range(n))
    return FinitePrecategory(n, morphisms, tuple(map(tuple, _matrix_units(n))), tuple(i * n + i for i in range(n)))


def product_category(left: FinitePrecategory, right: FinitePrecategory, budget: Budget = DEFAULT_BUDGET) -> FinitePrecategory:
    """Componentwise product; morphism (s, t) encoded as s*|mor(right)| + t."""
    mr = right.morphism_count
    check_order(left.morphism_count * mr, budget)
    nobj_r = right.object_count
    morphisms = tuple(
        (left.dom(s) * nobj_r + right.dom(t), left.cod(s) * nobj_r + right.cod(t))
        for s in range(left.morphism_count)
        for t in range(mr)
    )
    if left.is_category and right.is_category:
        identity_at = tuple(
            left.identity_at[i] * mr + right.identity_at[j]
            for i in range(left.object_count)
            for j in range(right.object_count)
        )
    else:
        identity_at = (None,) * (left.object_count * right.object_count)
    comp = tuple(map(tuple, _pair_table(left.comp, right.comp)))
    return FinitePrecategory(left.object_count * right.object_count, morphisms, comp, identity_at)


def disjoint_union(left: FinitePrecategory, right: FinitePrecategory) -> FinitePrecategory:
    """Side-by-side union with left's objects and morphisms first."""
    off_o = left.object_count
    off_m = left.morphism_count
    morphisms = left.morphisms + tuple((d + off_o, c + off_o) for d, c in right.morphisms)
    m = len(morphisms)
    comp = [[None] * m for _ in range(m)]
    for s in range(left.morphism_count):
        for t in range(left.morphism_count):
            comp[s][t] = left.comp[s][t]
    for s in range(right.morphism_count):
        for t in range(right.morphism_count):
            c = right.comp[s][t]
            comp[off_m + s][off_m + t] = None if c is None else c + off_m
    identity_at = left.identity_at + tuple(None if i is None else i + off_m for i in right.identity_at)
    return FinitePrecategory(off_o + right.object_count, morphisms, tuple(tuple(r) for r in comp), identity_at)


def is_thin(cat: FinitePrecategory) -> bool:
    """At most one morphism between each ordered pair of objects."""
    seen = set()
    for d, c in cat.morphisms:
        if (d, c) in seen:
            return False
        seen.add((d, c))
    return True


def is_connected(cat: FinitePrecategory) -> bool:
    """At least one morphism between each ordered pair of objects."""
    seen = {(d, c) for d, c in cat.morphisms}
    return all((x, y) in seen for x in range(cat.object_count) for y in range(cat.object_count))


def is_groupoid(cat: FinitePrecategory) -> bool:
    """A category all of whose morphisms have two-sided inverses."""
    if not cat.is_category:
        return False
    for s in range(cat.morphism_count):
        ok = any(
            cat.comp[s][t] == cat.identity_at[cat.cod(s)] and cat.comp[t][s] == cat.identity_at[cat.dom(s)]
            for t in range(cat.morphism_count)
            if cat.dom(t) == cat.cod(s) and cat.cod(t) == cat.dom(s)
        )
        if not ok:
            return False
    return True


def _restricted(cat: FinitePrecategory, objects, morphisms) -> FinitePrecategory:
    """The listed objects and morphisms of cat, renumbered in the order given.

    Every listed morphism must run between listed objects.  A listed object whose identity is not
    listed has none.  Raises ValidationError when a composite of two listed morphisms is not listed.
    """
    obj_index = {x: i for i, x in enumerate(objects)}
    mor_index = {s: i for i, s in enumerate(morphisms)}
    try:
        comp = tuple(
            tuple(None if cat.comp[s][t] is None else mor_index[cat.comp[s][t]] for t in mor_index) for s in mor_index
        )
    except KeyError:
        raise ValidationError("the listed morphisms are not closed under composition") from None
    return FinitePrecategory(
        len(obj_index),
        tuple((obj_index[cat.dom(s)], obj_index[cat.cod(s)]) for s in mor_index),
        comp,
        tuple(mor_index.get(cat.identity_at[x]) for x in obj_index),
    )


def connected_components(cat: FinitePrecategory) -> list:
    """Split into weakly connected pieces; objects and morphisms partition."""
    parent = list(range(cat.object_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for d, c in cat.morphisms:
        rd, rc = find(d), find(c)
        if rd != rc:
            parent[max(rd, rc)] = min(rd, rc)
    objects = range(cat.object_count)
    return [
        _restricted(cat, [x for x in objects if find(x) == root], [s for s, (d, _) in enumerate(cat.morphisms) if find(d) == root])
        for root in sorted({find(x) for x in objects})
    ]


def vertex_group_table(cat: FinitePrecategory, obj: int):
    """Cayley table of the endomorphisms at one object, in index order.

    Raises IndexOutOfRangeError when obj is not a plain int naming an object of cat, and ValidationError
    when the endomorphisms are not closed under composition (never in a validated precategory).
    """
    check_index(obj, cat.object_count, "object")
    return _restricted(cat, [obj], cat.hom(obj, obj)).comp


def adjoin_zero(cat: FinitePrecategory, budget: Budget = DEFAULT_BUDGET) -> FiniteMagma:
    """The zero magma on mor(cat) plus a fresh absorbing element.

    s * t is the composite when defined and the zero otherwise; the zero sits
    at the top index, so morphism indices are preserved.
    """
    return _zero_adjoined(cat.comp, budget)


def _fill_free_objects(maps: list, target_objects: int, counter) -> list:
    """Each morphism map once per object map: the objects that no morphism touches, None in
    every map, take every image.  One node per map, spent before any is built."""
    free = [o for o, v in enumerate(maps[0].object_map) if v is None] if maps else []
    if not free:
        return maps
    counter.spend(len(maps) * target_objects ** len(free))
    filled = []
    for mm in maps:
        for combo in itertools.product(range(target_objects), repeat=len(free)):
            obj_map = list(mm.object_map)
            for o, img in zip(free, combo):
                obj_map[o] = img
            filled.append(MorphismMap(tuple(obj_map), mm.morphism_map))
    return filled


def _search_morphism_maps(source: FinitePrecategory, target: FinitePrecategory, functors: bool, counter) -> list:
    # The magma hom search's propagation over bound elements, with the object
    # map carried alongside: each branch carries the morphism map, the object
    # map and the list of its bound morphisms, which is also the propagation
    # queue.  Binding a morphism binds both incident object images and, for
    # functors, the identity at each newly bound object.  Reaching the entry
    # s of the list walks the entries t up to s only: a composite s.t or t.s
    # whose image is bound is compared where it is found; one whose image is
    # unbound is bound and appended.
    #
    # One result per morphism map: an object that no morphism touches is
    # never bound and stays None (_fill_free_objects gives it every image).
    # In a category every object has an identity, so functors have none.
    #
    # No bind conflicts.  The image u.v of a composite s.t runs between the
    # images of its ends, which are bound, and exists because a validated
    # precategory composes every composable pair.  Only a branch's first bind
    # can meet an unbound object, so search filters its images once: a loop
    # there goes only to a loop and, for functors, an identity only to an
    # identity.
    if functors and not (source.is_category and target.is_category):
        raise NotACategoryError("functor enumeration needs total identities on both sides")
    m = source.morphism_count
    comp, image_comp = source.comp, target.comp
    cols = [tuple(row[a] for row in comp) for a in range(m)]

    def bind(mor_map, obj_map, bound, a, b):
        mor_map[a] = b
        bound.append(a)
        for go, lo in zip(source.morphisms[a], target.morphisms[b]):
            if obj_map[go] is None:
                obj_map[go] = lo
                i = source.identity_at[go]
                if functors and mor_map[i] is None:
                    bind(mor_map, obj_map, bound, i, target.identity_at[lo])

    def propagate(mor_map, obj_map, bound, s, u) -> bool:
        i = len(bound)
        bind(mor_map, obj_map, bound, s, u)
        while i < len(bound):
            a = bound[i]
            i += 1
            b = mor_map[a]
            row, col, image_row = comp[a], cols[a], image_comp[b]
            for t in bound[:i]:
                v = mor_map[t]
                st = row[t]
                if st is not None:
                    uv, cur = image_row[v], mor_map[st]
                    if cur is None:
                        bind(mor_map, obj_map, bound, st, uv)
                    elif cur != uv:
                        return False
                ts = col[t]
                if ts is not None and t != a:
                    vu, cur = image_comp[v][b], mor_map[ts]
                    if cur is None:
                        bind(mor_map, obj_map, bound, ts, vu)
                    elif cur != vu:
                        return False
        return True

    results: list[MorphismMap] = []

    def search(mor_map, obj_map, bound):
        counter.spend()
        if len(bound) == m:
            results.append(MorphismMap(tuple(obj_map), tuple(mor_map)))
            return
        s = mor_map.index(None)
        ds, cs = source.morphisms[s]
        for u in range(target.morphism_count):
            du, cu = target.morphisms[u]
            if obj_map[ds] is None:
                if ds == cs and du != cu or functors and s == source.identity_at[ds] and u != target.identity_at[du]:
                    continue
            elif obj_map[ds] != du:
                continue
            if obj_map[cs] is not None and obj_map[cs] != cu:
                continue
            mm, om, trial_bound = list(mor_map), list(obj_map), list(bound)
            if propagate(mm, om, trial_bound, s, u):
                search(mm, om, trial_bound)

    search([None] * m, [None] * source.object_count, [])
    return results


def enumerate_prefunctors(source: FinitePrecategory, target: FinitePrecategory, budget: Budget = DEFAULT_BUDGET) -> list:
    """All maps preserving dom/cod and composition; identities are not required to map to identities.

    An object that no morphism touches takes every image: |ob(target)|^k maps, and as many
    nodes, per morphism map when k objects are untouched.
    """
    counter = NodeCounter(budget)
    return _fill_free_objects(_search_morphism_maps(source, target, False, counter), target.object_count, counter)


def enumerate_functors(source: FinitePrecategory, target: FinitePrecategory, budget: Budget = DEFAULT_BUDGET) -> list:
    """Prefunctors that also send each identity to the identity at the image object."""
    return _search_morphism_maps(source, target, True, NodeCounter(budget))


def enumerate_prefunctors_via_zero_homs(source: FinitePrecategory, target: FinitePrecategory, budget: Budget = DEFAULT_BUDGET) -> list:
    """Prefunctor enumeration reduced to zero-magma homomorphisms of the adjoined magmas.

    Every zero-magma homomorphism must induce a consistent object assignment;
    an inconsistent one raises ReductionMismatchError rather than being
    silently discarded.  Objects touched by no morphism take every image.
    """
    g = adjoin_zero(source, budget)
    h = adjoin_zero(target, budget)
    counter = NodeCounter(budget)
    maps = []
    for images in _zero_homs(g, h, counter):
        obj_map: list = [None] * source.object_count
        for s in range(source.morphism_count):
            u = images[s]
            for go, lo in ((source.dom(s), target.dom(u)), (source.cod(s), target.cod(u))):
                if obj_map[go] is None:
                    obj_map[go] = lo
                elif obj_map[go] != lo:
                    raise ReductionMismatchError(
                        f"zero-magma homomorphism {images} induces no consistent object map"
                    )
        maps.append(MorphismMap(tuple(obj_map), images[: source.morphism_count]))
    return _fill_free_objects(maps, target.object_count, counter)


def is_prefunctor(source: FinitePrecategory, target: FinitePrecategory, mm: MorphismMap) -> bool:
    """Check dom/cod compatibility and preservation of defined composition."""
    for s in range(source.morphism_count):
        u = mm.morphism_map[s]
        if target.dom(u) != mm.object_map[source.dom(s)] or target.cod(u) != mm.object_map[source.cod(s)]:
            return False
    for s in range(source.morphism_count):
        for t in range(source.morphism_count):
            st = source.comp[s][t]
            if st is None:
                continue
            uv = target.comp[mm.morphism_map[s]][mm.morphism_map[t]]
            if uv is None or uv != mm.morphism_map[st]:
                return False
    return True


def is_functor(source: FinitePrecategory, target: FinitePrecategory, mm: MorphismMap) -> bool:
    if not is_prefunctor(source, target, mm):
        return False
    return all(
        mm.morphism_map[source.identity_at[e]] == target.identity_at[mm.object_map[e]]
        for e in range(source.object_count)
    )


def identity_morphism_map(cat: FinitePrecategory) -> MorphismMap:
    return MorphismMap(tuple(range(cat.object_count)), tuple(range(cat.morphism_count)))


def compose_morphism_maps(first: MorphismMap, second: MorphismMap) -> MorphismMap:
    """second after first."""
    return MorphismMap(
        tuple(second.object_map[o] for o in first.object_map),
        tuple(second.morphism_map[s] for s in first.morphism_map),
    )


def enumerate_subprecategories(cat: FinitePrecategory, budget: Budget = DEFAULT_BUDGET) -> list:
    """All morphism subsets closed under defined composition, sorted by bit pattern.

    Objects of a subprecategory are induced as the doms and cods of its
    morphisms; identities are not required to belong.
    """
    masks = _closed_subsets(cat.comp, 0, 0, NodeCounter(budget))
    return [frozenset(_bits(m)) for m in masks]


def enumerate_subprecategory_pairs(left: FinitePrecategory, right: FinitePrecategory, budget: Budget = DEFAULT_BUDGET) -> list:
    """Subprecategories of left x right as sets of (left morphism, right morphism) pairs."""
    return _pair_subsets(_pair_masks(left.comp, right.comp, budget), left.morphism_count, right.morphism_count)


def subprecategory_pairs_via_zero_submagmas(left: FinitePrecategory, right: FinitePrecategory, budget: Budget = DEFAULT_BUDGET) -> list:
    """Subprecategory pair-sets recovered from zero submagmas of the adjoined magmas.

    Each zero submagma contributes the pairs of genuine morphisms it contains;
    distinct zero submagmas can collapse to the same pair-set (pairs whose
    left component is the adjoined zero carry no morphism information), so the
    image is deduplicated.

    The result is exactly the subprecategories in which every pair of members
    with composable left components also has composable right components: a
    left-composable, right-non-composable pair would force a product onto the
    forbidden zero column of the zero submagma.  When the right factor has one
    object this is all subprecategories and the two enumerations coincide.
    """
    g = adjoin_zero(left, budget)
    h = adjoin_zero(right, budget)
    zg, zh = g.zero, h.zero
    seen = set()
    for pairs in enumerate_zero_submagmas(g, h, budget):
        seen.add(frozenset((s, t) for (s, t) in pairs if s != zg and t != zh))
    return sorted(seen, key=lambda f: sorted(f))
