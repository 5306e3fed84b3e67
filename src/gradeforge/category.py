"""Finite precategories, categories and groupoids.

Morphisms are the primary carrier: a precategory is a list of (dom, cod)
pairs with a composition table that is total exactly on composable pairs.
comp[s][t] is "s after t" and is defined iff dom(s) = cod(t).  Identities are
optional; when every object has one the structure is a category.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .budget import DEFAULT_BUDGET, Budget, NodeCounter, check_order
from .errors import (
    BadCompositionError,
    BadIdentityError,
    NotACategoryError,
    NotAGroupError,
    NotAssociativeError,
    ValidationError,
    check_count,
    check_index,
)
from .magma import FiniteMagma, _closed_subsets, _decoded, _pair_masks, _pair_subsets, _pair_table, _zero_adjoined
from .magma import _matrix_units


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


def validate_precategory(object_count, morphisms, comp, identity_at=None) -> FinitePrecategory:
    """Check shapes, composability, dom/cod of composites, associativity and identities."""
    morphisms = tuple((d, c) for d, c in morphisms)
    m = len(morphisms)
    check_order(m)
    # The object count, the morphism ends, the composites and the identities are plain ints, so
    # print_category writes what parse_category reads.
    check_order(check_count(object_count, "object count", least=0))
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


def group_as_category(table) -> FinitePrecategory:
    """A group Cayley table as a one-object category.

    validate_precategory checks the shape, the entries and associativity and raises its own errors;
    a table with no two-sided identity, or with an element that has no inverse, raises NotAGroupError.
    """
    table = tuple(tuple(row) for row in table)
    monoid = validate_precategory(1, ((0, 0),) * len(table), table)
    elements = range(len(table))
    e = next((e for e in elements if all(table[e][g] == g == table[g][e] for g in elements)), None)
    if e is None:
        raise NotAGroupError("no two-sided identity")
    group = replace(monoid, identity_at=(e,))
    if not is_groupoid(group):
        raise NotAGroupError("an element has no inverse")
    return group


def connected_groupoid(object_count: int, vertex_group) -> FinitePrecategory:
    """The connected groupoid on the given objects with the given vertex group.

    It is the product of matrix_groupoid(n) and group_as_category(vertex_group)
    (Brandt): morphism (i, g, j): j -> i sits at index (i*n + j)*q + g, and
    (i, g, j) o (j, h, k) = (i, gh, k).
    """
    table = tuple(tuple(row) for row in vertex_group)
    n = check_count(object_count, "object count")
    check_order(n * n * len(table))  # before the O(q^3) group check and the matrix units
    group = group_as_category(table)
    return product_category(matrix_groupoid(n), group)


def matrix_groupoid(n: int) -> FinitePrecategory:
    """The thin connected groupoid on n objects: morphisms e(i,j): j -> i at index i*n + j."""
    check_count(n, "object count")
    check_order(n * n)
    morphisms = tuple((j, i) for i in range(n) for j in range(n))
    return FinitePrecategory(n, morphisms, tuple(map(tuple, _matrix_units(n))), tuple(i * n + i for i in range(n)))


def product_category(left: FinitePrecategory, right: FinitePrecategory) -> FinitePrecategory:
    """Componentwise product; morphism (s, t) encoded as s*|mor(right)| + t."""
    mr = right.morphism_count
    check_order(left.morphism_count * mr)
    nobj_r = right.object_count
    check_order(left.object_count * nobj_r)
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
    check_order(off_o + right.object_count)
    check_order(off_m + right.morphism_count)
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


def adjoin_zero(cat: FinitePrecategory) -> FiniteMagma:
    """The zero magma on mor(cat) plus a fresh absorbing element.

    s * t is the composite when defined and the zero otherwise; the zero sits
    at the top index, so morphism indices are preserved.
    """
    return _zero_adjoined(cat.comp)


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


def _check_identities(source: FinitePrecategory, target: FinitePrecategory) -> None:
    if not (source.is_category and target.is_category):
        raise NotACategoryError("functors need total identities on both sides")


def _morphism_plans(source: FinitePrecategory, functors: bool) -> list:
    # The plan of each depth of the morphism-map search, as (s, ends, objects,
    # identity_steps, binds, checks).  s is the branch morphism, and ends says
    # which of its dom and cod are bound before it: 0 neither, 1 the dom, 2
    # the cod, 3 both.  An object step (o, end) sets the image of o, an end
    # of s that is not yet bound, to that end (0 dom, 1 cod) of the image of
    # s; only s can have an unbound end, since a composite's ends are ends of
    # its factors.  For functors, an identity step (e, o) sets the identity e
    # at a newly bound object o to the identity at the image of o.  A
    # composite step (z, l, r) stands for f(z) = f(l).f(r): a bind sets f(z)
    # and a check compares it.  Binds are listed in the order the propagation
    # meets them, so each reads images bound before it.
    #   The short rule.  The generators are the branch morphisms of the
    # depths so far and the identities bound by identity steps.  Reaching a
    # generator a of this depth walks the entries t up to a and takes a.t,
    # and t.a where t is a generator; reaching any other entry a takes g.a
    # for each generator g only.  So each pair (g, t) of a generator and a
    # bound morphism is taken, at whichever of the two the walk reaches later.  Every bound morphism is a
    # generator or g.s' with s' a shorter word, and when s.t is defined, so is
    # s'.t (dom s' = dom s = cod t).  So by induction s.t = g.(s'.t) is bound,
    # and if f(g.t) = f(g).f(t) for those pairs, f(s.t) = f(g).f(s'.t) =
    # f(g).(f(s').f(t)) = f(s).f(t), by the associativity that
    # validate_precategory checks on both sides.  So the rule binds the
    # morphisms that taking every pair would bind, and fails exactly when no
    # prefunctor on them extends the branch.
    #   For functors, a check with an identity as a factor always holds and is
    # left out: each identity e goes to the identity at the image of its
    # object (by an identity step, or as a branch morphism, which then goes
    # only to an identity), so f(e.t) = f(t) = f(e).f(t), and so for t.e.
    m = source.morphism_count
    comp = source.comp
    cols = [tuple(row[a] for row in comp) for a in range(m)]
    plans = []
    bound = []  # the bound morphisms in the order they were bound: the propagation queue
    is_bound = [False] * m
    object_bound = [False] * source.object_count
    generators = []
    identity_morphisms = set(source.identity_at)
    while len(bound) < m:
        s = is_bound.index(False)
        ds, cs = source.morphisms[s]
        ends = object_bound[ds] + 2 * object_bound[cs]
        i = len(bound)
        bound.append(s)
        is_bound[s] = True
        fresh = [s]
        objects, identity_steps = [], []
        for end, o in enumerate((ds, cs)):
            if not object_bound[o]:
                object_bound[o] = True
                objects.append((o, end))
                e = source.identity_at[o]
                if functors and not is_bound[e]:
                    is_bound[e] = True
                    bound.append(e)
                    fresh.append(e)
                    identity_steps.append((e, o))
        generators += fresh
        binds, checks = [], []
        while i < len(bound):
            a = bound[i]
            i += 1
            if a in fresh:
                row, col = comp[a], cols[a]
                steps = []
                for t in bound[:i]:
                    steps.append((row[t], a, t))
                    if t != a and t in generators:
                        steps.append((col[t], t, a))
            else:
                steps = [(cols[a][g], g, a) for g in generators]
            for step in steps:
                z = step[0]
                if z is None:
                    continue
                if is_bound[z]:
                    if not (functors and (step[1] in identity_morphisms or step[2] in identity_morphisms)):
                        checks.append(step)
                else:
                    is_bound[z] = True
                    bound.append(z)
                    binds.append(step)
        plans.append((s, ends, objects, identity_steps, binds, checks))
    return plans


def _search_morphism_maps(source: FinitePrecategory, target: FinitePrecategory, functors: bool, counter) -> list:
    # Backtracking with constraint propagation over one morphism array and
    # one object array: morphisms branch in index order, and each choice of
    # an image for the branch morphism s binds the images of its unbound
    # ends, for functors the identities at them, and every composite of bound
    # morphisms it reaches, or checks a composite whose image is bound.
    #   Which steps a propagation takes depends only on the set of morphisms
    # already bound, never on their images, and every node at one depth has
    # the same bound set.  So each depth has one plan (_morphism_plans),
    # built once per search, and every node replays it.  Images bound deeper
    # go stale on backtracking, but a plan rebinds them before it reads them.
    # A candidate runs every bind before any check, which only reorders the
    # tests of one conjunction: it fails exactly when propagating at that
    # node would fail, so the maps, their order and the nodes spent are
    # those of a search that propagates at every node.  Plans spend no nodes.
    # A node spends before it is visited, so the last depth spends for each
    # map and appends it in its own loop, with no call.
    #   No bind conflicts.  The image f(l).f(r) of a composite l.r runs
    # between the images of its ends, which are bound, and exists because a
    # validated precategory composes every composable pair; the short rule of
    # _morphism_plans rests on the same invariant, through associativity.
    # Only the branch morphism can meet an unbound object, so only its image
    # is filtered: its candidates, listed once per search in index order,
    # are the target morphisms out of the image of its dom, into the image
    # of its cod, or between both, as far as these are bound.  A loop at an
    # unbound object goes only to a loop and, for functors, such an identity
    # only to an identity.
    #   One result per morphism map: an object that no morphism touches is
    # never bound and stays None (_fill_free_objects gives it every image).
    # In a category every object has an identity, so functors have none.
    if functors:
        _check_identities(source, target)
    plans = _morphism_plans(source, functors)
    image_comp, image_identity, image_ends = target.comp, target.identity_at, target.morphisms
    into = [[] for _ in range(target.object_count)]
    out_of = [[] for _ in range(target.object_count)]
    between = [[[] for _ in range(target.object_count)] for _ in range(target.object_count)]
    loops = []
    for u, (du, cu) in enumerate(image_ends):
        out_of[du].append(u)
        into[cu].append(u)
        between[du][cu].append(u)
        if du == cu:
            loops.append(u)
    everything = range(target.morphism_count)
    identities = [u for u in loops if u == image_identity[image_ends[u][0]]]
    mor = [None] * source.morphism_count
    obj = [None] * source.object_count
    results: list[MorphismMap] = []
    last = len(plans) - 1

    def search(depth):
        s, ends, objects, identity_steps, binds, checks = plans[depth]
        ds, cs = source.morphisms[s]
        if ends == 3:
            candidates = between[obj[ds]][obj[cs]]
        elif ends == 1:
            candidates = out_of[obj[ds]]
        elif ends == 2:
            candidates = into[obj[cs]]
        elif ds != cs:
            candidates = everything
        elif functors and s == source.identity_at[ds]:
            candidates = identities
        else:
            candidates = loops
        for u in candidates:
            mor[s] = u
            for o, end in objects:
                obj[o] = image_ends[u][end]
            for e, o in identity_steps:
                mor[e] = image_identity[obj[o]]
            for z, l, r in binds:
                mor[z] = image_comp[mor[l]][mor[r]]
            for z, l, r in checks:
                if image_comp[mor[l]][mor[r]] != mor[z]:
                    break
            else:
                counter.spend()
                if depth == last:
                    results.append(MorphismMap(tuple(obj), tuple(mor)))
                else:
                    search(depth + 1)

    counter.spend()
    if plans:
        search(0)
    else:
        results.append(MorphismMap(tuple(obj), ()))
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


def is_prefunctor(source: FinitePrecategory, target: FinitePrecategory, mm: MorphismMap) -> bool:
    """Check dom/cod compatibility and preservation of defined composition.

    Raises ValidationError when mm has not one image per object and morphism of source, and
    IndexOutOfRangeError when an image names no object or morphism of target.
    """
    for images, count, size, what in (
        (mm.object_map, source.object_count, target.object_count, "object"),
        (mm.morphism_map, source.morphism_count, target.morphism_count, "morphism"),
    ):
        if len(images) != count:
            raise ValidationError(f"{len(images)} {what} images for {count} {what}s")
        for image in images:
            check_index(image, size, f"{what} image")
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
    _check_identities(source, target)
    return is_prefunctor(source, target, mm) and all(
        mm.morphism_map[source.identity_at[e]] == target.identity_at[mm.object_map[e]]
        for e in range(source.object_count)
    )


def identity_morphism_map(cat: FinitePrecategory) -> MorphismMap:
    return MorphismMap(tuple(range(cat.object_count)), tuple(range(cat.morphism_count)))


def compose_morphism_maps(first: MorphismMap, second: MorphismMap) -> MorphismMap:
    """second after first; IndexOutOfRangeError when an image of first has no image under second."""
    objects, morphisms = second.object_map, second.morphism_map
    return MorphismMap(
        tuple(objects[check_index(o, len(objects), "object image")] for o in first.object_map),
        tuple(morphisms[check_index(s, len(morphisms), "morphism image")] for s in first.morphism_map),
    )


def enumerate_subprecategories(cat: FinitePrecategory, budget: Budget = DEFAULT_BUDGET) -> list:
    """All morphism subsets closed under defined composition, sorted by bit pattern.

    Objects of a subprecategory are induced as the doms and cods of its
    morphisms; identities are not required to belong.
    """
    masks = _closed_subsets(cat.comp, 0, 0, NodeCounter(budget))
    return _decoded(masks, range(cat.morphism_count))


def enumerate_subprecategory_pairs(left: FinitePrecategory, right: FinitePrecategory, budget: Budget = DEFAULT_BUDGET) -> list:
    """Subprecategories of left x right as sets of (left morphism, right morphism) pairs."""
    return _pair_subsets(_pair_masks(left.comp, right.comp, budget), left.morphism_count, right.morphism_count)

