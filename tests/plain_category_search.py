"""Reference morphism-map search: propagation re-derived at every node.

This is the search the category module ran before it replayed one plan per
depth.  Each candidate copies the morphism map, the object map and the bound
list, and each propagation walks the bound morphisms to find which composites
it binds and which it checks, pairing every two bound morphisms.  The tests
compare the kernel's maps, their order and its node spend against it.
"""

from gradeforge.category import FinitePrecategory, MorphismMap, _check_identities


def plain_category_search(source: FinitePrecategory, target: FinitePrecategory, functors: bool, counter) -> list:
    """Prefunctors (functors, with functors) from source to target, as category._search_morphism_maps
    returns them: an object that no morphism touches stays None."""
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
    if functors:
        _check_identities(source, target)
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
