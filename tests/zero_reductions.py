"""Reference reductions: prefunctors and subprecategory pairs through the adjoined zero magmas.

The category module finds prefunctors with its own map search and
subprecategory pairs with the closed-subset kernel on the pair table.  These
are the second routes of the paper's bijections: zero-magma homomorphisms and
zero submagmas of the magmas that adjoin_zero builds.  The tests compare the
direct searches against them.
"""

from gradeforge.budget import DEFAULT_BUDGET, Budget, NodeCounter
from gradeforge.category import FinitePrecategory, MorphismMap, _fill_free_objects, adjoin_zero
from gradeforge.errors import ToolkitError
from gradeforge.magma import _zero_homs, enumerate_zero_submagmas


class ReductionMismatchError(ToolkitError):
    """A zero-magma homomorphism between adjoined magmas induced no consistent object map.

    This is flagged loudly instead of being discarded: it would falsify the
    reduction that the prefunctor enumeration relies on.
    """


def enumerate_prefunctors_via_zero_homs(source: FinitePrecategory, target: FinitePrecategory, budget: Budget = DEFAULT_BUDGET) -> list:
    """Prefunctor enumeration reduced to zero-magma homomorphisms of the adjoined magmas.

    Every zero-magma homomorphism must induce a consistent object assignment;
    an inconsistent one raises ReductionMismatchError rather than being
    silently discarded.  Objects touched by no morphism take every image.
    """
    g = adjoin_zero(source)
    h = adjoin_zero(target)
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
    g = adjoin_zero(left)
    h = adjoin_zero(right)
    zg, zh = g.zero, h.zero
    seen = set()
    for pairs in enumerate_zero_submagmas(g, h, budget):
        seen.add(frozenset((s, t) for (s, t) in pairs if s != zg and t != zh))
    return sorted(seen, key=lambda f: sorted(f))
