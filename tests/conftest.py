import itertools
import pathlib

import pytest

from gradeforge.category import validate_precategory
from gradeforge.magma import magma_from_word, validate_magma

DATA_DIR = pathlib.Path(__file__).parent / "data"

ORDER2_WORDS = ["aaaa", "baaa", "abaa", "aaba", "aaab", "aabb", "bbaa", "abab", "baba", "abba"]

# Reference hom-sets between the ten order-2 representatives.  Symbols:
# 1 = identity, t = swap, a / b = the constant maps.  The (aaaa, aaab) entry
# includes b: b*b = b in aaab, so the constant-b map is a homomorphism out of
# any magma (the enumerator and a one-line hand check both confirm it).
HOM_TABLE = {
    "aaaa": {"aaaa": "1a", "baaa": "", "abaa": "a", "aaba": "a", "aaab": "ab", "aabb": "ab", "bbaa": "", "abab": "ab", "baba": "", "abba": "a"},
    "baaa": {"aaaa": "a", "baaa": "1", "abaa": "a", "aaba": "a", "aaab": "ab", "aabb": "ab", "bbaa": "", "abab": "ab", "baba": "", "abba": "a"},
    "abaa": {"aaaa": "a", "baaa": "", "abaa": "1a", "aaba": "a", "aaab": "ab", "aabb": "ab", "bbaa": "", "abab": "ab", "baba": "", "abba": "a"},
    "aaba": {"aaaa": "a", "baaa": "", "abaa": "a", "aaba": "1a", "aaab": "ab", "aabb": "ab", "bbaa": "", "abab": "ab", "baba": "", "abba": "a"},
    "aaab": {"aaaa": "a", "baaa": "", "abaa": "a", "aaba": "a", "aaab": "1ab", "aabb": "ab", "bbaa": "", "abab": "ab", "baba": "", "abba": "a"},
    "aabb": {"aaaa": "a", "baaa": "", "abaa": "a", "aaba": "a", "aaab": "ab", "aabb": "1abt", "bbaa": "", "abab": "ab", "baba": "", "abba": "a"},
    "bbaa": {"aaaa": "a", "baaa": "", "abaa": "a", "aaba": "a", "aaab": "ab", "aabb": "ab", "bbaa": "1t", "abab": "ab", "baba": "", "abba": "a"},
    "abab": {"aaaa": "a", "baaa": "", "abaa": "a", "aaba": "a", "aaab": "ab", "aabb": "ab", "bbaa": "", "abab": "1abt", "baba": "", "abba": "a"},
    "baba": {"aaaa": "a", "baaa": "", "abaa": "a", "aaba": "a", "aaab": "ab", "aabb": "ab", "bbaa": "", "abab": "ab", "baba": "1t", "abba": "a"},
    "abba": {"aaaa": "a", "baaa": "", "abaa": "a", "aaba": "a", "aaab": "ab", "aabb": "ab", "bbaa": "", "abab": "ab", "baba": "", "abba": "1a"},
}

MAP_SYMBOLS = {(0, 1): "1", (1, 0): "t", (0, 0): "a", (1, 1): "b"}


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def order2():
    return {word: magma_from_word(word) for word in ORDER2_WORDS}


@pytest.fixture(scope="session")
def idem_pair_zero3():
    # {a, b, 0}: a and b idempotent, every mixed product is 0
    return validate_magma(3, [[0, 2, 2], [2, 1, 2], [2, 2, 2]], zero=2)


@pytest.fixture(scope="session")
def idem_zero2():
    # {c, 0}: c idempotent
    return validate_magma(2, [[0, 1], [1, 1]], zero=1)


def naive_closure(magma, seed):
    """Fixpoint of adding all pairwise products, independent of the program's closure."""
    current = set(seed)
    while True:
        extra = {magma.table[x][y] for x in current for y in current} - current
        if not extra:
            return frozenset(current)
        current |= extra


def involution_arrow_category():
    """Two objects a, b; besides id_a (0) and id_b (1) there is an involution
    s: a -> a (2) and two parallel arrows u, v: a -> b (3, 4) swapped by it:
    s o s = id_a, u o s = v, and hence v o s = u."""
    comp = [[None] * 5 for _ in range(5)]
    comp[0][0] = 0
    comp[0][2] = 2
    comp[2][0] = 2
    comp[2][2] = 0
    comp[3][0] = 3
    comp[3][2] = 4
    comp[4][0] = 4
    comp[4][2] = 3
    comp[1][1] = 1
    comp[1][3] = 3
    comp[1][4] = 4
    return validate_precategory(2, [(0, 0), (1, 1), (0, 0), (0, 1), (0, 1)], comp, identity_at=(0, 1))


def fork_precategory():
    """Three objects and two arrows 0 -> 1, 0 -> 2 out of a shared source; no identities."""
    return validate_precategory(3, [(0, 1), (0, 2)], [[None, None], [None, None]], None)


def two_arrows_precategory():
    """Four objects and two unrelated arrows 0 -> 1, 2 -> 3; no identities."""
    return validate_precategory(4, [(0, 1), (2, 3)], [[None, None], [None, None]], None)


def bare_object_precategory():
    """The two-element group at object 0 beside an object 1 that no morphism touches."""
    return validate_precategory(2, [(0, 0), (0, 0)], [[0, 1], [1, 0]], identity_at=(0, None))


def relabel_objects(cat, label):
    """cat with each object x renamed label[x]; the morphisms keep their order."""
    order = sorted(range(cat.object_count), key=label.__getitem__)
    morphisms = [(label[d], label[c]) for d, c in cat.morphisms]
    return validate_precategory(cat.object_count, morphisms, cat.comp, [cat.identity_at[x] for x in order])


def brute_force_prefunctors(source, target, functors=False):
    """Every (object map, morphism map) that keeps dom/cod and composites, read
    straight off the two composition tables.  With functors, each identity must
    also go to the identity at its image object."""
    found = set()
    pairs = [(x, y) for x, row in enumerate(source.comp) for y, xy in enumerate(row) if xy is not None]
    for objects in itertools.product(range(target.object_count), repeat=source.object_count):
        for arrows in itertools.product(range(target.morphism_count), repeat=source.morphism_count):
            if any(target.morphisms[arrows[s]] != (objects[d], objects[c])
                   for s, (d, c) in enumerate(source.morphisms)):
                continue
            if not all(arrows[source.comp[x][y]] == target.comp[arrows[x]][arrows[y]] for x, y in pairs):
                continue
            if functors and any(arrows[i] != target.identity_at[objects[e]] for e, i in enumerate(source.identity_at)):
                continue
            found.add((objects, arrows))
    return found


def brute_force_homs(source, target, zero=False):
    """Every total map, in increasing order, that keeps the products of the two tables.  With
    zero, only 0_G goes to 0_H, and products equal to 0_G are exempt from the law."""
    found = []
    for images in itertools.product(range(target.order), repeat=source.order):
        if zero and any((images[g] == target.zero) != (g == source.zero) for g in range(source.order)):
            continue
        if all(images[gh] == target.table[images[g]][images[h]]
               for g, row in enumerate(source.table) for h, gh in enumerate(row)
               if not (zero and gh == source.zero)):
            found.append(images)
    return found


def transformation_semigroup(maps):
    """The semigroup generated by maps on range(k) under composition, x*y = first x then y, with
    its elements in sorted order."""
    elements = set(maps)
    fresh = list(elements)
    while fresh:
        x = fresh.pop()
        for y in list(elements):
            for z in (tuple(y[p] for p in x), tuple(x[p] for p in y)):
                if z not in elements:
                    elements.add(z)
                    fresh.append(z)
    elements = sorted(elements)
    index = {m: i for i, m in enumerate(elements)}
    return validate_magma(len(elements), [[index[tuple(y[p] for p in x)] for y in elements] for x in elements])


def one_object_monoid(table, identity=0):
    return validate_precategory(1, [(0, 0)] * len(table), table, identity_at=(identity,))


@pytest.fixture(scope="session")
def involution_cat():
    return involution_arrow_category()


@pytest.fixture(scope="session")
def z2_cat():
    return one_object_monoid([[0, 1], [1, 0]])


@pytest.fixture(scope="session")
def idem_cat():
    return one_object_monoid([[0, 1], [1, 1]])


def permutation_group_table(perms):
    """Cayley table of a set of permutations closed under composition."""
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            composed = tuple(p[q[i]] for i in range(len(p)))
            row.append(index[composed])
        table.append(row)
    return table


def symmetric_group_table(n):
    return permutation_group_table(itertools.permutations(range(n)))


def dihedral_group_table(n):
    """Symmetries of the regular n-gon as vertex permutations."""
    rotations = [tuple((i + k) % n for i in range(n)) for k in range(n)]
    reflections = [tuple((k - i) % n for i in range(n)) for k in range(n)]
    return permutation_group_table(rotations + reflections)


def quaternion_group_table():
    """The eight quaternion units; element 2k is the k-th unit, 2k+1 its negative."""
    units = ["1", "i", "j", "k"]
    mul = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }

    def encode(sign, unit):
        return units.index(unit) * 2 + (0 if sign == 1 else 1)

    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            sa, ua = (1 if a % 2 == 0 else -1), units[a // 2]
            sb, ub = (1 if b % 2 == 0 else -1), units[b // 2]
            sign, unit = mul[(ua, ub)]
            table[a][b] = encode(sa * sb * sign, unit)
    return table
