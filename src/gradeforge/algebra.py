"""Magma and category algebras, elementary families, and the two correspondence maps.

An algebra is presented by structure constants on a basis indexed 0..k-1:
the product of basis elements s and t is either another basis element or the
ring's zero (the RING_ZERO sentinel, used for non-composable morphism pairs
and for contracted zero-magma algebras, where the magma zero is the ring
zero).  Elementary families are stored as basis subsets, one per element of a
target magma; every axiom check runs both as subset arithmetic and as exact
row reduction over a prime field, and the two verdicts must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .budget import DEFAULT_BUDGET, Budget, NodeCounter
from .category import FinitePrecategory, _search_morphism_maps, adjoin_zero
from .errors import BasisMismatchError, MissingZeroError, OracleDisagreementError, ValidationError, check_count, check_index
from .magma import (
    FiniteMagma,
    PairRelation,
    _bits,
    _pair_mask,
    _pair_masks,
    _zero_pair_masks,
    enumerate_homs,
    enumerate_zero_homs,
)

RING_ZERO = None


@dataclass(frozen=True)
class AlgebraPresentation:
    """Structure constants of a magma or category algebra over a prime field.

    source is the underlying magma (for a category algebra, the zero magma of
    its morphisms); contracted presentations drop the source zero from the
    basis and send products hitting it to RING_ZERO.
    """

    source: FiniteMagma
    basis_size: int
    structure: tuple
    scalar_modulus: int
    source_of_basis: tuple
    basis_of_source: tuple
    contracted: bool

    def basis_zero_part(self) -> frozenset:
        """Basis support of the base part at the source zero ({0} has empty support)."""
        if self.source.zero is None or self.contracted:
            return frozenset()
        return frozenset((self.basis_of_source[self.source.zero],))


# Miller-Rabin to these twelve bases is exact below 3.3e24 > 2**64 (Sorenson & Webster 2015).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Exact for n < 2**64: trial division by the small primes, then Miller-Rabin to the same bases."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if math.isqrt(n) < 41:  # no prime factor up to 37 and none above it fits
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_modulus(p: int) -> None:
    check_count(p, "scalar modulus", least=-math.inf)
    if p >= 1 << 64:
        raise ValidationError(f"scalar modulus {p} is not below 2**64")
    if not _is_prime(p):
        raise ValidationError(f"scalar modulus {p} is not prime")


def _presentation(source: FiniteMagma, scalar_modulus: int, contracted: bool) -> AlgebraPresentation:
    """One basis line per element of source, except its zero when contracted: the dropped zero has
    no basis line, so a product landing on it reads RING_ZERO."""
    _check_modulus(scalar_modulus)
    if contracted and source.zero is None:
        raise MissingZeroError("contracted algebra needs a designated zero")
    dropped = source.zero if contracted else None
    basis = tuple(g for g in range(source.order) if g != dropped)
    basis_of_source = [RING_ZERO] * source.order
    for b, g in enumerate(basis):
        basis_of_source[g] = b
    return AlgebraPresentation(
        source=source,
        basis_size=len(basis),
        structure=tuple(tuple(basis_of_source[source.table[s][t]] for t in basis) for s in basis),
        scalar_modulus=scalar_modulus,
        source_of_basis=basis,
        basis_of_source=tuple(basis_of_source),
        contracted=contracted,
    )


def magma_algebra(source: FiniteMagma, scalar_modulus: int = 2) -> AlgebraPresentation:
    """The plain magma algebra: every element, including a designated zero, is a basis line."""
    return _presentation(source, scalar_modulus, False)


def contracted_algebra(source: FiniteMagma, scalar_modulus: int = 2) -> AlgebraPresentation:
    """The zero-magma algebra with the magma zero identified with the ring zero."""
    return _presentation(source, scalar_modulus, True)


def category_algebra(cat: FinitePrecategory, scalar_modulus: int = 2) -> AlgebraPresentation:
    """Basis = morphisms; products of non-composable pairs are the ring zero."""
    return contracted_algebra(adjoin_zero(cat), scalar_modulus)


@dataclass(frozen=True)
class ElementaryFamily:
    """One basis subset per element of the target magma: the family (W_h) with
    W_h spanned by exactly the listed basis lines.

    The constructor checks the part count and every basis index.  The
    enumerations build their families in _families, whose parts are in range
    by construction, without it."""

    algebra: AlgebraPresentation
    target: FiniteMagma
    parts: tuple

    def __post_init__(self):
        if len(self.parts) != self.target.order:
            raise BasisMismatchError(
                f"{len(self.parts)} parts for a target of order {self.target.order}"
            )
        # Every index once, in one union of the (often shared) parts.
        for b in frozenset().union(*self.parts):
            check_index(b, self.algebra.basis_size, "basis index", BasisMismatchError)


def base_family(algebra: AlgebraPresentation) -> ElementaryFamily:
    """The fixed base family: one basis line per source element (empty at a contracted zero)."""
    return next(_gradings(algebra, algebra.source, [range(algebra.source.order)]))


@dataclass(frozen=True)
class Verdict:
    """Outcome of an axiom check; witness localizes the first violation."""

    prop: str
    holds: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.holds


def _families(algebra: AlgebraPresentation, target: FiniteMagma, masks, width: int):
    """An iterator that builds one family per mask over pairs as it is taken, pair (g, h) at bit
    g*width + h, with parts[h] spanned by the base lines at the g paired with h.

    Source elements outside the basis (a contracted zero) contribute nothing.  Equal parts across
    the families of one call are one shared frozenset.  Each part is an nb-bit field of one int, one
    field per target element, so once basis_of_source is checked the families hold both conditions
    of ElementaryFamily.__post_init__ by construction and are built without it.  The check runs at
    the call, so a caller that writes families as it takes them has met every error first.
    """
    nb = algebra.basis_size
    if not {None, *range(nb)}.issuperset(algebra.basis_of_source):
        raise BasisMismatchError(f"the algebra's basis_of_source leaves 0..{nb - 1}")
    # The parts of a family packed into one int, nb bits per h: a pair sets the bit of its
    # base line in its h's field.  Each byte of a mask is unpacked once and remembered.
    line = [0 if b is None else 1 << (h * nb + b) for b in algebra.basis_of_source for h in range(width)]
    windows = [255 << k for k in range(0, len(line), 8)]
    packed_of = {0: 0}
    shifts = [h * nb for h in range(target.order)]
    full = (1 << nb) - 1
    shared = {}
    new, set_field = object.__new__, object.__setattr__

    def build():
        for mask in masks:
            packed = 0
            for window in windows:
                byte = mask & window
                bits = packed_of.get(byte)
                if bits is None:
                    bits = packed_of[byte] = sum(line[p] for p in _bits(byte))
                packed |= bits
            parts = []
            for shift in shifts:
                field = packed >> shift & full
                part = shared.get(field)
                if part is None:
                    part = shared[field] = frozenset(_bits(field))
                parts.append(part)
            # The frozen fields, set as __init__ sets them (in order, so instances share one key
            # table and read their fields as fast), without its __post_init__.
            family = new(ElementaryFamily)
            set_field(family, "algebra", algebra)
            set_field(family, "target", target)
            set_field(family, "parts", tuple(parts))
            yield family

    return build()


def _gradings(algebra: AlgebraPresentation, target: FiniteMagma, maps):
    """_families of the maps g -> f(g), each taken as the pair mask with the bits g*|target| + f(g)."""
    width = target.order
    return _families(algebra, target, (_pair_mask(enumerate(f), width) for f in maps), width)


def grading_from_relation(algebra: AlgebraPresentation, relation: PairRelation) -> ElementaryFamily:
    """Send a pair relation f to the family with parts[h] spanned by f^{-1}(h).

    Source elements outside the basis (a contracted zero) contribute nothing.
    """
    if relation.left != algebra.source:
        raise BasisMismatchError("relation's left magma is not the algebra's source")
    width = relation.right.order
    return next(_families(algebra, relation.right, [_pair_mask(relation.pairs, width)], width))


def relation_from_filter(algebra: AlgebraPresentation, family: ElementaryFamily) -> PairRelation:
    """Send a family back to the relation {(g, h) : the base line at g lies inside W_h}."""
    _check_family(algebra, family)
    pairs = {
        (algebra.source_of_basis[b], h)
        for h, part in enumerate(family.parts)
        for b in part
    }
    return PairRelation(algebra.source, family.target, frozenset(pairs))


# ---------------------------------------------------------------------------
# exact span arithmetic over F_p (the independent oracle)
#
# At p = 2 a vector is an int bitset (bit i is the coefficient of basis line
# i); at odd p it is a {index: coefficient} dict of nonzero coefficients.  An
# echelon is a {pivot: row} dict whose pivot is the row's highest index, with
# the row scaled so that coefficient is 1.  Only the four primitives below
# look at the representation.


def _reduce(rows, p):
    """Row-reduce over F_p into an echelon {pivot: row}; its size is the rank."""
    echelon = {}
    if p == 2:
        for row in rows:
            while row:
                top = row.bit_length() - 1
                piv = echelon.get(top)
                if piv is None:
                    echelon[top] = row
                    break
                row ^= piv
        return echelon
    for row in rows:
        row = dict(row)
        while row:
            top = max(row)
            c = row[top]
            piv = echelon.get(top)
            if piv is None:
                inv = pow(c, -1, p)
                echelon[top] = {i: a * inv % p for i, a in row.items()}
                break
            for i, a in piv.items():
                x = (row.get(i, 0) - c * a) % p
                if x:
                    row[i] = x
                else:
                    del row[i]
    return echelon


def _in_span(vec, echelon, p) -> bool:
    if p == 2:
        while vec:
            piv = echelon.get(vec.bit_length() - 1)
            if piv is None:
                return False
            vec ^= piv
        return True
    vec = dict(vec)
    while vec:
        top = max(vec)
        piv = echelon.get(top)
        if piv is None:
            return False
        c = vec[top]
        for i, a in piv.items():
            x = (vec.get(i, 0) - c * a) % p
            if x:
                vec[i] = x
            else:
                del vec[i]
    return True


def _unit_vector(i, p):
    return 1 << i if p == 2 else {i: 1}


def _vector_product(algebra: AlgebraPresentation, u, v):
    """The bilinear product: structure constants applied to the supports of u and v."""
    structure = algebra.structure
    p = algebra.scalar_modulus
    if p == 2:
        out = 0
        while u:
            low = u & -u
            u ^= low
            row = structure[low.bit_length() - 1]
            w = v
            while w:
                low = w & -w
                w ^= low
                idx = row[low.bit_length() - 1]
                if idx is not RING_ZERO:
                    out ^= 1 << idx
        return out
    out = {}
    for s, a in u.items():
        row = structure[s]
        for t, b in v.items():
            idx = row[t]
            if idx is not RING_ZERO:
                x = (out.get(idx, 0) + a * b) % p
                if x:
                    out[idx] = x
                else:
                    del out[idx]
    return out


def _units(algebra, part):
    p = algebra.scalar_modulus
    return [_unit_vector(b, p) for b in sorted(part)]


def _part_span(algebra, part):
    return _reduce(_units(algebra, part), algebra.scalar_modulus)


def _set_product(algebra, part_a, part_b) -> frozenset:
    return frozenset(
        algebra.structure[s][t]
        for s in part_a
        for t in part_b
        if algebra.structure[s][t] is not RING_ZERO
    )


# ---------------------------------------------------------------------------
# axiom checks, each run set-level and span-level


def _check_family(algebra: AlgebraPresentation, family: ElementaryFamily) -> None:
    if family.algebra is not algebra and family.algebra != algebra:
        raise BasisMismatchError("family was built over a different algebra")


def _agree(prop, algebra, family, set_oracle, span_oracle):
    _check_family(algebra, family)
    (holds, witness), span_verdict = set_oracle(algebra, family), span_oracle(algebra, family)
    if holds != span_verdict[0]:
        raise OracleDisagreementError(
            f"{prop}: subset arithmetic says {holds}, span arithmetic says {span_verdict[0]}"
        )
    return Verdict(prop, holds, witness)


def _products_set(algebra, family, fits):
    """(True, None) when fits(W_h W_h', W_hh') holds for all h, h', else (False, the first (h, h') where
    it fails); W_h W_h' is the set of nonzero basis products."""
    target = family.target
    for h in range(target.order):
        for h2 in range(target.order):
            if not fits(_set_product(algebra, family.parts[h], family.parts[h2]), family.parts[target.table[h][h2]]):
                return False, (h, h2)
    return True, None


def _filter_set(algebra, family):
    return _products_set(algebra, family, frozenset.issubset)


def _filter_span(algebra, family):
    p = algebra.scalar_modulus
    table = family.target.table
    units = [_units(algebra, part) for part in family.parts]
    spans = [_reduce(u, p) for u in units]
    for h, units_h in enumerate(units):
        if not units_h:
            continue
        for h2, units_h2 in enumerate(units):
            span = spans[table[h][h2]]
            for u in units_h:
                for v in units_h2:
                    if not _in_span(_vector_product(algebra, u, v), span, p):
                        return False, (h, h2)
    return True, None


def is_filter(algebra: AlgebraPresentation, family: ElementaryFamily) -> Verdict:
    """W_h W_h' lies inside W_{hh'} for all h, h'; products that are the ring zero are vacuous."""
    return _agree("filter", algebra, family, _filter_set, _filter_span)


def _strong_set(algebra, family):
    return _products_set(algebra, family, frozenset.__eq__)


def _strong_span(algebra, family):
    p = algebra.scalar_modulus
    table = family.target.table
    units = [_units(algebra, part) for part in family.parts]
    spans = [_reduce(u, p) for u in units]
    for h, units_h in enumerate(units):
        for h2, units_h2 in enumerate(units):
            prod_span = _reduce([_vector_product(algebra, u, v) for u in units_h for v in units_h2], p)
            part_span = spans[table[h][h2]]
            if len(prod_span) != len(part_span) or not all(_in_span(v, part_span, p) for v in prod_span.values()):
                return False, (h, h2)
    return True, None


def is_strong(algebra: AlgebraPresentation, family: ElementaryFamily) -> Verdict:
    """Equality W_h W_h' = W_{hh'} everywhere (which makes the family a filter as well)."""
    return _agree("strong", algebra, family, _strong_set, _strong_span)


def _grading_set(algebra, family):
    holds, witness = _filter_set(algebra, family)
    if not holds:
        return holds, witness
    seen = set()
    for h, part in enumerate(family.parts):
        dup = seen & part
        if dup:
            return False, (min(dup),)
        seen |= part
    if len(seen) != algebra.basis_size:
        missing = min(set(range(algebra.basis_size)) - seen)
        return False, (missing,)
    return True, None


def _grading_span(algebra, family):
    holds, witness = _filter_span(algebra, family)
    if not holds:
        return holds, witness
    vectors = []
    for part in family.parts:
        vectors.extend(_units(algebra, part))
    total = len(vectors)
    rank = len(_reduce(vectors, algebra.scalar_modulus))
    if total != algebra.basis_size or rank != algebra.basis_size:
        return False, (rank,)
    return True, None


def is_grading(algebra: AlgebraPresentation, family: ElementaryFamily) -> Verdict:
    """A filter whose parts decompose the algebra as a direct sum."""
    return _agree("grading", algebra, family, _grading_set, _grading_span)


def _nonzero_set(algebra, family):
    zero = family.target.zero
    for h, part in enumerate(family.parts):
        if h == zero:
            if part != algebra.basis_zero_part():
                return False, (h,)
        elif not part:
            return False, (h,)
    return True, None


def _nonzero_span(algebra, family):
    p = algebra.scalar_modulus
    zero = family.target.zero
    for h, part in enumerate(family.parts):
        span = _part_span(algebra, part)
        if h == zero:
            base = _part_span(algebra, algebra.basis_zero_part())
            same = len(span) == len(base) and all(_in_span(v, base, p) for v in span.values())
            if not same:
                return False, (h,)
        elif not span:
            return False, (h,)
    return True, None


def is_nonzero(algebra: AlgebraPresentation, family: ElementaryFamily) -> Verdict:
    """Every part is nonzero; with a target zero, that part is exempt and must equal the base part at zero."""
    return _agree("nonzero", algebra, family, _nonzero_set, _nonzero_span)


def _elementary_span(algebra, family):
    p = algebra.scalar_modulus
    for h, part in enumerate(family.parts):
        span = _part_span(algebra, part)
        if len(span) != len(part):
            return False, (h,)
        for u in _units(algebra, part):
            if not _in_span(u, span, p):
                return False, (h,)
    return True, None


def is_elementary(algebra: AlgebraPresentation, family: ElementaryFamily) -> Verdict:
    """Each part equals the sum of the base lines it contains.

    True by construction for families stored as basis subsets; the span pass
    re-derives it from the vectors as a representation consistency check.
    """
    return _agree("elementary", algebra, family, lambda *_: (True, None), _elementary_span)


# ---------------------------------------------------------------------------
# enumerations via the correspondence


def _family_enumeration(command: str, variant: bool, source, target, budget: Budget, scalar_modulus: int = 2):
    """(algebra, count, families) of one of the six enumerations, the families built as they are taken.

    command is "gradings" or "filters".  On a magma algebra (source its AlgebraPresentation, target
    a FiniteMagma) variant is zero, set exactly when the algebra is contracted (checked before any
    search): gradings come from enumerate_homs (zero: enumerate_zero_homs) through _gradings, and
    filters from _pair_masks on the two tables (zero: _zero_pair_masks) through _families.  On two
    precategories the algebra is category_algebra(source), the families are indexed by
    adjoin_zero(target) and variant is prefunctors: gradings come from the morphism maps of the
    functor (prefunctor) search, one per map with the objects no morphism touches left unfilled,
    filters from _pair_masks on the composition tables.
    """
    if isinstance(source, FinitePrecategory):
        algebra, indexed_by = category_algebra(source, scalar_modulus), adjoin_zero(target)
        if command == "filters":
            masks, width = _pair_masks(source.comp, target.comp, budget), target.morphism_count
        else:
            maps = [f.morphism_map for f in _search_morphism_maps(source, target, not variant, NodeCounter(budget))]
    else:
        algebra, indexed_by = source, target
        if algebra.contracted != variant:
            kind, home = ("nonzero", "contracted algebra") if variant else ("plain", "plain magma algebra")
            raise ValidationError(f"{kind} {command} live on the {home}")
        if command == "filters":
            width = target.order
            masks = _zero_pair_masks(algebra.source, target, budget) if variant else _pair_masks(algebra.source.table, target.table, budget)
        else:
            maps = (enumerate_zero_homs if variant else enumerate_homs)(algebra.source, target, budget)
    if command == "filters":
        return algebra, len(masks), _families(algebra, indexed_by, masks, width)
    return algebra, len(maps), _gradings(algebra, indexed_by, maps)


def enumerate_elementary_gradings(algebra: AlgebraPresentation, target: FiniteMagma, budget: Budget = DEFAULT_BUDGET) -> list:
    """One grading per magma homomorphism source -> target."""
    return list(_family_enumeration("gradings", False, algebra, target, budget)[2])


def enumerate_nonzero_elementary_gradings(algebra: AlgebraPresentation, target: FiniteMagma, budget: Budget = DEFAULT_BUDGET) -> list:
    """One grading per zero-magma homomorphism source -> target (contracted presentation)."""
    return list(_family_enumeration("gradings", True, algebra, target, budget)[2])


def enumerate_elementary_filters(algebra: AlgebraPresentation, target: FiniteMagma, budget: Budget = DEFAULT_BUDGET) -> list:
    """One filter per submagma of source x target, including the zero filter from the empty set."""
    return list(_family_enumeration("filters", False, algebra, target, budget)[2])


def enumerate_nonzero_elementary_filters(algebra: AlgebraPresentation, target: FiniteMagma, budget: Budget = DEFAULT_BUDGET) -> list:
    """One filter per zero submagma of source x target (contracted presentation)."""
    return list(_family_enumeration("filters", True, algebra, target, budget)[2])


def enumerate_category_gradings(
    source: FinitePrecategory,
    target: FinitePrecategory,
    *,
    prefunctors: bool = False,
    scalar_modulus: int = 2,
    budget: Budget = DEFAULT_BUDGET,
):
    """Gradings of the category algebra of ``source`` indexed by ``target``'s morphisms.

    One grading per morphism map of a functor (or of a prefunctor with the
    flag): maps that differ only on objects no morphism touches give one
    grading.  Families are indexed by the zero magma adjoined to the target,
    whose zero part is empty.  Returns (algebra, families).
    """
    algebra, _, families = _family_enumeration("gradings", prefunctors, source, target, budget, scalar_modulus)
    return algebra, list(families)


def enumerate_category_filters(
    source: FinitePrecategory,
    target: FinitePrecategory,
    *,
    scalar_modulus: int = 2,
    budget: Budget = DEFAULT_BUDGET,
):
    """Filters of the category algebra of ``source``: one per subprecategory of source x target.

    Returns (algebra, families).
    """
    algebra, _, families = _family_enumeration("filters", False, source, target, budget, scalar_modulus)
    return algebra, list(families)
