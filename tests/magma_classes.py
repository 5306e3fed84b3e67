"""Closed-form count of magma isomorphism classes, a reference for census.

Burnside's lemma over the cycle types of the symmetric group (Harrison 1966;
OEIS A001329).  A permutation fixes a table when it commutes with the
product.  The entries (x, y) with x in a cycle of length a and y in one of
length b fall into gcd(a, b) orbits of length lcm(a, b), and each orbit's
value is free among the points whose cycle length divides lcm(a, b): the sum
of d * k_d over those d, where k_d counts the cycles of length d.
"""

from math import factorial, gcd, lcm


def cycle_types(n, largest=None):
    """The partitions of n, largest part first, each as a list of parts."""
    if n == 0:
        yield []
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in cycle_types(n - part, part):
            yield [part] + rest


def fixed_tables(parts) -> int:
    """The number of order-n tables fixed by a permutation of the given cycle type."""
    k = {d: parts.count(d) for d in set(parts)}
    total = 1
    for a in parts:
        for b in parts:
            m = lcm(a, b)
            total *= sum(d * kd for d, kd in k.items() if m % d == 0) ** gcd(a, b)
    return total


def magma_class_count(n) -> int:
    """The number of isomorphism classes of magmas of order n."""
    orbits = 0
    for parts in cycle_types(n):
        centraliser = 1
        for d in set(parts):
            kd = parts.count(d)
            centraliser *= d**kd * factorial(kd)
        orbits += factorial(n) // centraliser * fixed_tables(parts)
    return orbits // factorial(n)
