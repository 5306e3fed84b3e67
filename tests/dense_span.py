"""Dense reference for the span oracle: rows as lists of coefficients mod p.

This is the row reduction the algebra module used before rows were packed.
It scans each pivot row for its leading entry and rewrites whole rows, which
is slow but plain, so the tests compare the packed rows against it.
"""


def dense_reduce(rows, p):
    """Row-reduce over F_p; returns a list of pivoted, normalized rows."""
    basis = []
    for row in rows:
        row = [x % p for x in row]
        for piv in basis:
            lead = next(i for i, x in enumerate(piv) if x)
            if row[lead]:
                c = row[lead] * pow(piv[lead], -1, p)
                row = [(a - c * b) % p for a, b in zip(row, piv)]
        if any(row):
            basis.append(row)
    return basis


def dense_in_span(vec, basis, p) -> bool:
    vec = [x % p for x in vec]
    for piv in basis:
        lead = next(i for i, x in enumerate(piv) if x)
        if vec[lead]:
            c = vec[lead] * pow(piv[lead], -1, p)
            vec = [(a - c * b) % p for a, b in zip(vec, piv)]
    return not any(vec)
