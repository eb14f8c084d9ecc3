"""Shared random generators and small F2 helpers for the test suite."""

from fractions import Fraction

from eulerlab.polyring import F2, Poly, TriangularSystem


def span2(rows, n):
    """The full set of F2 linear combinations of `rows` (always contains 0)."""
    vecs = {(0,) * n}
    for r in rows:
        vecs |= {tuple(a ^ b for a, b in zip(r, v)) for v in vecs}
    return vecs


def random_triangular(rng, field, nvars, dmax=6):
    """Random triangular system: pure top power plus random lower-order tail."""
    gens = []
    for j in range(1, nvars + 1):
        d = rng.randint(1, dmax)
        lead = 1 if field == F2 else Fraction(rng.choice([x for x in range(-4, 5) if x]), rng.randint(1, 3))
        m = [0] * nvars
        m[j - 1] = d
        terms = {tuple(m): lead}
        for _ in range(rng.randint(0, 4)):
            mono = [0] * nvars
            for i in range(j):
                mono[i] = rng.randint(0, d + 1)
            mono[j - 1] = rng.randint(0, d - 1)
            mono = tuple(mono)
            c = 1 if field == F2 else Fraction(rng.randint(-5, 5))
            terms[mono] = terms.get(mono, 0 if field == F2 else Fraction(0)) + c
        gens.append(Poly(field, nvars, terms))
    return TriangularSystem(gens)
