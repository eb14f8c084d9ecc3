"""Shared random generators, small F2 helpers and the level-by-level
reduction oracle for the test suite."""

from fractions import Fraction
from operator import add

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


def reference_tail(system, j):
    """(m / T_j^{d_j}, T_j-shift, -c/lead) for every other term c*m of g_j."""
    field, i = system.field, j - 1
    d = system.lead_degrees[i]
    terms = system.gens[i].terms()
    scale = -field.inverse(next(c for m, c in terms.items() if m[i] == d))
    return [
        (m[:i] + (m[i] - d,) + m[i + 1:], m[i] - d, field.norm(c * scale))
        for m, c in terms.items()
        if m[i] < d
    ]


def reference_reduce_in_variable(field, terms, j, system):
    """Division of a tuple-keyed term dict by g_j, one T_j-degree at a time."""
    i = j - 1
    d = system.lead_degrees[i]
    tail = reference_tail(system, j)
    levels = {}
    for m, c in terms.items():
        levels.setdefault(m[i], {})[m] = c
    while levels and (top := max(levels)) >= d:
        heads = levels.pop(top)
        for m, c in heads.items():
            c = field.norm(c)
            if c:
                for mt, shift, ct in tail:
                    level = levels.setdefault(top + shift, {})
                    mm = tuple(map(add, m, mt))
                    level[mm] = level.get(mm, 0) + c * ct
    out = {}
    for level in levels.values():
        out.update(level)
    return {m: c for m, r in out.items() if (c := field.norm(r))}
