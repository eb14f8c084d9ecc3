"""Shared random generators, small F2 helpers (every vector of F2^n, spans),
the subspace enumeration oracle, the chain search that reduces by the whole
span at every node, the level-by-level reduction oracle, the Fraction-only
reference field over Q and the identity torus map for the test suite."""

from fractions import Fraction
from itertools import combinations, product
from operator import add

from eulerlab import flagsearch, linalg
from eulerlab.errors import HypothesisError, ResourceLimitError
from eulerlab.polyring import F2, Poly, TriangularSystem, _Q
from eulerlab.reps import FlagE
from eulerlab.torusmaps import MapDescription


class FractionQ(_Q):
    """Q with every element a Fraction, integral ones included: the field as
    it was before integral elements became ints.  Its tag is "Q", so its
    Polys compare equal to those over `polyring.Q` with the same values."""

    @staticmethod
    def _element(value):
        return Fraction(value)

    @staticmethod
    def norm(c):
        return c

    @staticmethod
    def clean(raw):
        return {m: r for m, r in raw.items() if r}


REFERENCE_Q = FractionQ("Q")


def is_canonical_q(c):
    """Whether c is a Q element in canonical form: an int when it is
    integral, a Fraction otherwise."""
    return type(c) is (int if c.denominator == 1 else Fraction)


def identity_map(U):
    """The identity of the torus table U as a map description, a sphere map
    that every equivariance check must pass with residual 0."""

    def evaluator(z):
        import numpy as np

        return np.array(z, dtype=complex, copy=True)

    return MapDescription(source=U, target=U, evaluator=evaluator, tag="user", params={"identity": True})


def vectors2(n):
    """All vectors of F2^n in ascending lexicographic order."""
    return [tuple(bits) for bits in product((0, 1), repeat=n)]


def span2(rows, n):
    """The full set of F2 linear combinations of `rows` (always contains 0)."""
    vecs = {(0,) * n}
    for r in rows:
        vecs |= {tuple(a ^ b for a, b in zip(r, v)) for v in vecs}
    return vecs


def subgroup_contains(G, F):
    """Whether the subgroup F lies in G, by comparing their full spans."""
    return span2(F.basis, F.rank) <= span2(G.basis, G.rank)


def complete_flags(rank):
    """Every complete flag of (F2^rank)^*, each with its canonical adapted basis."""
    vectors = vectors2(rank)
    flags = []

    def extend(chosen, span):
        if len(chosen) == rank:
            flags.append(FlagE(rank, tuple(chosen)))
            return
        seen = set(span)
        for gamma in vectors:
            if gamma in seen:
                continue
            coset = {linalg.xor(gamma, s) for s in span}
            seen |= coset
            extend(chosen + [gamma], span | coset)

    extend([], {(0,) * rank})
    return flags


def reference_subspace_bases2(n):
    """Canonical RREF bases of every subspace of F2^n, each exactly once, every
    row built from scratch; the order of `linalg.enumerate_subspace_bases2`."""
    yield ()
    for k in range(1, n + 1):
        for pivots in combinations(range(n), k):
            free_pos = [
                (i, c)
                for i in range(k)
                for c in range(pivots[i] + 1, n)
                if c not in pivots
            ]
            for bits in product((0, 1), repeat=len(free_pos)):
                rows = [[0] * n for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, c), b in zip(free_pos, bits):
                    rows[i][c] = b
                yield tuple(tuple(r) for r in rows)


def reference_chain_search(field, rank, gaps, candidates, failure):
    """`flagsearch._chain_search` as it was before residuals were carried
    down the search: every node reduces every label and every candidate by
    its whole span.  A class with no candidate is named by its residual.
    Each child is charged what the carried search reduces for it, one
    residual per nonzero label class and candidate class of its parent,
    against `flagsearch.MAX_CHAIN_REDUCTIONS`, read when it runs."""
    dead = set()
    spent = 0
    deepest = 0

    def residual(v, rows):
        for p, row in rows:
            if v[p]:
                v = field.line(tuple(row[p] * a - v[p] * b for a, b in zip(v, row)))
        return v

    def extend(rows, remaining):
        nonlocal spent, deepest
        depth = len(rows)
        if depth == rank:
            return []
        key = tuple(row for _, row in rows)
        if key in dead:
            return None
        deepest = max(deepest, depth)
        if remaining >= rank - depth:
            score = {}
            for label, gap in gaps.items():
                d = residual(label, rows)
                if any(d):
                    score[d] = score.get(d, 0) + gap
            rep = {}
            classes = set()
            for w in candidates:
                d = residual(w, rows)
                if any(d):
                    classes.add(d)
                if score.get(d, 0) > 0:
                    rep.setdefault(d, w)
            for d, s in score.items():
                if s > 0:
                    rep.setdefault(d, d)
            for d in sorted(rep, key=lambda d: (-score[d], rep[d])):
                spent += len(score) + len(classes)
                if spent > flagsearch.MAX_CHAIN_REDUCTIONS:
                    raise ResourceLimitError(
                        f"flag search exceeded {flagsearch.MAX_CHAIN_REDUCTIONS} residual reductions"
                    )
                q = next(i for i, a in enumerate(d) if a)
                grown = [(p, residual(row, [(q, d)])) for p, row in rows] + [(q, d)]
                rest = extend(sorted(grown), remaining - score[d])
                if rest is not None:
                    return [rep[d]] + rest
        dead.add(key)
        return None

    chain = extend([], sum(gaps.values()))
    if chain is None:
        raise HypothesisError(f"{failure} at step {deepest + 1}")
    return chain


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
