"""Exact linear algebra helpers over F2 (0/1 tuples) and Q (Fraction tuples).

Vectors are plain tuples so they can serve as dictionary keys throughout the
package.  All routines are deterministic: pivoting always picks the first
usable row, free variables are set to zero, and enumeration orders are fixed.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd


# ---------------------------------------------------------------------------
# F2
# ---------------------------------------------------------------------------

def xor(u, v):
    return tuple(a ^ b for a, b in zip(u, v))


def dot2(u, v):
    return sum(a * b for a, b in zip(u, v)) % 2


def span2(rows, n):
    """The full set of F2 linear combinations of `rows` (always contains 0)."""
    vecs = {(0,) * n}
    for r in rows:
        vecs |= {xor(r, v) for v in vecs}
    return vecs


def rref2(rows, n):
    """Reduced row echelon form over F2; returns (rows, pivot_columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat], pivots


def rank2(rows, n):
    return len(rref2(rows, n)[1])


def rref_canonical2(rows, n):
    """Canonical basis of the row space: nonzero RREF rows as a tuple."""
    reduced, pivots = rref2(rows, n)
    return tuple(reduced[i] for i in range(len(pivots)))


def in_span2(rows, v, n):
    return rank2(list(rows) + [v], n) == rank2(rows, n)


def solve2(rows, target):
    """Coefficients c with sum_i c_i * rows[i] == target over F2, or None.

    Free coefficients are set to zero, so the answer is unique whenever the
    rows are linearly independent.
    """
    k = len(rows)
    n = len(target)
    if k == 0:
        return () if not any(target) else None
    aug = [[rows[v][e] for v in range(k)] + [target[e]] for e in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, n) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        for i in range(n):
            if i != r and aug[i][c]:
                aug[i] = [a ^ b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][k]:
            return None
    sol = [0] * k
    for row_i, c in enumerate(pivots):
        sol[c] = aug[row_i][k]
    return tuple(sol)


def nullspace2(rows, n):
    """Deterministic basis of {v : rows @ v == 0} over F2.

    One basis vector per free column, in ascending column order; for an empty
    row list this is the standard basis of F2^n.
    """
    reduced, pivots = rref2(rows, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = sum(reduced[i][c] * v[c] for c in range(n) if c != p) % 2
        basis.append(tuple(v))
    return tuple(basis)


def all_vectors2(n):
    """All vectors of F2^n in ascending lexicographic order."""
    return [tuple(bits) for bits in product((0, 1), repeat=n)]


def enumerate_subspace_bases2(n):
    """Canonical RREF bases of every subspace of F2^n, each exactly once."""
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


# ---------------------------------------------------------------------------
# Q
# ---------------------------------------------------------------------------

def _fracs(v):
    return [Fraction(x) for x in v]


def rrefq(rows, n):
    mat = [_fracs(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rankq(rows, n):
    return len(rrefq(rows, n)[1])


def solveq(rows, target):
    """Coefficients c with sum_i c_i * rows[i] == target over Q, or None."""
    k = len(rows)
    n = len(target)
    if k == 0:
        return () if all(Fraction(t) == 0 for t in target) else None
    aug = [[Fraction(rows[v][e]) for v in range(k)] + [Fraction(target[e])] for e in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for row_i, c in enumerate(pivots):
        sol[c] = aug[row_i][k]
    return tuple(sol)


def primitive(vec):
    """Primitive integer representative of the line through `vec`.

    Entries are divided by their gcd and the sign is normalized so the first
    nonzero entry is positive.
    """
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
    if g == 0:
        raise ValueError("the zero vector spans no line")
    w = [int(x) // g for x in vec]
    for x in w:
        if x != 0:
            if x < 0:
                w = [-y for y in w]
            break
    return tuple(w)
