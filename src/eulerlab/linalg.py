"""Exact linear algebra over the fields F2 and Q of `polyring`.

Vectors are plain tuples so they can serve as dictionary keys throughout the
package; entries are ints over F2 and Fractions over Q.  One elimination,
`_rref`, takes the Field object and serves both fields.  All routines are
deterministic: pivoting always picks the first usable row, free variables are
set to zero, and enumeration orders are fixed.

Public names validate their input: `rank2`, `solve2`, `rrefq`, `rankq` and
`solveq` coerce every entry, so floats, strings and bools are input errors
and an F2 entry is read mod 2.  They are what flags and `fixed_subrep` call,
a few times per flag or label, and what the benchmark's `linalg` spans count.
Underscored kernels (`_rref`, `_solve`, `_rank`, `_rref_canonical2`,
`_in_span2`, `_nullspace2`) take field elements as they are (0/1 over F2;
ints or Fractions over Q) and serve `Subgroup`, `flagsearch`, `sympow` and
`spanning_flag_from_support`, which pass labels and bases they have already
validated.
"""

from itertools import combinations, product

from .errors import InputError
from .polyring import F2, Q


def _coerced(field, rows):
    return [tuple(map(field.coerce, row)) for row in rows]


def _rref(field, rows, n):
    """Reduced row echelon form in the first n columns; returns (rows, pivot_columns)."""
    norm = field.norm
    mat = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        if r == len(mat):
            break
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pivot = mat[r]
        if pivot[c] != 1:  # over F2 every pivot is 1 already
            inv = field.inverse(pivot[c])
            pivot = mat[r] = [norm(x * inv) for x in pivot]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                mat[i] = [norm(a - f * b) for a, b in zip(row, pivot)]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat], pivots


def _solve(field, rows, target):
    """Coefficients c with sum_i c_i * rows[i] == target, or None.

    Free coefficients are set to zero, so the answer is unique whenever the
    rows are linearly independent.
    """
    k = len(rows)
    aug = [[row[e] for row in rows] + [t] for e, t in enumerate(target)]
    reduced, pivots = _rref(field, aug, k)
    if any(row[k] for row in reduced[len(pivots):]):
        return None
    sol = [field.coerce(0)] * k
    for row, c in zip(reduced, pivots):
        sol[c] = row[k]
    return tuple(sol)


def _rank(field, rows, n):
    return len(_rref(field, rows, n)[1])


def unit_vectors(n):
    """The standard basis of F2^n or Q^n, as int tuples."""
    return [tuple(int(j == i) for j in range(n)) for i in range(n)]


# ---------------------------------------------------------------------------
# F2
# ---------------------------------------------------------------------------

def xor(u, v):
    return tuple(a ^ b for a, b in zip(u, v))


def dot2(u, v):
    return sum(a * b for a, b in zip(u, v)) % 2


def rank2(rows, n):
    return _rank(F2, _coerced(F2, rows), n)


def _rref_canonical2(rows, n):
    """Canonical basis of the row space: nonzero RREF rows as a tuple."""
    reduced, pivots = _rref(F2, rows, n)
    return tuple(reduced[i] for i in range(len(pivots)))


def _in_span2(rows, v, n):
    return _rank(F2, list(rows) + [v], n) == _rank(F2, rows, n)


def solve2(rows, target):
    return _solve(F2, _coerced(F2, rows), tuple(map(F2.coerce, target)))


def _nullspace2(rows, n):
    """Basis of {v : rows @ v == 0}, one vector per free column in ascending
    order; for no rows this is the standard basis of F2^n."""
    reduced, pivots = _rref(F2, rows, n)
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

def rrefq(rows, n):
    return _rref(Q, _coerced(Q, rows), n)


def rankq(rows, n):
    return len(rrefq(rows, n)[1])


def solveq(rows, target):
    return _solve(Q, _coerced(Q, rows), tuple(map(Q.coerce, target)))


def primitive(vec):
    """Primitive integer representative of the line through the integer
    vector `vec`: Q's line normalisation, which divides by the gcd and makes
    the first nonzero entry positive."""
    w = Q.line(vec)
    if not any(w):
        raise InputError("the zero vector spans no line")
    return w
