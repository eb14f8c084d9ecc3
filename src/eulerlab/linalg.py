"""Exact linear algebra over the fields F2 and Q of `polyring`.

Vectors are plain tuples so they can serve as dictionary keys throughout the
package; entries are ints over F2, and over Q ints when integral and
Fractions otherwise (mixed arithmetic is exact, so no routine checks the
type, and every entry computed is put back in that form).  One elimination,
`_rref`, takes the Field object and serves both fields.  All routines are
deterministic: pivoting always picks the first usable row, free variables are
set to zero, and enumeration orders are fixed.

Public names validate their input: `solve2`, `rrefq` and `solveq` coerce
every entry, so floats, strings and bools are input errors and an F2 entry
is read mod 2.  No library code calls them: a flag calls `_rref` once, on
[B | I] for its validated basis B, and `fixed_subrep` reads its quotient
coordinates off the free columns instead of solving.  They serve tests and
the names that the benchmark's `linalg` spans trace.
`unit_vectors` and `enumerate_subspace_bases2` take a dimension n and raise
`InputError` unless it is a nonnegative int (a bool is not), and
`ResourceLimitError` if it is above `MAX_GROUP_RANK`.  Underscored
kernels (`_rref`, `_solve`, `_rank`, `_rref_canonical2`, `_nullspace2`) take
field elements as they are (0/1 over F2; over Q in the canonical form that
`Q.coerce` gives), for callers that pass validated labels and bases: `_rref`
serves flags, `_rank` serves `sympow`, `spanning_flag_from_support` and the
tests, and `_rref_canonical2` and `_nullspace2` serve `Subgroup` and
`flagsearch`.
`enumerate_subspace_bases2` has no library caller; it stays for the tests and
for `eulerbench/tracing.py`'s `COUNTED_GENERATORS`, whose names
`tests/test_benchmark_contract.py` resolves.
"""

from itertools import combinations, product

from .errors import MAX_GROUP_RANK, InputError, require_count
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
    n = require_count(n, "dimension", MAX_GROUP_RANK)
    return [tuple(int(j == i) for j in range(n)) for i in range(n)]


# ---------------------------------------------------------------------------
# F2
# ---------------------------------------------------------------------------

def xor(u, v):
    return tuple(a ^ b for a, b in zip(u, v))


def dot2(u, v):
    return sum(a * b for a, b in zip(u, v)) % 2


def _rref_canonical2(rows, n):
    """Canonical basis of the row space: nonzero RREF rows as a tuple."""
    reduced, pivots = _rref(F2, rows, n)
    return tuple(reduced[i] for i in range(len(pivots)))


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


def enumerate_subspace_bases2(n):
    """Canonical RREF bases of every subspace of F2^n, each exactly once.

    Order: by pivot count ascending, pivot sets in `combinations` order, then
    the free entries as `product` bits with the last row varying fastest (and,
    within a row, its last free column).  Each row's possible values are built
    once per pivot set, so consecutive bases share their row tuples.  A bad
    `n` raises when iteration starts.
    """
    n = require_count(n, "dimension", MAX_GROUP_RANK)
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            choices = []
            for p in pivots:
                free = [c for c in range(p + 1, n) if c not in pivots]
                rows = []
                for bits in product((0, 1), repeat=len(free)):
                    row = [0] * n
                    row[p] = 1
                    for c, b in zip(free, bits):
                        row[c] = b
                    rows.append(tuple(row))
                choices.append(rows)
            yield from product(*choices)


# ---------------------------------------------------------------------------
# Q
# ---------------------------------------------------------------------------

def rrefq(rows, n):
    return _rref(Q, _coerced(Q, rows), n)


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
