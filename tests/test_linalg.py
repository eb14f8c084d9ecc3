"""Oracle tests for the shared elimination behind the F2 and Q entry points.

F2 results are checked by brute force over every coefficient vector, Q
results against sympy's exact RREF.  Matrices have at most 5 rows and 5
columns and deliberately include zero rows, dependent rows and targets
outside the row space.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
import sympy as sp

from eulerlab import linalg
from eulerlab.errors import MAX_GROUP_RANK, InputError, ResourceLimitError
from eulerlab.polyring import F2, Q
from tests_support_random import reference_subspace_bases2, span2


def combine(coeffs, rows, n, mod=None):
    out = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    return tuple(x % mod for x in out) if mod else tuple(out)


def random_rows(rng, n, entry):
    """Up to 5 rows, with a zero row and a combination of earlier rows mixed in."""
    rows = [tuple(entry() for _ in range(n)) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.3:
        rows.insert(rng.randint(0, len(rows)), (0,) * n)
    if rows and rng.random() < 0.5:
        rows.append(combine([entry() for _ in rows], rows, n))
    return rows[:5]


def rational(x):
    x = Fraction(x)
    return sp.Rational(x.numerator, x.denominator)


def check_rref_shape(reduced, pivots):
    assert pivots == sorted(set(pivots))
    for i, row in enumerate(reduced):
        if i >= len(pivots):
            assert not any(row)
            continue
        p = pivots[i]
        assert not any(row[:p]) and row[p] == 1
        assert all(other[p] == 0 for k, other in enumerate(reduced) if k != i)


def f2_span(rows, n):
    return {combine(c, rows, n, mod=2) for c in product((0, 1), repeat=len(rows))}


def test_f2_eliminations_against_brute_force():
    rng = random.Random(20260117)
    seen = {"inconsistent": 0, "dependent": 0}
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = [tuple(x % 2 for x in r) for r in random_rows(rng, n, lambda: rng.randint(0, 1))]
        span = f2_span(rows, n)
        dim = len(span).bit_length() - 1

        reduced, pivots = linalg._rref(F2, rows, n)
        assert len(reduced) == len(rows)
        check_rref_shape(reduced, pivots)
        assert f2_span(reduced, n) == span
        assert linalg._rank(F2, rows, n) == len(pivots) == dim
        seen["dependent"] += dim < len(rows)

        null = linalg._nullspace2(rows, n)
        kernel = {v for v in product((0, 1), repeat=n) if all(linalg.dot2(r, v) == 0 for r in rows)}
        assert len(null) == n - dim and f2_span(null, n) == kernel

        target = tuple(rng.randint(0, 1) for _ in range(n))
        solutions = {c for c in product((0, 1), repeat=len(rows)) if combine(c, rows, n, mod=2) == target}
        got = linalg.solve2(rows, target)
        if solutions:
            assert got in solutions
            if dim == len(rows):
                assert {got} == solutions
        else:
            assert got is None
            seen["inconsistent"] += 1
    assert min(seen.values()) > 20


def test_q_eliminations_against_sympy():
    rng = random.Random(20260118)
    seen = {"inconsistent": 0, "dependent": 0}
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = random_rows(rng, n, lambda: rng.randint(-3, 3))
        if rng.random() < 0.3:
            rows = [tuple(Fraction(x, d) for x in row) for row, d in zip(rows, [rng.randint(1, 4) for _ in rows])]
        if not rows:
            assert linalg.rrefq(rows, n) == ([], [])
            assert linalg._rank(Q, rows, n) == 0
            continue
        M = sp.Matrix([[rational(x) for x in row] for row in rows])
        expected, sp_pivots = M.rref()

        reduced, pivots = linalg.rrefq(rows, n)
        assert pivots == list(sp_pivots)
        assert [[rational(x) for x in row] for row in reduced] == expected.tolist()
        assert linalg._rank(Q, linalg._coerced(Q, rows), n) == M.rank()
        seen["dependent"] += M.rank() < len(rows)

        k = len(rows)
        if rng.random() < 0.5:
            target = combine([rng.randint(-2, 2) for _ in rows], rows, n)
        else:
            target = tuple(rng.randint(-3, 3) for _ in range(n))
        b = sp.Matrix([rational(t) for t in target])
        aug, aug_pivots = M.T.row_join(b).rref()
        got = linalg.solveq(rows, target)
        if k in aug_pivots:
            assert got is None
            seen["inconsistent"] += 1
            continue
        free_zero = [sp.Integer(0)] * k
        for i, p in enumerate(aug_pivots):
            free_zero[p] = aug[i, k]
        assert [rational(x) for x in got] == free_zero
        assert combine(got, rows, n) == tuple(map(Fraction, target))
    assert min(seen.values()) > 20


@pytest.mark.parametrize(
    "call",
    [
        lambda: linalg.rrefq([[0.5, 1]], 2),
        lambda: linalg.rrefq([[1, "1"]], 2),
        lambda: linalg.solveq([[1, 0]], [0.5, 0]),
        lambda: linalg.solve2([[True, 0]], [1, 0]),
        lambda: linalg.solve2([[1, 0]], ["1", 0]),
    ],
)
def test_public_routines_reject_non_field_entries(call):
    with pytest.raises(InputError):
        call()


def test_subspace_bases_match_the_reference_enumeration():
    for n, count in enumerate((1, 2, 5, 16, 67, 374, 2825)):
        bases = list(linalg.enumerate_subspace_bases2(n))
        assert bases == list(reference_subspace_bases2(n))
        assert len(bases) == count
        assert all(basis == linalg._rref_canonical2(basis, n) for basis in bases)
        assert len({frozenset(span2(basis, n)) for basis in bases}) == count


@pytest.mark.parametrize("n", [-1, -2, True, False, 2.0, "3", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: next(linalg.enumerate_subspace_bases2(n)),
        linalg.unit_vectors,
    ],
)
def test_dimension_must_be_a_nonnegative_int(call, n):
    with pytest.raises(InputError):
        call(n)


@pytest.mark.parametrize(
    "call", [lambda n: next(linalg.enumerate_subspace_bases2(n)), linalg.unit_vectors]
)
def test_dimension_above_the_rank_limit_is_refused(call):
    with pytest.raises(ResourceLimitError, match=f"^dimension {MAX_GROUP_RANK + 1} is above the limit of {MAX_GROUP_RANK}$"):
        call(MAX_GROUP_RANK + 1)


def test_dimension_zero_is_accepted():
    assert linalg.unit_vectors(0) == []
    assert list(linalg.enumerate_subspace_bases2(0)) == [()]


def test_public_f2_routines_read_entries_mod_2():
    assert linalg.solve2([[3, 0], [0, 1]], [1, 2]) == (1, 0)


def rref_inverting_every_pivot(field, rows, n):
    """`_rref` as it was before a pivot of 1 skipped the rescale: every pivot
    row is multiplied by `field.inverse` of its pivot."""
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
        inv = field.inverse(mat[r][c])
        pivot = mat[r] = [norm(x * inv) for x in mat[r]]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                mat[i] = [norm(a - f * b) for a, b in zip(row, pivot)]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat], pivots


def test_f2_rref_never_inverts(monkeypatch):
    rng = random.Random(20261018)
    cases = []
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(0, 6))]
        cases.append((rows, n, rref_inverting_every_pivot(F2, rows, n)))

    def refuse(self, c):
        raise AssertionError(f"_rref inverted the pivot {c!r} over F2")

    monkeypatch.setattr(type(F2), "inverse", refuse)
    for rows, n, expected in cases:
        assert linalg._rref(F2, rows, n) == expected


def test_q_rref_matches_the_loop_that_inverts_every_pivot():
    rng = random.Random(20261019)
    ones = 0

    def entry():  # many entries of 1, so many pivots skip the rescale
        return Q.coerce(Fraction(rng.choice([-2, -1, 0, 0, 1, 1, 1, 3]), rng.choice([1, 1, 2, 3])))

    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [tuple(entry() for _ in range(n)) for _ in range(rng.randint(0, 5))]
        reduced, pivots = linalg._rref(Q, rows, n)
        assert (reduced, pivots) == rref_inverting_every_pivot(Q, rows, n)
        assert all(type(x) is (int if x.denominator == 1 else Fraction) for row in reduced for x in row)
        ones += any(row[0] == 1 for row in rows)
    assert ones > 50
