"""`reduce` of far powers by squaring modulo the system.

`reduce` replaces x * T_j^e, e >= FAR_FACTOR * d_j, by x times the normal form
of T_j^e, taken by repeated squaring modulo g_1..g_j, so its cost grows with
log e.  Oracles: the level-by-level sweep that `reduce` ran before (the
tuple-keyed division of `tests_support_random`), at exponents up to 10^4, and sympy's `reduced` in lex
order with T_l > ... > T_1 (where every g_j leads with T_j^{d_j}), over F2
(modulus=2) and Q in 1-3 variables.
"""

import io
import json
import random
import time
from fractions import Fraction

import pytest

from eulerlab import polyring
from eulerlab.cli import run
from eulerlab.errors import InputError
from eulerlab.polyring import F2, FAR_FACTOR, MAX_EXPONENT, Q, Poly, TriangularSystem, parse_poly, reduce
from tests_support_random import random_triangular, reference_reduce_in_variable


def level_by_level(p, system):
    """The sweep `reduce` ran before far powers were squared."""
    for j in range(system.nvars, 0, -1):
        p = Poly(p.field, p.nvars, reference_reduce_in_variable(p.field, dict(p.terms()), j, system))
    return p


def far_poly(rng, field, system, emax):
    """A few terms, each with one T_j-exponent at or above FAR_FACTOR * d_j."""
    nvars = system.nvars
    terms = {}
    for _ in range(rng.randint(1, 3)):
        m = [rng.randint(0, 3) for _ in range(nvars)]
        j = rng.randrange(nvars)
        far = FAR_FACTOR * system.lead_degrees[j]
        m[j] = rng.randint(far, max(far, emax))
        c = 1 if field == F2 else Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
        terms[tuple(m)] = c
    return Poly(field, nvars, terms)


# Over Q the level-by-level oracle slows down with the size of the
# coefficients, which grows with the exponent.
@pytest.mark.parametrize("field, emax", [(F2, 10**4), (Q, 300)])
def test_univariate_far_powers_match_level_by_level(field, emax):
    rng = random.Random(1301)
    for _ in range(20):
        system = random_triangular(rng, field, 1, dmax=6)
        d = system.lead_degrees[0]
        exponents = [FAR_FACTOR * d - 1, FAR_FACTOR * d, rng.randint(FAR_FACTOR * d, emax), emax]
        for terms in [{(e,): 1} for e in exponents] + [{(e,): 1 for e in exponents}]:
            p = Poly(field, 1, terms)
            assert reduce(p, system) == level_by_level(p, system)


@pytest.mark.parametrize("field", [F2, Q])
@pytest.mark.parametrize("nvars", [2, 3])
def test_multivariate_far_powers_match_level_by_level(field, nvars):
    rng = random.Random(1302 + nvars)
    for _ in range(12):
        system = random_triangular(rng, field, nvars, dmax=2)
        p = far_poly(rng, field, system, emax=40)
        assert reduce(p, system) == level_by_level(p, system)


def to_sympy(p, gens):
    import sympy as sp

    expr = sp.Integer(0)
    for m, c in p.terms().items():
        term = sp.Rational(c.numerator, c.denominator)
        for g, e in zip(gens, m):
            term *= g**e
        expr += term
    return expr


@pytest.mark.parametrize("field", [F2, Q])
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_far_powers_match_sympy(field, nvars):
    sp = pytest.importorskip("sympy")
    rng = random.Random(1310 + nvars)
    gens = sp.symbols(f"T1:{nvars + 1}")
    lex_gens = tuple(reversed(gens))  # T_l > ... > T_1
    options = {"modulus": 2} if field == F2 else {"domain": sp.QQ}
    for _ in range(6):
        system = random_triangular(rng, field, nvars, dmax=3)
        p = far_poly(rng, field, system, emax=60 if nvars == 1 else 30)
        basis = [sp.Poly(to_sympy(g, gens), *lex_gens, **options) for g in system.gens]
        target = sp.Poly(to_sympy(p, gens), *lex_gens, **options)
        _, rem = sp.reduced(target, basis, *lex_gens, order="lex", **options)
        assert sp.Poly(rem.as_expr() - to_sympy(reduce(p, system), gens), *gens, **options).is_zero


def test_power_normal_forms_are_memoised_and_bypass_traced_names(monkeypatch):
    system = TriangularSystem([parse_poly("T1^2+T1+1", F2, 2), parse_poly("T2^3+T1*T2+1", F2, 2)])
    p = parse_poly(f"T1^{MAX_EXPONENT - 2}*T2^{MAX_EXPONENT}+T2^1000", F2, 2)

    def refuse(*args):
        raise AssertionError("a far power went through a traced name")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    monkeypatch.setattr(Poly, "__init__", refuse)
    monkeypatch.setattr(polyring, "reduce", refuse)
    first = reduce(p, system)
    assert {(2, MAX_EXPONENT), (2, 1000)} <= set(system.powers)
    memo = dict(system.powers)
    assert reduce(p, system) == first
    assert all(system.powers[key] is nf for key, nf in memo.items())
    assert max(max(m) for m in first.terms()) < 3


def test_far_power_past_the_packed_limit_of_a_lower_variable():
    # T2^16 = T1^(2^33) modulo g_2, above MAX_EXPONENT, so the level-by-level
    # sweep cannot hold it in a packed key; T1^3 = 1 modulo g_1 and
    # 2^33 = 2 (mod 3), so the normal form is T1^2 = T1 + 1
    system = TriangularSystem([parse_poly("T1^2+T1+1", F2, 2), parse_poly("T2^2+T1^1073741824", F2, 2)])
    p = parse_poly("T2^16", F2, 2)
    swept = reference_reduce_in_variable(F2, dict(p.terms()), 2, system)
    assert swept == {(2**33, 0): 1}
    with pytest.raises(InputError, match="above the limit of 2147483647"):
        Poly(F2, 2, swept)
    assert reduce(p, system) == parse_poly("T1+1", F2, 2)


def test_cli_reduces_the_largest_exponent_at_once():
    argv = ["reduce", "--field", "F2", "--nvars", "1", "--poly", f"T1^{MAX_EXPONENT}", "--gen", "T1^2+T1+1", "--machine"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = run(argv, out, err)
    elapsed = time.perf_counter() - start
    assert code == 0, err.getvalue()
    assert json.loads(out.getvalue())["normal_form"] == "T1"
    assert elapsed < 1.0
