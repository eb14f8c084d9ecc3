"""Seeded workloads of the eulerlab benchmark: input generators, case runners
and output oracles.

A workload turns a seed into a list of cases made of plain Python data (tuples,
dicts, argv lists).  `run` hands one case to eulerlab and returns the consumed
result as a comparable value (strings and ints), so traced and untraced runs
can be compared byte for byte.  `check` judges that value against an oracle
written here from first principles (raw span closures, exact integer rank
tests, brute force over flags and monomials); it returns None for a right answer,
("refused", reason) when the program declined a case that has an answer, and
("wrong", reason) when the program asserted something false.

Sizes are stratified by case index (support sizes, dim V, torus pair sizes,
the cli command mix), so runs with different seeds do the same amount of work
and only the details of each case depend on the seed.
"""

from __future__ import annotations

import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, gcd, prod

REFUSED = "refused"
WRONG = "wrong"


@dataclass(frozen=True)
class Workload:
    """`pool_size` cases are drawn per seed; a timed run cycles through them,
    so each case is timed about twice or more in the benchmark's run_seconds
    (at least once whatever the host's speed, so `attempted` depends only on
    the seed).  Case costs scatter by a factor of two or more even within one
    size class, so the pool is as large as that allows: with about 35 cases
    the median latency moved by 15% from seed to seed.  Each pool size is a
    whole number of periods of the workload's size stratification.  The first
    `warmup` cases run once untimed before timing starts."""

    name: str
    pool_size: int
    warmup: int
    generate: object
    run: object
    check: object

    def cases(self, seed, count=None):
        """The first `count` cases (default: the whole pool) for this seed."""
        rng = random.Random(f"{self.name}/{seed}")
        return self.generate(rng, count or self.pool_size)


# ---------------------------------------------------------------------------
# Oracle helpers: F2 span closures, exact ranks over Q, text parsing
# ---------------------------------------------------------------------------

def _xor(u, v):
    return tuple(a ^ b for a, b in zip(u, v))


def _dot2(u, v):
    return sum(a & b for a, b in zip(u, v)) & 1


def _vectors2(n):
    return [tuple(v) for v in product((0, 1), repeat=n)]


def _span2_of(vectors, n):
    span = {(0,) * n}
    for v in vectors:
        span |= {_xor(v, s) for s in span}
    return span


def _chain_blocks2(chain, table, n):
    """Block dims of `table` under span(T_1) < span(T_1, T_2) < ... by raw span
    closure; None when the chain is not a complete flag containing every label."""
    spans = []
    span = {(0,) * n}
    for t in chain:
        grown = span | {_xor(t, s) for s in span}
        if len(grown) != 2 * len(span):
            return None
        span = grown
        spans.append(span)
    dims = [0] * len(chain)
    for c, m in table.items():
        if not any(c):
            continue
        for i, s in enumerate(spans):
            if c in s:
                dims[i] += m
                break
        else:
            return None
    return dims


def _admissible(du, dv):
    return du is not None and dv is not None and all(a > b for a, b in zip(du, dv))


def _exists_flag2(U, V, n):
    nonzero = [v for v in _vectors2(n) if any(v)]
    return any(
        _admissible(_chain_blocks2(chain, U, n), _chain_blocks2(chain, V, n))
        for chain in product(nonzero, repeat=n)
    )


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _chain_blocks_q(chain, table):
    """Rank-3 torus block dims under w_1, w_2, w_3 by exact integer tests: block 1
    is the line of w_1, block 2 the rest of the plane of w_1, w_2; None when the
    chain is not a basis."""
    w1, w2, w3 = chain
    normal = _cross(w1, w2)
    if not any(normal) or _dot(normal, w3) == 0:
        return None
    dims = [0, 0, 0]
    for w, m in table.items():
        dims[0 if not any(_cross(w1, w)) else 1 if _dot(normal, w) == 0 else 2] += m
    return dims


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    w = [x // g for x in v]
    first = next(x for x in w if x)
    return tuple(-x for x in w) if first < 0 else tuple(w)


_STANDARD_3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _exists_flag_q(U, V):
    """Brute force over rank-3 chains spanned by candidate lines: the primitive
    lines of supp U and supp V plus the standard basis.  Only the line and the
    plane matter; a standard basis vector outside the plane completes the chain."""
    candidates = sorted({_primitive(w) for w in list(U) + list(V)} | set(_STANDARD_3))
    for w1, w2 in product(candidates, repeat=2):
        normal = _cross(w1, w2)
        if any(normal):
            chain = (w1, w2, next(e for e in _STANDARD_3 if _dot(normal, e)))
            if _admissible(_chain_blocks_q(chain, U), _chain_blocks_q(chain, V)):
                return True
    return False


def _parse_terms(text, nvars, field):
    """Exponent tuple -> coefficient for the package's `c*T1^a*T2^b+...` text."""
    if text == "0":
        return {}
    out = {}
    for term in text.split("+"):
        coeff = Fraction(1)
        exps = [0] * nvars
        for factor in term.split("*"):
            if factor.startswith("T"):
                var, _, e = factor[1:].partition("^")
                exps[int(var) - 1] += int(e or 1)
            else:
                coeff *= Fraction(factor)
        mono = tuple(exps)
        if mono in out:
            raise ValueError(f"repeated monomial {mono} in {text!r}")
        out[mono] = coeff % 2 if field == "F2" else coeff
    return out


def _machine_doc(stdout):
    """The single --machine JSON line; it must re-serialize byte for byte."""
    line = stdout.rstrip("\n")
    if "\n" in line or not stdout.endswith("\n"):
        raise ValueError("expected exactly one JSON line")
    doc = json.loads(line)
    if json.dumps(doc, sort_keys=True, separators=(",", ":")) != line:
        raise ValueError("machine output is not in canonical form")
    return doc


def _table(rng, pool, count, mult_lo, mult_hi):
    return {c: rng.randint(mult_lo, mult_hi) for c in rng.sample(pool, count)}


def _entries(table):
    return [{"char": list(c), "mult": m} for c, m in sorted(table.items())]


# ---------------------------------------------------------------------------
# subgroup-scan: bounds.bound_free_zero_set on (Z/2)^6 pairs with small support
# ---------------------------------------------------------------------------

SCAN_RANK = 6
_SCAN_NONZERO = [v for v in _vectors2(SCAN_RANK) if any(v)]


def _scan_generate(rng, count):
    return [_scan_case(rng, i) for i in range(count)]


def _scan_case(rng, i):
    l = SCAN_RANK
    n_u = l + i % (l + 3)  # l .. 2l + 2 nonzero characters
    n_v = 1 + i % l  # 1 .. l characters, never the trivial one
    while True:
        U = _table(rng, _SCAN_NONZERO, n_u, 1, 3)
        if i % 4 == 3:
            U[(0,) * l] = rng.randint(1, 2)
        V = _table(rng, _SCAN_NONZERO, n_v, 1, 2)
        gap = sum(U.values()) - sum(V.values())
        if gap > U.get((0,) * l, 0):
            return (U, V)


def _scan_run(case):
    from eulerlab.bounds import bound_free_zero_set
    from eulerlab.reps import RepE

    U, V = case
    report = bound_free_zero_set(RepE(SCAN_RANK, U), RepE(SCAN_RANK, V))
    return json.dumps(report.to_doc(), sort_keys=True)


def _scan_check(case, output):
    from eulerlab.reps import Subgroup

    U, V = case
    l = SCAN_RANK
    doc = json.loads(output)
    gap = sum(U.values()) - sum(V.values())
    if doc["bound"] is None:
        return (REFUSED, "not applicable although V^E = 0 and dim U - dim V > dim U^E")
    if doc["bound"] != gap:
        return (WRONG, f"bound {doc['bound']} != dim U - dim V = {gap}")
    w = doc["witness"]
    F = [tuple(r) for r in w["subgroup_basis"]]
    if len(_span2_of(F, l)) != 2 ** len(F):
        return (WRONG, "subgroup basis is dependent")
    UF = {c: m for c, m in U.items() if all(_dot2(c, f) == 0 for f in F)}
    VF = {c: m for c, m in V.items() if all(_dot2(c, f) == 0 for f in F)}
    if sum(UF.values()) - sum(VF.values()) < gap:
        return (WRONG, "dim U^F - dim V^F < dim U - dim V")
    r = l - len(F)
    if w["quotient_rank"] != r:
        return (WRONG, f"quotient rank {w['quotient_rank']} != {r}")
    # Quotient coordinates follow the library's annihilator basis; it is
    # re-checked here to annihilate F and be independent, so the lifted chain
    # is a genuine complete flag of the characters vanishing on F.
    ann = Subgroup(l, F).annihilator_basis()
    if len(ann) != r or any(_dot2(a, f) for a in ann for f in F) or len(_span2_of(ann, l)) != 2 ** r:
        return (WRONG, "annihilator basis does not span the characters vanishing on F")
    chain = []
    for coords in w["flag"]["dual_basis"]:
        t = (0,) * l
        for c, a in zip(coords, ann):
            if c:
                t = _xor(t, a)
        chain.append(t)
    du, dv = _chain_blocks2(chain, UF, l), _chain_blocks2(chain, VF, l)
    if du is None or dv is None or du != w["module_block_dims"] or dv != w["target_block_dims"]:
        return (WRONG, f"witness block dims {w['module_block_dims']}/{w['target_block_dims']} != {du}/{dv}")
    if not _admissible(du, dv):
        return (WRONG, f"witness flag has blocks {du} over {dv}")
    if w["certificate"] == "0":
        return (WRONG, "zero certificate")
    return None


# ---------------------------------------------------------------------------
# euler-f2: cohomology.euler_nonvanishing on rank-5 pairs built under a flag
# ---------------------------------------------------------------------------

EULER_RANK = 5


def _euler_generate(rng, count):
    return [_euler_case(rng, i) for i in range(count)]


def _euler_case(rng, i):
    l = EULER_RANK
    while True:
        basis = [tuple(rng.randint(0, 1) for _ in range(l)) for _ in range(l)]
        if len(_span2_of(basis, l)) == 2 ** l:
            break
    # The block sizes follow from the case index alone (dim V runs through
    # 30 .. 40 once per 11 cases, split evenly over the blocks), so every seed
    # gives the same mix of sizes; the seed picks the flag and the labels.
    # Cases with dim V up to 50 took up to 0.9 s, too long to fit enough
    # cases in one run for a steady p90.
    dim_v = 30 + (i * 4) % 11
    parts = [dim_v // l + ((j + i) % l < dim_v % l) for j in range(l)]
    U, V = {}, {}
    u_dims = []
    for j, v_j in enumerate(parts):
        u_j = v_j + 1 + (i + j) % 2
        u_dims.append(u_j)
        # Block j holds the labels with flag coordinates (*, ..., *, 1, 0, ..., 0).
        # Each table takes as many distinct labels as the block has, with
        # multiplicities within one of each other: over F2 repeated factors
        # square sparsely, and uneven repeats make case costs scatter widely.
        coset = [bits + (1,) + (0,) * (l - j - 1) for bits in product((0, 1), repeat=j)]
        for table, count in ((V, v_j), (U, u_j)):
            labels = rng.sample(coset, min(count, len(coset)))
            for k in range(count):
                c = (0,) * l
                for x, t in zip(labels[k % len(labels)], basis):
                    if x:
                        c = _xor(c, t)
                table[c] = table.get(c, 0) + 1
    return (U, V, tuple(basis), tuple(u_dims))


def _euler_run(case):
    from eulerlab.cohomology import euler_nonvanishing
    from eulerlab.reps import FlagE, RepE

    U, V, basis, _ = case
    nonzero, cls = euler_nonvanishing(RepE(EULER_RANK, U), RepE(EULER_RANK, V), FlagE(EULER_RANK, basis))
    return json.dumps(
        {"nonvanishing": nonzero, "certificate": cls.text(), "quotient_dim": cls.presentation.quotient_dimension}
    )


def _euler_check(case, output):
    _, V, _, u_dims = case
    doc = json.loads(output)
    if not doc["nonvanishing"] or doc["certificate"] == "0":
        return (WRONG, "euler class reported zero although dim U_i > dim V_i for every i")
    if doc["quotient_dim"] != prod(u_dims):
        return (WRONG, f"quotient dim {doc['quotient_dim']} != {prod(u_dims)}")
    dim_v = sum(V.values())
    for mono in _parse_terms(doc["certificate"], EULER_RANK, "F2"):
        if any(e >= d for e, d in zip(mono, u_dims)):
            return (WRONG, f"certificate term {mono} is not reduced below {u_dims}")
        if sum(mono) != dim_v:
            return (WRONG, f"certificate term {mono} does not have degree dim V = {dim_v}")
    return None


# ---------------------------------------------------------------------------
# cli-mix: in-process cli.run(argv) --machine over a fixed command mix
# ---------------------------------------------------------------------------

# One block of 20 cases, shuffled per block; the mix is the same for every seed.
CLI_BLOCK = (
    ["torus"] * 10 + ["torus-random"] * 2 + ["euler-check"] * 3 + ["sympow"] * 2
    + ["flag-ring", "torus-example", "reduce"]
)
_F2_3 = _vectors2(3)
_F2_3_NONZERO = [v for v in _F2_3 if any(v)]


def _torus_weight(rng, chain, j):
    while True:
        coeffs = [rng.randint(-1, 1) for _ in range(j)] + [rng.choice((-2, -1, 1, 2))]
        w = tuple(sum(c * t[k] for c, t in zip(coeffs, chain)) for k in range(3))
        if any(w):
            return w


def _gen_torus(rng, constructed, k):
    """Rank-3 torus pair; `constructed` pairs have an admissible flag by design.

    Torus cases take nine tenths of cli-mix's time, so their sizes follow
    from k, the case's number among the pairs of its kind, and every seed
    gives the same mix of sizes (periods 36 and 9); the seed picks the weights
    and, for random pairs, the multiplicities.
    """
    if constructed:
        while True:
            chain = [tuple(rng.randint(-1, 1) for _ in range(3)) for _ in range(3)]
            if _dot(_cross(chain[0], chain[1]), chain[2]):
                break
        U, V = {}, {}
        for j in range(3):
            u_j = 2 + (k + j) % 3
            for table, count in ((U, u_j), (V, (k // 3 + j) % u_j)):
                for _ in range(count):
                    w = _torus_weight(rng, chain, j)
                    table[w] = table.get(w, 0) + 1
    else:
        weights = [w for w in product(range(-2, 3), repeat=3) if any(w)]
        U = _table(rng, weights, 3 + k % 3, 1, 3)
        V = _table(rng, weights, 1 + k // 3 % 3, 1, 2)
    doc = {"group": {"kind": "torus", "rank": 3}, "module": {"entries": _entries(U)},
           "target": {"entries": _entries(V)}}
    return {"kind": "torus", "U": U, "V": V,
            "argv": ["bound", "--theorem", "torus-interior", "--inline", json.dumps(doc)]}


def _gen_euler_check(rng):
    U = _table(rng, _F2_3, rng.randint(3, 5), 1, 3)
    V = _table(rng, _F2_3_NONZERO, rng.randint(1, 3), 1, 2)
    doc = {"group": {"kind": "elem_abelian_2", "rank": 3}, "module": {"entries": _entries(U)},
           "target": {"entries": _entries(V)}}
    return {"kind": "euler-check", "U": U, "V": V, "argv": ["euler-check", "--inline", json.dumps(doc)]}


def _gen_sympow(rng):
    r = rng.randint(2, 3)
    nonzero = [v for v in _vectors2(r) if any(v)]
    U = {tuple(int(i == j) for j in range(r)): 1 for i in range(r)}
    for c in rng.sample(nonzero, rng.randint(0, 2)):
        U[c] = U.get(c, 0) + 1
    V = _table(rng, nonzero, rng.randint(1, 3), 1, 3)
    d = rng.randint(0, 4)
    doc = {"group": {"kind": "elem_abelian_2", "rank": r}, "module": {"entries": _entries(U)},
           "target": {"entries": _entries(V)}}
    return {"kind": "sympow", "U": U, "V": V, "rank": r, "d": d,
            "argv": ["sympow", "-d", str(d), "--inline", json.dumps(doc)]}


def _gen_flag_ring(rng):
    n = rng.randint(3, 5)
    l = rng.randint(1, 3)
    return {"kind": "flag-ring", "n": n, "l": l,
            "argv": ["flag-ring", "-n", str(n), "-l", str(l), "--verify", "--samples", "10",
                     "--seed", str(rng.randint(0, 10**6))]}


def _gen_torus_example(rng):
    a, b = rng.choice([(a, b) for a in range(1, 6) for b in range(1, 6) if gcd(a, b) == 1])
    c = rng.randint(1, 3)
    return {"kind": "torus-example", "a": a, "b": b, "c": c,
            "argv": ["torus-example", "-a", str(a), "-b", str(b), "-c", str(c), "--samples", "2000",
                     "--seed", str(rng.randint(0, 10**6))]}


def _poly_text(terms):
    parts = []
    for mono, c in terms.items():
        factors = [f"T{j + 1}" if e == 1 else f"T{j + 1}^{e}" for j, e in enumerate(mono) if e]
        parts.append("*".join([str(c)] + factors))
    return "+".join(parts)


def _gen_reduce(rng):
    n = rng.randint(2, 3)
    gens, degrees = [], []
    for j in range(n):
        d = rng.randint(1, 4)
        g = {tuple(d if k == j else 0 for k in range(n)): Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))}
        for _ in range(rng.randint(0, 3)):
            mono = tuple(rng.randint(0, d - 1) if k == j else rng.randint(0, 3) if k < j else 0 for k in range(n))
            g[mono] = g.get(mono, 0) + rng.randint(1, 5)
        gens.append(g)
        degrees.append(d)
    poly = {}
    for _ in range(rng.randint(2, 6)):
        mono = tuple(rng.randint(0, 5) for _ in range(n))
        poly[mono] = Fraction(rng.choice((-5, -3, -1, 1, 2, 4)), rng.randint(1, 3))
    # `--opt=value`, since a leading minus sign would read as an option
    argv = ["reduce", "--field", "Q", "--nvars", str(n), f"--poly={_poly_text(poly)}"]
    argv += [f"--gen={_poly_text(g)}" for g in gens]
    return {"kind": "reduce", "n": n, "poly": poly, "gens": gens, "degrees": degrees, "argv": argv}


_CLI_GENERATORS = {
    "torus": lambda rng, k: _gen_torus(rng, True, k),
    "torus-random": lambda rng, k: _gen_torus(rng, False, k),
    "euler-check": lambda rng, k: _gen_euler_check(rng),
    "sympow": lambda rng, k: _gen_sympow(rng),
    "flag-ring": lambda rng, k: _gen_flag_ring(rng),
    "torus-example": lambda rng, k: _gen_torus_example(rng),
    "reduce": lambda rng, k: _gen_reduce(rng),
}


def _cli_generate(rng, count):
    # Each block of len(CLI_BLOCK) cases is a shuffled copy of CLI_BLOCK, so
    # the command mix is exact for every seed and only the order is random.
    kinds = []
    while len(kinds) < count:
        kinds += rng.sample(CLI_BLOCK, len(CLI_BLOCK))
    seen = Counter()
    cases = []
    for kind in kinds[:count]:
        cases.append(_CLI_GENERATORS[kind](rng, seen[kind]))
        seen[kind] += 1
    for case in cases:
        case["argv"].append("--machine")
    return cases


def _cli_run(case):
    from eulerlab import cli

    out, err = io.StringIO(), io.StringIO()
    code = cli.run(case["argv"], out, err)
    return (code, out.getvalue(), err.getvalue())


def _check_torus(case, code, doc):
    U, V = case["U"], case["V"]
    if code == 1 and doc["bound"] is None:
        if _exists_flag_q(U, V):
            return (REFUSED, "not applicable although an admissible rational flag exists")
        return None
    gap = sum(U.values()) - sum(V.values())
    if code != 0 or doc["bound"] != 2 * gap:
        return (WRONG, f"exit {code}, bound {doc['bound']} != 2 (dim U - dim V) = {2 * gap}")
    w = doc["witness"]
    chain = [tuple(v) for v in w["flag"]["dual_basis"]]
    du, dv = _chain_blocks_q(chain, U), _chain_blocks_q(chain, V)
    if du != w["module_block_dims"] or dv != w["target_block_dims"] or not _admissible(du, dv):
        return (WRONG, f"witness flag blocks {du} over {dv}")
    if w["certificate"] == "0":
        return (WRONG, "zero certificate")
    return None


def _check_euler(case, code, doc):
    U, V = case["U"], case["V"]
    if code == 1:
        if _exists_flag2(U, V, 3):
            return (REFUSED, "no flag reported although an admissible flag exists")
        return None
    chain = [tuple(v) for v in doc["flag"]["dual_basis"]]
    du, dv = _chain_blocks2(chain, U, 3), _chain_blocks2(chain, V, 3)
    if not _admissible(du, dv):
        return (WRONG, f"flag blocks {du} over {dv}")
    if not doc["nonvanishing"] or doc["certificate"] == "0" or doc["quotient_dim"] != prod(du):
        return (WRONG, "euler class reported zero, or wrong quotient dimension, on an admissible flag")
    return None


def _sym_table(U, degree, r):
    """S^degree of U by enumerating monomials in the coordinates of U."""
    coords = [c for c, m in sorted(U.items()) for _ in range(m)]
    table = {}
    for mono in combinations_with_replacement(range(len(coords)), degree):
        label = (0,) * r
        for k in mono:
            label = _xor(label, coords[k])
        table[label] = table.get(label, 0) + 1
    return table


def _check_sympow(case, code, doc):
    U, V, r, d = case["U"], case["V"], case["rank"], case["d"]
    if code != 0:
        return (REFUSED, f"exit {code} on a spanning module with V^E = 0")
    chain = [tuple(v) for v in doc["flag"]["dual_basis"]]
    du = _chain_blocks2(chain, U, r)
    dv = _chain_blocks2(chain, V, r)
    if du is None or dv is None or not all(du) or dv != doc["target_block_dims"]:
        return (WRONG, "flag does not meet every block of U or target blocks differ")
    if not isinstance(doc["k"], int) or doc["k"] < 1:
        return (WRONG, f"k = {doc['k']}")
    acc = {}
    for k in range(1, doc["k"] + 1):
        for c, m in _sym_table(U, 2 * k - 1, r).items():
            acc[c] = acc.get(c, 0) + m
        dims = _chain_blocks2(chain, acc, r)
        ok = all(a > b for a, b in zip(dims, dv)) and sum(acc.values()) - sum(V.values()) >= d
        if ok != (k == doc["k"]):
            return (WRONG, f"k = {doc['k']} is not the least admissible k (k = {k} gives {dims})")
    if dims != doc["block_dims"] or sum(acc.values()) != doc["total_dim"]:
        return (WRONG, f"block dims {doc['block_dims']} != {dims}")
    return None


def _check_flag_ring(case, code, doc):
    n, l = case["n"], case["l"]
    if code != 0 or not doc["verification"]["passed"]:
        return (REFUSED, f"exit {code} or a failed verification item")
    if doc["quotient_dim"] != factorial(n) // factorial(n - l):
        return (WRONG, f"quotient dim {doc['quotient_dim']} != n!/(n-l)!")
    if doc["lead_degrees"] != [n - i + 1 for i in range(1, l + 1)] or len(doc["relations"]) != l:
        return (WRONG, f"lead degrees {doc['lead_degrees']}")
    return None


def _check_torus_example(case, code, doc):
    a, b, c = case["a"], case["b"], case["c"]
    if code != 0 or not doc["verification"]["passed"] or not doc["verification"]["equivariant"]:
        return (REFUSED, f"exit {code} or a failed verification")
    if not doc["verification"]["max_residual"] < doc["verification"]["tol"]:
        return (WRONG, "residual above tolerance reported as equivariant")
    p = doc["map"]["params"]
    ap, bp = p["a_prime"], p["b_prime"]
    least = next(x for x in range(1, a * b + 2) if (a * x - 1) % b == 0 and (a * x - 1) // b >= 1)
    if a * ap - b * bp != 1 or bp < 1 or ap != least:
        return (WRONG, f"cofactors a'={ap}, b'={bp}")
    src = sorted(tuple(e["char"]) for e in doc["map"]["source"]["entries"] for _ in range(e["mult"]))
    tgt = sorted(tuple(e["char"]) for e in doc["map"]["target"]["entries"] for _ in range(e["mult"]))
    if src != sorted([(a * c,), (b * c,)]) or tgt != sorted([(a * b * c,), (c,)]):
        return (WRONG, f"weights {src} -> {tgt}")
    return None


def _reduce_q(poly, gens, degrees):
    """Normal form by always rewriting the largest reducible term (last variable
    most significant); the leads are pure powers, so the remainder is unique."""
    n = len(degrees)
    p = {m: c for m, c in poly.items() if c}
    leads = [g[tuple(d if k == j else 0 for k in range(n))] for j, (g, d) in enumerate(zip(gens, degrees))]
    while True:
        reducible = [m for m in p if any(e >= d for e, d in zip(m, degrees))]
        if not reducible:
            return p
        m = max(reducible, key=lambda mono: mono[::-1])
        j = max(k for k in range(n) if m[k] >= degrees[k])
        q = p[m] / leads[j]
        base = list(m)
        base[j] -= degrees[j]
        for mg, cg in gens[j].items():
            mm = tuple(b + e for b, e in zip(base, mg))
            p[mm] = p.get(mm, 0) - q * cg
            if not p[mm]:
                del p[mm]


def _check_reduce(case, code, doc):
    if code != 0:
        return (REFUSED, f"exit {code} on a valid triangular system")
    expected = _reduce_q(case["poly"], case["gens"], case["degrees"])
    got = _parse_terms(doc["normal_form"], case["n"], "Q")
    if got != expected or doc["zero_in_quotient"] != (not expected):
        return (WRONG, f"normal form {doc['normal_form']}")
    if doc["quotient_dim"] != prod(case["degrees"]):
        return (WRONG, f"quotient dim {doc['quotient_dim']}")
    return None


_CLI_CHECKS = {
    "torus": _check_torus,
    "euler-check": _check_euler,
    "sympow": _check_sympow,
    "flag-ring": _check_flag_ring,
    "torus-example": _check_torus_example,
    "reduce": _check_reduce,
}


def _cli_check(case, output):
    code, stdout, stderr = output
    if code == 2:
        return (REFUSED, f"exit 2 on valid input: {stderr.strip()}")
    if code not in (0, 1):
        return (WRONG, f"exit {code}")
    try:
        doc = _machine_doc(stdout) if stdout else None
    except ValueError as exc:
        return (WRONG, f"bad --machine output: {exc}")
    if doc is None and not (code == 1 and case["kind"] == "euler-check"):
        return (WRONG, f"exit {code} without a --machine document")
    return _CLI_CHECKS[case["kind"]](case, code, doc)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("subgroup-scan", pool_size=72, warmup=2,
                 generate=_scan_generate, run=_scan_run, check=_scan_check),
        Workload("euler-f2", pool_size=110, warmup=2,
                 generate=_euler_generate, run=_euler_run, check=_euler_check),
        Workload("cli-mix", pool_size=360, warmup=20,
                 generate=_cli_generate, run=_cli_run, check=_cli_check),
    )
}
