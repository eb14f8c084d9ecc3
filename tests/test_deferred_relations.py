"""`cohomology.presentation` builds each relation e(U_j) only when it is read,
and a reduction builds it only as deep in T_1..T_{j-1} as its heads can use.

Oracle: the eager system `TriangularSystem([euler_poly(b, flag) for b in
decompose(U, flag).blocks])`, on random pairs over F2 of rank 1-5 and over the
torus of rank 1-3, under admissible flags (dim V_j < dim U_j for every j) and
under flags that are not, among them pairs whose V reaches d_l in T_l, so that
the top level is reduced; and, over F2 and Q at ranks 2-5, the full relation's
terms for every depth, and reductions that force a deeper build.
"""

import io
import json
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerlab import polyring, reps
from eulerlab.cli import run
from eulerlab.cohomology import euler_nonvanishing, presentation
from eulerlab.errors import InputError, ResourceLimitError
from eulerlab.polyring import F2, MAX_EXPONENT, Q, Poly, TriangularSystem, parse_poly, reduce
from eulerlab.reps import FlagE, RationalFlag, RepE, RepT, decompose, euler_poly

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_flag(rng, torus, rank=None):
    """A random complete flag: by default rank 1-3 with covector entries in
    -2..2 for the torus, rank 1-5 with 0/1 entries over F2."""
    rank = rank or rng.randint(1, 3 if torus else 5)
    while True:
        rows = [[rng.randint(-2, 2) if torus else rng.randint(0, 1) for _ in range(rank)] for _ in range(rank)]
        try:
            return (RationalFlag if torus else FlagE)(rank, rows)
        except InputError:
            continue


def block_label(rng, flag, j, torus):
    """A label of block j: sum_i c_i T_i with c_j nonzero; below j the
    coefficients are all zero about a third of the time, so that single-term
    relations occur."""
    below = rng.random() < 1 / 3
    coeffs = [0 if below else (rng.randint(-2, 2) if torus else rng.randint(0, 1)) for _ in range(j)]
    coeffs.append(rng.choice([-2, -1, 1, 2]) if torus else 1)
    label = [0] * flag.rank
    for c, t in zip(coeffs, flag.dual_basis):
        label = [a + c * b for a, b in zip(label, t)]
    return tuple(x % 2 for x in label) if not torus else tuple(label)


def block_table(rng, flag, dims, torus):
    table = {}
    for j, dim in enumerate(dims):
        for _ in range(dim):
            label = block_label(rng, flag, j, torus)
            table[label] = table.get(label, 0) + 1
    return (RepT if torus else RepE)(flag.rank, table)


def random_pair(rng, torus, admissible, rank=None):
    """(U, V, flag) with every block of U nonempty; when not admissible, the
    top block of V is as large as U's or larger half of the time."""
    flag = random_flag(rng, torus, rank)
    u_dims = [rng.randint(1, 3) for _ in range(flag.rank)]
    if admissible:
        v_dims = [rng.randint(0, u - 1) for u in u_dims]
    else:
        v_dims = [rng.randint(0, u + 1) for u in u_dims]
        if rng.random() < 0.5:
            v_dims[-1] = u_dims[-1] + rng.randint(0, 1)
    return block_table(rng, flag, u_dims, torus), block_table(rng, flag, v_dims, torus), flag


def eager_presentation(U, flag):
    return TriangularSystem([euler_poly(block, flag) for block in decompose(U, flag).blocks])


PACKED = ("reach_lift", "drop")


def test_deferred_presentation_matches_the_eager_system(monkeypatch):
    kinds = Counter()
    levels = []
    reduce_level = polyring._reduce_level

    def spy(p, j, system):
        levels.append(j)
        return reduce_level(p, j, system)

    monkeypatch.setattr(polyring, "_reduce_level", spy)

    @SETTINGS
    @given(st.booleans(), st.booleans(), st.integers(0, 2**32))
    def check(torus, admissible, seed):
        U, V, flag = random_pair(random.Random(seed), torus, admissible)
        eager = eager_presentation(U, flag)
        levels.clear()
        nonzero, certificate = euler_nonvanishing(U, V, flag)
        top_read = flag.rank in levels
        lazy = certificate.presentation
        expected = euler_poly(V, flag, eager)
        assert certificate.poly == expected
        assert nonzero == (not expected.is_zero())
        if admissible:
            assert nonzero
        assert [getattr(lazy, name) for name in PACKED] == [getattr(eager, name) for name in PACKED]
        assert lazy.lead_degrees == eager.lead_degrees
        assert lazy.quotient_dimension == eager.quotient_dimension
        assert lazy.relation_texts() == eager.relation_texts()
        assert lazy.tails == eager.tails
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        fresh = presentation(U, flag)
        assert hash(fresh) == hash(eager) and fresh == eager
        kinds["torus" if torus else "F2"] += 1
        kinds["admissible" if admissible else "not admissible"] += 1
        kinds["top level reduced"] += top_read
        # g_1 is always a single term; a later one is when its labels have no lower coordinates
        kinds["single-term g_j, j > 1"] += any(not tail for tail in eager.tails[1:])
        kinds["g_j with a tail"] += any(eager.tails)
        kinds["rank 4-5"] += flag.rank >= 4

    check()
    assert min(kinds.values()) >= 45, kinds


def counted(system, log):
    """A deferred system with the lead degrees and builds of `system` whose
    builds are logged as (j, depth) in `log`; nothing is built yet."""

    def build(j, depth):
        log.append((j, depth))
        return system._build(j, depth)

    return TriangularSystem._deferred(system.field, system.lead_degrees, build)


def counting_builds(monkeypatch):
    """Counter of (j, depth) over the builds of every presentation made
    while `monkeypatch` holds."""
    builds = Counter()
    deferred = TriangularSystem._deferred

    def spy(field, lead_degrees, build):
        def logged(j, depth):
            builds[j, depth] += 1
            return build(j, depth)

        return deferred(field, lead_degrees, logged)

    monkeypatch.setattr(TriangularSystem, "_deferred", spy)
    return builds


def test_admissible_euler_nonvanishing_never_builds_the_top_relation(monkeypatch):
    builds = counting_builds(monkeypatch)
    truncated = 0
    rng = random.Random(23)
    for torus in (False, True):
        for _ in range(30):
            U, V, flag = random_pair(rng, torus, admissible=True)
            builds.clear()
            nonzero, certificate = euler_nonvanishing(U, V, flag)
            assert nonzero
            # the top relation is built at no depth
            assert not any(j == flag.rank for j, _ in builds)
            truncated += any(depth is not None for _, depth in builds)
            certificate.presentation.relation_texts()
            assert all(builds[j, None] == 1 for j in range(1, flag.rank + 1))
    # lower relations are read to a depth on some pairs
    assert truncated >= 1


def test_a_relation_that_is_reached_is_built_once(monkeypatch):
    builds = counting_builds(monkeypatch)
    flag = FlagE.standard(2)
    U = RepE(2, {(1, 0): 3, (1, 1): 3})
    system = presentation(U, flag)
    assert not builds
    # g_1 = T1^3 and g_2 = (T1 + T2)^3, so S_1 = 2 and S_2 = 4.  T1^3 reaches
    # level 1, where the degree count drops every head, so g_1 is not built.
    # A head T1^a*T2^3 reaches level 2 and reads g_2 to depth 2 - a; the rest
    # of its rewrite is dropped by the degree count
    t1, t2, t1t2 = (parse_poly(text, F2, 2) for text in ("T1^3", "T2^3", "T1*T2^3"))
    normal_t2, normal_t1t2 = (parse_poly(text, F2, 2) for text in ("T1^2*T2+T1*T2^2", "T1^2*T2^2"))
    for _ in range(3):
        assert reduce(t1, system).is_zero()
        assert reduce(t1t2, system) == normal_t1t2
    assert builds == {(2, 1): 1}
    for _ in range(3):
        assert reduce(t2, system) == normal_t2
        assert reduce(t1t2, system) == normal_t1t2
    # once per depth asked, the deeper request building again
    assert builds == {(2, 1): 1, (2, 2): 1}
    eager = eager_presentation(U, flag)
    assert system.relation_texts() == eager.relation_texts()
    assert system == eager and hash(system) == hash(eager) and repr(system) == repr(eager)
    assert reduce(t2, system) == normal_t2
    # and once in full, which serves every later reduction
    assert builds == {(2, 1): 1, (2, 2): 1, (1, None): 1, (2, None): 1}


def test_a_relation_that_contradicts_its_stated_facts_raises():
    flag = FlagE.standard(2)
    U = RepE(2, {(1, 0): 1, (1, 1): 2})
    relations = eager_presentation(U, flag).gens
    lying = TriangularSystem._deferred(flag.field, [1, 3], lambda j, depth: relations[j - 1])
    with pytest.raises(RuntimeError, match="relation 2"):
        lying.relation_texts()
    # T2^2 + T1^3 has the stated lead degree but is not homogeneous; it is
    # refused whether a reduction reads it to a depth (T2^2 reads it to
    # depth 1) or something reads it whole
    uneven = [parse_poly("T1^2", F2, 2), parse_poly("T2^2+T1^3", F2, 2)]
    for read in (lambda system: reduce(parse_poly("T2^2", F2, 2), system), TriangularSystem.relation_texts):
        lying = TriangularSystem._deferred(F2, [2, 2], lambda j, depth: uneven[j - 1])
        with pytest.raises(RuntimeError, match="relation 2 contradicts the degree or homogeneity"):
            read(lying)


# -- depth-limited builds -------------------------------------------------------

RANKS = st.integers(2, 5)


def lower_degree(m, j):
    """The degree in T_1..T_{j-1} of the exponent tuple m."""
    return sum(m[: j - 1])


def test_a_build_to_a_depth_holds_the_relation_terms_of_at_most_that_degree():
    kinds = Counter()

    @SETTINGS
    @given(st.booleans(), RANKS, st.integers(0, 2**32))
    def check(torus, rank, seed):
        U, _, flag = random_pair(random.Random(seed), torus, True, rank)
        system = presentation(U, flag)
        for j, g in enumerate(eager_presentation(U, flag).gens, start=1):
            for depth in range(system.lead_degrees[j - 1] + 1):
                shallow = system._build(j, depth)
                assert shallow.terms() == {m: c for m, c in g.terms().items() if lower_degree(m, j) <= depth}
                kinds["truncated"] += j > 1 and shallow != g
        kinds["Q" if torus else "F2"] += 1
        kinds[f"rank {rank}"] += 1

    check()
    assert min(kinds.values()) >= 40 and kinds["truncated"] >= 500, kinds


def random_heads(rng, system):
    """Random polynomials whose terms reach lead degrees: for each level
    j >= 2, T_j^{d_j} times monomials in T_1..T_{j-1} of falling degree, so
    that each asks g_j one step deeper, plus a few random terms."""
    return [p for j in range(2, system.nvars + 1) for p in _falling_heads(rng, system, j)]


def _falling_heads(rng, system, j):
    nvars, degrees = system.nvars, system.lead_degrees
    polys = []
    for a in range(sum(degrees[: j - 1]) - j + 1, -1, -1):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            m = [0] * nvars
            for _ in range(a):
                m[rng.randrange(j - 1)] += 1
            m[j - 1] = degrees[j - 1] + rng.randint(0, 2)
            for k in range(j, nvars):
                m[k] = rng.randint(0, degrees[k] - 1)
            terms[tuple(m)] = rng.choice([1, 2, -3]) if system.field == Q else 1
        for _ in range(rng.randint(0, 2)):
            terms[tuple(rng.randint(0, 2 * d) for d in degrees)] = 1
        polys.append(Poly(system.field, nvars, terms))
    return polys


def test_reduce_on_a_deferred_presentation_equals_reduce_on_its_relations():
    kinds = Counter()

    @SETTINGS
    @given(st.booleans(), RANKS, st.booleans(), st.integers(0, 2**32))
    def check(torus, rank, admissible, seed):
        rng = random.Random(seed)
        U, V, flag = random_pair(rng, torus, admissible, rank)
        eager = eager_presentation(U, flag)
        log = []
        lazy = counted(presentation(U, flag), log)
        assert euler_poly(V, flag, lazy) == euler_poly(V, flag, eager)
        for p in random_heads(rng, lazy):
            assert reduce(p, lazy) == reduce(p, eager)
        depths = {}
        for j, depth in log:
            assert depth is None or j > 1
            kinds["truncated build"] += depth is not None
            kinds["rebuild"] += j in depths
            assert j not in depths or depths[j] is not None and (depth is None or depth > depths[j])
            depths[j] = depth
        kinds["Q" if torus else "F2"] += 1
        kinds[f"rank {rank}"] += 1

    check()
    assert min(kinds.values()) >= 40 and kinds["truncated build"] >= 200 and kinds["rebuild"] >= 100, kinds


# The top relation (T1 + T2)^3 of this torus pair has four terms and relation 1
# is T1; with the unreduced-term limit at 1 only a run that reads the top
# relation is refused.
_TORUS_DOC = {
    "group": {"kind": "torus", "rank": 2},
    "module": {"entries": [{"char": [1, 0], "mult": 1}, {"char": [1, 1], "mult": 3}]},
    "target": {"entries": [{"char": [1, 1], "mult": 2}]},
}


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv + ["--inline", json.dumps(_TORUS_DOC)], out, err)
    return code, out.getvalue(), err.getvalue()


def test_torus_interior_bound_reads_no_relation_above_the_term_limit(monkeypatch):
    monkeypatch.setattr(reps, "MAX_EULER_TERMS", 1)
    code, out, err = invoke(["bound", "--theorem", "torus-interior", "--machine"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["bound"] == 4
    assert doc["witness"]["certificate"] == "1*T2^2"


def test_euler_check_prints_the_relation_above_the_term_limit_and_exits_two(monkeypatch):
    monkeypatch.setattr(reps, "MAX_EULER_TERMS", 1)
    code, out, err = invoke(["euler-check"])
    assert code == 2
    assert out == ""
    assert "above the limit of 1" in err


# A rank-3 torus pair whose certificate reads a lower relation only to a
# depth: the whole build of that relation passes four terms on the way, the
# depth-limited build does not.  So with the unreduced-term limit at 4 the
# bound is answered as without a limit, while printing the relations, which
# builds them whole, is refused.
_DEPTH_DOC = {
    "group": {"kind": "torus", "rank": 3},
    "module": {"entries": [{"char": list(c), "mult": m} for c, m in [
        ((1, -2, -2), 3), ((-2, -2, 0), 1), ((1, -1, -2), 2), ((0, -2, 0), 2), ((-1, -1, 0), 3),
    ]]},
    "target": {"entries": [{"char": list(c), "mult": m} for c, m in [((1, -1, 2), 1), ((2, -2, 0), 3), ((-2, -2, 1), 1)]]},
}


def test_torus_interior_bound_reads_a_lower_relation_above_the_term_limit_only_to_its_depth(monkeypatch):
    argv = ["bound", "--theorem", "torus-interior", "--machine", "--inline", json.dumps(_DEPTH_DOC)]
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == 0
    expected = out.getvalue()
    monkeypatch.setattr(reps, "MAX_EULER_TERMS", 4)
    out, err = io.StringIO(), io.StringIO()
    assert (run(argv, out, err), out.getvalue(), err.getvalue()) == (0, expected, "")
    out, err = io.StringIO(), io.StringIO()
    assert run(["euler-check", "--inline", json.dumps(_DEPTH_DOC)], out, err) == 2
    assert "above the limit of 4" in err.getvalue()


def _wide_block_doc(mult):
    """A rank-3 torus pair whose first flag block has dimension `mult`: the
    rational flag puts (1, 0, 0) alone in block 1, so d_1 = mult."""
    module = {(1, 0, 0): mult, (-1, -1, 0): 1, (1, 2, -1): 2, (-1, 2, -2): 1, (2, -2, 1): 1}
    target = {(-2, 0, 2): 2, (-1, 2, 0): 1}
    return {
        "group": {"kind": "torus", "rank": 3},
        **{key: {"entries": [{"char": list(c), "mult": m} for c, m in table.items()]}
           for key, table in (("module", module), ("target", target))},
    }


def _torus_interior(doc):
    out, err = io.StringIO(), io.StringIO()
    code = run(["bound", "--theorem", "torus-interior", "--machine", "--inline", json.dumps(doc)], out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("mult", [10**6, MAX_EXPONENT])
def test_a_block_up_to_the_exponent_limit_is_answered(mult):
    code, out, err = _torus_interior(_wide_block_doc(mult))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["bound"] == 2 * mult + 4
    assert doc["witness"]["certificate"] == "8*T1^2*T3+-16*T1*T3^2+8*T3^3"


@pytest.mark.parametrize("mult", [MAX_EXPONENT + 1, 2**32 + 7, 10**20])
def test_a_block_above_the_exponent_limit_exit_two(mult):
    # a lead degree above 2^31 - 1 would borrow from the next variable's field
    # of the packed reach test, and terms reaching d_2 would go unreduced
    code, out, err = _torus_interior(_wide_block_doc(mult))
    assert (code, out, err) == (2, "", f"error: lead degree {mult} is above the limit of {MAX_EXPONENT}\n")


def test_a_deferred_lead_degree_above_the_exponent_limit_is_refused():
    with pytest.raises(ResourceLimitError, match=f"lead degree {MAX_EXPONENT + 1} is above"):
        TriangularSystem._deferred(F2, [MAX_EXPONENT + 1, 1], pytest.fail)
