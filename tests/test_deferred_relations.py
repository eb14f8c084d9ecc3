"""`cohomology.presentation` builds each relation e(U_j) the first time it is read.

Oracle: the eager system `TriangularSystem([euler_poly(b, flag) for b in
decompose(U, flag).blocks])`, on random pairs over F2 of rank 1-5 and over the
torus of rank 1-3, under admissible flags (dim V_j < dim U_j for every j) and
under flags that are not, among them pairs whose V reaches d_l in T_l, so that
the top level is reduced.
"""

import io
import json
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerlab import cohomology, reps
from eulerlab.cli import run
from eulerlab.cohomology import euler_nonvanishing, presentation
from eulerlab.errors import InputError, ResourceLimitError
from eulerlab.polyring import F2, MAX_EXPONENT, TriangularSystem, parse_poly, reduce
from eulerlab.reps import FlagE, RationalFlag, RepE, RepT, decompose, euler_poly

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_flag(rng, torus):
    """A random complete flag: rank 1-3 with covector entries in -2..2 for the
    torus, rank 1-5 with 0/1 entries over F2."""
    rank = rng.randint(1, 3 if torus else 5)
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


def random_pair(rng, torus, admissible):
    """(U, V, flag) with every block of U nonempty; when not admissible, the
    top block of V is as large as U's or larger half of the time."""
    flag = random_flag(rng, torus)
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


def test_deferred_presentation_matches_the_eager_system():
    kinds = Counter()

    @SETTINGS
    @given(st.booleans(), st.booleans(), st.integers(0, 2**32))
    def check(torus, admissible, seed):
        U, V, flag = random_pair(random.Random(seed), torus, admissible)
        eager = eager_presentation(U, flag)
        nonzero, certificate = euler_nonvanishing(U, V, flag)
        lazy = certificate.presentation
        expected = euler_poly(V, flag, eager)
        assert certificate.poly == expected
        assert nonzero == (not expected.is_zero())
        if admissible:
            assert nonzero
        assert [getattr(lazy, name) for name in PACKED] == [getattr(eager, name) for name in PACKED]
        assert lazy.lead_degrees == eager.lead_degrees
        assert lazy.quotient_dimension == eager.quotient_dimension
        top_read = lazy._tails[-1] is not None
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


def test_admissible_euler_nonvanishing_never_builds_the_top_relation(monkeypatch):
    built = []

    def counting(rep, flag, system=None):
        if system is None:
            built.append(rep)
        return euler_poly(rep, flag, system)

    monkeypatch.setattr(cohomology, "euler_poly", counting)
    rng = random.Random(23)
    for torus in (False, True):
        for _ in range(30):
            U, V, flag = random_pair(rng, torus, admissible=True)
            blocks = decompose(U, flag).blocks
            built.clear()
            nonzero, certificate = euler_nonvanishing(U, V, flag)
            assert nonzero
            assert blocks[-1] not in built
            assert len(built) < flag.rank
            certificate.presentation.relation_texts()
            assert built[-1] == blocks[-1] and len(built) == flag.rank


def test_a_relation_that_is_reached_is_built_once(monkeypatch):
    built = Counter()

    def counting(rep, flag, system=None):
        if system is None:
            built[rep] += 1
        return euler_poly(rep, flag, system)

    monkeypatch.setattr(cohomology, "euler_poly", counting)
    flag = FlagE.standard(2)
    U = RepE(2, {(1, 0): 2, (1, 1): 3})
    system = presentation(U, flag)
    assert not built
    # T1^2 reaches only level 1 (g_1 = T1^2), T2^3 only level 2: it rewrites
    # by g_2 = (T1 + T2)^3 to terms that the degree count drops or that stay
    t1, t2 = (parse_poly(text, F2, 2) for text in ("T1^2", "T2^3"))
    for _ in range(3):
        assert reduce(t1, system).is_zero()
        assert reduce(t2, system) == parse_poly("T1*T2^2", F2, 2)
    once = Counter(decompose(U, flag).blocks)
    assert built == once
    eager = eager_presentation(U, flag)
    assert system.relation_texts() == eager.relation_texts()
    assert system == eager and hash(system) == hash(eager) and repr(system) == repr(eager)
    assert built == once


def test_a_relation_that_contradicts_its_stated_facts_raises():
    flag = FlagE.standard(2)
    U = RepE(2, {(1, 0): 1, (1, 1): 2})
    relations = eager_presentation(U, flag).gens
    lying = TriangularSystem._deferred(flag.field, [1, 3], lambda j: relations[j - 1])
    with pytest.raises(RuntimeError, match="relation 2"):
        lying.relation_texts()


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
