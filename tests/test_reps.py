"""Tests for representation tables, flags, subgroups, and Euler polynomials."""

import itertools
import random
import re

import pytest

from eulerlab import bounds, cohomology, flagsearch, linalg, reps, sympow, torusmaps
from eulerlab.errors import HypothesisError, InputError, ResourceLimitError
from eulerlab.polyring import F2, Q, Poly, parse_poly
from eulerlab.reps import (
    FlagE,
    RationalFlag,
    RepE,
    RepT,
    Subgroup,
    decompose,
    euler_poly,
    fixed_subrep,
    flag_from_doc,
    flag_to_doc,
    rep_entries_doc,
    rep_from_doc,
    spanning_flag_from_support,
)
from tests_support_random import (
    complete_flags,
    identity_map,
    reference_subspace_bases2,
    span2,
    subgroup_contains,
    vectors2,
)

A, B, AB = (1, 0), (0, 1), (1, 1)


def regular_minus_trivial(rank, copies=1):
    """(R[E]/R)^copies: every nontrivial character with multiplicity `copies`."""
    chars = [v for v in vectors2(rank) if any(v)]
    return RepE(rank, {c: copies for c in chars})


def random_rep(rng, rank, max_chars=4, max_mult=3, allow_trivial=True):
    chars = vectors2(rank)
    if not allow_trivial:
        chars = [c for c in chars if any(c)]
    table = {}
    for _ in range(rng.randint(0, max_chars)):
        c = rng.choice(chars)
        table[c] = table.get(c, 0) + rng.randint(1, max_mult)
    return RepE(rank, table)


# -- construction ---------------------------------------------------------------

def test_rep_validation():
    with pytest.raises(InputError):
        RepE(2, {(1, 0): 0})
    with pytest.raises(InputError):
        RepE(2, {(1, 0, 1): 1})
    with pytest.raises(InputError):
        RepE(2, {(2, 0): 1})
    with pytest.raises(InputError):
        RepE(2, [((1, 0), 1), ((1, 0), 2)])
    U = RepE(2, {A: 3, AB: 1})
    assert U.dim == 4 and U.fixed_dim == 0


def test_flag_validation():
    with pytest.raises(InputError, match="dual basis covectors are linearly dependent"):
        FlagE(2, [A, A])
    # the count is checked before dependence; this short basis is dependent as well
    with pytest.raises(InputError, match="need 2 covectors, got 1"):
        FlagE(2, [(0, 0)])
    with pytest.raises(InputError):
        FlagE(0, [])
    f = FlagE.standard(3)
    assert f.dual_basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_rational_flag_normalization():
    f = RationalFlag(2, [(-2, 0), (3, 6)])
    assert f.dual_basis == ((1, 0), (1, 2))
    with pytest.raises(InputError, match="dual basis covectors are linearly dependent"):
        RationalFlag(2, [(1, 0), (2, 0)])
    with pytest.raises(InputError, match="need 2 covectors, got 1"):
        RationalFlag(2, [(1, 0)])
    with pytest.raises(InputError, match="zero vector spans no line"):
        RationalFlag(2, [(0, 0), (0, 1)])


def _triangular_basis(rank, rng, entries):
    """An invertible basis: unit upper triangular rows, then shuffled."""
    rows = [tuple(1 if j == i else rng.choice(entries) if j > i else 0 for j in range(rank))
            for i in range(rank)]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("flag_type, entries, labels", [
    (FlagE, (0, 1), vectors2),
    (RationalFlag, (-3, -1, 0, 2, 5), lambda rank: list(itertools.product((-1, 0, 2), repeat=rank))),
], ids=["F2", "Q"])
def test_flag_runs_one_elimination(monkeypatch, rank, flag_type, entries, labels):
    calls = []
    rref = linalg._rref

    def counted(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(linalg, "_rref", counted)
    rng = random.Random(rank)
    for basis in (linalg.unit_vectors(rank), _triangular_basis(rank, rng, entries)):
        calls.clear()
        flag = flag_type(rank, basis)
        assert len(calls) == 1
        for char in labels(rank):
            flag._coordinates(char)
        assert len(calls) == 1


def test_subgroup_canonical_basis():
    F = Subgroup(2, [AB, A])
    assert F.basis == ((1, 0), (0, 1))
    assert Subgroup(3).dim == 0
    assert Subgroup(3, linalg.unit_vectors(3)).dim == 3


# -- decompose -------------------------------------------------------------------

def test_regular_rep_block_dims():
    # blocks of (R[E]/R)^m always have dimension m * 2^(i-1)
    for rank in (2, 3):
        for m in (1, 2):
            V = regular_minus_trivial(rank, m)
            for flag in complete_flags(rank):
                dims = decompose(V, flag).dims
                assert dims == tuple(m * 2 ** (i - 1) for i in range(1, rank + 1))


def test_decompose_rank_one():
    U = RepE(1, {(1,): 3})
    d = decompose(U, FlagE.standard(1))
    assert d.dims == (3,) and d.fixed_dim == 0


def test_decompose_torus_lines():
    U = RepT(2, {(1, 0): 2, (2, 0): 1, (0, 1): 1})
    flag = RationalFlag.standard(2)
    d = decompose(U, flag)
    assert d.dims == (3, 1)


def test_decompose_is_a_partition():
    rng = random.Random(11)
    for _ in range(50):
        rank = rng.randint(1, 3)
        U = random_rep(rng, rank)
        flag = rng.choice(complete_flags(rank))
        d = decompose(U, flag)
        assert sum(d.dims) + d.fixed_dim == U.dim
        seen = {}
        for block in d.blocks:
            for c, m in block.items():
                assert c not in seen
                seen[c] = m
        for c in U.nonzero_support():
            assert seen[c] == U.multiplicity(c)


def test_result_records_keep_their_fields_and_refuse_assignment():
    # FlagDecomposition, QuotientClass and ReducedFlagSearch are immutable
    # plain classes, built positionally or by keyword
    flag = FlagE.standard(2)
    d = decompose(RepE(2, {A: 3, B: 1, AB: 1, (0, 0): 2}), flag)
    assert (d.dims, d.fixed_dim) == ((3, 2), 2)
    again = reps.FlagDecomposition(blocks=d.blocks, fixed=d.fixed)
    assert (again.dims, again.fixed_dim) == ((3, 2), 2)
    U, V = RepE(2, {A: 3, B: 1, AB: 1}), RepE(2, {A: 1})
    nonzero, cls = cohomology.euler_nonvanishing(U, V, flag)
    again = cohomology.QuotientClass(presentation=cls.presentation, poly=cls.poly)
    assert nonzero and (again.is_zero(), again.text()) == (False, cls.text())
    search = flagsearch.reduced_flag_search(U, V)
    fields = ("subgroup", "quotient_module", "quotient_target", "flag")
    again = flagsearch.ReducedFlagSearch(*(getattr(search, name) for name in fields))
    assert all(getattr(again, name) is getattr(search, name) for name in fields)
    for record, name in [(d, "blocks"), (d, "fixed"), (cls, "poly"), (search, "flag"), (again, "extra")]:
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(record, name, None)


# -- fixed_subrep ----------------------------------------------------------------

def test_fixed_subrep_trivial_subgroup_is_identity():
    U = RepE(2, {A: 3, B: 1, AB: 1})
    assert fixed_subrep(U, Subgroup(2)) == U


def test_fixed_subrep_full_subgroup_keeps_fixed_part():
    U = RepE(2, {(0, 0): 2, A: 3})
    out = fixed_subrep(U, Subgroup(2, linalg.unit_vectors(2)))
    assert out.rank == 0 and out.items() == [((), 2)]


def test_fixed_subrep_kernel_example():
    U = RepE(2, {A: 3, B: 1, AB: 1})
    ker_alpha = Subgroup(2, [B])  # alpha vanishes exactly on span(beta)
    out = fixed_subrep(U, ker_alpha)
    assert out == RepE(1, {(1,): 3})


def test_fixed_subrep_composes_over_nested_subgroups():
    rng = random.Random(22)
    for rank in (2, 3):
        subgroups = [Subgroup(rank, basis) for basis in reference_subspace_bases2(rank)]
        for _ in range(10):
            U = random_rep(rng, rank)
            for F in subgroups:
                for G in subgroups:
                    if not subgroup_contains(G, F) or G.dim == F.dim:
                        continue
                    # express G/F in the quotient coordinates used by fixed_subrep
                    ann = F.annihilator_basis()
                    image = [
                        tuple(linalg.dot2(n, v) for n in ann)
                        for v in G.basis
                    ]
                    GmodF = Subgroup(rank - F.dim, [v for v in image if any(v)])
                    lhs = fixed_subrep(fixed_subrep(U, F), GmodF)
                    rhs = fixed_subrep(U, G)
                    assert lhs == rhs


def _random_subgroup(rng, rank):
    return Subgroup(rank, [tuple(rng.randint(0, 1) for _ in range(rank)) for _ in range(rng.randint(0, rank))])


def _solve2_fixed_subrep(rep, subgroup):
    """fixed_subrep as it was: one solve2 against the annihilator basis per
    vanishing character."""
    annihilator = subgroup.annihilator_basis()
    out = {}
    for char, m in rep.items():
        if subgroup.char_vanishes(char):
            coords = linalg.solve2(annihilator, char)
            out[coords] = out.get(coords, 0) + m
    return RepE(rep.rank - subgroup.dim, out)


def test_fixed_subrep_matches_solve2_loop():
    rng = random.Random(23)
    vanishing = 0
    for rank in range(1, 7):
        for _ in range(60):
            F = _random_subgroup(rng, rank)
            ann = F.annihilator_basis()
            # half of the labels vanish on F: sums of annihilator vectors
            inside = {}
            for _ in range(rng.randint(0, 4)):
                c = (0,) * rank
                for v in ann:
                    if rng.random() < 0.5:
                        c = linalg.xor(c, v)
                inside[c] = rng.randint(1, 3)
            U = random_rep(rng, rank).direct_sum(RepE(rank, inside))
            out = fixed_subrep(U, F)
            expected = _solve2_fixed_subrep(U, F)
            assert out == expected and repr(out) == repr(expected), (U, F)
            vanishing += out.dim
    assert vanishing > 500


def test_annihilator_basis_is_the_identity_at_free_columns():
    # fixed_subrep reads quotient coordinates off the free columns, which
    # holds because annihilator vector j is 1 at free column j, 0 at the others
    rng = random.Random(24)
    subgroups = [Subgroup(r, b) for r in range(1, 5) for b in reference_subspace_bases2(r)]
    subgroups += [_random_subgroup(rng, rank) for rank in (5, 6) for _ in range(50)]
    for F in subgroups:
        pivots = {row.index(1) for row in F.basis}
        free = [c for c in range(F.rank) if c not in pivots]
        ann = F.annihilator_basis()
        assert [[v[c] for c in free] for v in ann] == [[int(i == j) for j in range(len(free))] for i in range(len(free))]
        assert all(linalg.dot2(v, f) == 0 for v in ann for f in F.basis)
        assert linalg._rank(F2, ann, F.rank) == len(ann) == F.rank - F.dim


def _random_rational_flag(rng, rank):
    while True:
        rows = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rank)]
        if linalg._rank(Q, rows, rank) == rank:
            return RationalFlag(rank, rows)


def test_derived_tables_equal_validated_tables():
    # decompose, line_blocks and fixed_subrep build their tables unvalidated
    rng = random.Random(25)
    flags = {rank: complete_flags(rank) for rank in (1, 2, 3, 4)}
    derived = []
    for _ in range(150):
        rank = rng.randint(1, 4)
        U = random_rep(rng, rank, max_chars=6)
        decomp = decompose(U, rng.choice(flags[rank]))
        derived += [*decomp.blocks, decomp.fixed, fixed_subrep(U, _random_subgroup(rng, rank))]
        weights = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(0, 6))]
        T = RepT(rank, {w: rng.randint(1, 3) for w in weights})
        decomp = decompose(T, _random_rational_flag(rng, rank))
        derived += [*decomp.blocks, decomp.fixed, *reps.line_blocks(T).values()]
    for rep in derived:
        validated = type(rep)(rep.rank, rep.multiplicities())
        assert rep == validated and repr(rep) == repr(validated)
    assert sum(rep.dim for rep in derived) > 1000


# -- euler polynomials -------------------------------------------------------------

def test_euler_poly_power_of_sign_rep():
    U = RepE(1, {(1,): 4})
    assert euler_poly(U, FlagE.standard(1)) == parse_poly("T1^4", F2, 1)


def test_euler_poly_in_flag_coordinates():
    U = RepE(2, {A: 1, AB: 1})
    flag = FlagE(2, [A, B])
    assert euler_poly(U, flag) == parse_poly("T1^2+T1*T2", F2, 2)


def test_euler_poly_torus_weights():
    U = RepT(1, {(2,): 1, (3,): 1})
    assert euler_poly(U, RationalFlag.standard(1)) == parse_poly("6*T1^2", Q, 1)


def test_euler_poly_rejects_trivial_label():
    with pytest.raises(HypothesisError):
        euler_poly(RepE(1, {(0,): 1, (1,): 1}), FlagE.standard(1))


def test_euler_poly_term_limit_counts_actual_terms(monkeypatch):
    # (T1 + T2)^2 = T1^2 + T2^2 over F2: two terms, where a binomial bound would say three
    U = RepE(2, {AB: 2})
    flag = FlagE.standard(2)
    monkeypatch.setattr(reps, "MAX_EULER_TERMS", 2)
    assert euler_poly(U, flag) == parse_poly("T1^2+T2^2", F2, 2)
    monkeypatch.setattr(reps, "MAX_EULER_TERMS", 1)
    with pytest.raises(ResourceLimitError, match="reached 2 terms, above the limit of 1"):
        euler_poly(U, flag)


def test_euler_poly_term_limit_checks_partial_products(monkeypatch):
    # (T1+T2+T3+T4)^255 has 4^8 terms; squaring and multiplying reaches the
    # partial power (..)^31, with 4^5 = 1024 terms, first above the limit
    monkeypatch.setattr(reps, "MAX_EULER_TERMS", 1000)
    with pytest.raises(ResourceLimitError, match="reached 1024 terms"):
        euler_poly(RepE(4, {(1, 1, 1, 1): 2**8 - 1}), FlagE.standard(4))


def test_euler_poly_squares_high_multiplicity_labels():
    # over F2 the square of a sum is the sum of the squares, so repeated
    # squaring keeps every product on the way to (T1+..+Tr)^(2^k) at r terms
    assert euler_poly(RepE(4, {(1, 1, 1, 1): 512}), FlagE.standard(4)) == parse_poly(
        "T1^512+T2^512+T3^512+T4^512", F2, 4
    )
    assert euler_poly(RepE(5, {(1, 1, 1, 1, 1): 256}), FlagE.standard(5)) == parse_poly(
        "T1^256+T2^256+T3^256+T4^256+T5^256", F2, 5
    )
    flag = FlagE.standard(4)
    U = RepE(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (1, 1, 1, 1): 512})
    system = cohomology.presentation(U, flag)
    assert euler_poly(RepE(4, {(1, 1, 1, 1): 256}), flag, system) == parse_poly("T4^256", F2, 4)


def test_euler_poly_term_limit_spares_the_reduced_path(monkeypatch):
    system = cohomology.presentation(RepE(2, {A: 5, B: 5}), FlagE.standard(2))
    monkeypatch.setattr(reps, "MAX_EULER_TERMS", 1)
    assert euler_poly(RepE(2, {AB: 4}), FlagE.standard(2), system) == parse_poly("T1^4+T2^4", F2, 2)


def test_euler_poly_of_empty_table_is_one():
    assert euler_poly(RepE(2, {}), FlagE.standard(2)) == parse_poly("1", F2, 2)


def test_euler_poly_multiplicative():
    rng = random.Random(33)
    for _ in range(30):
        rank = rng.randint(1, 3)
        U = random_rep(rng, rank, allow_trivial=False)
        V = random_rep(rng, rank, allow_trivial=False)
        flag = rng.choice(complete_flags(rank))
        assert euler_poly(U.direct_sum(V), flag) == euler_poly(U, flag) * euler_poly(V, flag)


def test_euler_poly_degree_is_dimension():
    rng = random.Random(44)
    for _ in range(30):
        rank = rng.randint(1, 3)
        U = random_rep(rng, rank, allow_trivial=False)
        if U.dim == 0:
            continue
        flag = rng.choice(complete_flags(rank))
        assert max(sum(m) for m in euler_poly(U, flag).terms()) == U.dim
    W = RepT(2, {(1, 2): 2, (0, 1): 1})
    assert max(sum(m) for m in euler_poly(W, RationalFlag.standard(2)).terms()) == W.dim


# -- flags ------------------------------------------------------------------------

def test_complete_flag_counts():
    assert len(complete_flags(1)) == 1
    assert len(complete_flags(2)) == 3
    assert len(complete_flags(3)) == 21
    assert len({f.dual_basis for f in complete_flags(3)}) == 21


def test_spanning_flag_from_support():
    U = RepE(2, {AB: 2, B: 1})
    flag = spanning_flag_from_support(U)
    assert flag.dual_basis == (B, AB)
    with pytest.raises(HypothesisError):
        spanning_flag_from_support(RepE(2, {A: 1}))


def _greedy_spanning_basis(rep):
    """Lex-least greedy choice of nonzero labels, each taken when it lies
    outside the XOR closure of those taken before; None unless they span."""
    chosen = []
    for char in sorted(c for c in rep.support() if any(c)):
        if char not in span2(chosen, rep.rank):
            chosen.append(char)
    return tuple(chosen) if len(chosen) == rep.rank else None


def test_spanning_flag_from_support_is_the_greedy_lex_least_basis():
    rng = random.Random(412)
    outcomes = set()
    for rank in range(1, 5):
        for _ in range(60):
            U = random_rep(rng, rank, max_chars=2 * rank)
            expected = _greedy_spanning_basis(U)
            outcomes.add((rank, expected is None))
            if expected is None:
                with pytest.raises(HypothesisError, match="do not span the dual space"):
                    spanning_flag_from_support(U)
            else:
                assert spanning_flag_from_support(U).dual_basis == expected
    assert len(outcomes) == 8  # both outcomes at every rank


# -- documents ---------------------------------------------------------------------

def test_rep_doc_round_trip():
    for rep in (RepE(2, {A: 3, AB: 1}), RepT(2, {(1, -2): 1, (0, 3): 2})):
        doc = {"group": {"kind": rep.kind, "rank": rep.rank}, "module": {"entries": rep_entries_doc(rep)}}
        assert rep_from_doc(doc) == rep


def test_rep_doc_validation():
    with pytest.raises(InputError):
        rep_from_doc({"group": {"kind": "elem_abelian_2", "rank": 2}})
    with pytest.raises(InputError):
        rep_from_doc(
            {
                "group": {"kind": "elem_abelian_2", "rank": 2},
                "module": {"entries": [{"char": [1, 0], "mult": 1}, {"char": [1, 0], "mult": 2}]},
            }
        )
    with pytest.raises(InputError):
        rep_from_doc(
            {
                "group": {"kind": "nope", "rank": 2},
                "module": {"entries": []},
            }
        )
    with pytest.raises(InputError):
        rep_from_doc(
            {
                "group": {"kind": "torus", "rank": 1},
                "module": {"entries": [{"char": [1], "mult": 1, "extra": 0}]},
            }
        )


_BAD_INTS = [3.7, 1.0, True, "1"]


@pytest.mark.parametrize("bad", _BAD_INTS)
@pytest.mark.parametrize("where", ["rank", "char", "mult", "dual_basis"])
def test_documents_reject_non_integers(where, bad):
    doc = {
        "group": {"kind": "torus", "rank": 2},
        "module": {"entries": [{"char": [1, 0], "mult": 1}]},
    }
    if where == "rank":
        doc["group"]["rank"] = bad
    elif where in ("char", "mult"):
        entry = doc["module"]["entries"][0]
        entry[where] = [bad, 0] if where == "char" else bad
    with pytest.raises(InputError, match="must be an integer"):
        if where == "dual_basis":
            flag_from_doc({"dual_basis": [[1, 0], [bad, 1]]}, "torus", 2)
        else:
            rep_from_doc(doc)


@pytest.mark.parametrize("make", [
    lambda: RepE(2.0, {}),
    lambda: RepE(2, {(1, 0): 3.7}),
    lambda: RepE(2, {(True, 0): 1}),
    lambda: RepT(1, {(1.2,): 1}),
    lambda: FlagE(1, [(1.0,)]),
    lambda: RationalFlag(2, [(1, 0), (0, "1")]),
    lambda: Subgroup(True, []),
])
def test_constructors_reject_non_integers(make):
    with pytest.raises(InputError, match="must be an integer"):
        make()



def _circle():
    return torusmaps.circle_example(2, 3, 1)


@pytest.mark.parametrize("call", [
    lambda: Poly.one(F2, 1.5),
    lambda: Poly.variable(F2, 2, 1.5),
    lambda: Poly.variable(F2, 2.0, 1),
    lambda: cohomology.flag_ring(3.7, 2),
    lambda: cohomology.flag_ring(3, True),
    lambda: cohomology.flag_ring(3, 2, bounds=[1.9, 3]),
    lambda: cohomology.verify_flag_ring(3, 2, samples=2.5),
    lambda: cohomology.verify_flag_ring(3, 2, samples=3, seed="x"),
    lambda: cohomology.verify_flag_ring(3, 2, samples=3, seed=1.5),
    lambda: cohomology.verify_flag_ring(3, 2, samples=3, seed=True),
    lambda: sympow.sym_multiplicities(RepE(2, {A: 1}), 2.9),
    lambda: sympow.min_embedding_k(RepE(1, {(1,): 1}), RepE(1, {(1,): 2}), 2.5, FlagE(1, [(1,)])),
    lambda: torusmaps.circle_example(True, 3, 1),
    lambda: torusmaps.verify_equivariance(_circle(), samples=10.7),
    lambda: torusmaps.verify_equivariance(_circle(), seed=1.9),
    lambda: torusmaps.embed_on_line(_circle(), (1.5, 2)),
    lambda: torusmaps.join_assemble({(1.0,): identity_map(RepT(1, {(1,): 1}))}),
])
def test_library_entry_points_reject_non_integers(call):
    with pytest.raises(InputError, match="must be an integer"):
        call()

def test_documents_reject_non_list_vectors():
    with pytest.raises(InputError, match="must be a list"):
        rep_from_doc({"group": {"kind": "torus", "rank": 1}, "module": {"entries": [{"char": 1, "mult": 1}]}})
    with pytest.raises(InputError, match="must be a list"):
        flag_from_doc({"dual_basis": [1]}, "torus", 1)


def test_flag_doc_round_trip():
    flag = FlagE(2, [AB, B])
    doc = flag_to_doc(flag)
    assert flag_from_doc(doc, "elem_abelian_2", 2) == flag
    rflag = RationalFlag(2, [(1, 1), (0, 1)])
    assert flag_from_doc(flag_to_doc(rflag), "torus", 2) == rflag


# -- one kind check for every entry that takes tables ----------------------------------

def _tables(cls, rank):
    """A nonzero module and a smaller target of the given kind and rank."""
    return cls(rank, {A[:rank]: 2, B[:rank]: 1} if rank > 1 else {(1,): 2}), cls(rank, {A[:rank]: 1})


# entry -> (the table class it takes, a call on a module U and a second table V);
# entries that take one table use V only for the rank of their second argument,
# and decompose and euler_poly take a flag of V's class
KIND_ENTRIES = {
    "bound_free_zero_set": (RepE, lambda U, V: bounds.bound_free_zero_set(U, V)),
    "bound_stiefel-real": (RepE, lambda U, V: bounds.bound_stiefel(U, V, 5, kind="real")),
    "bound_stiefel-complex": (RepT, lambda U, V: bounds.bound_stiefel(U, V, 5, kind="complex")),
    "bound_torus-interior": (RepT, lambda U, V: bounds.bound_torus(U, V)),
    "bound_torus-annulus": (RepT, lambda U, V: bounds.bound_torus(U, V, variant="annulus")),
    "find_flag": (RepE, lambda U, V: flagsearch.find_flag(U, V)),
    "find_rational_flag": (RepT, lambda U, V: flagsearch.find_rational_flag(U, V)),
    "best_fixed_subgroup": (RepE, lambda U, V: flagsearch.best_fixed_subgroup(U, V)),
    "reduced_flag_search": (RepE, lambda U, V: flagsearch.reduced_flag_search(U, V)),
    "gap_table": (RepE, lambda U, V: flagsearch.gap_table(U, V)),
    "min_embedding_k": (RepE, lambda U, V: sympow.min_embedding_k(U, V, 1, FlagE.standard(U.rank))),
    "fixed_subrep": (RepE, lambda U, V: fixed_subrep(U, Subgroup(V.rank))),
    "decompose": (RepE, lambda U, V: decompose(U, type(V).flag_type.standard(V.rank))),
    "euler_poly": (RepE, lambda U, V: euler_poly(U, type(V).flag_type.standard(V.rank))),
    "decompose-torus": (RepT, lambda U, V: decompose(U, type(V).flag_type.standard(V.rank))),
    "euler_poly-torus": (RepT, lambda U, V: euler_poly(U, type(V).flag_type.standard(V.rank))),
    "sym_multiplicities": (RepE, lambda U, V: sympow.sym_multiplicities(U, 2)),
    "spanning_flag_from_support": (RepE, lambda U, V: spanning_flag_from_support(U)),
    "line_blocks": (RepT, lambda U, V: reps.line_blocks(U)),
}
SINGLE_TABLE = {"fixed_subrep", "sym_multiplicities", "spanning_flag_from_support", "line_blocks"}
FLAG_PAIRED = {"decompose", "euler_poly", "decompose-torus", "euler_poly-torus"}


@pytest.mark.parametrize("name", sorted(KIND_ENTRIES))
def test_entries_accept_their_own_kind(name):
    cls, call = KIND_ENTRIES[name]
    call(*_tables(cls, 2))


@pytest.mark.parametrize("name", sorted(KIND_ENTRIES))
def test_wrong_kind_is_an_input_error(name):
    cls, call = KIND_ENTRIES[name]
    other = RepT if cls is RepE else RepE
    (U, V), (U_other, V_other) = _tables(cls, 2), _tables(other, 2)
    if name in FLAG_PAIRED:
        pairs, message = [(U, V_other), (U_other, V)], "need a flag over"
    else:
        pairs = [(U_other, V)] if name in SINGLE_TABLE else [(U_other, V_other), (U, V_other), (U_other, V)]
        message = f"^expected {re.escape(cls.noun)}$"
    for pair in pairs:
        with pytest.raises(InputError, match=message):
            call(*pair)


@pytest.mark.parametrize("name", sorted(set(KIND_ENTRIES) - SINGLE_TABLE | {"fixed_subrep"}))
def test_unequal_ranks_are_an_input_error(name):
    cls, call = KIND_ENTRIES[name]
    (U, _), (_, V) = _tables(cls, 2), _tables(cls, 1)
    with pytest.raises(InputError, match="rank mismatch"):
        call(U, V)
    with pytest.raises(InputError, match="rank mismatch"):
        call(V, U)


def test_direct_sum_needs_one_kind_and_rank():
    (U, V), (U1, _), (T, _) = _tables(RepE, 2), _tables(RepE, 1), _tables(RepT, 2)
    assert U.direct_sum(V) == RepE(2, {A: 3, B: 1})
    with pytest.raises(InputError, match="rank mismatch: 2 vs 1"):
        U.direct_sum(U1)
    with pytest.raises(InputError, match=re.escape("expected representations of (Z/2)^l")):
        U.direct_sum(T)
    with pytest.raises(InputError, match="expected torus representations"):
        T.direct_sum(U)


def test_group_kind_must_be_a_known_name():
    for kind in ["nope", ["torus"], None]:
        with pytest.raises(InputError, match=r"group kind must be one of \('elem_abelian_2', 'torus'\)"):
            rep_from_doc({"group": {"kind": kind, "rank": 1}, "module": {"entries": []}})
        with pytest.raises(InputError, match=r"group kind must be one of \('elem_abelian_2', 'torus'\)"):
            flag_from_doc({"dual_basis": [[1]]}, kind, 1)
    assert flag_from_doc({"dual_basis": [[2]]}, "torus", 1) == RationalFlag(1, [(1,)])
