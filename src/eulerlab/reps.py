"""Representations of (Z/2)^l and rank-l tori: character tables, flags, subgroups.

A representation is a finite table mapping characters (0/1 tuples) or weights
(integer tuples) to positive multiplicities.  Flags are carried as adapted
dual bases T_1..T_l; a character belongs to block i when i is the least index
with the character inside span(T_1..T_i).
"""

from functools import reduce as fold
from operator import mul, or_

from . import linalg
from .errors import MAX_GROUP_RANK, HypothesisError, InputError, ResourceLimitError, require_count, require_int
from .polyring import (
    F2, Q, Poly, TriangularSystem, _check_exponents, _guard, _prefix_mult, _shifts, _times, power, reduce
)

# Largest term count of an unreduced euler class or of any partial product
# on the way to it; reduced classes are bounded by the quotient instead.  A
# presentation's relation is an unreduced class, checked when it is built,
# the first time something reads it (`cohomology.presentation`).
MAX_EULER_TERMS = 100_000
# Most decimal digits of a multiplicity.  A table has far fewer than 10^200
# entries, so every dim and gap formed from tables, a doubled torus bound and
# every table of `sympow` (which builds its result as a table) stay below the
# interpreter's 4300-digit int/str limit and print.  `bounds.bound_stiefel`
# holds its n to the same cap.
MAX_MULTIPLICITY_DIGITS = 4000
MULTIPLICITY_CAP = 10**MAX_MULTIPLICITY_DIGITS


class _RepBase:
    """Shared table mechanics for both group kinds.

    Each kind names its document `kind`, its `flag_type`, the `noun` of its
    tables in messages and the `letter` of the group in U^E or U^T, and
    checks a label with `_validate_char(char, rank)`.
    """

    def __init__(self, rank, multiplicities=None):
        rank = require_count(rank, "rank", MAX_GROUP_RANK)
        table = {}
        items = multiplicities.items() if isinstance(multiplicities, dict) else (multiplicities or ())
        for char, m in items:
            char = self._validate_char(char, rank)
            if type(m) is not int:
                m = require_int(m, f"multiplicity for {char}")
            if m < 1:
                raise InputError(f"multiplicity for {char} must be positive, got {m}")
            if m >= MULTIPLICITY_CAP:
                raise ResourceLimitError(f"multiplicity for {char} has more than {MAX_MULTIPLICITY_DIGITS} digits")
            if char in table:
                raise InputError(f"duplicate character {char}")
            table[char] = m
        self.rank = rank
        self._table = table

    @classmethod
    def _trusted(cls, rank, table):
        """A table from a dict whose labels and multiplicities were validated
        already, such as a part of a validated table; the dict is kept."""
        rep = object.__new__(cls)
        rep.rank = rank
        rep._table = table
        return rep

    @property
    def dim(self):
        return sum(self._table.values())

    @property
    def fixed_dim(self):
        return self._table.get((0,) * self.rank, 0)

    def multiplicities(self):
        return dict(self._table)

    def items(self):
        return list(self._table.items())

    def support(self):
        return list(self._table)

    def nonzero_support(self):
        zero = (0,) * self.rank
        return [c for c in self._table if c != zero]

    def multiplicity(self, char):
        return self._table.get(tuple(char), 0)

    def direct_sum(self, other):
        require_tables(type(self), self, other)
        merged = dict(self._table)
        for c, m in other._table.items():
            merged[c] = merged.get(c, 0) + m
        return type(self)(self.rank, merged)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.rank == self.rank
            and other._table == self._table
        )

    def __hash__(self):
        return hash((type(self).__name__, self.rank, frozenset(self._table.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self.rank}, {self._table!r})"


def _binary_char(char, rank):
    if type(char) is tuple and len(char) == rank and all(type(x) is int and 0 <= x <= 1 for x in char):
        return char
    char = tuple(require_int(x, "character entry") for x in char)
    if len(char) != rank:
        raise InputError(f"character {char} does not have length {rank}")
    if any(x not in (0, 1) for x in char):
        raise InputError(f"character {char} must have 0/1 entries")
    return char


class _Flag:
    """Complete flag of the dual space over `field`, carried as an adapted
    dual basis.  Subclasses set the field and validate covectors; the
    validated basis B goes to `linalg._rref` once, on [B | I], which both
    checks that B is invertible and leaves B^-1 in the right half, kept
    by columns."""

    def __init__(self, rank, dual_basis):
        rank = require_count(rank, "rank", MAX_GROUP_RANK, positive=True)
        basis = tuple(self._covector(v, rank) for v in dual_basis)
        if len(basis) != rank:
            raise InputError(f"need {rank} covectors, got {len(basis)}")
        augmented = [b + e for b, e in zip(basis, linalg.unit_vectors(rank))]
        reduced, pivots = linalg._rref(self.field, augmented, rank)
        if len(pivots) != rank:
            raise InputError("dual basis covectors are linearly dependent")
        self.rank = rank
        self.dual_basis = basis
        # row k of B^-1 holds the flag coordinates of the k-th unit vector
        self._columns = tuple(zip(*(row[rank:] for row in reduced)))
        self._known = {}  # label -> coordinates, filled by _coordinates
        self._blocks = {}  # label -> block, filled by _block

    @classmethod
    def standard(cls, rank):
        return cls(rank, linalg.unit_vectors(rank))

    def _coordinates(self, char):
        """The coefficients c with sum_i c_i * T_i == char, for a label of
        length `rank` whose entries are field elements, such as a table's
        label.  Each label is computed once per flag: c_i is the
        field-normalised dot product of char with column i of the basis
        inverse, which the constructor's elimination left in `_columns`."""
        coords = self._known.get(char)
        if coords is None:
            norm = self.field.norm
            coords = self._known[char] = tuple(norm(sum(map(mul, char, column))) for column in self._columns)
        return coords

    def _block(self, char):
        """The flag block of a nontrivial label, counted from 0: the index of
        its last nonzero flag coordinate, computed once per label."""
        block = self._blocks.get(char)
        if block is None:
            block = self._blocks[char] = max(i for i, c in enumerate(self._coordinates(char)) if c)
        return block

    def __eq__(self, other):
        return type(other) is type(self) and other.dual_basis == self.dual_basis

    def __hash__(self):
        return hash(self.dual_basis)

    def __repr__(self):
        return f"{type(self).__name__}({self.rank}, {list(self.dual_basis)!r})"


class FlagE(_Flag):
    """Complete flag of (F2^rank)^*, carried as an adapted dual basis."""

    field = F2
    _covector = staticmethod(_binary_char)


class RationalFlag(_Flag):
    """Complete flag of Q^rank; covectors normalized to primitive integer form."""

    field = Q

    @staticmethod
    def _covector(v, rank):
        v = tuple(require_int(x, "covector entry") for x in v)
        if len(v) != rank:
            raise InputError(f"covector {v} does not have length {rank}")
        return linalg.primitive(v)


class RepE(_RepBase):
    """Real representation of (Z/2)^rank as a character table."""

    kind = "elem_abelian_2"
    flag_type = FlagE
    noun = "representations of (Z/2)^l"
    letter = "E"
    _validate_char = staticmethod(_binary_char)


class RepT(_RepBase):
    """Complex representation of a rank-l torus; `dim` is the complex dimension."""

    kind = "torus"
    flag_type = RationalFlag
    noun = "torus representations"
    letter = "T"

    @staticmethod
    def _validate_char(char, rank):
        char = tuple(require_int(x, "weight entry") for x in char)
        if len(char) != rank:
            raise InputError(f"weight {char} does not have length {rank}")
        return char


def require_tables(cls, *tables):
    """InputError unless every table is a `cls` and all have one rank."""
    if not all(isinstance(t, cls) for t in tables):
        raise InputError(f"expected {cls.noun}")
    ranks = dict.fromkeys(t.rank for t in tables)
    if len(ranks) > 1:
        raise InputError("rank mismatch: " + " vs ".join(map(str, ranks)))


def require_no_fixed_part(name, rep):
    """HypothesisError unless the table `name` has no trivial summand."""
    if rep.fixed_dim:
        fixed = f"{name}^{rep.letter}"
        raise HypothesisError(f"{fixed} = 0 is required (dim {fixed} = {rep.fixed_dim})")


class Subgroup:
    """Subgroup F <= (Z/2)^rank, stored as a canonical RREF basis."""

    def __init__(self, rank, basis=()):
        rank = require_count(rank, "rank", MAX_GROUP_RANK, positive=True)
        rows = [_binary_char(v, rank) for v in basis]
        self.rank = rank
        self.basis = linalg._rref_canonical2(rows, rank)

    @property
    def dim(self):
        return len(self.basis)

    def char_vanishes(self, char):
        """Whether the character is identically zero on this subgroup."""
        return all(linalg.dot2(char, f) == 0 for f in self.basis)

    def annihilator_basis(self):
        """Deterministic basis of the characters vanishing on the subgroup."""
        return linalg._nullspace2(self.basis, self.rank)

    def __eq__(self, other):
        return isinstance(other, Subgroup) and other.rank == self.rank and other.basis == self.basis

    def __hash__(self):
        return hash((self.rank, self.basis))

    def __repr__(self):
        return f"Subgroup({self.rank}, {list(self.basis)!r})"


# ---------------------------------------------------------------------------
# Flag decomposition and Euler classes
# ---------------------------------------------------------------------------

class FlagDecomposition:
    """Blocks U_1..U_l (a tuple of tables) plus the `fixed` part, all over the
    original labels.  Immutable, like `Poly`: assigning an attribute raises."""

    __slots__ = ("blocks", "fixed")

    def __init__(self, blocks, fixed):
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "fixed", fixed)

    def __setattr__(self, name, value):
        raise AttributeError("FlagDecomposition is immutable")

    @property
    def dims(self):
        return tuple(b.dim for b in self.blocks)

    @property
    def fixed_dim(self):
        return self.fixed.dim


def _check_pairing(rep, flag):
    if not isinstance(flag, rep.flag_type):
        raise InputError(f"{rep.noun} need a flag over {rep.flag_type.field}")
    if rep.rank != flag.rank:
        raise InputError(f"rank mismatch: representation {rep.rank}, flag {flag.rank}")


def decompose(rep, flag):
    """Partition the table into flag blocks; the trivial label is the fixed part.

    A label belongs to block i when i is the last nonzero flag coordinate.
    """
    _check_pairing(rep, flag)
    zero = (0,) * rep.rank
    blocks = [{} for _ in range(rep.rank)]
    fixed = {}
    for char, m in rep.items():
        if char == zero:
            fixed[char] = m
        else:
            blocks[flag._block(char)][char] = m
    cls = type(rep)
    return FlagDecomposition(
        blocks=tuple(cls._trusted(rep.rank, b) for b in blocks),
        fixed=cls._trusted(rep.rank, fixed),
    )


def fixed_subrep(rep, subgroup):
    """Characters vanishing on the subgroup, re-expressed for the quotient group.

    The quotient coordinates are those in the deterministic annihilator
    basis, so identical inputs always yield identical tables.  That basis has
    one vector per free column of the subgroup's RREF basis, with a 1 in its
    own free column and 0 in the others, so the coordinates of a vanishing
    character are its entries at the free columns, read off without a solve.
    """
    require_tables(RepE, rep)
    if rep.rank != subgroup.rank:
        raise InputError(f"rank mismatch: representation {rep.rank}, subgroup {subgroup.rank}")
    pivots = {row.index(1) for row in subgroup.basis}
    free = [c for c in range(rep.rank) if c not in pivots]
    out = {}
    for char, m in rep.items():
        if subgroup.char_vanishes(char):
            coords = tuple(char[c] for c in free)
            out[coords] = out.get(coords, 0) + m
    return RepE._trusted(len(free), out)


def euler_poly(rep, flag, system=None):
    """Product of the table's labels, written as linear forms in flag coordinates.

    Each label's power is taken by repeated squaring and then multiplied in,
    lowest flag block first (ties in table order): a product of labels in
    T_1..T_j stays in T_1..T_j, where a normal form is small, so the order
    changes the cost but never the result.
    Without a system the product is built whole as `Poly` values and `*`,
    and any product on the way with more than MAX_EULER_TERMS terms raises
    ResourceLimitError.  With a `TriangularSystem` (of the flag's field and
    rank, else an InputError) the running product is a dict of packed terms
    multiplied by `polyring`'s own kernel.  Each product has its exponents
    checked and its coefficients cleaned, and then loses every term that
    the system's drop rule marks as lying in the ideal (`system.drop`, read
    as `polyring._reduce_level` reads it; no key has a guard bit after the
    check): the ideal absorbs every multiple of such a term and the normal
    form is linear, so dropping it changes nothing, and no term of the
    ideal is multiplied again or handed to `reduce`.  What is left goes to
    `reduce` as soon as one of its terms reaches a lead degree d_j in T_j
    (the system's `reach_lift`, as in `polyring._normal_form`); a product
    with no such term is a normal form already.  So the result is the
    normal form of the class and no product on the way is larger than two
    normal forms multiplied.  The empty table gives 1; a trivial label with
    positive multiplicity makes the whole product vanish and is rejected.
    """
    _check_pairing(rep, flag)
    if rep.fixed_dim:
        raise HypothesisError(
            "euler class vanishes identically: "
            f"trivial label has multiplicity {rep.fixed_dim}"
        )
    if system is None:
        return _euler_product(rep, flag, _check_term_count)
    field, nvars = flag.field, rep.rank
    if not isinstance(system, TriangularSystem):
        raise InputError("euler_poly takes a TriangularSystem or None as its system")
    if system.field != field or system.nvars != nvars:
        raise InputError("flag and system have mismatched field or variable count")
    reach, guard, clean = system.reach_lift, _guard(nvars), field.clean
    mult, (lift, bits) = _prefix_mult(nvars), system.drop

    def step(raw):
        _check_exponents(raw, nvars)
        terms = {m: c for m, c in clean(raw).items() if not (m * mult + lift) & bits}
        if fold(or_, map(reach.__add__, terms), 0) & guard:
            return reduce(Poly._trusted(field, nvars, terms), system)._terms
        return terms

    result = {0: 1}
    for char, m in _factors(rep, flag):
        form = {1 << s: c for s, c in zip(_shifts(nvars), flag._coordinates(char)) if c}
        result = step(_times(result, power(form, m, step, _times)))
    return Poly._trusted(field, nvars, result)


def _factors(rep, flag):
    """The table's (label, multiplicity) pairs, lowest flag block first."""
    return sorted(rep.items(), key=lambda item: flag._block(item[0]))


def _euler_product(rep, flag, step):
    """The unreduced product of the table's labels, every product on the way
    passed through `step`; the table is checked against the flag already."""
    result = Poly.one(flag.field, rep.rank)
    for char, m in _factors(rep, flag):
        form = Poly._linear(flag.field, flag._coordinates(char))
        result = step(result * power(form, m, step))
    return result


def _check_term_count(p):
    if p.term_count() > MAX_EULER_TERMS:
        raise ResourceLimitError(
            f"an unreduced euler class reached {p.term_count()} terms, "
            f"above the limit of {MAX_EULER_TERMS}"
        )
    return p


def line_blocks(rep):
    """Group a torus table by rational lines (primitive, sign-normalized reps);
    the trivial weight lies on no line, so it is left out (`rep.fixed_dim`)."""
    require_tables(RepT, rep)
    zero = (0,) * rep.rank
    lines = {}
    for w, m in rep.items():
        if w == zero:
            continue
        lam = linalg.primitive(w)
        lines.setdefault(lam, {})[w] = m
    return {lam: RepT._trusted(rep.rank, tbl) for lam, tbl in sorted(lines.items())}


def spanning_flag_from_support(rep):
    """A flag meeting every block of `rep`: greedy lex-least independent labels.

    Works whenever the nonzero labels span the dual space; otherwise the
    spanning hypothesis fails.
    """
    require_tables(RepE, rep)
    chosen = []
    for char in sorted(rep.nonzero_support()):
        # chosen is independent: char is outside its span iff the rank grows
        if linalg._rank(F2, chosen + [char], rep.rank) > len(chosen):
            chosen.append(char)
    if len(chosen) != rep.rank:
        raise HypothesisError(
            "support characters do not span the dual space "
            f"(span has dimension {len(chosen)} < {rep.rank})"
        )
    return FlagE(rep.rank, chosen)


# ---------------------------------------------------------------------------
# Input documents (JSON)
# ---------------------------------------------------------------------------

# The table class of each document group kind.
_TABLE_TYPES = {cls.kind: cls for cls in (RepE, RepT)}


def _table_type(kind):
    if not isinstance(kind, str) or kind not in _TABLE_TYPES:
        raise InputError(f"group kind must be one of {tuple(_TABLE_TYPES)}, got {kind!r}")
    return _TABLE_TYPES[kind]


def _require_keys(doc, allowed, where):
    if not isinstance(doc, dict):
        raise InputError(f"{where} must be a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise InputError(f"unknown fields {sorted(unknown)} in {where}")


def _vector_from_doc(value, what):
    """A JSON list as a tuple; its entries are checked by the constructors."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {value!r}")
    return tuple(value)


def group_from_doc(doc):
    """(table class, rank) of a `{"kind": ..., "rank": ...}` document."""
    _require_keys(doc, {"kind", "rank"}, "group")
    try:
        kind, rank = doc["kind"], doc["rank"]
    except KeyError as exc:
        raise InputError(f"bad group document: {exc}") from exc
    return _table_type(kind), require_count(rank, "group rank", MAX_GROUP_RANK, positive=True)


def rep_from_doc(doc, key="module"):
    """Build a representation from `{"group": ..., key: {"entries": [...]}}`."""
    if "group" not in doc:
        raise InputError("document is missing the group field")
    cls, rank = group_from_doc(doc["group"])
    if key not in doc:
        raise InputError(f"document is missing the {key} field")
    sub = doc[key]
    _require_keys(sub, {"entries"}, key)
    entries = sub.get("entries")
    if not isinstance(entries, list):
        raise InputError(f"{key}.entries must be a list")
    pairs = []
    for entry in entries:
        _require_keys(entry, {"char", "mult"}, f"{key} entry")
        if "char" not in entry or "mult" not in entry:
            raise InputError(f"each {key} entry needs char and mult")
        pairs.append((_vector_from_doc(entry["char"], f"{key} entry char"), entry["mult"]))
    return cls(rank, pairs)


def rep_entries_doc(rep):
    return [{"char": list(c), "mult": m} for c, m in rep.items()]


def flag_from_doc(doc, kind, rank):
    _require_keys(doc, {"dual_basis"}, "flag")
    if "dual_basis" not in doc:
        raise InputError("flag document needs dual_basis")
    basis = doc["dual_basis"]
    if not isinstance(basis, list):
        raise InputError(f"flag dual_basis must be a list, got {basis!r}")
    basis = [_vector_from_doc(v, "flag covector") for v in basis]
    return _table_type(kind).flag_type(rank, basis)


def flag_to_doc(flag):
    return {"dual_basis": [list(v) for v in flag.dual_basis]}
