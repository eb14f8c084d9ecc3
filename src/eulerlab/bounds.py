"""Certified lower bounds on zero-set dimensions of equivariant maps.

Each calculator pairs a hypothesis checklist with a bound formula; a bound is
reported only when every checklist item passes.  Its witness depends on the
theorem: free-zero-set ships a subgroup, a flag, block dims, relations and a
nonvanishing certificate; torus-interior a flag, block dims and a certificate;
stiefel-* a flag and Q's block dims (stiefel-real also its two bound values)
but no certificate; torus-annulus `{}`, as its boundary condition is assumed.
"""

from __future__ import annotations

from .cohomology import euler_nonvanishing
from .errors import HypothesisError, InputError, require_int
from .flagsearch import find_rational_flag, reduced_flag_search
from .report import ASSUMED, FAIL, PASS, Report, checklist
from .reps import RepE, RepT, decompose, flag_to_doc, require_tables


def _report(theorem, checks, bound=None, witness=None, notes=()):
    """The bound's report from its checklist of (description, status, evidence)
    items.  A failed item blanks the bound and the witness and leaves the one
    "not applicable" note."""
    failure = checklist(checks)
    if failure:
        bound, witness, notes = None, None, ["not applicable: a hypothesis failed"]
    witness = witness or {}
    return Report([
        ("theorem", "theorem", theorem),
        ("hypotheses", None, [{"description": d, "status": s, "evidence": e} for d, s, e in checks]),
        *((None, None, f"  [{s}] {d}" + (f"  ({e})" if e else "")) for d, s, e in checks),
        ("bound", None, bound),
        (None, "bound", "not applicable" if bound is None else bound),
        ("witness", None, witness),
        *((None, f"witness.{key}", value) for key, value in witness.items()),
        ("notes", None, list(notes)),
        *((None, "note", note) for note in notes),
    ], failure)


def _check(checks, description, ok, evidence=""):
    """Record one checklist item; returns whether it passed."""
    checks.append((description, PASS if ok else FAIL, evidence))
    return ok


def _certify(checks, U, V, flag, flag_item, survival_item):
    """Check that the flag is admissible for (U, V) and that e(V) survives.

    Returns (U block dims, V block dims, certificate), or None after recording
    the failed item.
    """
    u_dims = decompose(U, flag).dims
    v_dims = decompose(V, flag).dims
    if not _check(
        checks,
        flag_item,
        all(a > b for a, b in zip(u_dims, v_dims)),
        f"U blocks {list(u_dims)}, V blocks {list(v_dims)}",
    ):
        return None
    try:
        nonzero, certificate = euler_nonvanishing(U, V, flag)
    except HypothesisError as exc:
        _check(checks, "euler class nonvanishing", False, str(exc))
        return None
    if not _check(checks, survival_item, nonzero, f"normal form {certificate.text()}"):
        return None
    return u_dims, v_dims, certificate


def bound_free_zero_set(U, V):
    """Zero-set bound dim U - dim V for maps U -> V of (Z/2)^l modules.

    Pipeline: maximal fixed subgroup, restriction to its fixed space, flag
    search, Euler-class nonvanishing.  The certified zero set sits inside the
    fixed space of the subgroup and carries a free action of the quotient.
    """
    require_tables(RepE, U, V)
    theorem, checks = "free-zero-set", []

    if not _check(checks, "V^E = 0", not V.fixed_dim, f"dim V^E = {V.fixed_dim}"):
        return _report(theorem, checks)

    gap = U.dim - V.dim
    evidence = f"dim U - dim V = {U.dim} - {V.dim} = {gap}, dim U^E = {U.fixed_dim}"
    if not _check(checks, "dim U - dim V > dim U^E", gap > U.fixed_dim, evidence):
        return _report(theorem, checks)

    try:
        search = reduced_flag_search(U, V)
    except HypothesisError as exc:
        _check(checks, "subgroup/flag construction", False, str(exc))
        return _report(theorem, checks)

    F = search.subgroup
    U1, V1 = search.quotient_module, search.quotient_target
    evidence = f"dim F = {F.dim}, dim U^F - dim V^F = {U1.dim} - {V1.dim} = {U1.dim - V1.dim}"
    _check(checks, "maximal subgroup F with dim U^F - dim V^F >= dim U - dim V", True, evidence)
    flag_item = "flag with dim U_i > dim V_i for every i (over the quotient group)"
    survival_item = "euler class of V^F survives in the quotient presentation"
    certified = _certify(checks, U1, V1, search.flag, flag_item, survival_item)
    if certified is None:
        return _report(theorem, checks)
    u_dims, v_dims, certificate = certified

    quotient_rank = U.rank - F.dim
    witness = {
        "subgroup_basis": [list(r) for r in F.basis],
        "quotient_rank": quotient_rank,
        "flag": flag_to_doc(search.flag),
        "module_block_dims": list(u_dims),
        "target_block_dims": list(v_dims),
        "relations": certificate.presentation.relation_texts(),
        "certificate": certificate.text(),
    }
    note = (
        "the zero set contains a compact subspace of the fixed space of F, "
        f"free for the quotient group of rank {quotient_rank}"
    )
    return _report(theorem, checks, gap, witness, [note])


def bound_stiefel(P, Q, n, kind="real"):
    """Zero-set bound for maps from a Stiefel manifold of isometric embeddings.

    Real case: l lines P_1..P_l embedded in R^n, target Q with block dims at
    most n - i.  The real bound is reported two ways because two inconsistent
    top-degree conventions for the orbit space circulate in print; the
    dimension-consistent value l*n - l(l+1)/2 - dim Q is the certified one.
    Complex case: the analogous torus bound 2ln - l^2 - 2 dim_C Q.
    """
    if kind not in ("real", "complex"):
        raise InputError(f"kind must be real or complex, got {kind!r}")
    real = kind == "real"
    cls = RepE if real else RepT
    require_tables(cls, P, Q)
    n = require_int(n, "n")
    l = P.rank
    theorem, checks = f"stiefel-{kind}", []

    if not _check(checks, f"P^{cls.letter} = 0", not P.fixed_dim, f"fixed dimension {P.fixed_dim}"):
        return _report(theorem, checks)

    lines_desc = "labels of P form l independent lines, each of multiplicity 1"
    mults_ok = len(P.items()) == l and all(m == 1 for _, m in P.items())
    flag = None
    if mults_ok:
        try:
            flag = cls.flag_type(l, P.support())  # T_i is the i-th declared label
        except InputError:
            mults_ok = False
    evidence = f"dim P = {P.dim} = l" if mults_ok else f"entries {P.items()}"
    if not (
        _check(checks, lines_desc, mults_ok, evidence)
        and _check(checks, f"Q^{cls.letter} = 0", not Q.fixed_dim, f"fixed dimension {Q.fixed_dim}")
        and _check(checks, "n > l", n > l, f"n = {n}, l = {l}")
    ):
        return _report(theorem, checks)

    q_dims = decompose(Q, flag).dims
    if not _check(
        checks,
        "dim Q_i <= n - i for every i",
        all(q_dims[i] <= n - (i + 1) for i in range(l)),
        f"Q blocks {list(q_dims)}, caps {[n - i for i in range(1, l + 1)]}",
    ):
        return _report(theorem, checks)

    witness = {"flag": flag_to_doc(flag), "q_block_dims": list(q_dims)}
    if not real:
        note = "zero-set non-empty and carries a free torus action"
        return _report(theorem, checks, 2 * l * n - l * l - 2 * Q.dim, witness, [note])
    certified = l * n - l * (l + 1) // 2 - Q.dim
    printed = l * n - l * (l - 1) // 2 - Q.dim
    witness.update(bound_dimension_consistent=certified, bound_printed=printed)
    notes = [
        "discrepancy: two top-degree conventions give bounds "
        f"{certified} (orbit-space dimension l*n - l(l+1)/2 - dim Q, certified) "
        f"and {printed} (variant l*n - l(l-1)/2 - dim Q, recorded as bound_printed)",
        "zero-set non-empty",
    ]
    return _report(theorem, checks, certified, witness, notes)


def bound_torus(U, V, variant="interior"):
    """Torus zero-set bounds: 2(dim_C U - dim_C V), or one less on an annulus.

    The interior variant certifies a rational flag and Euler nonvanishing; the
    annulus variant only compares dimensions and records the radial boundary
    condition as an assumed, unchecked item.
    """
    if variant not in ("interior", "annulus"):
        raise InputError(f"variant must be interior or annulus, got {variant!r}")
    require_tables(RepT, U, V)
    theorem, checks = f"torus-{variant}", []

    for name, rep in (("U", U), ("V", V)):
        fixed = rep.fixed_dim
        evidence = f"dim {name}^T = {fixed}" if fixed else "fixed dimension 0"
        if not _check(checks, f"{name}^T = 0", not fixed, evidence):
            return _report(theorem, checks)

    gap = U.dim - V.dim

    if variant == "annulus":
        evidence = f"dim_C U = {U.dim}, dim_C V = {V.dim}"
        if not _check(checks, "dim_C U > dim_C V", gap > 0, evidence):
            return _report(theorem, checks)
        checks.append((
            "boundary condition assumed: the invariant scalar map is negative at the "
            "origin and positive for large norm",
            ASSUMED,
            "analytic input, not checked symbolically",
        ))
        note = "bound applies to the intersection of the zero set with the level shell"
        return _report(theorem, checks, 2 * gap - 1, None, [note])

    flag_item = "rational flag with dim U_i > dim V_i for every i"
    try:
        flag = find_rational_flag(U, V)
    except HypothesisError as exc:
        _check(checks, flag_item, False, str(exc))
        return _report(theorem, checks)
    survival_item = "euler class of V survives in the quotient presentation"
    certified = _certify(checks, U, V, flag, flag_item, survival_item)
    if certified is None:
        return _report(theorem, checks)
    u_dims, v_dims, certificate = certified

    witness = {
        "flag": flag_to_doc(flag),
        "module_block_dims": list(u_dims),
        "target_block_dims": list(v_dims),
        "certificate": certificate.text(),
    }
    note = "the zero set contains a compact subspace on which the torus acts with finite isotropy"
    return _report(theorem, checks, 2 * gap, witness, [note])
