"""Certified lower bounds on zero-set dimensions of equivariant maps.

Each calculator runs down a hypothesis checklist and then applies its bound
formula.  The first item that fails ends the calculation, so a report without
a bound has exactly one failed item, its last.  The witness depends on the
theorem: free-zero-set ships a subgroup, a flag, block dims, relations and a
nonvanishing certificate; torus-interior a flag, block dims and a certificate;
stiefel-* a flag and Q's block dims (stiefel-real also its two bound values)
but no certificate; torus-annulus `{}`, as its boundary condition is assumed.
"""

from .cohomology import euler_nonvanishing
from .errors import HypothesisError, InputError, ResourceLimitError, require_int
from .flagsearch import find_rational_flag, reduced_flag_search
from .report import ASSUMED, FAIL, PASS, Report, checklist
from .reps import MAX_MULTIPLICITY_DIGITS, MULTIPLICITY_CAP, RepE, RepT, decompose, flag_to_doc, require_tables


class _Refused(Exception):
    """A checklist item failed; its calculator reports "not applicable"."""


def _report(theorem, checks, bound=None, witness=None, notes=("not applicable: a hypothesis failed",)):
    """The bound's report from its checklist of (description, status, evidence)
    items; without a bound, as after the failed last item of `checks`."""
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
    ], checklist(checks))


def _check(checks, description, ok, evidence=""):
    """Record one checklist item; a failed one ends the calculation."""
    checks.append((description, PASS if ok else FAIL, evidence))
    if not ok:
        raise _Refused


def _attempt(checks, description, call, *args):
    """call(*args), with a HypothesisError it raises recorded as the failed
    item `description`, its message the evidence."""
    try:
        return call(*args)
    except HypothesisError as exc:
        _check(checks, description, False, str(exc))


def _certify(checks, U, V, flag, flag_item, survival_item):
    """Check that the flag is admissible for (U, V) and that e(V) survives.

    Returns (U block dims, V block dims, certificate, its text).
    """
    u_dims = decompose(U, flag).dims
    v_dims = decompose(V, flag).dims
    evidence = f"U blocks {list(u_dims)}, V blocks {list(v_dims)}"
    _check(checks, flag_item, all(a > b for a, b in zip(u_dims, v_dims)), evidence)
    nonzero, certificate = _attempt(checks, "euler class nonvanishing", euler_nonvanishing, U, V, flag)
    text = certificate.text()
    _check(checks, survival_item, nonzero, f"normal form {text}")
    return u_dims, v_dims, certificate, text


def bound_free_zero_set(U, V):
    """Zero-set bound dim U - dim V for maps U -> V of (Z/2)^l modules.

    Pipeline: maximal fixed subgroup F, restriction to its fixed space U^F,
    flag search, Euler-class nonvanishing.

    Domain: U, or the ball D(U).  Every equivariant f: U -> V restricts to an
    E/F-map U^F -> V^F, and the bound is read on the zeros of f in U^F that
    are free for E/F.  It is not a bound on the zeros on which E acts freely,
    which can be none: for U = 3a + b, V = 2b (a = (1,0), b = (0,1)), the map
    f(x, y) = (y(1 + |x|^2), 0), x in 3a and y in b, is equivariant with zero
    set exactly U^F = {y = 0}, while the bound is 2 with dim F = 1.  On the
    sphere S(U), the domain of the source paper's theorem, the bound is one
    too large: for U = 3(1,0) + (0,1) + (1,1), V = (1,0) (bound 4, F trivial)
    a numerical probe of random equivariant cubic maps found free zeros of
    local dimension 4 in U and 3 on S(U).
    """
    require_tables(RepE, U, V)
    theorem, checks = "free-zero-set", []
    try:
        _check(checks, "V^E = 0", not V.fixed_dim, f"dim V^E = {V.fixed_dim}")
        gap = U.dim - V.dim
        evidence = f"dim U - dim V = {U.dim} - {V.dim} = {gap}, dim U^E = {U.fixed_dim}"
        _check(checks, "dim U - dim V > dim U^E", gap > U.fixed_dim, evidence)
        search = _attempt(checks, "subgroup/flag construction", reduced_flag_search, U, V)
        F = search.subgroup
        U1, V1 = search.quotient_module, search.quotient_target
        evidence = f"dim F = {F.dim}, dim U^F - dim V^F = {U1.dim} - {V1.dim} = {U1.dim - V1.dim}"
        _check(checks, "maximal subgroup F with dim U^F - dim V^F >= dim U - dim V", True, evidence)
        flag_item = "flag with dim U_i > dim V_i for every i (over the quotient group)"
        survival_item = "euler class of V^F survives in the quotient presentation"
        u_dims, v_dims, certificate, text = _certify(checks, U1, V1, search.flag, flag_item, survival_item)
    except _Refused:
        return _report(theorem, checks)

    quotient_rank = U.rank - F.dim
    witness = {
        "subgroup_basis": [list(r) for r in F.basis],
        "quotient_rank": quotient_rank,
        "flag": flag_to_doc(search.flag),
        "module_block_dims": list(u_dims),
        "target_block_dims": list(v_dims),
        "relations": certificate.presentation.relation_texts(),
        "certificate": text,
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

    Domain: the Stiefel manifold itself, V_l(R^n) of dimension
    ln - l(l+1)/2 or V_l(C^n) of real dimension 2ln - l^2, and the set is the
    whole zero set: the group acts freely on the manifold, so every zero is
    free.  Each certified value is that dimension minus the real dimension
    of Q.
    """
    if kind not in ("real", "complex"):
        raise InputError(f"kind must be real or complex, got {kind!r}")
    real = kind == "real"
    cls = RepE if real else RepT
    require_tables(cls, P, Q)
    n = require_int(n, "n")
    if n >= MULTIPLICITY_CAP:  # else the bound, about 2*l*n, may pass the int/str digit limit
        raise ResourceLimitError(f"n has more than {MAX_MULTIPLICITY_DIGITS} digits")
    l = P.rank
    theorem, checks = f"stiefel-{kind}", []
    try:
        _check(checks, f"P^{cls.letter} = 0", not P.fixed_dim, f"fixed dimension {P.fixed_dim}")
        try:  # dim P = l with l labels: each of multiplicity 1; T_i is the i-th declared label
            flag = cls.flag_type(l, P.support()) if P.dim == l else None
        except InputError:
            flag = None
        evidence = f"dim P = {P.dim} = l" if flag else f"entries {P.items()}"
        _check(checks, "labels of P form l independent lines, each of multiplicity 1", flag is not None, evidence)
        _check(checks, f"Q^{cls.letter} = 0", not Q.fixed_dim, f"fixed dimension {Q.fixed_dim}")
        _check(checks, "n > l", n > l, f"n = {n}, l = {l}")
        q_dims, caps = decompose(Q, flag).dims, [n - i for i in range(1, l + 1)]
        evidence = f"Q blocks {list(q_dims)}, caps {caps}"
        _check(checks, "dim Q_i <= n - i for every i", all(q <= c for q, c in zip(q_dims, caps)), evidence)
    except _Refused:
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

    Domain: the interior bound is read on U, or the ball D(U), for the zeros
    on which the torus acts with finite isotropy.  That isotropy need not be
    trivial, so the transversality argument that makes a bound for a free
    action sharp does not apply, and no sharpness is claimed; the one
    explicit map, `torusmaps.circle_example` (dim_C U = dim_C V), vanishes
    only at the origin.  The annulus bound is read on the level shell where
    the assumed invariant scalar map vanishes: the shell separates the origin
    from infinity, as S(U) does, and the bound is one less than on U.
    """
    if variant not in ("interior", "annulus"):
        raise InputError(f"variant must be interior or annulus, got {variant!r}")
    require_tables(RepT, U, V)
    theorem, checks = f"torus-{variant}", []
    try:
        for name, rep in (("U", U), ("V", V)):
            fixed = rep.fixed_dim
            _check(checks, f"{name}^T = 0", not fixed, f"dim {name}^T = {fixed}" if fixed else "fixed dimension 0")
        gap = U.dim - V.dim
        if variant == "annulus":
            _check(checks, "dim_C U > dim_C V", gap > 0, f"dim_C U = {U.dim}, dim_C V = {V.dim}")
            checks.append((
                "boundary condition assumed: the invariant scalar map is negative at the "
                "origin and positive for large norm",
                ASSUMED,
                "analytic input, not checked symbolically",
            ))
            note = "bound applies to the intersection of the zero set with the level shell"
            return _report(theorem, checks, 2 * gap - 1, None, [note])
        flag_item = "rational flag with dim U_i > dim V_i for every i"
        flag = _attempt(checks, flag_item, find_rational_flag, U, V)
        survival_item = "euler class of V survives in the quotient presentation"
        u_dims, v_dims, _, text = _certify(checks, U, V, flag, flag_item, survival_item)
    except _Refused:
        return _report(theorem, checks)

    witness = {
        "flag": flag_to_doc(flag),
        "module_block_dims": list(u_dims),
        "target_block_dims": list(v_dims),
        "certificate": text,
    }
    note = "the zero set contains a compact subspace on which the torus acts with finite isotropy"
    return _report(theorem, checks, 2 * gap, witness, [note])
