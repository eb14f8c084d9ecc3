"""Certified lower bounds on zero-set dimensions of equivariant maps.

Each calculator pairs a hypothesis checklist with a bound formula.  A bound is
reported only when every checklist item passes, and every reported bound ships
a witness (subgroup, flag, nonvanishing certificate) from which the verdicts
can be recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cohomology import euler_nonvanishing
from .errors import HypothesisError, InputError, require_int
from .flagsearch import find_rational_flag, reduced_flag_search
from .reps import RepE, RepT, decompose, flag_to_doc, require_tables

PASS = "pass"
FAIL = "fail"
ASSUMED = "assumed"


@dataclass(frozen=True)
class HypothesisItem:
    description: str
    status: str
    evidence: str = ""


@dataclass
class BoundReport:
    theorem: str
    hypotheses: list
    bound: object = None
    witness: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def applicable(self):
        return self.bound is not None

    @property
    def failure(self):
        """None when a bound applies, else the hypothesis-failure line naming the failed items."""
        if self.applicable:
            return None
        failed = "; ".join(h.description for h in self.hypotheses if h.status == FAIL)
        return f"hypothesis failure: {failed}"

    def to_text(self):
        lines = [f"theorem: {self.theorem}"]
        for h in self.hypotheses:
            suffix = f"  ({h.evidence})" if h.evidence else ""
            lines.append(f"  [{h.status}] {h.description}{suffix}")
        lines.append(f"bound: {self.bound if self.bound is not None else 'not applicable'}")
        for key, value in self.witness.items():
            lines.append(f"witness.{key}: {value}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_doc(self):
        return {
            "theorem": self.theorem,
            "hypotheses": [
                {"description": h.description, "status": h.status, "evidence": h.evidence}
                for h in self.hypotheses
            ],
            "bound": self.bound,
            "witness": self.witness,
            "notes": list(self.notes),
        }


def _check(report, description, ok, evidence=""):
    """Record one checklist item; a failed item makes the report not applicable."""
    report.hypotheses.append(HypothesisItem(description, PASS if ok else FAIL, evidence))
    if not ok:
        report.bound = None
        report.notes.append("not applicable: a hypothesis failed")
    return ok


def _fail(report, description, evidence=""):
    _check(report, description, False, evidence)
    return report


def _certify(report, U, V, flag, flag_item, survival_item):
    """Check that the flag is admissible for (U, V) and that e(V) survives.

    Returns (U block dims, V block dims, certificate), or None after recording
    the failed item.
    """
    u_dims = decompose(U, flag).dims
    v_dims = decompose(V, flag).dims
    if not _check(
        report,
        flag_item,
        all(a > b for a, b in zip(u_dims, v_dims)),
        f"U blocks {list(u_dims)}, V blocks {list(v_dims)}",
    ):
        return None
    try:
        nonzero, certificate = euler_nonvanishing(U, V, flag)
    except HypothesisError as exc:
        _fail(report, "euler class nonvanishing", str(exc))
        return None
    if not _check(report, survival_item, nonzero, f"normal form {certificate.text()}"):
        return None
    return u_dims, v_dims, certificate


def bound_free_zero_set(U, V):
    """Zero-set bound dim U - dim V for maps U -> V of (Z/2)^l modules.

    Pipeline: maximal fixed subgroup, restriction to its fixed space, flag
    search, Euler-class nonvanishing.  The certified zero set sits inside the
    fixed space of the subgroup and carries a free action of the quotient.
    """
    require_tables(RepE, U, V)
    report = BoundReport(theorem="free-zero-set", hypotheses=[])

    if not _check(report, "V^E = 0", not V.fixed_dim, f"dim V^E = {V.fixed_dim}"):
        return report

    gap = U.dim - V.dim
    evidence = f"dim U - dim V = {U.dim} - {V.dim} = {gap}, dim U^E = {U.fixed_dim}"
    if not _check(report, "dim U - dim V > dim U^E", gap > U.fixed_dim, evidence):
        return report

    try:
        search = reduced_flag_search(U, V)
    except HypothesisError as exc:
        return _fail(report, "subgroup/flag construction", str(exc))

    F = search.subgroup
    U1, V1 = search.quotient_module, search.quotient_target
    evidence = f"dim F = {F.dim}, dim U^F - dim V^F = {U1.dim} - {V1.dim} = {U1.dim - V1.dim}"
    _check(report, "maximal subgroup F with dim U^F - dim V^F >= dim U - dim V", True, evidence)
    flag_item = "flag with dim U_i > dim V_i for every i (over the quotient group)"
    survival_item = "euler class of V^F survives in the quotient presentation"
    certified = _certify(report, U1, V1, search.flag, flag_item, survival_item)
    if certified is None:
        return report
    u_dims, v_dims, certificate = certified

    quotient_rank = U.rank - F.dim
    report.bound = gap
    report.witness = {
        "subgroup_basis": [list(r) for r in F.basis],
        "quotient_rank": quotient_rank,
        "flag": flag_to_doc(search.flag),
        "module_block_dims": list(u_dims),
        "target_block_dims": list(v_dims),
        "relations": certificate.presentation.relation_texts(),
        "certificate": certificate.text(),
    }
    report.notes.append(
        "the zero set contains a compact subspace of the fixed space of F, "
        f"free for the quotient group of rank {quotient_rank}"
    )
    return report


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
    report = BoundReport(theorem=f"stiefel-{kind}", hypotheses=[])

    if not _check(report, f"P^{cls.letter} = 0", not P.fixed_dim, f"fixed dimension {P.fixed_dim}"):
        return report

    lines_desc = "labels of P form l independent lines, each of multiplicity 1"
    mults_ok = len(P.items()) == l and all(m == 1 for _, m in P.items())
    flag = None
    if mults_ok:
        try:
            flag = cls.flag_type(l, P.support())  # T_i is the i-th declared label
        except InputError:
            mults_ok = False
    evidence = f"dim P = {P.dim} = l" if mults_ok else f"entries {P.items()}"
    if not _check(report, lines_desc, mults_ok, evidence):
        return report

    if not _check(report, f"Q^{cls.letter} = 0", not Q.fixed_dim, f"fixed dimension {Q.fixed_dim}"):
        return report
    if not _check(report, "n > l", n > l, f"n = {n}, l = {l}"):
        return report

    q_dims = decompose(Q, flag).dims
    if not _check(
        report,
        "dim Q_i <= n - i for every i",
        all(q_dims[i] <= n - (i + 1) for i in range(l)),
        f"Q blocks {list(q_dims)}, caps {[n - i for i in range(1, l + 1)]}",
    ):
        return report

    if real:
        certified = l * n - l * (l + 1) // 2 - Q.dim
        printed = l * n - l * (l - 1) // 2 - Q.dim
        report.bound = certified
        report.witness = {
            "flag": flag_to_doc(flag),
            "q_block_dims": list(q_dims),
            "bound_dimension_consistent": certified,
            "bound_printed": printed,
        }
        report.notes.append(
            "discrepancy: two top-degree conventions give bounds "
            f"{certified} (orbit-space dimension l*n - l(l+1)/2 - dim Q, certified) "
            f"and {printed} (variant l*n - l(l-1)/2 - dim Q, recorded as bound_printed)"
        )
        report.notes.append("zero-set non-empty")
    else:
        report.bound = 2 * l * n - l * l - 2 * Q.dim
        report.witness = {
            "flag": flag_to_doc(flag),
            "q_block_dims": list(q_dims),
        }
        report.notes.append("zero-set non-empty and carries a free torus action")
    return report


def bound_torus(U, V, variant="interior"):
    """Torus zero-set bounds: 2(dim_C U - dim_C V), or one less on an annulus.

    The interior variant certifies a rational flag and Euler nonvanishing; the
    annulus variant only compares dimensions and records the radial boundary
    condition as an assumed, unchecked item.
    """
    if variant not in ("interior", "annulus"):
        raise InputError(f"variant must be interior or annulus, got {variant!r}")
    require_tables(RepT, U, V)
    report = BoundReport(theorem=f"torus-{variant}", hypotheses=[])

    for name, rep in (("U", U), ("V", V)):
        fixed = rep.fixed_dim
        evidence = f"dim {name}^T = {fixed}" if fixed else "fixed dimension 0"
        if not _check(report, f"{name}^T = 0", not fixed, evidence):
            return report

    gap = U.dim - V.dim

    if variant == "annulus":
        evidence = f"dim_C U = {U.dim}, dim_C V = {V.dim}"
        if not _check(report, "dim_C U > dim_C V", gap > 0, evidence):
            return report
        report.hypotheses.append(
            HypothesisItem(
                "boundary condition assumed: the invariant scalar map is negative at the "
                "origin and positive for large norm",
                ASSUMED,
                "analytic input, not checked symbolically",
            )
        )
        report.bound = 2 * gap - 1
        report.notes.append(
            "bound applies to the intersection of the zero set with the level shell"
        )
        return report

    flag_item = "rational flag with dim U_i > dim V_i for every i"
    try:
        flag = find_rational_flag(U, V)
    except HypothesisError as exc:
        return _fail(report, flag_item, str(exc))
    survival_item = "euler class of V survives in the quotient presentation"
    certified = _certify(report, U, V, flag, flag_item, survival_item)
    if certified is None:
        return report
    u_dims, v_dims, certificate = certified

    report.bound = 2 * gap
    report.witness = {
        "flag": flag_to_doc(flag),
        "module_block_dims": list(u_dims),
        "target_block_dims": list(v_dims),
        "certificate": certificate.text(),
    }
    report.notes.append(
        "the zero set contains a compact subspace on which the torus acts with finite isotropy"
    )
    return report
