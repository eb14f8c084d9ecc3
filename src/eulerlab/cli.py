"""Command-line front end.

One JSON input document format serves every subcommand; flags override
document fields.  Results are printed as human-readable text or, with
--machine, as a single JSON document per line.  Exit codes: 0 success,
1 hypothesis failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import cohomology, polyring, sympow, torusmaps
from .bounds import bound_free_zero_set, bound_stiefel, bound_torus
from .errors import HypothesisError, InputError, ResourceLimitError, require_int
from .flagsearch import find_flag, find_rational_flag, reduced_flag_search
from .polyring import F2, Q, TriangularSystem, as_field, format_poly, parse_poly
from .reps import (
    ELEM_ABELIAN_2,
    RepE,
    decompose,
    flag_from_doc,
    flag_to_doc,
    group_from_doc,
    rep_entries_doc,
    rep_from_doc,
    spanning_flag_from_support,
)

_DOC_KEYS = {
    "group",
    "module",
    "target",
    "flag",
    "n",
    "degree",
    "field",
    "nvars",
    "poly",
    "system",
    "bounds",
}


def _load_document(args, required=True):
    if getattr(args, "input", None) and getattr(args, "inline", None):
        raise InputError("give either -i/--input or --inline, not both")
    text = None
    if getattr(args, "input", None):
        try:
            text = Path(args.input).read_text()
        except OSError as exc:
            raise InputError(f"cannot read input document: {exc}") from exc
    elif getattr(args, "inline", None):
        text = args.inline
    if text is None:
        if required:
            raise InputError("an input document is required (-i PATH or --inline JSON)")
        return {}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON input: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("the input document must be a JSON object")
    unknown = set(doc) - _DOC_KEYS
    if unknown:
        raise InputError(f"unknown fields {sorted(unknown)} in input document")
    return doc


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("EULERLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"EULERLAB_SEED must be an integer, got {env!r}") from exc
    return 0


def _doc_flag(doc, kind, rank):
    if "flag" in doc:
        return flag_from_doc(doc["flag"], kind, rank)
    return None


def _pair_from_doc(doc):
    U = rep_from_doc(doc, key="module")
    V = rep_from_doc(doc, key="target")
    return U, V


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (doc, text_lines, exit_code, errmsg)
# ---------------------------------------------------------------------------

def _cmd_reduce(args, seed):
    doc = _load_document(args, required=False)
    try:
        field = as_field(args.field or doc.get("field"))
    except InputError:
        raise InputError("field must be F2 or Q (flag --field or document field)") from None
    nvars = args.nvars if args.nvars is not None else doc.get("nvars")
    if nvars is None:
        raise InputError("the variable count is required (--nvars or document nvars)")
    nvars = require_int(nvars, "nvars")
    poly_text = args.poly or doc.get("poly")
    if not poly_text:
        raise InputError("a polynomial is required (--poly or document poly)")
    gen_texts = args.gen or doc.get("system")
    if not gen_texts:
        raise InputError("a triangular system is required (--gen or document system)")
    p = parse_poly(poly_text, field, nvars)
    system = TriangularSystem([parse_poly(g, field, nvars) for g in gen_texts])
    normal = polyring.reduce(p, system)
    out = {
        "normal_form": format_poly(normal),
        "zero_in_quotient": normal.is_zero(),
        "quotient_dim": system.quotient_dimension,
    }
    lines = [
        f"normal form: {out['normal_form']}",
        f"zero in quotient: {'yes' if out['zero_in_quotient'] else 'no'}",
        f"quotient dimension: {out['quotient_dim']}",
    ]
    return out, lines, 0, None


def _cmd_euler_check(args, seed):
    doc = _load_document(args)
    U, V = _pair_from_doc(doc)
    kind, rank = group_from_doc(doc["group"])
    flag = _doc_flag(doc, kind, rank)
    if flag is None:
        flag = find_flag(U, V) if kind == ELEM_ABELIAN_2 else find_rational_flag(U, V)
    nonzero, certificate = cohomology.euler_nonvanishing(U, V, flag)
    pres = certificate.presentation
    out = {
        "nonvanishing": nonzero,
        "certificate": certificate.text(),
        "flag": flag_to_doc(flag),
        "relations": pres.relation_texts(),
        "quotient_dim": pres.quotient_dimension,
    }
    lines = [
        f"nonvanishing: {'yes' if nonzero else 'no'}",
        f"certificate: {out['certificate']}",
        f"flag dual basis: {out['flag']['dual_basis']}",
        f"relations: {out['relations']}",
    ]
    return out, lines, 0, None


def _cmd_flag_find(args, seed):
    doc = _load_document(args)
    U, V = _pair_from_doc(doc)
    search = reduced_flag_search(U, V)
    u_dims = decompose(search.quotient_module, search.flag).dims
    v_dims = decompose(search.quotient_target, search.flag).dims
    out = {
        "subgroup_basis": [list(r) for r in search.subgroup.basis],
        "subgroup_dim": search.subgroup.dim,
        "quotient_rank": U.rank - search.subgroup.dim,
        "flag": flag_to_doc(search.flag),
        "module_block_dims": list(u_dims),
        "target_block_dims": list(v_dims),
    }
    lines = [
        f"subgroup basis: {out['subgroup_basis']}",
        f"quotient rank: {out['quotient_rank']}",
        f"flag dual basis: {out['flag']['dual_basis']}",
        f"module block dims: {out['module_block_dims']}",
        f"target block dims: {out['target_block_dims']}",
    ]
    return out, lines, 0, None


def _cmd_bound(args, seed):
    doc = _load_document(args)
    theorem = args.theorem
    if theorem == "free-zero-set":
        U, V = _pair_from_doc(doc)
        report = bound_free_zero_set(U, V)
    elif theorem in ("stiefel-real", "stiefel-complex"):
        P, Qrep = _pair_from_doc(doc)
        n = args.n if args.n is not None else doc.get("n")
        if n is None:
            raise InputError("the embedding dimension is required (-n or document n)")
        report = bound_stiefel(P, Qrep, require_int(n, "n"), kind=theorem.split("-", 1)[1])
    else:
        U, V = _pair_from_doc(doc)
        report = bound_torus(U, V, variant=theorem.split("-", 1)[1])
    out = report.to_doc()
    lines = report.to_text().splitlines()
    if not report.applicable:
        failed = "; ".join(h.description for h in report.failed_items())
        return out, lines, 1, f"hypothesis failure: {failed}"
    return out, lines, 0, None


def _cmd_flag_ring(args, seed):
    bounds = None
    if args.bounds:
        try:
            bounds = [int(x) for x in args.bounds.split(",")]
        except ValueError as exc:
            raise InputError(f"--bounds expects comma-separated integers: {exc}") from exc
    pres = cohomology.flag_ring(args.n, args.l, bounds=bounds)
    out = {
        "n": args.n,
        "l": args.l,
        "bounds": bounds,
        "relations": pres.relation_texts(),
        "lead_degrees": list(pres.lead_degrees),
        "quotient_dim": pres.quotient_dimension,
        "verification": None,
    }
    lines = [
        f"relations: {out['relations']}",
        f"lead degrees: {out['lead_degrees']}",
        f"quotient dimension: {out['quotient_dim']}",
    ]
    code = 0
    if args.verify:
        if bounds is not None:
            raise InputError("--verify applies to the unbounded flag ring only")
        rep = cohomology.verify_flag_ring(args.n, args.l, samples=args.samples, seed=seed)
        out["verification"] = rep.to_doc()
        lines.extend(rep.to_text().splitlines())
        if not rep.passed:
            code = 1
    return out, lines, code, None


def _cmd_sympow(args, seed):
    doc = _load_document(args)
    U = rep_from_doc(doc, key="module")
    if not isinstance(U, RepE):
        raise InputError("symmetric powers are computed for elem_abelian_2 groups")
    d = args.degree if args.degree is not None else doc.get("degree")
    if d is None:
        raise InputError("a degree is required (-d or document degree)")
    d = require_int(d, "degree")
    if "target" in doc:
        V = rep_from_doc(doc, key="target")
        kind, rank = group_from_doc(doc["group"])
        flag = _doc_flag(doc, kind, rank)
        if flag is None:
            flag = spanning_flag_from_support(U)
        report = sympow.min_embedding_k(U, V, d, flag)
        out = {
            "k": report.k,
            "degree_target": report.degree_target,
            "block_dims": list(report.block_dims),
            "target_block_dims": list(report.target_block_dims),
            "total_dim": report.total_dim,
            "fixed_dim": report.fixed_dim,
            "claims": dict(report.claims),
            "flag": flag_to_doc(flag),
        }
        lines = [
            f"minimal k: {report.k}",
            f"block dims: {out['block_dims']}",
            f"target block dims: {out['target_block_dims']}",
            f"total dim: {report.total_dim}",
            f"claims: {out['claims']}",
        ]
        return out, lines, 0, None
    table = sympow.sym_power_table(U, d)
    out = {
        "degree": d,
        "entries": rep_entries_doc(table.rep),
        "total_dim": table.total_dim,
    }
    lines = [f"degree: {d}", f"total dim: {table.total_dim}"]
    lines.extend(f"  char {e['char']}: {e['mult']}" for e in out["entries"])
    return out, lines, 0, None


def _cmd_torus_decompose(args, seed):
    doc = _load_document(args)
    U = rep_from_doc(doc, key="module")
    decomp = torusmaps.line_decomposition(U)
    out = decomp.to_doc()
    lines = [f"fixed dim: {out['fixed_dim']}"]
    for entry in out["lines"]:
        lines.append(f"line {entry['line']}: dim {entry['dim']}")
    return out, lines, 0, None


def _cmd_torus_example(args, seed):
    m = torusmaps.circle_example(args.a, args.b, args.c)
    report = torusmaps.verify_equivariance(m, samples=args.samples, tol=args.tol, seed=seed)
    out = {"map": m.to_doc(), "verification": report.to_doc()}
    lines = [
        f"map weights: source {[e['char'] for e in out['map']['source']['entries']]}, "
        f"target {[e['char'] for e in out['map']['target']['entries']]}",
        f"cofactors: a'={m.params['a_prime']}, b'={m.params['b_prime']}",
    ]
    lines.extend(report.to_text().splitlines())
    code = 0 if report.passed else 1
    err = None if report.passed else "hypothesis failure: equivariance verification failed"
    return out, lines, code, err


_HANDLERS = {
    "reduce": _cmd_reduce,
    "euler-check": _cmd_euler_check,
    "flag-find": _cmd_flag_find,
    "bound": _cmd_bound,
    "flag-ring": _cmd_flag_ring,
    "sympow": _cmd_sympow,
    "torus-decompose": _cmd_torus_decompose,
    "torus-example": _cmd_torus_example,
}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-i", "--input", help="path to a JSON input document")
    common.add_argument("--inline", help="inline JSON input document")
    common.add_argument("--machine", action="store_true", help="emit one JSON document per line")
    common.add_argument("--seed", type=int, default=None, help="override the sampling seed")

    parser = argparse.ArgumentParser(
        prog="eulerlab",
        description="Exact Euler-class computations and certified zero-set bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common], help="normal form against a triangular system")
    p.add_argument("--field", choices=[F2, Q])
    p.add_argument("--nvars", type=int)
    p.add_argument("--poly")
    p.add_argument("--gen", action="append", help="system generator (repeatable)")

    sub.add_parser("euler-check", parents=[common], help="euler-class nonvanishing certificate")
    sub.add_parser("flag-find", parents=[common], help="maximal subgroup and admissible flag")

    p = sub.add_parser("bound", parents=[common], help="certified zero-set dimension bound")
    p.add_argument(
        "--theorem",
        required=True,
        choices=["free-zero-set", "stiefel-real", "stiefel-complex", "torus-interior", "torus-annulus"],
    )
    p.add_argument("-n", type=int, help="embedding dimension for the stiefel bounds")

    p = sub.add_parser("flag-ring", parents=[common], help="flag-manifold cohomology presentation")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("--bounds", help="comma-separated nested dimension bounds n_1..n_l")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--samples", type=int, default=25)

    p = sub.add_parser("sympow", parents=[common], help="symmetric-power tables / minimal embedding k")
    p.add_argument("-d", "--degree", type=int)

    sub.add_parser("torus-decompose", parents=[common], help="rational-line decomposition")

    p = sub.add_parser("torus-example", parents=[common], help="explicit circle map with verification")
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-b", type=int, required=True)
    p.add_argument("-c", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--tol", type=float, default=torusmaps.DEFAULT_EQUIVARIANCE_TOL)

    return parser


def run(argv, stdout=None, stderr=None):
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        seed = _resolve_seed(args)
        doc, lines, code, errmsg = _HANDLERS[args.command](args, seed)
    except (InputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=err)
        return 1
    if errmsg:
        print(errmsg, file=err)
    if args.machine:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")), file=out)
    else:
        for line in lines:
            print(line, file=out)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
