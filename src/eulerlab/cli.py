"""Command-line front end.

Each subcommand is declared once, in `build_parser()`: its options, its
handler, and the fields of its JSON input document (-i PATH or --inline
JSON).  An option or field it does not read is an input error, also where
only the mode it runs in does not read it; a flag overrides the field of the
same name.  Document fields: reduce field, nvars, poly, system (the document
is optional); flag-find group, module, target; euler-check these and flag;
bound these and n (-n and n only with a stiefel theorem); sympow these, flag
and degree (flag only with a target); torus-decompose group, module.
flag-ring and torus-example read no document and are the only ones that
sample, seeded by --seed, else EULERLAB_SEED, else 0; flag-ring samples, and
reads the seed, only with --verify.  A document's group rank and the reduce
variable count are at most `errors.MAX_GROUP_RANK`, which the library's
constructors enforce.  An integer option, a --bounds item and EULERLAB_SEED
are an optional sign then ASCII digits.  Past the interpreter's int/str digit
limit an input integer is an input error, a coefficient to print a resource
limit.  Exit codes: 0 success, 1 hypothesis failure, 2 input error or limit.

Every call is a fresh process, so start-up is part of every answer.
Importing this module and building the parser loads eulerlab's modules and
the standard library's argparse, json, random and warnings (the last two
through `cohomology`), and nothing heavier: no numpy, which only
torus-example needs and loads when it samples; no fractions or decimal,
which `polyring` loads at the first rational that may not be integral, so F2
commands never do; and no `dataclasses` or `inspect` (the result records are
plain classes).

Every subcommand handler returns one `report.Report`, which renders itself:
`to_text()` gives the human-readable text, `to_doc()` the document printed
with --machine as a single JSON line, and `failure` is None on success or
else the stderr line for exit 1.  bound and sympow with a target return the
calculator's report as it is; the other handlers build theirs from (key,
label, value) rows, nesting the report of `verify_flag_ring` or
`verify_equivariance`.  `run` only prints the report and takes its exit code
from `failure`; errors raised before a report exists print `error: ...`
(exit 2) or `hypothesis failure: ...` (exit 1).
"""

import argparse
import contextlib
import functools
import json
import os
import re
import sys

from . import cohomology, polyring, sympow, torusmaps
from .bounds import bound_free_zero_set, bound_stiefel, bound_torus
from .errors import HypothesisError, InputError, ResourceLimitError, require_count, require_int, too_many_digits
from .flagsearch import find_flag, find_rational_flag, reduced_flag_search
from .polyring import F2, Q, TriangularSystem, as_field, format_poly, parse_poly
from .report import Report
from .reps import (
    RepE,
    decompose,
    flag_from_doc,
    flag_to_doc,
    line_blocks,
    rep_entries_doc,
    rep_from_doc,
    spanning_flag_from_support,
)

_PAIR_FIELDS = frozenset({"group", "module", "target"})
_INT_RE = re.compile(r"[+-]?[0-9]+")


def _int(text):
    """`text` as an int if it is an optional sign then ASCII digits; bare
    `int` would also read other scripts' digits, `_` separators and spaces."""
    if not _INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(too_many_digits("an integer")) from None


def _load_document(args, required=True):
    """The input document, whose fields must lie in the subcommand's `fields`."""
    if args.input:
        try:
            with open(args.input, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read input document: {exc}") from exc
    elif args.inline:
        text = args.inline
    elif required:
        raise InputError("an input document is required (-i PATH or --inline JSON)")
    else:
        return {}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON input: {exc}") from exc
    except ValueError:
        raise InputError(f"invalid JSON input: {too_many_digits('an integer')}") from None
    except RecursionError:
        raise InputError("invalid JSON input: nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("the input document must be a JSON object")
    unknown = set(doc) - args.fields
    if unknown:
        raise InputError(f"unknown fields {sorted(unknown)} in the {args.command} input document")
    return doc


def _flag_or_field(flag, doc, key, missing):
    """`flag` if it was given, else the document field `key`; `missing` is the error if neither is."""
    value = doc.get(key) if flag is None else flag
    if value is None or value == "" or value == []:
        raise InputError(missing)
    return value


def _refuse_unread(doc, key, mode):
    """A document field that `mode` never reads is an input error, not ignored."""
    if key in doc:
        raise InputError(f"document field {key} is not read by {mode}")


def _resolve_seed(args):
    """--seed if given, else the EULERLAB_SEED environment variable, else 0."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("EULERLAB_SEED", "0")
    try:
        return _int(env)
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"EULERLAB_SEED must be an integer, got {env!r}") from exc


def _doc_flag(doc, rep):
    return flag_from_doc(doc["flag"], rep.kind, rep.rank) if "flag" in doc else None


def _pair_from_doc(doc):
    return rep_from_doc(doc, key="module"), rep_from_doc(doc, key="target")


def _flag_rows(flag):
    doc = flag_to_doc(flag)
    return [("flag", None, doc), (None, "flag dual basis", doc["dual_basis"])]


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns a Report
# ---------------------------------------------------------------------------

def _cmd_reduce(args):
    doc = _load_document(args, required=False)
    field = as_field(_flag_or_field(args.field, doc, "field", "field must be F2 or Q (flag --field or document field)"))
    nvars = _flag_or_field(args.nvars, doc, "nvars", "the variable count is required (--nvars or document nvars)")
    poly_text = _flag_or_field(args.poly, doc, "poly", "a polynomial is required (--poly or document poly)")
    gen_texts = _flag_or_field(args.gen, doc, "system", "a triangular system is required (--gen or document system)")
    if not isinstance(gen_texts, list):
        raise InputError(f"document field system must be a list of polynomials, got {gen_texts!r}")
    p = parse_poly(poly_text, field, nvars)
    system = TriangularSystem([parse_poly(g, field, nvars) for g in gen_texts])
    normal = polyring.reduce(p, system)
    return Report([
        ("normal_form", "normal form", format_poly(normal)),
        ("zero_in_quotient", "zero in quotient", normal.is_zero()),
        ("quotient_dim", "quotient dimension", system.quotient_dimension),
    ])


def _cmd_euler_check(args):
    doc = _load_document(args)
    U, V = _pair_from_doc(doc)
    flag = _doc_flag(doc, U) or (find_flag if isinstance(U, RepE) else find_rational_flag)(U, V)
    nonzero, certificate = cohomology.euler_nonvanishing(U, V, flag)
    pres = certificate.presentation
    return Report([
        ("nonvanishing", "nonvanishing", nonzero),
        ("certificate", "certificate", certificate.text()),
        *_flag_rows(flag),
        ("relations", "relations", pres.relation_texts()),
        ("quotient_dim", None, pres.quotient_dimension),
    ])


def _cmd_flag_find(args):
    doc = _load_document(args)
    U, V = _pair_from_doc(doc)
    search = reduced_flag_search(U, V)
    return Report([
        ("subgroup_basis", "subgroup basis", [list(r) for r in search.subgroup.basis]),
        ("subgroup_dim", None, search.subgroup.dim),
        ("quotient_rank", "quotient rank", U.rank - search.subgroup.dim),
        *_flag_rows(search.flag),
        ("module_block_dims", "module block dims", list(decompose(search.quotient_module, search.flag).dims)),
        ("target_block_dims", "target block dims", list(decompose(search.quotient_target, search.flag).dims)),
    ])


def _cmd_bound(args):
    doc = _load_document(args)
    U, V = _pair_from_doc(doc)
    family, variant = args.theorem.split("-", 1)
    if family == "stiefel":
        n = _flag_or_field(args.n, doc, "n", "the embedding dimension is required (-n or document n)")
        return bound_stiefel(U, V, n, kind=variant)
    mode = f"bound --theorem {args.theorem}"
    if args.n is not None:
        raise InputError(f"-n is not read by {mode}")
    _refuse_unread(doc, "n", mode)
    if args.theorem == "free-zero-set":
        return bound_free_zero_set(U, V)
    return bound_torus(U, V, variant=variant)


def _cmd_flag_ring(args):
    bounds = None
    if args.bounds:
        try:
            bounds = [_int(x) for x in args.bounds.split(",")]
        except argparse.ArgumentTypeError as exc:
            raise InputError(f"--bounds expects comma-separated integers: {exc}") from exc
    require_count(args.samples, "sample count", cohomology.MAX_FLAG_RING_SAMPLES)
    seed = _resolve_seed(args) if args.verify else None
    if args.verify:
        # every refusal comes before any relation is built, a bad bound first
        if bounds is not None:
            cohomology._relation_degrees(args.n, args.l, bounds)
            raise InputError("--verify applies to the unbounded flag ring only")
        cohomology.require_verifiable(args.n, args.l)
    pres = cohomology.flag_ring(args.n, args.l, bounds=bounds)
    verification = None
    if args.verify:
        verification = cohomology.verify_flag_ring(args.n, args.l, args.samples, seed, presentation=pres)
    return Report([
        ("n", None, args.n),
        ("l", None, args.l),
        ("bounds", None, bounds),
        ("relations", "relations", pres.relation_texts()),
        ("lead_degrees", "lead degrees", list(pres.lead_degrees)),
        ("quotient_dim", "quotient dimension", pres.quotient_dimension),
        ("verification", None, verification),
    ])


def _cmd_sympow(args):
    doc = _load_document(args)
    U = rep_from_doc(doc, key="module")
    d = _flag_or_field(args.degree, doc, "degree", "a degree is required (-d or document degree)")
    d = require_int(d, "degree")
    if "target" not in doc:
        _refuse_unread(doc, "flag", "sympow without a target")
        power = sympow.sym_multiplicities(U, d)
        entries = rep_entries_doc(power)
        return Report([
            ("degree", "degree", d),
            ("entries", None, entries),
            ("total_dim", "total dim", power.dim),
            *((None, f"  char {e['char']}", e["mult"]) for e in entries),
        ])
    V = rep_from_doc(doc, key="target")
    return sympow.min_embedding_k(U, V, d, _doc_flag(doc, U) or spanning_flag_from_support(U))


def _cmd_torus_decompose(args):
    doc = _load_document(args)
    U = rep_from_doc(doc, key="module")
    lines = [
        {"line": list(lam), "dim": block.dim, "entries": rep_entries_doc(block)}
        for lam, block in line_blocks(U).items()
    ]
    return Report([
        ("fixed_dim", "fixed dim", U.fixed_dim),
        ("lines", None, lines),
        *((None, f"line {e['line']}", f"dim {e['dim']}") for e in lines),
    ])


def _cmd_torus_example(args):
    m = torusmaps.circle_example(args.a, args.b, args.c)
    report = torusmaps.verify_equivariance(m, samples=args.samples, tol=args.tol, seed=_resolve_seed(args))
    doc = m.to_doc()
    weights = [[e["char"] for e in doc[side]["entries"]] for side in ("source", "target")]
    return Report([
        ("map", None, doc),
        (None, "map weights", f"source {weights[0]}, target {weights[1]}"),
        (None, "cofactors", f"a'={m.params['a_prime']}, b'={m.params['b_prime']}"),
        ("verification", None, report),
    ])


def build_parser():
    """A new parser that declares every subcommand: its options, its handler
    and the fields its input document may carry."""
    machine = argparse.ArgumentParser(add_help=False)
    machine.add_argument("--machine", action="store_true", help="emit one JSON document per line")
    document = argparse.ArgumentParser(add_help=False, parents=[machine])
    source = document.add_mutually_exclusive_group()
    source.add_argument("-i", "--input", help="path to a JSON input document")
    source.add_argument("--inline", help="inline JSON input document")
    seeded = argparse.ArgumentParser(add_help=False, parents=[machine])
    seeded.add_argument("--seed", type=_int, help="sampling seed (default: EULERLAB_SEED, else 0)")

    parser = argparse.ArgumentParser(
        prog="eulerlab",
        description="Exact Euler-class computations and certified zero-set bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[document], help="normal form against a triangular system")
    p.set_defaults(handler=_cmd_reduce, fields=frozenset({"field", "nvars", "poly", "system"}))
    p.add_argument("--field", choices=[F2, Q])
    p.add_argument("--nvars", type=_int)
    p.add_argument("--poly")
    p.add_argument("--gen", action="append", help="system generator (repeatable)")

    p = sub.add_parser("euler-check", parents=[document], help="euler-class nonvanishing certificate")
    p.set_defaults(handler=_cmd_euler_check, fields=_PAIR_FIELDS | {"flag"})

    p = sub.add_parser("flag-find", parents=[document], help="maximal subgroup and admissible flag")
    p.set_defaults(handler=_cmd_flag_find, fields=_PAIR_FIELDS)

    p = sub.add_parser("bound", parents=[document], help="certified zero-set dimension bound")
    p.set_defaults(handler=_cmd_bound, fields=_PAIR_FIELDS | {"n"})
    p.add_argument(
        "--theorem",
        required=True,
        choices=["free-zero-set", "stiefel-real", "stiefel-complex", "torus-interior", "torus-annulus"],
    )
    p.add_argument("-n", type=_int, help="embedding dimension for the stiefel bounds")

    p = sub.add_parser("flag-ring", parents=[seeded], help="flag-manifold cohomology presentation")
    p.set_defaults(handler=_cmd_flag_ring)
    p.add_argument("-n", type=_int, required=True)
    p.add_argument("-l", type=_int, required=True)
    p.add_argument("--bounds", help="comma-separated nested dimension bounds n_1..n_l")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--samples", type=_int, default=25)

    p = sub.add_parser("sympow", parents=[document], help="symmetric-power tables / minimal embedding k")
    p.set_defaults(handler=_cmd_sympow, fields=_PAIR_FIELDS | {"flag", "degree"})
    p.add_argument("-d", "--degree", type=_int)

    p = sub.add_parser("torus-decompose", parents=[document], help="rational-line decomposition")
    p.set_defaults(handler=_cmd_torus_decompose, fields=frozenset({"group", "module"}))

    p = sub.add_parser("torus-example", parents=[seeded], help="explicit circle map with verification")
    p.set_defaults(handler=_cmd_torus_example)
    p.add_argument("-a", type=_int, required=True)
    p.add_argument("-b", type=_int, required=True)
    p.add_argument("-c", type=_int, required=True)
    p.add_argument("--samples", type=_int, default=10000)
    p.add_argument("--tol", type=float, default=torusmaps.DEFAULT_EQUIVARIANCE_TOL)

    return parser


_parser = functools.cache(build_parser)


def run(argv, stdout=None, stderr=None):
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.handler(args)
    except (InputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=err)
        return 1
    if report.failure:
        print(report.failure, file=err)
    if args.machine:
        print(json.dumps(report.to_doc(), sort_keys=True, separators=(",", ":")), file=out)
    else:
        print(report.to_text(), file=out)
    return 1 if report.failure else 0


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; Python flushes stdout again at exit (see the signal module's docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
